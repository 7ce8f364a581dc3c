"""The value contract every record of the package, and of the test
reference, keeps: equality and hash by field values, the
``Name(field=value, ...)`` repr, immutability, ``copy``/``pickle`` round
trips, and a constructor that binds arguments like a plain signature and
runs the record's checks."""

import copy
import pickle

import pytest

import modulidim.cli  # noqa: F401  (loads every module that defines a record)
from modulidim.dims import Dim, Record
from modulidim.kuranishi import component_report, homology_comparison_report
from modulidim.oracle import koszul_ext
from modulidim.surface import Polarization, PreconditionError, ProductSurface
from modulidim.unstable import validate
from reference import BidegreeBundle, CurveLineBundle, Triviality

_SURFACE = ProductSurface(0, 2)
_POLARIZATION = Polarization(2, 1)
_REPORT = component_report(_SURFACE, 1, -1, _POLARIZATION)

# the `Name(field=value, ...)` reprs of these records
_SURFACE_REPR = "ProductSurface(g1=0, g2=2)"
_POLARIZATION_REPR = "Polarization(alpha=2, beta=1)"
_REPORT_REPR = (
    "KuranishiReport(g1=0, g2=2, m=1, n=-1, q_length=0, h1_square=Dim(9), "
    "comp_i_target=Dim(0), codim=Dim[1..3], equations=Dim[0..2])"
)
_GENERIC = "<Triviality.GENERIC: 'generic'>"

SAMPLES = [
    (Dim(1, 2), "Dim[1..2]"),
    (
        CurveLineBundle(1, 0, Triviality.NONTRIVIAL_DEGREE_ZERO),
        "CurveLineBundle(genus=1, degree=0, "
        "triviality=<Triviality.NONTRIVIAL_DEGREE_ZERO: 'nontrivial-degree-zero'>)",
    ),
    (_SURFACE, _SURFACE_REPR),
    (_POLARIZATION, _POLARIZATION_REPR),
    (
        BidegreeBundle(_SURFACE, (1, -2)),
        f"BidegreeBundle(surface={_SURFACE_REPR}, bidegree=(1, -2), "
        f"factor_triviality=({_GENERIC}, {_GENERIC}))",
    ),
    (_REPORT, _REPORT_REPR),
    (
        # a computed report, so that its excluded types are what the
        # enumeration returns; its one stratum is _REPORT
        homology_comparison_report(_SURFACE, _POLARIZATION, 2, 1),
        f"ComparisonReport(c2=2, strata=((1, -1, 'standard', {_REPORT_REPR}),), "
        "excluded=((0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 4)))",
    ),
]


_IDS = [type(record).__name__ for record, _ in SAMPLES]


def test_samples_cover_every_record_class():
    assert sorted(type(record).__name__ for record, _ in SAMPLES) == sorted(
        cls.__name__ for cls in Record.__subclasses__()
    )


@pytest.mark.parametrize("record, expected_repr", SAMPLES, ids=_IDS)
def test_record_contract(record, expected_repr):
    cls = type(record)
    values = {name: getattr(record, name) for name in cls.__slots__}

    # equal field values, by position or by name, make equal records with one hash
    for twin in (cls(*values.values()), cls(**values)):
        assert twin is not record
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
    assert record != object() and record != tuple(values.values())

    assert repr(record) == expected_repr

    for name in (*values, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in cls.__slots__} == values

    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record and hash(clone) == hash(record)


@pytest.mark.parametrize("record, _repr", SAMPLES, ids=_IDS)
def test_bad_calls_raise_type_error(record, _repr):
    # the four ways a call can miss a plain signature
    cls = type(record)
    values = {name: getattr(record, name) for name in cls.__slots__}
    first, *others = cls.__slots__
    bad_calls = {
        "too many": lambda: cls(*values.values(), 0),
        "missing": lambda: cls(**{name: values[name] for name in others}),
        "unknown keyword": lambda: cls(**values, extra=0),
        "given twice": lambda: cls(values[first], **values),
    }
    for kind, call in bad_calls.items():
        try:
            call()
        except TypeError:
            continue
        pytest.fail(f"{cls.__name__}: {kind} raised no TypeError")


# Every record with a check in ``__post_init__``, and every function that
# takes its inputs as plain values and checks them first: valid arguments,
# one replaced by a value the check refuses, and the error it raises.
CHECKED = [
    (Dim, {"lower": 1, "upper": 2}, {"lower": -1}, ValueError),
    (Dim, {"lower": 1, "upper": 2}, {"upper": 0}, ValueError),
    (ProductSurface, {"g1": 0, "g2": 2}, {"g1": -1}, ValueError),
    (ProductSurface, {"g1": 0, "g2": 2}, {"g2": -1}, ValueError),
    (
        CurveLineBundle,
        {"genus": 1, "degree": 0, "triviality": Triviality.TRIVIAL},
        {"degree": 1},
        ValueError,
    ),
    (Polarization, {"alpha": 2, "beta": 1}, {"beta": 0}, ValueError),
    (
        BidegreeBundle,
        {"surface": _SURFACE, "bidegree": (0, 0),
         "factor_triviality": (Triviality.TRIVIAL, Triviality.TRIVIAL)},
        {"bidegree": (0, 1)},
        ValueError,
    ),
    (
        validate,
        {"surface": _SURFACE, "ample": (1, 1), "det": (0, 0), "sub": (2, 2), "c2": 3},
        {"ample": (0, 1)},
        PreconditionError,
    ),
    (koszul_ext, {"a": 2, "b": 3}, {"a": 0}, ValueError),
]


@pytest.mark.parametrize(
    "make, good, bad, error", CHECKED, ids=[f"{c[0].__name__}-{next(iter(c[2]))}" for c in CHECKED]
)
def test_checks_run_by_position_and_by_keyword(make, good, bad, error):
    assert make(*good.values()) == make(**good)
    fields = {**good, **bad}
    with pytest.raises(error):
        make(*fields.values())
    with pytest.raises(error):
        make(**fields)


def test_only_records_with_defaults_or_hot_paths_define_init():
    # every other record is built by Record.__init__; Dim and KuranishiReport
    # are built tens of thousands of times per sweep, and the two records of
    # the test reference give a field a default
    own_init = {
        (cls.__module__.partition(".")[0], cls.__name__)
        for cls in Record.__subclasses__()
        if "__init__" in vars(cls)
    }
    assert own_init == {
        ("modulidim", "Dim"),
        ("modulidim", "KuranishiReport"),
        ("reference", "CurveLineBundle"),
        ("reference", "BidegreeBundle"),
    }
