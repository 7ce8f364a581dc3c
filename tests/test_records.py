"""The value contract every record of the package keeps: equality and hash
by field values, the ``Name(field=value, ...)`` repr, immutability, and
``copy``/``pickle`` round trips."""

import copy
import pickle

import pytest

import modulidim.cli  # noqa: F401  (loads every module that defines a record)
from modulidim.curves import Curve, CurveLineBundle, Triviality
from modulidim.dims import Dim, Record
from modulidim.kuranishi import (
    ComparisonReport,
    KuranishiReport,
    SplitStratum,
    StratumOutcome,
    component_report,
)
from modulidim.oracle import KoszulExtResult, KoszulModel, P1CechResult, ProductCechResult
from modulidim.skyscraper import KilledPairingsVerdict, PairingComponent
from modulidim.surface import BidegreeBundle, Polarization, ProductSurface, SurfaceTopology
from modulidim.unstable import (
    ConditionVerdict,
    SelectedTwist,
    UnstableFamilySpec,
    ValidationVerdict,
)

_SURFACE = ProductSurface(Curve(0), Curve(2))
_POLARIZATION = Polarization(2, 1)
_STRATUM = SplitStratum(_SURFACE, 1, -1, _POLARIZATION)
_REPORT = component_report(_STRATUM)
_OUTCOME = StratumOutcome(1, -1, 0, "L", _REPORT)
_FAMILY = UnstableFamilySpec(_SURFACE, (1, 1), (0, 0), (2, 2), 3)
_CONDITION = ConditionVerdict("c2-bound", "pass", "q = 3")
_COMPONENT = PairingComponent("h0-pairing", "vanishes")

# the reprs the frozen dataclasses gave these records
_SURFACE_REPR = "ProductSurface(curve1=Curve(genus=0), curve2=Curve(genus=2))"
_POLARIZATION_REPR = "Polarization(alpha=2, beta=1)"
_REPORT_REPR = (
    "KuranishiReport(g1=0, g2=2, m=1, n=-1, alpha=2, beta=1, q_length=0, t_u=Dim(9), "
    "comp_i_target=Dim(0), codim=Dim[1..3], equations=Dim[0..2])"
)
_OUTCOME_REPR = f"StratumOutcome(m=1, n=-1, q_length=0, orientation='L', report={_REPORT_REPR})"
_FAMILY_REPR = (
    f"UnstableFamilySpec(surface={_SURFACE_REPR}, ample=(1, 1), det=(0, 0), sub=(2, 2), c2=3)"
)
_CONDITION_REPR = "ConditionVerdict(name='c2-bound', status='pass', detail='q = 3')"
_COMPONENT_REPR = "PairingComponent(pairing='h0-pairing', reason='vanishes')"
_GENERIC = "<Triviality.GENERIC: 'generic'>"

SAMPLES = [
    (Dim(1, 2), "Dim[1..2]"),
    (Curve(2), "Curve(genus=2)"),
    (
        CurveLineBundle(Curve(1), 0, Triviality.NONTRIVIAL_DEGREE_ZERO),
        "CurveLineBundle(curve=Curve(genus=1), degree=0, "
        "triviality=<Triviality.NONTRIVIAL_DEGREE_ZERO: 'nontrivial-degree-zero'>)",
    ),
    (_SURFACE, _SURFACE_REPR),
    (_POLARIZATION, _POLARIZATION_REPR),
    (SurfaceTopology(4, 1), "SurfaceTopology(b1=4, b2_minus=1)"),
    (
        BidegreeBundle(_SURFACE, (1, -2)),
        f"BidegreeBundle(surface={_SURFACE_REPR}, bidegree=(1, -2), "
        f"factor_triviality=({_GENERIC}, {_GENERIC}))",
    ),
    (
        _STRATUM,
        f"SplitStratum(surface={_SURFACE_REPR}, m=1, n=-1, polarization={_POLARIZATION_REPR})",
    ),
    (_REPORT, _REPORT_REPR),
    (_OUTCOME, _OUTCOME_REPR),
    (
        ComparisonReport(
            _SURFACE, _POLARIZATION, 6, 2, (_OUTCOME,), ((0, 0, 0),), (), 5, "true"
        ),
        f"ComparisonReport(surface={_SURFACE_REPR}, polarization={_POLARIZATION_REPR}, "
        f"c2=6, bound=2, strata=({_OUTCOME_REPR},), excluded=((0, 0, 0),), "
        "not_established=(), min_margin=5, verdict='true')",
    ),
    (_FAMILY, _FAMILY_REPR),
    (_CONDITION, _CONDITION_REPR),
    (
        ValidationVerdict((_CONDITION,), True, ("assumed",), 3),
        f"ValidationVerdict(conditions=({_CONDITION_REPR},), passed=True, "
        "assumptions=('assumed',), q_length=3)",
    ),
    (SelectedTwist(2, _FAMILY, 3), f"SelectedTwist(t=2, family={_FAMILY_REPR}, q_length=3)"),
    (P1CechResult(-3, 0, 2, 5), "P1CechResult(k=-3, h0=0, h1=2, window=5)"),
    (
        ProductCechResult(2, -2, 0, 3, 0, 4),
        "ProductCechResult(a=2, b=-2, h0=0, h1=3, h2=0, window=4)",
    ),
    (KoszulModel(2, 3), "KoszulModel(a=2, b=3)"),
    (KoszulExtResult(6, 12, 6, 6), "KoszulExtResult(e0=6, e1=12, e2=6, length=6)"),
    (_COMPONENT, _COMPONENT_REPR),
    (
        KilledPairingsVerdict((_COMPONENT,), ("assumed",)),
        f"KilledPairingsVerdict(components=({_COMPONENT_REPR},), assumptions=('assumed',))",
    ),
]


def test_samples_cover_every_record_class():
    assert sorted(type(record).__name__ for record, _ in SAMPLES) == sorted(
        cls.__name__ for cls in Record.__subclasses__()
    )


@pytest.mark.parametrize(
    "record, expected_repr", SAMPLES, ids=[type(record).__name__ for record, _ in SAMPLES]
)
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
