import pytest
from hypothesis import given
from hypothesis import strategies as st

from modulidim.dims import Dim, IndeterminateDimensionError


def test_exact_roundtrip():
    d = Dim.exact(5)
    assert d.is_exact and d.value == 5
    assert d == Dim(5, 5)


def test_interval_normalizes_to_exact():
    assert Dim(3, 3) == Dim.exact(3) and Dim(3, 3).is_exact
    assert repr(Dim(3, 3)) == "Dim(3)"


def test_negative_lower_rejected():
    with pytest.raises(ValueError):
        Dim.exact(-1)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Dim(4, 2)


def test_value_raises_on_interval():
    with pytest.raises(IndeterminateDimensionError):
        Dim(0, 3).value


def test_addition():
    assert Dim.exact(2) + Dim.exact(3) == Dim.exact(5)
    assert Dim.exact(2) + 3 == Dim.exact(5)
    assert Dim(1, 4) + Dim.exact(2) == Dim(3, 6)
    assert sum([Dim.exact(1), Dim.exact(2)], Dim.exact(0)) == Dim.exact(3)
    assert Dim(2, 5) + -2 == Dim(0, 3)
    # an int shifts both ends, and a negative lower end is still refused
    with pytest.raises(ValueError):
        Dim(1, 4) + -2
    with pytest.raises(TypeError):
        Dim.exact(1) + 1.0


def test_interval_ordering_invariant():
    # lower <= upper across addition
    for lo1, up1 in [(0, 2), (1, 4), (3, 3)]:
        for lo2, up2 in [(0, 0), (2, 5), (1, 7)]:
            d = Dim(lo1, up1) + Dim(lo2, up2)
            assert d.lower <= d.upper


_intervals = st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
    lambda ends: Dim(min(ends), max(ends))
)


@given(_intervals, _intervals)
def test_arithmetic_is_sound_and_tight(a, b):
    # every x + y with x in a and y in b lies in a + b, and both ends of the
    # sum are attained
    total = a + b
    sums = set()
    for x in range(a.lower, a.upper + 1):
        for y in range(b.lower, b.upper + 1):
            assert total.lower <= x + y <= total.upper
            sums.add(x + y)
    assert {total.lower, total.upper} <= sums


def test_doc_forms():
    assert Dim.exact(4).to_doc("closed-form") == {
        "kind": "exact",
        "value": 4,
        "provenance": "closed-form",
    }
    assert Dim(0, 3).to_doc("closed-form") == {
        "kind": "interval",
        "lower": 0,
        "upper": 3,
        "provenance": "closed-form",
    }
