import pytest

from modulidim.oracle import koszul_ext
from reference import ext_dims_QQ


@pytest.mark.parametrize("l,expected", [(1, (1, 2, 1)), (0, (0, 0, 0)), (4, (4, 8, 4))])
def test_ext_dims_QQ(l, expected):
    assert ext_dims_QQ(l) == expected


@pytest.mark.parametrize("call", [ext_dims_QQ], ids=["ext_dims_QQ"])
def test_negative_length_rejected(call):
    with pytest.raises(ValueError, match="length"):
        call(-1)


def test_linearity_under_disjoint_support():
    for l1 in range(0, 5):
        for l2 in range(0, 5):
            a = ext_dims_QQ(l1)
            b = ext_dims_QQ(l2)
            ab = ext_dims_QQ(l1 + l2)
            assert tuple(x + y for x, y in zip(a, b)) == ab


def test_local_to_global_consistency():
    local_lengths = (1, 2, 4)
    per_point = [(l, 2 * l, l) for l in local_lengths]
    totals = tuple(sum(col) for col in zip(*per_point))
    assert totals == ext_dims_QQ(sum(local_lengths))


def test_euler_consistency():
    for l in range(0, 10):
        e0, e1, e2 = ext_dims_QQ(l)
        assert e0 - e1 + e2 == 0


def test_closed_form_matches_koszul_oracle():
    # monomial complete intersections up to length 9
    for a in range(1, 10):
        for b in range(1, 10):
            if a * b > 9:
                continue
            assert koszul_ext(a, b) == ext_dims_QQ(a * b)
