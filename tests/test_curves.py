import pytest

from modulidim.curves import canonical_degree, h0_h1
from modulidim.dims import Dim
from modulidim.oracle import cech_h_p1
from modulidim.surface import ProductSurface
from reference import (
    CurveLineBundle,
    Triviality,
    bundle_h0_h1,
    euler_characteristic,
    serre_dual_degree,
)


def bundle(g, d, flag=Triviality.GENERIC):
    return CurveLineBundle(g, d, flag)


@pytest.mark.parametrize(
    "g,d,chi",
    [(0, 0, 1), (2, 5, 4), (3, 0, -2)],
)
def test_euler_characteristic(g, d, chi):
    assert euler_characteristic(bundle(g, d)) == chi


@pytest.mark.parametrize("g,expected", [(0, -2), (1, 0), (2, 2)])
def test_canonical_degree(g, expected):
    assert canonical_degree(g) == expected


@pytest.mark.parametrize(
    "g,d,expected",
    [(2, 5, -3), (0, -2, 0), (3, 4, 0)],
)
def test_serre_dual_degree(g, d, expected):
    assert serre_dual_degree(bundle(g, d)) == expected


class TestH0H1:
    def test_genus_zero_closed_form(self):
        assert h0_h1(0, 3) == (4, 4, 0, 0)
        assert h0_h1(0, -2) == (0, 0, 1, 1)
        assert h0_h1(0, -1) == (0, 0, 0, 0)

    def test_high_degree(self):
        assert h0_h1(2, 5) == (4, 4, 0, 0)

    def test_structure_sheaf(self):
        assert bundle_h0_h1(bundle(3, 0, Triviality.TRIVIAL)) == (Dim.exact(1), Dim.exact(3))
        # genus 0: degree 0 is above the canonical degree, rule 2 applies
        assert bundle_h0_h1(bundle(0, 0, Triviality.TRIVIAL)) == (Dim.exact(1), Dim.exact(0))

    def test_nontrivial_degree_zero(self):
        assert bundle_h0_h1(bundle(3, 0, Triviality.NONTRIVIAL_DEGREE_ZERO)) == (
            Dim.exact(0),
            Dim.exact(2),
        )

    def test_canonical(self):
        assert bundle_h0_h1(bundle(2, 2, Triviality.CANONICAL)) == (Dim.exact(2), Dim.exact(1))
        # genus 1: canonical is the structure sheaf
        assert bundle_h0_h1(bundle(1, 0, Triviality.CANONICAL)) == (Dim.exact(1), Dim.exact(1))
        # genus 0: the canonical degree -2 is negative, rule 1 applies
        assert bundle_h0_h1(bundle(0, -2, Triviality.CANONICAL)) == (Dim.exact(0), Dim.exact(1))

    def test_middle_range_is_interval(self):
        assert h0_h1(3, 2) == (0, 3, 0, 3)
        # the generic flag leaves the bounds of the integer rule
        assert bundle_h0_h1(bundle(3, 2)) == (Dim(0, 3), Dim(0, 3))

    def test_middle_range_lower_bound_respects_chi(self):
        h0_lower, _, h1_lower, _ = h0_h1(3, 4)  # chi = 2, still middle range
        assert h0_lower == 2 and h1_lower == 0

    def test_flag_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bundle(2, 1, Triviality.TRIVIAL)
        with pytest.raises(ValueError):
            bundle(2, 3, Triviality.CANONICAL)
        with pytest.raises(ValueError):
            bundle(0, 0, Triviality.NONTRIVIAL_DEGREE_ZERO)

    def test_negative_genus_rejected(self):
        # a genus enters the package only through the surface, which checks
        # the first factor's genus before the second's
        for genera, bad in [((-1, 0), -1), ((0, -2), -2), ((-1, -2), -1)]:
            with pytest.raises(ValueError, match=f"^genus must be >= 0, got {bad}$"):
                ProductSurface(*genera)


def _all_flags(g, d):
    flags = [Triviality.GENERIC]
    if d == 0:
        flags.append(Triviality.TRIVIAL)
        if g >= 1:
            flags.append(Triviality.NONTRIVIAL_DEGREE_ZERO)
    if d == 2 * g - 2:
        flags.append(Triviality.CANONICAL)
    return flags


def test_chi_identity_exhaustive():
    # h0 - h1 equals the Euler characteristic whenever both are exact
    for g in range(0, 7):
        for d in range(-30, 31):
            for flag in _all_flags(g, d):
                b = bundle(g, d, flag)
                h0, h1 = bundle_h0_h1(b)
                if h0.is_exact and h1.is_exact:
                    assert h0.value - h1.value == euler_characteristic(b), (g, d, flag)


_DUAL_FLAG = {
    Triviality.GENERIC: Triviality.GENERIC,
    Triviality.TRIVIAL: Triviality.CANONICAL,
    Triviality.CANONICAL: Triviality.TRIVIAL,
}


def test_serre_symmetry_exhaustive():
    # h1 at degree d equals h0 at the dual degree, when both are exact
    for g in range(0, 7):
        for d in range(-30, 31):
            for flag in (Triviality.GENERIC, Triviality.TRIVIAL, Triviality.CANONICAL):
                if flag is Triviality.TRIVIAL and d != 0:
                    continue
                if flag is Triviality.CANONICAL and d != 2 * g - 2:
                    continue
                b = bundle(g, d, flag)
                dual = bundle(g, serre_dual_degree(b), _DUAL_FLAG[flag])
                _, h1 = bundle_h0_h1(b)
                h0_dual, _ = bundle_h0_h1(dual)
                if h1.is_exact and h0_dual.is_exact:
                    assert h1.value == h0_dual.value, (g, d, flag)


def test_h1_vanishes_implies_exact_zero():
    for g in range(0, 7):
        for d in range(-30, 31):
            if d > 2 * g - 2:
                assert h0_h1(g, d)[2:] == (0, 0)


def test_h0_monotone_above_canonical_degree():
    for g in range(0, 7):
        bounds = [h0_h1(g, d) for d in range(2 * g - 1, 2 * g + 20)]
        assert all(lower == upper for lower, upper, _, _ in bounds)
        values = [lower for lower, _, _, _ in bounds]
        assert values == sorted(values)


def test_matches_line_oracle_at_genus_zero():
    for k in range(-30, 31):
        h0, h1, _ = cech_h_p1(k)
        assert h0_h1(0, k) == (h0, h0, h1, h1), k
