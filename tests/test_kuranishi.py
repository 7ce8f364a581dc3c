import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modulidim.curves import h0_h1
from modulidim.dims import Dim
from modulidim.kuranishi import (
    ComparisonReport,
    component_report,
    enumerate_strata,
    homology_comparison_report,
    nonfiltrable_report,
    toy_domain_dim,
    toy_unstable_codim,
)
from modulidim.surface import (
    Polarization,
    PreconditionError,
    ProductSurface,
    is_destabilizing,
    kunneth_h,
)
from reference import (
    BidegreeBundle,
    CurveLineBundle,
    bundle_h0_h1,
    bundle_kunneth_h,
    euler_characteristic,
    twist,
)

W = Polarization(1, 1)
P1P1 = ProductSurface(0, 0)
G22 = ProductSurface(2, 2)
G23 = ProductSurface(2, 3)


def _box_scan(w, c2, bound):
    """Every admissible type in the box ``|m|, |n| <= bound``, scanned."""
    mixed, excluded = [], []
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            l = c2 + 2 * m * n
            if l < 0 or w.alpha * m + w.beta * n < 0:
                continue
            if m * n >= 0:
                excluded.append((m, n, l))
            else:
                mixed.append((m, n, l, "standard" if m >= 1 else "swapped"))
    mixed.sort()
    excluded.sort()
    return mixed, excluded


def split(surface, m, n, w=W):
    """The arguments of ``component_report`` for one split stratum."""
    return surface, m, n, w


class TestToy:
    @pytest.mark.parametrize("m,n,expected", [(1, -1, 6), (2, -3, 46), (5, -1, 38)])
    def test_domain_dim(self, m, n, expected):
        assert toy_domain_dim(m, n) == expected

    @pytest.mark.parametrize("m,n,expected", [(1, -1, 3), (3, -2, 23), (1, -10, 39)])
    def test_codim(self, m, n, expected):
        assert toy_unstable_codim(m, n) == expected

    @pytest.mark.parametrize("m,n", [(0, -1), (1, 0), (2, 3), (-1, -1)])
    def test_rejects_unmixed_signs(self, m, n):
        with pytest.raises(PreconditionError):
            toy_domain_dim(m, n)
        with pytest.raises(PreconditionError):
            toy_unstable_codim(m, n)

    def test_convolution_identity(self):
        for m in range(1, 51):
            for n in range(-50, 0):
                assert toy_domain_dim(m, n) == (2 * m + 1) * (-2 * n - 1) + (
                    2 * m - 1
                ) * (-2 * n + 1)


class TestTangentDims:
    def test_lines(self):
        r = component_report(*split(P1P1, 1, -1))
        assert r.t_o == Dim.exact(0)
        assert r.t_u + r.t_s == Dim.exact(6)
        assert r.t_u + r.t_s == Dim.exact(toy_domain_dim(1, -1))

    def test_t_o_is_sum_of_genera(self):
        assert component_report(*split(G23, 1, -1)).t_o == Dim.exact(5)
        assert component_report(*split(G22, 4, -2)).t_o == Dim.exact(4)


def _kernel_grid():
    """Split strata for g1, g2 in 0..4, m in 1..8, n in -8..8 under two
    polarizations, destabilizing ones only."""
    for g1 in range(0, 5):
        for g2 in range(0, 5):
            s = ProductSurface(g1, g2)
            for w in (Polarization(1, 1), Polarization(4, 1)):
                for m in range(1, 9):
                    for n in range(-8, 9):
                        if is_destabilizing((m, n), w):
                            yield split(s, m, n, w)


# Every Dim quantity of the ledger, stored or derived.
_DIM_QUANTITIES = (
    "t_u", "t_o", "t_s", "comp_i_target", "comp_ii_target", "comp_iii_target",
    "codim", "equations",
)


def _kunneth_reference(stratum):
    """Every Dim field of the ledger, through the reference Kunneth
    convolution on the twists of L and the reference curve cascade on the
    second-factor inverse square."""
    s, m, n, _ = stratum
    sub = BidegreeBundle.of_type(s, m, n)
    o = BidegreeBundle.structure_sheaf(s)
    nu1 = 2 * m + s.g1 - 1
    h0_2, h1_2 = bundle_h0_h1(CurveLineBundle(s.g2, -2 * n))
    return {
        "t_u": bundle_kunneth_h(1, twist(sub, 2)),
        "t_o": bundle_kunneth_h(1, o),
        "t_s": bundle_kunneth_h(1, twist(sub, -2)),
        "comp_i_target": bundle_kunneth_h(2, twist(sub, 2)),
        "comp_ii_target": bundle_kunneth_h(2, o),
        "comp_iii_target": bundle_kunneth_h(2, twist(sub, -2)),
        "codim": Dim(nu1 * h0_2.lower, nu1 * h0_2.upper),
        "equations": Dim(nu1 * h1_2.lower, nu1 * h1_2.upper),
    }


class TestLedgerKernel:
    def test_every_dim_field_matches_kunneth_reference(self):
        intervals = set()
        for stratum in _kernel_grid():
            r = component_report(*stratum)
            got = {name: getattr(r, name) for name in _DIM_QUANTITIES}
            assert got == _kunneth_reference(stratum), stratum
            intervals.update(name for name, d in got.items() if not d.is_exact)
        # middle-range factor degrees occur on both the square and the inverse
        assert {"t_u", "comp_i_target", "t_s", "codim", "equations"} <= intervals

    def test_curve_rule_identities(self):
        for stratum in _kernel_grid():
            r = component_report(*stratum)
            s, m, n, _ = stratum
            assert bundle_h0_h1(CurveLineBundle(s.g1, -2 * m)) == (
                Dim.exact(0), Dim.exact(r.nu1)
            )
            assert h0_h1(s.g1, -2 * m) == (0, 0, r.nu1, r.nu1)
            assert r.chi2 == euler_characteristic(CurveLineBundle(s.g2, -2 * n))
            assert r.t_o == Dim.exact(s.g1 + s.g2)


class TestComponentReport:
    def test_genus_two_example(self):
        r = component_report(*split(G22, 3, -2))
        assert r.nu1 == 7
        assert r.margin == 21
        assert r.margin_stated == 15
        assert r.c2 == 12
        assert r.margin_exceeds_c2 and r.margin_established
        assert r.codim == Dim.exact(21) and r.equations == Dim.exact(0)

    def test_lines_example(self):
        r = component_report(*split(P1P1, 1, -1))
        assert r.nu1 == 1
        assert r.margin == 3 == toy_unstable_codim(1, -1)
        assert r.c2 == 2 and r.margin_exceeds_c2

    def test_chi_boundary_not_established(self):
        r = component_report(*split(G23, 1, -1))
        assert r.chi2 == 0
        assert not r.margin_established

    def test_rejects_m_below_one(self):
        with pytest.raises(PreconditionError):
            component_report(*split(P1P1, 0, 0))

    def test_rejects_non_destabilizing_stratum(self):
        # checked before m >= 1, so (0, -1) is refused as not destabilizing
        for m, n in [(1, -2), (0, -1)]:
            with pytest.raises(PreconditionError, match="destabilizes nothing"):
                component_report(*split(P1P1, m, n))
            with pytest.raises(PreconditionError, match="destabilizes nothing"):
                nonfiltrable_report(*split(P1P1, m, n), 1)

    def test_margin_is_codim_minus_equations_when_exact(self):
        for g1, g2 in [(0, 0), (1, 2), (2, 2), (3, 1)]:
            s = ProductSurface(g1, g2)
            for m in range(1, 6):
                for n in range(-5, 0):
                    if m + n < 0:
                        continue
                    r = component_report(*split(s, m, n))
                    if r.codim.is_exact and r.equations.is_exact:
                        assert r.margin == r.codim.value - r.equations.value

    def test_comp_ii_is_topological(self):
        r = component_report(*split(G23, 2, -1))
        assert r.comp_ii_target == Dim.exact(6)
        assert r.unavoidable_equations == 6


class TestSplitConsistencyOnLines:
    def test_margin_matches_toy_codim_on_diagonal(self):
        # the two formulas agree exactly when n = -m
        for m in range(1, 21):
            r = component_report(*split(P1P1, m, -m))
            assert r.margin == toy_unstable_codim(m, -m) == 4 * m * m - 1

    def test_off_diagonal_counterexample(self):
        # the agreement is a diagonal phenomenon: at (2, -1) the margin is
        # (2m-1)(-2n+1) = 9 while the toy codimension is -4mn-1 = 7
        r = component_report(*split(P1P1, 2, -1))
        assert r.margin == 9
        assert toy_unstable_codim(2, -1) == 7

    @pytest.mark.xfail(
        strict=True,
        reason="false off the diagonal; counterexample (m, n) = (2, -1): 9 != 7",
    )
    def test_full_grid_agreement_as_stated(self):
        for m in range(1, 21):
            for n in range(-20, 0):
                r = component_report(*split(P1P1, m, n))
                assert r.margin == toy_unstable_codim(m, n)


class TestMarginDominance:
    def test_dominates_stated_formula_for_positive_genus(self):
        for g1 in range(1, 5):
            for g2 in range(0, 5):
                s = ProductSurface(g1, g2)
                for m in range(1, 16):
                    for n in range(-8, 1):
                        if -2 * n - g2 + 1 <= 0 or m + n < 0:
                            continue
                        r = component_report(*split(s, m, n))
                        assert r.margin >= r.margin_stated, (g1, g2, m, n)
                        if g1 == 1:
                            assert r.margin == r.margin_stated

    def test_genus_zero_reverses(self):
        # at genus 0 the stated multiplier overcounts: the oracle-backed h1
        # of degree -2m is 2m - 1, below the stated 2m + 1
        r = component_report(*split(P1P1, 1, -1))
        assert r.nu1 == 1 < r.nu1_stated == 3
        assert r.margin < r.margin_stated


class TestMarginGrowth:
    def test_margin_minus_c2_increases_where_slope_positive(self):
        # slope in m is 2 (1 - n - g2), positive exactly for n <= -g2
        for g1 in range(0, 5):
            for g2 in range(0, 5):
                s = ProductSurface(g1, g2)
                for n in range(-6, 1):
                    if -2 * n - g2 + 1 <= 0 or n > -g2:
                        continue
                    gaps = []
                    for m in range(max(1, -n), 101):
                        r = component_report(*split(s, m, n))
                        gaps.append(r.margin - r.c2)
                    assert all(x < y for x, y in zip(gaps, gaps[1:])), (g1, g2, n)

    def test_constant_gap_counterexample(self):
        # chi2 > 0 does not imply growth: at g2 = 2, n = -1 the gap is
        # constant in m (slope 2 (1 - n - g2) = 0)
        s = ProductSurface(1, 2)
        gaps = [
            component_report(*split(s, m, -1)).margin
            - component_report(*split(s, m, -1)).c2
            for m in range(1, 6)
        ]
        assert len(set(gaps)) == 1

    @pytest.mark.xfail(
        strict=True,
        reason="false on the window 1 - g2 <= n < (1 - g2)/2, e.g. g2 = 2, n = -1",
    )
    def test_growth_on_full_chi_positive_domain_as_stated(self):
        for g1 in range(0, 5):
            for g2 in range(0, 5):
                s = ProductSurface(g1, g2)
                for n in range(-6, 1):
                    if -2 * n - g2 + 1 <= 0:
                        continue
                    gaps = []
                    for m in range(max(1, -n), 101):
                        r = component_report(*split(s, m, n))
                        gaps.append(r.margin - r.c2)
                    assert all(x < y for x, y in zip(gaps, gaps[1:])), (g1, g2, n)


class TestNonfiltrable:
    def test_zero_length_degenerates_to_split(self):
        for surface, m, n in [(P1P1, 1, -1), (G22, 3, -2), (G23, 2, -1)]:
            s = split(surface, m, n)
            assert nonfiltrable_report(*s, 0) == component_report(*s)

    def test_genus_two_example(self):
        r = nonfiltrable_report(*split(G22, 3, -2), 4)
        assert r.t_o == Dim.exact(12)
        assert r.c2 == 16
        assert r.margin == 21
        assert r.margin_exceeds_c2

    def test_lines_example(self):
        r = nonfiltrable_report(*split(P1P1, 1, -1), 2)
        assert r.t_o == Dim.exact(4)
        assert r.c2 == 4

    def test_t_u_shifts_by_length_when_h2_vanishes(self):
        base = component_report(*split(G22, 3, -2))
        assert base.comp_i_target == Dim.exact(0)
        r = nonfiltrable_report(*split(G22, 3, -2), 5)
        assert r.t_u == base.t_u + 5
        assert r.t_u_established

    def test_t_u_interval_when_h2_uncertain(self):
        # small m on a higher-genus first factor leaves h2 of the square
        # an interval, so the shifted count is only bounded
        s = ProductSurface(4, 2)
        r = nonfiltrable_report(*split(s, 1, -1), 3)
        assert not r.t_u_established
        assert not r.t_u.is_exact

    def test_t_s_shifts_by_length(self):
        base = component_report(*split(G22, 3, -2))
        r = nonfiltrable_report(*split(G22, 3, -2), 4)
        assert r.t_s == base.t_s + 4

    def test_pairing_reduction_attached(self):
        components, assumptions = nonfiltrable_report(*split(G22, 3, -2), 4).pairing_reduction
        assert len(components) == 2
        assert all(pairing and reason for pairing, reason in components)
        assert assumptions and all(assumptions)
        # with no point-supported directions there is nothing to kill
        assert component_report(*split(G22, 3, -2)).pairing_reduction == ((), ())

    def test_rejects_negative_length(self):
        with pytest.raises(PreconditionError):
            nonfiltrable_report(*split(G22, 3, -2), -1)
        with pytest.raises(PreconditionError):
            component_report(*split(G22, 3, -2)).at_length(-1)

    @settings(max_examples=300)
    @given(
        st.integers(0, 4), st.integers(0, 4), st.integers(1, 6), st.integers(-6, -1),
        st.integers(1, 6), st.integers(1, 6), st.integers(0, 8), st.integers(0, 8),
    )
    def test_at_length_composes_over_the_stored_square(self, g1, g2, m, n, alpha, beta, l, l2):
        surface, w = ProductSurface(g1, g2), Polarization(alpha, beta)
        assume(is_destabilizing((m, n), w))
        r = component_report(surface, m, n, w)
        assert r.at_length(l).at_length(l2) == r.at_length(l2)
        report = nonfiltrable_report(surface, m, n, w, l)
        _, h1, h2 = kunneth_h(surface, (2 * m, 2 * n))
        assert report.h1_square == h1
        # h1 of the square plus the length that h2 of the square leaves
        # unabsorbed, up to h1 plus the full length
        assert report.t_u == Dim(h1.lower + l - min(l, h2.upper), h1.upper + l)


class TestComparisonReport:
    def test_lines_c2_two(self):
        report = homology_comparison_report(P1P1, W, 2, 5)
        assert report.verdict == "true"
        assert report.weakest.margin == 3
        coords = {(m, n, r.q_length) for m, n, _, r in report.strata}
        assert (1, -1, 0) in coords
        assert not report.not_established

    def test_swapped_orientation_present_and_symmetric(self):
        report = homology_comparison_report(P1P1, W, 2, 5)
        by_coords = {(m, n): (orientation, r.margin) for m, n, orientation, r in report.strata}
        assert by_coords[(-1, 1)] == ("swapped", 3)
        assert by_coords[(1, -1)] == ("standard", 3)

    def test_outcome_coordinates_follow_the_enumeration(self):
        # a stratum holds the enumeration's (m, n) and orientation, and a
        # report of length l whose (m, n) is exchanged when the factors were swapped
        for surface, c2 in ((P1P1, 2), (G23, 7)):
            report = homology_comparison_report(surface, W, c2, 5)
            mixed, _ = enumerate_strata(surface, W, c2, 5)
            assert [(m, n, r.q_length, o) for m, n, o, r in report.strata] == mixed
            swapped = [(m, n, r) for m, n, o, r in report.strata if o == "swapped"]
            assert swapped
            assert all((r.m, r.n) == (n, m) for m, n, r in swapped)

    def test_not_established_path(self):
        report = homology_comparison_report(G23, W, 2, 5)
        assert report.verdict == "not-established"
        assert report.not_established

    def test_established_failure_wins_over_not_established(self):
        # (2, -2, l = 0) has an established margin 6 <= c2 = 8; the strata
        # with n = -1 have chi = 0 and stay listed as not established
        g03 = ProductSurface(0, 3)
        report = homology_comparison_report(g03, W, 8, 6)
        assert report.verdict == "false"
        assert report.weakest.margin == 6
        assert report.not_established
        assert all(s["n"] == -1 for s in report.not_established)

    def test_false_path(self):
        # (1, -1, l = 10) on genus (2, 2) has margin 3 below c2 = 12
        report = homology_comparison_report(G22, W, 12, 10)
        assert report.verdict == "false"
        assert report.weakest.margin == 3

    def test_excluded_strata_are_reported(self):
        report = homology_comparison_report(P1P1, W, 2, 5)
        assert report.excluded
        assert all(l == 2 + 2 * m * n and m * n >= 0 for m, n, l in report.excluded)

    def test_enumeration_respects_box_degree_and_length(self):
        mixed, excluded = enumerate_strata(P1P1, Polarization(1, 2), 4, 3)
        for m, n, l, _ in mixed:
            assert abs(m) <= 3 and abs(n) <= 3
            assert l == 4 + 2 * m * n >= 0
            assert m + 2 * n >= 0
            assert m * n < 0

    def test_enumeration_equals_the_box_scan(self):
        # the hyperbola walk and the direct quadrant give what scanning the
        # whole box with the admissibility tests gives, in the same order
        for w in (Polarization(1, 1), Polarization(1, 3), Polarization(4, 1)):
            for c2 in range(1, 14):
                for bound in (1, 2, 5, 8):
                    assert enumerate_strata(P1P1, w, c2, bound) == _box_scan(w, c2, bound)

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError):
            homology_comparison_report(P1P1, W, 0, 5)
        with pytest.raises(PreconditionError):
            homology_comparison_report(P1P1, W, 2, 0)
        with pytest.raises(PreconditionError):
            enumerate_strata(P1P1, W, 0, 5)
        with pytest.raises(PreconditionError):
            enumerate_strata(P1P1, W, 2, 0)

    def test_verdict_follows_the_stored_strata(self):
        # the minimum margin, verdict and not-established list are read from
        # the strata and c2, so the same strata against a smaller c2 decide anew
        report = homology_comparison_report(ProductSurface(0, 3), W, 8, 6)
        assert (report.verdict, report.weakest.margin) == ("false", 6)
        lower = ComparisonReport(5, report.strata, report.excluded)
        assert (lower.verdict, lower.weakest) == ("not-established", report.weakest)
        assert lower.not_established == report.not_established
        empty = ComparisonReport(8, (), ())
        assert (empty.verdict, empty.weakest, empty.not_established) == ("true", None, ())

    def test_vacuously_true_when_no_strata(self):
        # c2 = 1 admits no mixed stratum: l = 1 + 2mn < 0 for all mn < 0
        report = homology_comparison_report(P1P1, W, 1, 5)
        assert report.weakest is None
        assert report.verdict == "true"
        assert not report.strata

    def test_weakest_is_none_when_nothing_is_established(self):
        # both strata of genus (3, 3) at c2 = 2 have chi = 0
        report = homology_comparison_report(ProductSurface(3, 3), W, 2, 5)
        assert report.strata
        assert not any(r.margin_established for *_, r in report.strata)
        assert report.weakest is None

    def test_weakest_is_the_first_of_tied_strata(self):
        # with equal genera and alpha = beta a stratum and its swap have equal
        # margins; the weakest is the first of them in strata order
        for g in (0, 1, 2):
            report = homology_comparison_report(ProductSurface(g, g), Polarization(2, 2), 6, 3)
            reports = [r for *_, r in report.strata if r.margin_established]
            least = min(r.margin for r in reports)
            tied = [r for r in reports if r.margin == least]
            assert len(tied) >= 2
            assert report.weakest is tied[0]

    def test_verdict_is_false_exactly_when_the_weakest_margin_fails(self):
        verdicts = set()
        for surface in (P1P1, G22, G23, ProductSurface(0, 3), ProductSurface(3, 1)):
            for c2 in range(1, 16):
                report = homology_comparison_report(surface, W, c2, c2)
                weakest = report.weakest
                failed = weakest is not None and weakest.margin <= c2
                assert (report.verdict == "false") == failed, (surface, c2)
                verdicts.add(report.verdict)
        assert verdicts == {"true", "false", "not-established"}

    def test_margin_and_c2_independent_of_polarization(self):
        polarizations = [Polarization(1, 1), Polarization(2, 1), Polarization(1, 3)]
        per_w = []
        for w in polarizations:
            report = homology_comparison_report(G22, w, 8, 6)
            per_w.append({(m, n): (r.margin, r.c2) for m, n, _, r in report.strata})
        shared = set(per_w[0])
        for table in per_w[1:]:
            shared &= set(table)
        assert shared
        for key in shared:
            values = {table[key] for table in per_w}
            assert len(values) == 1, key
