import pytest

from modulidim.dims import Dim
from modulidim.surface import (
    Polarization,
    ProductSurface,
    c2_of_extension,
    degree_wrt,
    intersection,
    is_destabilizing,
    kunneth_h,
    moduli_real_dimension,
)
from reference import BidegreeBundle, Triviality, bundle_kunneth_h, twist

P1P1 = ProductSurface(0, 0)
G22 = ProductSurface(2, 2)
G23 = ProductSurface(2, 3)


class TestKunneth:
    def test_structure_sheaf_on_lines(self):
        # on the lines degree 0 is above the canonical degree: generic and
        # trivial agree
        o = BidegreeBundle.structure_sheaf(P1P1)
        assert kunneth_h(P1P1, (0, 0)) == (Dim.exact(1), Dim.exact(0), Dim.exact(0))
        for q, expected in enumerate((1, 0, 0)):
            assert bundle_kunneth_h(q, o) == Dim.exact(expected)

    def test_structure_sheaf_positive_genus(self):
        o = BidegreeBundle.structure_sheaf(G23)
        assert bundle_kunneth_h(1, o) == Dim.exact(5)
        assert bundle_kunneth_h(2, o) == Dim.exact(6)
        # the generic bundle of bidegree (0, 0) leaves only bounds
        assert kunneth_h(G23, (0, 0))[2] == Dim(2, 6)

    def test_top_degree_is_product_of_h1s(self):
        # for a mixed bidegree the only contribution at q=2 is h1 x h1
        h1a = 2 - 1 + 4  # degree -4 on genus 2
        h1b = 0  # degree 6 > 2g-2
        assert kunneth_h(G22, (-4, 6))[2] == Dim.exact(h1a * h1b)
        assert kunneth_h(G22, (-4, -6))[2] == Dim.exact(5 * 7)

    def test_factor_symmetry(self):
        for g1, g2 in [(0, 0), (0, 2), (2, 3)]:
            s = ProductSurface(g1, g2)
            sw = ProductSurface(g2, g1)
            for a in range(-4, 5):
                for b in range(-4, 5):
                    assert kunneth_h(s, (a, b)) == kunneth_h(sw, (b, a)), (g1, g2, a, b)

    def test_chi_multiplicativity(self):
        for g1, g2 in [(0, 0), (1, 2), (3, 3)]:
            s = ProductSurface(g1, g2)
            for a in range(-4, 5):
                for b in range(-4, 5):
                    hs = kunneth_h(s, (a, b))
                    assert hs == tuple(
                        bundle_kunneth_h(q, BidegreeBundle.of_type(s, a, b)) for q in (0, 1, 2)
                    ), (g1, g2, a, b)
                    if all(h.is_exact for h in hs):
                        total = hs[0].value - hs[1].value + hs[2].value
                        chi1 = a - g1 + 1
                        chi2 = b - g2 + 1
                        assert total == chi1 * chi2, (g1, g2, a, b)


class TestIntersection:
    def test_mixed_type(self):
        assert intersection((1, -1), (-1, 1)) == 2

    def test_fiber_classes(self):
        assert intersection((1, 0), (0, 1)) == 1

    def test_self_intersection(self):
        assert intersection((2, 3), (2, 3)) == 12

    def test_symmetric_bilinear(self):
        pairs = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
        for A in pairs:
            for B in pairs:
                assert intersection(A, B) == intersection(B, A)
                assert intersection(A, A) == 2 * A[0] * A[1]
        # bilinearity in the first slot
        for (a, b), (c, d), (e, f) in [((1, 2), (3, -1), (0, 5)), ((-2, 1), (1, 1), (4, -3))]:
            assert intersection((a + c, b + d), (e, f)) == intersection(
                (a, b), (e, f)
            ) + intersection((c, d), (e, f))


class TestDegreeAndStability:
    def test_degree_examples(self):
        assert degree_wrt((3, -1), Polarization(1, 1)) == 2
        assert degree_wrt((1, -1), Polarization(1, 2)) == -1
        assert degree_wrt((0, 0), Polarization(5, 7)) == 0

    def test_degree_linearity_in_bidegree(self):
        w = Polarization(2, 3)
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-2, 3):
                    for d in range(-2, 3):
                        assert degree_wrt((a + c, b + d), w) == degree_wrt(
                            (a, b), w
                        ) + degree_wrt((c, d), w)

    def test_degree_linearity_in_polarization(self):
        pairs = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
        for a1, b1 in [(1, 1), (2, 5)]:
            for a2, b2 in [(1, 2), (3, 1)]:
                total = Polarization(a1 + a2, b1 + b2)
                for L in pairs:
                    assert degree_wrt(L, total) == degree_wrt(
                        L, Polarization(a1, b1)
                    ) + degree_wrt(L, Polarization(a2, b2))

    def test_is_destabilizing(self):
        assert is_destabilizing((1, -1), Polarization(1, 1))
        assert not is_destabilizing((-2, 1), Polarization(1, 1))
        assert is_destabilizing((10, -4), Polarization(1, 1))

    def test_polarization_positivity(self):
        with pytest.raises(ValueError):
            Polarization(0, 1)


class TestChernAndTopology:
    def test_c2_of_extension(self):
        assert c2_of_extension((1, -1), 0) == 2
        assert c2_of_extension((2, -3), 5) == 17
        assert c2_of_extension((0, 0), 7) == 7

    def test_surface_topology(self):
        # at c2 = 0 the dimension is -3 (1 - b1 + b2_minus): (b1, b2_minus)
        # is (0, 1) on the lines, (10, 13) at genera (2, 3), (4, 3) at (1, 1)
        assert moduli_real_dimension(0, P1P1) == -3 * (1 - 0 + 1)
        assert moduli_real_dimension(0, G23) == -3 * (1 - 10 + 13)
        assert moduli_real_dimension(0, ProductSurface(1, 1)) == -3 * (1 - 4 + 3)

    def test_topology_against_betti_convolution(self):
        # independent check: convolve the curve Betti vectors (1, 2g, 1)
        # and split b2 by the Hodge numbers h^{2,0} = h^{0,2} = g1 g2
        for g1 in range(0, 5):
            for g2 in range(0, 5):
                betti1 = [1, 2 * g1, 1]
                betti2 = [1, 2 * g2, 1]
                b1 = betti1[0] * betti2[1] + betti1[1] * betti2[0]
                b2 = sum(betti1[i] * betti2[2 - i] for i in range(3))
                b2_plus = 2 * g1 * g2 + 1
                for c2 in (0, 1, 7):
                    assert moduli_real_dimension(c2, ProductSurface(g1, g2)) == (
                        8 * c2 - 3 * (1 - b1 + (b2 - b2_plus))
                    ), (g1, g2, c2)

    def test_moduli_real_dimension(self):
        assert moduli_real_dimension(2, P1P1) == 10
        assert moduli_real_dimension(12, G22) == 90
        assert moduli_real_dimension(0, P1P1) == -6


class TestTwist:
    def test_trivial_powers_stay_trivial(self):
        o = BidegreeBundle.structure_sheaf(G22)
        sq = twist(o, 2)
        assert sq.factor_triviality == (Triviality.TRIVIAL, Triviality.TRIVIAL)

    def test_generic_twist_drops_knowledge(self):
        b = BidegreeBundle.of_type(G22, 1, -1)
        assert twist(b, 2).factor_triviality == (
            Triviality.GENERIC,
            Triviality.GENERIC,
        )
        assert twist(b, 2).bidegree == (2, -2)
