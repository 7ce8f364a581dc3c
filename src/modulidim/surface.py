"""Cohomology and intersection arithmetic on a product of two curves.

The surface is ``X = C1 x C2`` with the two factors Pic-independent, so
every line bundle splits as an external tensor product and is recorded by
its bidegree ``(a, b)``. Cohomology follows the Kunneth convolution of the
curve rules, the intersection form is the hyperbolic pairing
``(a, b) . (c, d) = a d + b c``, and degrees against a polarization
``(alpha, beta)`` are ``alpha a + beta b``.
"""

from __future__ import annotations

from .curves import (
    Curve,
    CurveLineBundle,
    Triviality,
    h0_h1,
)
from .dims import Dim, Record

Pair = tuple[int, int]


class PreconditionError(ValueError):
    """An operation was invoked outside its domain of validity."""


class ProductSurface(Record):
    """``C1 x C2`` with Pic-independent factors (an assumed input)."""

    __slots__ = ("curve1", "curve2")

    def __init__(self, curve1: Curve, curve2: Curve):
        object.__setattr__(self, "curve1", curve1)
        object.__setattr__(self, "curve2", curve2)

    @staticmethod
    def from_genera(g1: int, g2: int) -> "ProductSurface":
        return ProductSurface(Curve(g1), Curve(g2))

    @property
    def genera(self) -> Pair:
        return (self.curve1.genus, self.curve2.genus)


class Polarization(Record):
    """An ample class on the product; both entries must be positive."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: int, beta: int):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        self.__post_init__()

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("a polarization on a product of curves needs alpha, beta > 0")


class SurfaceTopology(Record):
    __slots__ = ("b1", "b2_minus")

    def __init__(self, b1: int, b2_minus: int):
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2_minus", b2_minus)


class BidegreeBundle(Record):
    """A line bundle on the product, split by factor.

    ``factor_triviality`` carries what is known about each factor beyond its
    degree; constructing the factors validates the flags against the degrees.
    """

    __slots__ = ("surface", "bidegree", "factor_triviality")

    def __init__(self, surface: ProductSurface, bidegree: Pair,
                 factor_triviality: tuple[Triviality, Triviality] = (Triviality.GENERIC,) * 2):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "bidegree", bidegree)
        object.__setattr__(self, "factor_triviality", factor_triviality)
        self.__post_init__()

    def __post_init__(self):
        self.factors()  # validates flag/degree consistency

    def factors(self) -> tuple[CurveLineBundle, CurveLineBundle]:
        a, b = self.bidegree
        ta, tb = self.factor_triviality
        return (
            CurveLineBundle(self.surface.curve1, a, ta),
            CurveLineBundle(self.surface.curve2, b, tb),
        )

    @staticmethod
    def structure_sheaf(surface: ProductSurface) -> "BidegreeBundle":
        return BidegreeBundle(
            surface, (0, 0), (Triviality.TRIVIAL, Triviality.TRIVIAL)
        )

    @staticmethod
    def of_type(surface: ProductSurface, a: int, b: int) -> "BidegreeBundle":
        """A bundle known only by its bidegree."""
        return BidegreeBundle(surface, (a, b))


def _twist_flag(flag: Triviality, power: int) -> Triviality:
    """Triviality of ``L^power``.

    Only certainties propagate: powers of a trivial bundle stay trivial. A
    known-nontrivial degree-zero bundle may become trivial under powers, so
    nothing is claimed for it.
    """
    if power == 0 or flag is Triviality.TRIVIAL:
        return Triviality.TRIVIAL
    if power == 1:
        return flag
    return Triviality.GENERIC


def twist(bundle: BidegreeBundle, power: int) -> BidegreeBundle:
    """``L^power``."""
    a, b = bundle.bidegree
    ta, tb = bundle.factor_triviality
    return BidegreeBundle(
        bundle.surface,
        (power * a, power * b),
        (_twist_flag(ta, power), _twist_flag(tb, power)),
    )


def kunneth_h(q: int, bundle: BidegreeBundle) -> Dim:
    """q-th cohomology dimension via the Kunneth convolution.

    ``h^q(X, L1 x L2) = sum over i + j = q of h^i(C1, L1) h^j(C2, L2)``,
    with no curve cohomology above degree 1. The result is exact exactly
    when every contributing factor is; intervals propagate through the
    products and sums.
    """
    if q not in (0, 1, 2):
        raise PreconditionError(f"cohomology degree must be 0, 1 or 2, got {q}")
    f1, f2 = bundle.factors()
    h0a, h1a = h0_h1(f1)
    h0b, h1b = h0_h1(f2)
    if q == 0:
        return h0a * h0b
    if q == 1:
        return h0a * h1b + h1a * h0b
    return h1a * h1b


def intersection(a: Pair, b: Pair) -> int:
    """The intersection pairing of bidegree classes: (a,b).(c,d) = ad + bc."""
    (x1, y1), (x2, y2) = a, b
    return x1 * y2 + y1 * x2


def degree_wrt(bundle: Pair, w: Polarization) -> int:
    a, b = bundle
    return w.alpha * a + w.beta * b


def is_destabilizing(bundle: Pair, w: Polarization) -> bool:
    """Whether a sub-line-bundle of this type destabilizes a degree-0 rank-2 bundle.

    Slope stability demands every sub-line-bundle have negative degree, so
    nonnegative degree (the semistable boundary included) destabilizes.
    """
    return degree_wrt(bundle, w) >= 0


def c2_of_extension(
    bundle: Pair,
    quotient_reflexive_bidegree: Pair,
    q_length: int,
) -> int:
    """Second Chern number of an extension of a rank-1 sheaf by a line bundle.

    The Whitney product rule gives the bidegree pairing of the sub and the
    reflexive hull of the quotient; points where the quotient fails to be a
    bundle add their total length.
    """
    if q_length < 0:
        raise PreconditionError("the quotient length must be >= 0")
    return intersection(bundle, quotient_reflexive_bidegree) + q_length


def surface_topology(surface: ProductSurface) -> SurfaceTopology:
    """First Betti number and the antiselfdual part of the second.

    For a product of curves ``b1 = 2(g1 + g2)``, and splitting
    ``b2 = 2 + 4 g1 g2`` by the Hodge decomposition leaves
    ``b2_minus = 2 g1 g2 + 1``.
    """
    g1, g2 = surface.genera
    return SurfaceTopology(b1=2 * (g1 + g2), b2_minus=2 * g1 * g2 + 1)


def moduli_real_dimension(c2: int, topology: SurfaceTopology) -> int:
    """Expected real dimension of the stable moduli space."""
    return 8 * c2 - 3 * (1 - topology.b1 + topology.b2_minus)

