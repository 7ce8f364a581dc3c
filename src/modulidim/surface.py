"""Cohomology and intersection arithmetic on a product of two curves.

The surface is ``X = C1 x C2`` with the two factors Pic-independent, so
every line bundle splits as an external tensor product and is recorded by
its bidegree ``(a, b)``. The cohomology of the generic bundle of a
bidegree is the Kunneth convolution of the integer curve rule
(:func:`kunneth_h`), the intersection form is the hyperbolic pairing
``(a, b) . (c, d) = a d + b c``, and degrees against a polarization
``(alpha, beta)`` are ``alpha a + beta b``.
"""

from __future__ import annotations

from .curves import Curve, h0_h1
from .dims import Dim, Record

Pair = tuple[int, int]


class PreconditionError(ValueError):
    """An operation was invoked outside its domain of validity."""


class ProductSurface(Record):
    """``C1 x C2`` with Pic-independent factors (an assumed input)."""

    __slots__ = ("curve1", "curve2")

    @staticmethod
    def from_genera(g1: int, g2: int) -> "ProductSurface":
        return ProductSurface(Curve(g1), Curve(g2))

    @property
    def genera(self) -> Pair:
        return (self.curve1.genus, self.curve2.genus)


class Polarization(Record):
    """An ample class on the product; both entries must be positive."""

    __slots__ = ("alpha", "beta")

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("a polarization on a product of curves needs alpha, beta > 0")


class SurfaceTopology(Record):
    __slots__ = ("b1", "b2_minus")


def kunneth_h(q: int, surface: ProductSurface, bidegree: Pair) -> Dim:
    """q-th cohomology dimension of the generic bundle of this bidegree,
    by the Kunneth convolution.

    ``h^q(X, L1 x L2) = sum over i + j = q of h^i(C1, L1) h^j(C2, L2)``,
    with no curve cohomology above degree 1, taken bound by bound over the
    factors' :func:`modulidim.curves.h0_h1` (every bound is a nonnegative
    integer). The result is exact exactly when every contributing factor is.
    """
    if q not in (0, 1, 2):
        raise PreconditionError(f"cohomology degree must be 0, 1 or 2, got {q}")
    (g1, g2), (a, b) = surface.genera, bidegree
    h0a_lower, h0a_upper, h1a_lower, h1a_upper = h0_h1(g1, a)
    h0b_lower, h0b_upper, h1b_lower, h1b_upper = h0_h1(g2, b)
    if q == 0:
        return Dim(h0a_lower * h0b_lower, h0a_upper * h0b_upper)
    if q == 1:
        return Dim(
            h0a_lower * h1b_lower + h1a_lower * h0b_lower,
            h0a_upper * h1b_upper + h1a_upper * h0b_upper,
        )
    return Dim(h1a_lower * h1b_lower, h1a_upper * h1b_upper)


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

