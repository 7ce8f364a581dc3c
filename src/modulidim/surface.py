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

from .curves import h0_h1
from .dims import Dim, Record

Pair = tuple[int, int]


class PreconditionError(ValueError):
    """An operation was invoked outside its domain of validity."""


class ProductSurface(Record):
    """``C1 x C2`` with Pic-independent factors (an assumed input), known
    only through the genera of its factors."""

    __slots__ = ("g1", "g2")

    def __post_init__(self):
        for genus in (self.g1, self.g2):
            if genus < 0:
                raise ValueError(f"genus must be >= 0, got {genus}")


class Polarization(Record):
    """An ample class on the product; both entries must be positive."""

    __slots__ = ("alpha", "beta")

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("a polarization on a product of curves needs alpha, beta > 0")


def kunneth_h(surface: ProductSurface, bidegree: Pair) -> tuple[Dim, Dim, Dim]:
    """``(h0, h1, h2)`` of the generic bundle of this bidegree, by the
    Kunneth convolution.

    ``h^q(X, L1 x L2) = sum over i + j = q of h^i(C1, L1) h^j(C2, L2)``,
    with no curve cohomology above degree 1, taken bound by bound over the
    factors' :func:`modulidim.curves.h0_h1` (every bound is a nonnegative
    integer). Each result is exact exactly when every contributing factor is.
    """
    a, b = bidegree
    h0a_lower, h0a_upper, h1a_lower, h1a_upper = h0_h1(surface.g1, a)
    h0b_lower, h0b_upper, h1b_lower, h1b_upper = h0_h1(surface.g2, b)
    return (
        Dim(h0a_lower * h0b_lower, h0a_upper * h0b_upper),
        Dim(
            h0a_lower * h1b_lower + h1a_lower * h0b_lower,
            h0a_upper * h1b_upper + h1a_upper * h0b_upper,
        ),
        Dim(h1a_lower * h1b_lower, h1a_upper * h1b_upper),
    )


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


def c2_of_extension(bundle: Pair, q_length: int) -> int:
    """Second Chern number of an extension of a rank-1 sheaf by a line bundle,
    with trivial determinant.

    The Whitney product rule gives the bidegree pairing of the sub and the
    reflexive hull of the quotient, which is the inverse of the sub; points
    where the quotient fails to be a bundle add their total length.
    """
    if q_length < 0:
        raise PreconditionError("the quotient length must be >= 0")
    a, b = bundle
    return intersection(bundle, (-a, -b)) + q_length


def moduli_real_dimension(c2: int, surface: ProductSurface) -> int:
    """Expected real dimension of the stable moduli space.

    For a product of curves ``b1 = 2(g1 + g2)``, and splitting
    ``b2 = 2 + 4 g1 g2`` by the Hodge decomposition leaves
    ``b2_minus = 2 g1 g2 + 1``.
    """
    b1 = 2 * (surface.g1 + surface.g2)
    b2_minus = 2 * surface.g1 * surface.g2 + 1
    return 8 * c2 - 3 * (1 - b1 + b2_minus)
