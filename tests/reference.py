"""Test reference: line bundles as explicit records, with ``Dim``-valued
cohomology.

The package computes cohomology of the generic bundle of a degree or a
bidegree in plain integers (:func:`modulidim.curves.h0_h1`,
:func:`modulidim.surface.kunneth_h`). The tests also need bundles the
package never builds: the structure sheaf, a known-nontrivial degree-zero
bundle and the canonical bundle, whose dimensions genus and degree alone
do not pin. This module records such bundles with a :class:`Triviality`
flag, runs the full rule cascade on them, convolves the bounds of the
resulting :class:`~modulidim.dims.Dim` values, and keeps the closed forms the
differential tests compare against. It is imported by the tests and is
not itself collected.
"""

from __future__ import annotations

import enum

from modulidim.curves import canonical_degree, h0_h1
from modulidim.dims import Dim, Record
from modulidim.surface import Pair, PreconditionError, ProductSurface


class Triviality(enum.Enum):
    """What is known about a bundle beyond its degree.

    ``TRIVIAL`` and ``CANONICAL`` pin the bundle completely in the two
    degree slots where genus and degree alone cannot (0 and ``2g - 2``).
    ``NONTRIVIAL_DEGREE_ZERO`` asserts the bundle has no sections despite
    degree zero. ``GENERIC`` claims nothing.
    """

    TRIVIAL = "trivial"
    NONTRIVIAL_DEGREE_ZERO = "nontrivial-degree-zero"
    GENERIC = "generic"
    CANONICAL = "canonical"


class CurveLineBundle(Record):
    __slots__ = ("genus", "degree", "triviality")

    def __init__(self, genus: int, degree: int, triviality: Triviality = Triviality.GENERIC):
        super().__init__(genus, degree, triviality)

    def __post_init__(self):
        g, d, t = self.genus, self.degree, self.triviality
        if t is Triviality.TRIVIAL and d != 0:
            raise ValueError("a trivial bundle has degree 0")
        if t is Triviality.NONTRIVIAL_DEGREE_ZERO:
            if d != 0:
                raise ValueError("the nontrivial-degree-zero flag requires degree 0")
            if g == 0:
                raise ValueError("genus 0 admits no nontrivial degree-zero bundle")
        if t is Triviality.CANONICAL and d != 2 * g - 2:
            raise ValueError(f"the canonical bundle on genus {g} has degree {2 * g - 2}")


def euler_characteristic(bundle: CurveLineBundle) -> int:
    """h0 - h1, which depends on (genus, degree) only."""
    return bundle.degree - bundle.genus + 1


def serre_dual_degree(bundle: CurveLineBundle) -> int:
    """Degree of the twist whose h0 equals h1 of this bundle."""
    return canonical_degree(bundle.genus) - bundle.degree


def bundle_h0_h1(bundle: CurveLineBundle) -> tuple[Dim, Dim]:
    """Dimensions of the two cohomology groups of a line bundle.

    The rule cascade, in order:

    1. ``d < 0``: no sections, and ``h1 = g - 1 - d`` by duality.
    2. ``d > 2g - 2``: ``h1 = 0`` and ``h0`` equals the Euler characteristic.
    3. canonical bundle: ``(g, 1)``.
    4. structure sheaf: ``(1, g)``.
    5. known-nontrivial degree zero: ``(0, g - 1)``.
    6. otherwise (middle range, generic): the bounds of the package's rule.

    The flag rules 3-5 apply only in the middle range ``0 <= d <= 2g - 2``
    that rules 1 and 2 leave open. Rules 1, 2 and 6 are the package's
    :func:`modulidim.curves.h0_h1`, whose bounds become :class:`Dim` values.
    """
    g = bundle.genus
    d = bundle.degree
    if 0 <= d <= 2 * g - 2:
        if bundle.triviality is Triviality.CANONICAL:
            return Dim.exact(g), Dim.exact(1)
        if d == 0 and bundle.triviality is Triviality.TRIVIAL:
            return Dim.exact(1), Dim.exact(g)
        if d == 0 and bundle.triviality is Triviality.NONTRIVIAL_DEGREE_ZERO:
            return Dim.exact(0), Dim.exact(g - 1)
    h0_lower, h0_upper, h1_lower, h1_upper = h0_h1(g, d)
    return Dim(h0_lower, h0_upper), Dim(h1_lower, h1_upper)


class BidegreeBundle(Record):
    """A line bundle on the product, split by factor.

    ``factor_triviality`` carries what is known about each factor beyond its
    degree; constructing the factors validates the flags against the degrees.
    """

    __slots__ = ("surface", "bidegree", "factor_triviality")

    def __init__(self, surface: ProductSurface, bidegree: Pair,
                 factor_triviality: tuple[Triviality, Triviality] = (Triviality.GENERIC,) * 2):
        super().__init__(surface, bidegree, factor_triviality)

    def __post_init__(self):
        self.factors()  # validates flag/degree consistency

    def factors(self) -> tuple[CurveLineBundle, CurveLineBundle]:
        a, b = self.bidegree
        ta, tb = self.factor_triviality
        return (
            CurveLineBundle(self.surface.g1, a, ta),
            CurveLineBundle(self.surface.g2, b, tb),
        )

    @staticmethod
    def structure_sheaf(surface: ProductSurface) -> "BidegreeBundle":
        return BidegreeBundle(surface, (0, 0), (Triviality.TRIVIAL, Triviality.TRIVIAL))

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


def bundle_kunneth_h(q: int, bundle: BidegreeBundle) -> Dim:
    """q-th cohomology dimension via the Kunneth convolution of
    :func:`bundle_h0_h1`, on the bounds of its :class:`Dim` values.

    ``h^q(X, L1 x L2) = sum over i + j = q of h^i(C1, L1) h^j(C2, L2)``,
    with no curve cohomology above degree 1.
    """
    if q not in (0, 1, 2):
        raise PreconditionError(f"cohomology degree must be 0, 1 or 2, got {q}")
    f1, f2 = bundle.factors()
    first, second = bundle_h0_h1(f1), bundle_h0_h1(f2)
    # the products h^i(C1) h^(q-i)(C2); every bound is >= 0, so the bounds
    # of a product are the products of the bounds
    pairs = [(first[i], second[q - i]) for i in (0, 1) if q - i in (0, 1)]
    return Dim(sum(x.lower * y.lower for x, y in pairs),
               sum(x.upper * y.upper for x, y in pairs))


def ext_dims_QQ(l: int) -> tuple[int, int, int]:
    """(Hom, Ext^1, Ext^2) of a point-supported quotient of total length
    ``l`` against itself: (l, 2l, l)."""
    if l < 0:
        raise ValueError(f"a quotient length must be >= 0, got {l}")
    return (l, 2 * l, l)
