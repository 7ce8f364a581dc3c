"""Dimension rules for line bundles on a smooth projective curve.

Three classical facts drive everything here:

* the Euler characteristic ``h0 - h1 = d - g + 1`` for a line bundle of
  degree ``d`` on a curve of genus ``g``,
* Serre duality, which identifies ``h1`` of degree ``d`` with ``h0`` of the
  dual twist of degree ``2g - 2 - d``,
* vanishing of ``h1`` once ``d > 2g - 2`` (equivalently of ``h0`` once
  ``d < 0``).

Degrees in the middle range ``0 <= d <= 2g - 2`` are not determined by
``(g, d)`` alone. Rather than guess, :func:`h0_h1` returns an interval
there. The Euler characteristic stays exact, so quantities that depend on
a bundle only through it (the margins of :mod:`modulidim.kuranishi`) are
computed exactly. The only middle-range bundles with pinned dimensions are
the ones the caller declares: the structure sheaf, a known-nontrivial
degree-zero bundle, or the canonical bundle.
"""

from __future__ import annotations

import enum

from .dims import Dim, Record


class Triviality(enum.Enum):
    """What the caller knows about a bundle beyond its degree.

    ``TRIVIAL`` and ``CANONICAL`` pin the bundle completely in the two
    degree slots where genus and degree alone cannot (0 and ``2g - 2``).
    ``NONTRIVIAL_DEGREE_ZERO`` asserts the bundle has no sections despite
    degree zero. ``GENERIC`` claims nothing.
    """

    TRIVIAL = "trivial"
    NONTRIVIAL_DEGREE_ZERO = "nontrivial-degree-zero"
    GENERIC = "generic"
    CANONICAL = "canonical"


class Curve(Record):
    """A smooth projective curve, known only through its genus."""

    __slots__ = ("genus",)

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError(f"genus must be >= 0, got {self.genus}")


class CurveLineBundle(Record):
    __slots__ = ("curve", "degree", "triviality")

    def __init__(self, curve: Curve, degree: int, triviality: Triviality = Triviality.GENERIC):
        super().__init__(curve, degree, triviality)

    def __post_init__(self):
        g, d, t = self.curve.genus, self.degree, self.triviality
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
    return bundle.degree - bundle.curve.genus + 1


def canonical_degree(curve: Curve) -> int:
    return 2 * curve.genus - 2


def serre_dual_degree(bundle: CurveLineBundle) -> int:
    """Degree of the twist whose h0 equals h1 of this bundle."""
    return canonical_degree(bundle.curve) - bundle.degree


def h0_h1_bounds(genus: int, degree: int) -> tuple[int, int, int, int]:
    """``(h0 lower, h0 upper, h1 lower, h1 upper)`` of a bundle known only
    by its genus and degree.

    These are rules 1, 2 and 6 of :func:`h0_h1`, the whole cascade for a
    ``GENERIC`` bundle, in plain integers; an exact value comes back as two
    equal bounds. Ledgers built from generic bundles alone call this
    directly and construct no bundle or :class:`Dim` objects.
    """
    chi = degree - genus + 1
    if degree < 0:
        return 0, 0, -chi, -chi
    if degree > 2 * genus - 2:
        return chi, chi, 0, 0
    return max(0, chi), degree + 1, max(0, -chi), degree + 1 - chi


def h0_h1(bundle: CurveLineBundle) -> tuple[Dim, Dim]:
    """Dimensions of the two cohomology groups of a line bundle.

    The rule cascade, in order:

    1. ``d < 0``: no sections, and ``h1 = g - 1 - d`` by duality.
    2. ``d > 2g - 2``: ``h1 = 0`` and ``h0`` equals the Euler characteristic.
    3. canonical bundle: ``(g, 1)``.
    4. structure sheaf: ``(1, g)``.
    5. known-nontrivial degree zero: ``(0, g - 1)``.
    6. otherwise (middle range, generic): both values are intervals tied
       together by the exact Euler characteristic; ``h0`` is bounded above
       by ``d + 1``, the weakest bound valid for every line bundle.

    The flag rules 3-5 apply only in the middle range ``0 <= d <= 2g - 2``
    that rules 1 and 2 leave open. Rules 1, 2 and 6 are defined once, in
    :func:`h0_h1_bounds`; here their bounds become :class:`Dim` values.

    For genus 0 the first two rules cover every degree, reproducing the
    familiar closed form ``h0 = k + 1`` for ``k >= 0`` and
    ``h1 = -k - 1`` for ``k <= -2``.
    """
    g = bundle.curve.genus
    d = bundle.degree
    if 0 <= d <= 2 * g - 2:
        if bundle.triviality is Triviality.CANONICAL:
            return Dim.exact(g), Dim.exact(1)
        if d == 0 and bundle.triviality is Triviality.TRIVIAL:
            return Dim.exact(1), Dim.exact(g)
        if d == 0 and bundle.triviality is Triviality.NONTRIVIAL_DEGREE_ZERO:
            return Dim.exact(0), Dim.exact(g - 1)
    h0_lower, h0_upper, h1_lower, h1_upper = h0_h1_bounds(g, d)
    return Dim(h0_lower, h0_upper), Dim(h1_lower, h1_upper)
