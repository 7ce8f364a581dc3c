"""Dimension rules for line bundles on a smooth projective curve.

Three classical facts drive everything here:

* the Euler characteristic ``h0 - h1 = d - g + 1`` for a line bundle of
  degree ``d`` on a curve of genus ``g``,
* Serre duality, which identifies ``h1`` of degree ``d`` with ``h0`` of the
  dual twist of degree ``2g - 2 - d``,
* vanishing of ``h1`` once ``d > 2g - 2`` (equivalently of ``h0`` once
  ``d < 0``).

Degrees in the middle range ``0 <= d <= 2g - 2`` are not determined by
``(g, d)`` alone. Rather than guess, :func:`h0_h1` returns integer bounds
there. The Euler characteristic stays exact, so quantities that depend on
a bundle only through it (the margins of :mod:`modulidim.kuranishi`) are
computed exactly.
"""

from __future__ import annotations


def canonical_degree(genus: int) -> int:
    return 2 * genus - 2


def h0_h1(genus: int, degree: int) -> tuple[int, int, int, int]:
    """``(h0 lower, h0 upper, h1 lower, h1 upper)`` of a line bundle known
    only by its genus and degree; an exact value comes back as two equal
    bounds.

    1. ``d < 0``: no sections, and ``h1 = g - 1 - d`` by duality.
    2. ``d > 2g - 2``: ``h1 = 0`` and ``h0`` equals the Euler characteristic.
    3. otherwise (middle range): both values are ranges tied together by
       the exact Euler characteristic; ``h0`` is bounded above by
       ``d + 1``, the weakest bound valid for every line bundle.

    For genus 0 the first two rules cover every degree, reproducing the
    familiar closed form ``h0 = k + 1`` for ``k >= 0`` and
    ``h1 = -k - 1`` for ``k <= -2``.
    """
    chi = degree - genus + 1
    if degree < 0:
        return 0, 0, -chi, -chi
    if degree > 2 * genus - 2:
        return chi, chi, 0, 0
    return max(0, chi), degree + 1, max(0, -chi), degree + 1 - chi
