"""Families of extensions that consist only of unstable bundles.

Fix an ample class ``H``, a class ``R`` playing the role of the first
Chern class, and a sub-line-bundle class ``L`` with ``2 L.H > R.H`` and no
sections of the canonical twist ``K + R - 2L``. Extensions of the twisted
ideal sheaf of a length-``q`` point set by ``L`` then form a family of
unstable bundles of dimension at least twice the point count,
``q = c2 + L^2 - L.R``. Choosing ``L`` as a sufficiently high multiple of
``H`` makes the family as large as desired for any target ``c2``.
"""

from __future__ import annotations

from .curves import canonical_degree
from .surface import Pair, PreconditionError, ProductSurface, intersection, kunneth_h


# The assumption that the dimension bound of a passing family rests on.
CAYLEY_BACHARACH = (
    "every nonempty finite point set has the Cayley-Bacharach "
    "property with respect to the vanishing twist (granted by the "
    "choice of L)"
)


def validate(
    surface: ProductSurface, ample: Pair, det: Pair, sub: Pair, c2: int
) -> tuple[str, tuple[tuple[str, str, str], ...], int]:
    """Check the three admissibility conditions of the family ``(H, R, L, c2)``,
    whose ample class ``H`` needs positive entries.

    Returns ``(outcome, conditions, q_length)``. Each condition is a
    ``(name, status, detail)`` triple whose status is ``"pass"``, ``"fail"``
    or ``"undecidable"``. The outcome is ``"fail"`` if any condition fails,
    else ``"undecidable"`` if any is undecidable, else ``"pass"``. The point
    count ``c2 + L^2 - L.R`` is negative exactly when the c2 bound fails.

    The section-vanishing condition is decided through the factor-degree
    rules: a negative component degree forces vanishing, and two pinned
    positive counts force failure. Middle-range factors leave the condition
    undecidable, which is reported rather than passed. The twist is generic,
    so its h0 is the Kunneth ``h^0`` of its bidegree.
    """
    if ample[0] <= 0 or ample[1] <= 0:
        raise PreconditionError(f"the ample class needs positive entries, got {ample}")
    slope_lhs = 2 * intersection(sub, ample)
    slope_rhs = intersection(det, ample)
    slope = (
        "slope",
        "pass" if slope_lhs > slope_rhs else "fail",
        f"2 L.H = {slope_lhs} vs R.H = {slope_rhs} (need strict >)",
    )

    # the bidegree of K + R - 2L, whose sections must vanish
    twist_bidegree = (
        canonical_degree(surface.g1) + det[0] - 2 * sub[0],
        canonical_degree(surface.g2) + det[1] - 2 * sub[1],
    )
    h0 = kunneth_h(surface, twist_bidegree)[0]
    if h0.upper == 0:
        status, detail = "pass", f"h0 of bidegree {twist_bidegree} is 0"
    elif h0.lower >= 1:
        # a positive lower bound already guarantees sections
        status, detail = "fail", f"h0 of bidegree {twist_bidegree} is at least {h0.lower}"
    else:
        status, detail = (
            "undecidable",
            f"h0 of bidegree {twist_bidegree} only bounded to {h0}",
        )
    vanishing = ("section-vanishing", status, detail)

    floor = -intersection(sub, sub) + intersection(sub, det)
    points = c2 - floor
    c2_bound = ("c2-bound", "pass" if points >= 0 else "fail", f"c2 = {c2} vs floor {floor}")

    conditions = (slope, vanishing, c2_bound)
    statuses = {s for _, s, _ in conditions}
    # a failure decides the family; otherwise an undecidable condition leaves it open
    outcome = next((o for o in ("fail", "undecidable") if o in statuses), "pass")
    return outcome, conditions, points


# Largest twist ``select_twist`` tries before giving up.
_MAX_T = 10_000


def select_twist(
    surface: ProductSurface, ample: Pair, det: Pair, c2: int, a: int
) -> tuple[int, Pair, int]:
    """Smallest positive twist ``t`` making the family at least ``2a``-dimensional.

    Takes ``L = t H`` and returns ``(t, L, q_length)`` for the first ``t``
    whose family passes :func:`validate` with a point count of at least
    ``a``. Such a ``t`` always exists since the quadratic term of the point
    count ``c2 + t^2 H^2 - t H.R`` dominates; the scan stops at
    ``t = _MAX_T`` (10,000) only as a guard.
    """
    if a < 1:
        raise PreconditionError(f"the dimension target must be >= 1, got {a}")
    for t in range(1, _MAX_T + 1):
        sub = (t * ample[0], t * ample[1])
        outcome, _, points = validate(surface, ample, det, sub, c2)
        if outcome == "pass" and points >= a:
            return t, sub, points
    raise PreconditionError(f"no admissible twist found with t <= {_MAX_T}")
