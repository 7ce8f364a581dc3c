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
from .dims import Record
from .surface import Pair, PreconditionError, ProductSurface, intersection, kunneth_h


class ConditionVerdict(Record):
    """One named condition; ``status`` is ``"pass"``, ``"fail"`` or ``"undecidable"``."""

    __slots__ = ("name", "status", "detail")


class ValidationVerdict(Record):
    """The three conditions, and the point count ``c2 + L^2 - L.R``, which
    is negative exactly when the c2 bound fails."""

    __slots__ = ("conditions", "assumptions", "q_length")

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.conditions)


class SelectedTwist(Record):
    """The twist ``t``, its sub-line-bundle class ``L = t H``, and the point count."""

    __slots__ = ("t", "sub", "q_length")


def validate(
    surface: ProductSurface, ample: Pair, det: Pair, sub: Pair, c2: int
) -> ValidationVerdict:
    """Check the three admissibility conditions of the family ``(H, R, L, c2)``,
    whose ample class ``H`` needs positive entries.

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
    slope = ConditionVerdict(
        name="slope",
        status="pass" if slope_lhs > slope_rhs else "fail",
        detail=f"2 L.H = {slope_lhs} vs R.H = {slope_rhs} (need strict >)",
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
    vanishing = ConditionVerdict(name="section-vanishing", status=status, detail=detail)

    floor = -intersection(sub, sub) + intersection(sub, det)
    points = c2 - floor
    c2_bound = ConditionVerdict(
        name="c2-bound",
        status="pass" if points >= 0 else "fail",
        detail=f"c2 = {c2} vs floor {floor}",
    )

    conditions = (slope, vanishing, c2_bound)
    return ValidationVerdict(
        conditions=conditions,
        assumptions=(
            "every nonempty finite point set has the Cayley-Bacharach "
            "property with respect to the vanishing twist (granted by the "
            "choice of L)",
        ),
        q_length=points,
    )


# Largest twist ``select_twist`` tries before giving up.
_MAX_T = 10_000


def select_twist(
    surface: ProductSurface, ample: Pair, det: Pair, c2: int, a: int
) -> SelectedTwist:
    """Smallest positive twist ``t`` making the family at least ``2a``-dimensional.

    Takes ``L = t H`` and scans upward for the first ``t`` satisfying the
    degree inequality ``t^2 H^2 - t H.R >= a - c2`` (which makes the point
    count at least ``a``), the slope condition, and the section-vanishing
    criterion. Such a ``t`` always exists since the quadratic term
    dominates; the scan stops at ``t = _MAX_T`` (10,000) only as a guard.
    """
    if a < 1:
        raise PreconditionError(f"the dimension target must be >= 1, got {a}")
    h2 = intersection(ample, ample)
    hr = intersection(ample, det)
    for t in range(1, _MAX_T + 1):
        if t * t * h2 - t * hr < a - c2:
            continue
        if 2 * t * h2 <= hr:
            continue
        sub = (t * ample[0], t * ample[1])
        verdict = validate(surface, ample, det, sub, c2)
        if verdict.passed:
            return SelectedTwist(t=t, sub=sub, q_length=verdict.q_length)
    raise PreconditionError(f"no admissible twist found with t <= {_MAX_T}")
