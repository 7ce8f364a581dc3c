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

from .dims import Dim, Record
from .surface import (
    BidegreeBundle,
    Pair,
    PreconditionError,
    ProductSurface,
    intersection,
    kunneth_h,
)
from .curves import canonical_degree


class UnstableFamilySpec(Record):
    """Input data for one totally unstable family."""

    __slots__ = ("surface", "ample", "det", "sub", "c2")

    def __init__(self, surface: ProductSurface, ample: Pair, det: Pair, sub: Pair, c2: int):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "ample", ample)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "c2", c2)
        self.__post_init__()

    def __post_init__(self):
        a, b = self.ample
        if a <= 0 or b <= 0:
            raise PreconditionError(f"the ample class needs positive entries, got {self.ample}")


class ConditionVerdict(Record):
    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "status", status)  # "pass" | "fail" | "undecidable"
        object.__setattr__(self, "detail", detail)


class ValidationVerdict(Record):
    """The three conditions, and the point count ``c2 + L^2 - L.R``, which
    is negative exactly when the c2 bound fails."""

    __slots__ = ("conditions", "passed", "assumptions", "q_length")

    def __init__(self, conditions: tuple[ConditionVerdict, ...], passed: bool,
                 assumptions: tuple[str, ...], q_length: int):
        object.__setattr__(self, "conditions", conditions)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "assumptions", assumptions)
        object.__setattr__(self, "q_length", q_length)

    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.conditions if c.status != "pass")


class SelectedTwist(Record):
    __slots__ = ("t", "family", "q_length")

    def __init__(self, t: int, family: UnstableFamilySpec, q_length: int):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "q_length", q_length)


def _vanishing_twist_bidegree(family: UnstableFamilySpec) -> Pair:
    """Bidegree of ``K + R - 2L``, whose sections must vanish."""
    g1c, g2c = family.surface.curve1, family.surface.curve2
    r1, r2 = family.det
    l1, l2 = family.sub
    return (
        canonical_degree(g1c) + r1 - 2 * l1,
        canonical_degree(g2c) + r2 - 2 * l2,
    )


def validate(family: UnstableFamilySpec) -> ValidationVerdict:
    """Check the three admissibility conditions of the family.

    The section-vanishing condition is decided through the factor-degree
    rules: a negative component degree forces vanishing, and two pinned
    positive counts force failure. Middle-range factors leave the condition
    undecidable, which is reported rather than passed.
    """
    slope_lhs = 2 * intersection(family.sub, family.ample)
    slope_rhs = intersection(family.det, family.ample)
    slope = ConditionVerdict(
        name="slope",
        status="pass" if slope_lhs > slope_rhs else "fail",
        detail=f"2 L.H = {slope_lhs} vs R.H = {slope_rhs} (need strict >)",
    )

    twist_bidegree = _vanishing_twist_bidegree(family)
    h0 = kunneth_h(0, BidegreeBundle.of_type(family.surface, *twist_bidegree))
    if h0 == Dim.exact(0):
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

    floor = -intersection(family.sub, family.sub) + intersection(family.sub, family.det)
    points = family.c2 - floor
    c2_bound = ConditionVerdict(
        name="c2-bound",
        status="pass" if points >= 0 else "fail",
        detail=f"c2 = {family.c2} vs floor {floor}",
    )

    conditions = (slope, vanishing, c2_bound)
    return ValidationVerdict(
        conditions=conditions,
        passed=all(c.status == "pass" for c in conditions),
        assumptions=(
            "every nonempty finite point set has the Cayley-Bacharach "
            "property with respect to the vanishing twist (granted by the "
            "choice of L)",
        ),
        q_length=points,
    )


def q_length(family: UnstableFamilySpec) -> int:
    """Number of points in the quotient: ``c2 + L^2 - L.R``, for a family
    that passes :func:`validate`."""
    verdict = validate(family)
    if not verdict.passed:
        raise PreconditionError(
            f"family data fails validation on: {', '.join(verdict.failing())}"
        )
    return verdict.q_length


def dim_lower_bound(family: UnstableFamilySpec) -> int:
    """The family has dimension at least twice the point count."""
    return 2 * q_length(family)


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
        candidate = UnstableFamilySpec(
            surface=surface,
            ample=ample,
            det=det,
            sub=(t * ample[0], t * ample[1]),
            c2=c2,
        )
        verdict = validate(candidate)
        if verdict.passed:
            return SelectedTwist(t=t, family=candidate, q_length=verdict.q_length)
    raise PreconditionError(f"no admissible twist found with t <= {_MAX_T}")
