"""Ext dimensions against finite-length point-supported quotients.

A skyscraper quotient ``Q`` (locally a quotient of the structure sheaf,
supported at finitely many points, each a local complete intersection) has
self-Ext dimensions ``(l, 2l, l)`` that depend only on its total length
``l``. The self-Ext of the kernel ``F`` of a surjection from a line bundle
onto ``Q`` splits into a point-supported part of dimension ``2l`` and the
first cohomology of the structure sheaf. The functions here therefore take
the quotient as its total length ``l``, and each of them raises
``ValueError`` on a negative length.

The Koszul oracle (:mod:`modulidim.oracle`) recomputes the self-Ext counts
from an explicit resolution for monomial complete intersections, which is
where these closed forms are cross-checked.
"""

from __future__ import annotations

from .dims import Record


class PairingComponent(Record):
    """One pairing that vanishes on the point-supported directions, and why."""

    __slots__ = ("pairing", "reason")

    def __init__(self, pairing: str, reason: str):
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "reason", reason)


class KilledPairingsVerdict(Record):
    """Why the obstruction pairing ignores the point-supported directions.

    The reduction holds under the listed assumptions; it has no failing
    outcome, so the record carries no verdict flag.
    """

    __slots__ = ("components", "assumptions")

    def __init__(self, components: tuple[PairingComponent, ...], assumptions: tuple[str, ...]):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "assumptions", assumptions)


def _check_length(l: int) -> None:
    if l < 0:
        raise ValueError(f"a quotient length must be >= 0, got {l}")


def ext_dims_QQ(l: int) -> tuple[int, int, int]:
    """(Hom, Ext^1, Ext^2) of a quotient of total length ``l`` against
    itself: (l, 2l, l)."""
    _check_length(l)
    return (l, 2 * l, l)


def ext1_FF_decomposition(l: int, h1_structure: int) -> tuple[int, int]:
    """Split the self-Ext of F into its point-supported and global parts.

    Returns ``(2l, h1_structure)``: the sheaf-level part has dimension
    twice the quotient length and the remaining part is the first
    cohomology of the structure sheaf. Their sum is the dimension of the
    tangent directions that vary the destabilizing subsheaf.
    """
    _check_length(l)
    if h1_structure < 0:
        raise ValueError("h1 of the structure sheaf must be >= 0")
    return (2 * l, h1_structure)


_KILLED_COMPONENTS = (
    PairingComponent(
        pairing="Hom(L, Q) x H1(O) -> Ext2(L, F)",
        reason=(
            "the map factors through Ext1(L, Q), which vanishes: the sheaf-level "
            "ext of a locally free source into a point-supported target is zero, "
            "and sections of a point-supported sheaf have no higher cohomology"
        ),
    ),
    PairingComponent(
        pairing="Ext1(L, F) x Hom(F, Q) -> Ext2(L, F)",
        reason=(
            "the map factors through Ext1(L, Q) = 0 for the same two reasons"
        ),
    ),
)

_ASSUMPTIONS = (
    "each support point of Q is a local complete intersection",
    "Ext1(M, F) and Ext2(M, F) vanish in the large-twist regime",
)


def killed_pairings_check(l: int) -> KilledPairingsVerdict:
    """Structured justification for dropping the point-supported pairings.

    Both components of the obstruction pairing that involve the
    point-supported directions vanish, which reduces the third component of
    the deformation analysis around a nonfiltrable bundle to the split-bundle
    case. With a quotient of total length ``l = 0`` the verdict is vacuous.
    """
    _check_length(l)
    if l == 0:
        return KilledPairingsVerdict(
            components=(),
            assumptions=(),
        )
    return KilledPairingsVerdict(
        components=_KILLED_COMPONENTS,
        assumptions=_ASSUMPTIONS,
    )
