"""Dimension bookkeeping for deformations of unstable rank-2 bundles.

Around a split bundle ``E = L + L^-1`` on a product of curves, the tangent
space to the moduli decomposes into a direction of unstable deformations
``t_u``, a direction fixed by the topology ``t_o``, and a direction of
stable deformations ``t_s``. The quadratic part of the deformation map has
three components; the third one controls whether the unstable directions
can be removed without changing low-degree homology.

The decisive quantity is the margin: the codimension in which the unstable
directions sit, minus the number of local defining equations. Both sides
may individually be indeterminate (they involve middle-range section
counts), but their difference is an exact multiple of an Euler
characteristic and is always computed exactly. A removal theorem then
preserves homology in degrees below codimension minus equations, so a
margin exceeding ``c2`` is the sufficient condition the aggregate report
checks.

Nonfiltrable bundles (extensions of a rank-1 torsion-free sheaf with
point-supported cokernel of length ``l``) reduce to the split case: the
point-supported directions are killed under the pairing
(:attr:`KuranishiReport.pairing_reduction`), the margin is unchanged, and
only the tangent dimensions and ``c2`` shift by ``l``.
"""

from __future__ import annotations

from .dims import Dim, Record
from .surface import (
    Polarization,
    PreconditionError,
    ProductSurface,
    c2_of_extension,
    is_destabilizing,
    kunneth_h,
)


# The two pairings of the obstruction map that involve the point-supported
# directions, each with why it vanishes, and the assumptions both need.
_KILLED_PAIRINGS = (
    (
        "Hom(L, Q) x H1(O) -> Ext2(L, F)",
        "the map factors through Ext1(L, Q), which vanishes: the sheaf-level "
        "ext of a locally free source into a point-supported target is zero, "
        "and sections of a point-supported sheaf have no higher cohomology",
    ),
    (
        "Ext1(L, F) x Hom(F, Q) -> Ext2(L, F)",
        "the map factors through Ext1(L, Q) = 0 for the same two reasons",
    ),
)
_PAIRING_ASSUMPTIONS = (
    "each support point of Q is a local complete intersection",
    "Ext1(M, F) and Ext2(M, F) vanish in the large-twist regime",
)


class KuranishiReport(Record):
    """Per-component dimension ledger for one unstable stratum: the inputs
    and four Kunneth dimensions are stored, every other entry is derived.
    Those that depend on the quotient length read :meth:`length_bounds` and
    :meth:`length_c2` at ``q_length``, which a sweep reads at any length."""

    __slots__ = ("g1", "g2", "m", "n", "q_length", "h1_square", "comp_i_target", "codim", "equations")

    # own __init__: `report compare` builds two per stratum, at half Record.__init__'s cost
    def __init__(self, g1: int, g2: int, m: int, n: int, q_length: int,
                 h1_square: Dim, comp_i_target: Dim, codim: Dim, equations: Dim):
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q_length", q_length)
        object.__setattr__(self, "h1_square", h1_square)
        object.__setattr__(self, "comp_i_target", comp_i_target)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "equations", equations)

    def at_length(self, l: int) -> KuranishiReport:
        """The same stratum with quotient length ``l``; ``l = 0`` is the split
        ledger. No stored entry but ``q_length`` depends on ``l``, so a caller
        walking several lengths builds the ledger once and re-lengths it."""
        if l < 0:
            raise PreconditionError("q_length must be >= 0")
        return KuranishiReport(self.g1, self.g2, self.m, self.n, l,
                               self.h1_square, self.comp_i_target, self.codim, self.equations)

    def length_bounds(self, l: int) -> tuple[int, int, int, int, int]:
        """The integer bounds of ``t_u``, ``t_o`` and ``t_s`` at quotient length
        ``l``. ``t_u`` is h^1 of the square plus the part of ``l`` that h^2 of
        the square does not absorb, up to h^1 plus ``l``; ``t_o`` is ``Ext^1(F,
        F)``, ``2l`` point-supported directions plus ``h^1(O) = g1 + g2``; and
        ``t_s`` is h^1 of the inverse square plus ``l``."""
        h1, codim = self.h1_square, self.codim
        return (h1.lower + l - min(l, self.comp_i_target.upper), h1.upper + l,
                2 * l + self.g1 + self.g2, codim.lower + l, codim.upper + l)

    def length_c2(self, l: int) -> tuple[int, bool]:
        """``c2`` at quotient length ``l``, and whether the margin exceeds it."""
        c2 = c2_of_extension((self.m, self.n), l)
        return c2, self.margin > c2

    @property
    def t_u(self) -> Dim:
        lower, upper, _, _, _ = self.length_bounds(self.q_length)
        return Dim(lower, upper)

    # With m >= 1 the first-factor inverse square has no sections, so the
    # Kunneth h^1 and h^2 of the inverse square are nu1 times the second
    # factor's h^0 and h^1: ``codim`` and ``equations``.
    @property
    def t_s(self) -> Dim:
        _, _, _, lower, upper = self.length_bounds(self.q_length)
        return Dim(lower, upper)

    @property
    def comp_iii_target(self) -> Dim:
        """h^2 of the inverse square."""
        return self.equations

    @property
    def t_o(self) -> Dim:
        _, _, t_o, _, _ = self.length_bounds(self.q_length)
        return Dim.exact(t_o)

    @property
    def comp_ii_target(self) -> Dim:
        return Dim.exact(self.unavoidable_equations)

    @property
    def unavoidable_equations(self) -> int:
        return self.g1 * self.g2

    @property
    def nu1(self) -> int:
        return 2 * self.m + self.g1 - 1

    @property
    def nu1_stated(self) -> int:
        return 2 * self.m - self.g1 + 1

    @property
    def chi2(self) -> int:
        return -2 * self.n - self.g2 + 1

    @property
    def margin(self) -> int:
        return self.nu1 * self.chi2

    @property
    def margin_stated(self) -> int:
        return self.nu1_stated * self.chi2

    @property
    def c2(self) -> int:
        c2, _ = self.length_c2(self.q_length)
        return c2

    @property
    def margin_exceeds_c2(self) -> bool:
        _, exceeds = self.length_c2(self.q_length)
        return exceeds

    @property
    def margin_established(self) -> bool:
        return self.chi2 > 0

    @property
    def t_u_established(self) -> bool:
        """``t_u`` is exact when ``h^2`` of the square vanishes."""
        return self.q_length == 0 or self.comp_i_target.upper == 0

    @property
    def pairing_reduction(self) -> tuple[tuple[tuple[str, str], ...], tuple[str, ...]]:
        """Why the obstruction pairing ignores the point-supported directions:
        the ``(pairing, reason)`` components that vanish, and the assumptions
        they need. Both are empty at ``l = 0``, where there are no such directions."""
        if self.q_length == 0:
            return (), ()
        return _KILLED_PAIRINGS, _PAIRING_ASSUMPTIONS


class ComparisonReport(Record):
    """Aggregate margin check over all enumerated unstable strata.

    Each stratum is an ``(m, n, orientation, report)`` tuple. With
    ``orientation`` ``"swapped"`` the report exchanges the factors: its
    ``(m, n)`` is the stratum's ``(n, m)``.

    Verdicts, in order of precedence: ``"false"`` when some established
    margin fails to exceed ``c2``, which decides the question whatever the
    other strata say; ``"not-established"`` when some stratum falls outside
    the hypotheses of the margin formulas; ``"true"`` otherwise, when every
    margin is established and exceeds ``c2`` (vacuously true with no
    strata). Not-established strata are listed with every verdict.
    """

    __slots__ = ("c2", "strata", "excluded")

    @property
    def not_established(self) -> tuple[dict, ...]:
        return tuple(
            {
                "m": m,
                "n": n,
                "l": report.q_length,
                "reason": (
                    "the Euler characteristic entering the margin is "
                    f"not positive (chi = {report.chi2} after orientation)"
                ),
            }
            for m, n, _, report in self.strata
            if not report.margin_established
        )

    @property
    def weakest(self) -> KuranishiReport | None:
        """The first established report of least margin, or ``None``."""
        established = (r for *_, r in self.strata if r.margin_established)
        return min(established, key=lambda r: r.margin, default=None)

    @property
    def verdict(self) -> str:
        return self.outcome[1]

    @property
    def outcome(self) -> tuple[KuranishiReport | None, str]:
        """``(weakest, verdict)``, with ``weakest`` derived once for both."""
        weakest = self.weakest
        if weakest is not None and weakest.margin <= self.c2:
            return weakest, "false"
        if any(not r.margin_established for *_, r in self.strata):
            return weakest, "not-established"
        return weakest, "true"


def toy_domain_dim(m: int, n: int) -> int:
    """Dimension of the quadratic-map domain for the split bundle on a
    product of two lines: ``-8mn - 2``.

    It equals the two-term convolution ``(2m+1)(-2n-1) + (2m-1)(-2n+1)``.
    """
    _require_mixed(m, n)
    return -8 * m * n - 2


def toy_unstable_codim(m: int, n: int) -> int:
    """Codimension of the unstable stratum on a product of two lines."""
    _require_mixed(m, n)
    return -4 * m * n - 1


def _require_mixed(m: int, n: int):
    if not (m > 0 and n < 0):
        raise PreconditionError(f"need m > 0 and n < 0, got ({m}, {n})")


def component_report(surface: ProductSurface, m: int, n: int, w: Polarization) -> KuranishiReport:
    """Full dimension ledger around the split bundle ``L + L^-1``, with ``L``
    of bidegree ``(m, n)``.

    The bidegree must have nonnegative degree against the polarization,
    since the stratum describes unstable deformations. Requires ``m >= 1``
    so the first-factor section count of the inverse square vanishes and
    its h1, the multiplier ``nu1``, is exact. The margin is exact
    unconditionally; it is only meaningful (established) when the Euler
    characteristic of the second-factor inverse square is positive.

    The four stored dimensions are the Kunneth ``h^1`` and ``h^2``
    (:func:`modulidim.surface.kunneth_h`) of the square of ``L``, bidegree
    ``(2m, 2n)``, and of its inverse, bidegree ``(-2m, -2n)``. The rest of
    the ledger is derived from them.
    """
    if not is_destabilizing((m, n), w):
        raise PreconditionError(
            f"bidegree ({m}, {n}) has negative degree against {w} and destabilizes nothing"
        )
    if m < 1:
        raise PreconditionError(f"the ledger requires m >= 1, got m = {m}")
    _, h1_square, comp_i_target = kunneth_h(surface, (2 * m, 2 * n))
    _, codim, equations = kunneth_h(surface, (-2 * m, -2 * n))
    return KuranishiReport(surface.g1, surface.g2, m, n, 0, h1_square, comp_i_target, codim, equations)


def nonfiltrable_report(
    surface: ProductSurface, m: int, n: int, w: Polarization, l: int
) -> KuranishiReport:
    """Dimension ledger around a nonfiltrable bundle: an extension of a
    rank-1 torsion-free sheaf by the destabilizing bundle of bidegree
    ``(m, n)``, whose point-supported quotient has total length ``l``. It is
    the split ledger (:func:`component_report`) at length ``l``
    (:meth:`KuranishiReport.at_length`); ``l = 0`` gives the split ledger."""
    return component_report(surface, m, n, w).at_length(l)


def enumerate_strata(
    surface: ProductSurface, w: Polarization, c2: int, bound: int
) -> tuple[list[tuple[int, int, int, str]], list[tuple[int, int, int]]]:
    """Destabilizing types ``(m, n, l)`` for the given ``c2`` inside the box.

    A type is admissible when its polarization degree is nonnegative and
    ``l = c2 + 2mn`` is nonnegative. The margin analysis applies to mixed
    bidegrees; when the negative entry sits in the first slot, the factor
    roles swap. A mixed type has ``|m| |n| <= c2 / 2``, so the walk covers
    that hyperbola rather than the box. Types with ``mn >= 0`` fall in the
    regime of families consisting only of unstable bundles, which are
    removed before the comparison; with positive ``alpha`` and ``beta`` the
    admissible ones are exactly the quadrant ``m, n >= 0``, returned
    separately as ``(m, n, l)`` so nothing is silently skipped.
    Both lists are in ascending ``(m, n)`` order.
    """
    if c2 < 1:
        raise PreconditionError(f"c2 must be >= 1, got {c2}")
    if bound < 1:
        raise PreconditionError(f"the enumeration bound must be >= 1, got {bound}")

    mixed: list[tuple[int, int, int, str]] = []
    top = min(bound, c2 // 2)
    for m in range(-top, top + 1):
        if m == 0:
            continue
        reach = min(bound, c2 // (2 * abs(m)))
        for n in range(1, reach + 1) if m < 0 else range(-reach, 0):
            if is_destabilizing((m, n), w):
                mixed.append((m, n, c2 + 2 * m * n, "standard" if m >= 1 else "swapped"))
    excluded = [(m, n, c2 + 2 * m * n) for m in range(bound + 1) for n in range(bound + 1)]
    return mixed, excluded


def homology_comparison_report(
    surface: ProductSurface, w: Polarization, c2: int, bound: int
) -> ComparisonReport:
    """Aggregate margin check: does every enumerated stratum clear ``c2``?

    Each stratum of :func:`enumerate_strata` gets its nonfiltrable ledger;
    the verdict and its precedence are those of :class:`ComparisonReport`.
    Enumeration is complete only within the box ``|m|, |n| <= bound``.
    """
    mixed, excluded = enumerate_strata(surface, w, c2, bound)
    # the swapped strata share one surface and polarization, factors exchanged
    swapped_surface = ProductSurface(surface.g2, surface.g1)
    swapped_w = Polarization(w.beta, w.alpha)
    strata = []
    for m, n, l, orientation in mixed:
        if orientation == "standard":
            report = nonfiltrable_report(surface, m, n, w, l)
        else:
            report = nonfiltrable_report(swapped_surface, n, m, swapped_w, l)
        strata.append((m, n, orientation, report))
    return ComparisonReport(c2=c2, strata=tuple(strata), excluded=tuple(excluded))
