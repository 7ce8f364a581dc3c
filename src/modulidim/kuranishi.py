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
(:func:`modulidim.skyscraper.killed_pairings_check`), the margin is
unchanged, and only the tangent dimensions and ``c2`` shift by ``l``.
"""

from __future__ import annotations

from .curves import h0_h1_bounds
from .dims import Dim, Record
from .skyscraper import KilledPairingsVerdict, ext1_FF_decomposition, killed_pairings_check
from .surface import (
    Polarization,
    PreconditionError,
    ProductSurface,
    c2_of_extension,
    degree_wrt,
    is_destabilizing,
)


class SplitStratum(Record):
    """Deformations of ``L + L^-1`` with ``L`` of bidegree ``(m, n)``.

    The bidegree must have nonnegative degree against the polarization,
    since the stratum describes unstable deformations.
    """

    __slots__ = ("surface", "m", "n", "polarization")

    def __init__(self, surface: ProductSurface, m: int, n: int, polarization: Polarization):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "polarization", polarization)
        self.__post_init__()

    def __post_init__(self):
        if not is_destabilizing((self.m, self.n), self.polarization):
            raise PreconditionError(
                f"bidegree ({self.m}, {self.n}) has negative degree against "
                f"{self.polarization} and destabilizes nothing"
            )


class KuranishiReport(Record):
    """Per-component dimension ledger for one unstable stratum: the inputs
    and four Kunneth dimensions are stored, every other entry is derived."""

    __slots__ = ("g1", "g2", "m", "n", "alpha", "beta", "q_length",
                 "t_u", "comp_i_target", "codim", "equations")

    def __init__(self, g1: int, g2: int, m: int, n: int, alpha: int, beta: int, q_length: int,
                 t_u: Dim, comp_i_target: Dim, codim: Dim, equations: Dim):
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "q_length", q_length)
        object.__setattr__(self, "t_u", t_u)
        object.__setattr__(self, "comp_i_target", comp_i_target)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "equations", equations)

    # With m >= 1 the first-factor inverse square has no sections, so the
    # Kunneth h^1 and h^2 of the inverse square are nu1 times the second
    # factor's h^0 and h^1: ``codim`` and ``equations``.
    @property
    def t_s(self) -> Dim:
        """h^1 of the inverse square plus the quotient length."""
        return self.codim + self.q_length

    @property
    def comp_iii_target(self) -> Dim:
        """h^2 of the inverse square."""
        return self.equations

    @property
    def t_o(self) -> Dim:
        """Ext^1(F, F): ``2l`` point-supported directions plus ``h^1(O) = g1 + g2``."""
        gamma_part, h1_part = ext1_FF_decomposition(self.q_length, self.g1 + self.g2)
        return Dim.exact(gamma_part + h1_part)

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
        return c2_of_extension((self.m, self.n), (-self.m, -self.n), self.q_length)

    @property
    def margin_exceeds_c2(self) -> bool:
        return self.margin > self.c2

    @property
    def margin_established(self) -> bool:
        return self.chi2 > 0

    @property
    def t_u_established(self) -> bool:
        """The shifted ``t_u`` is exact when ``h^2`` of the square vanishes."""
        return self.q_length == 0 or self.comp_i_target.upper == 0

    @property
    def pairing_reduction(self) -> KilledPairingsVerdict:
        return killed_pairings_check(self.q_length)


class StratumOutcome(Record):
    """One stratum inside an aggregate comparison report."""

    __slots__ = ("m", "n", "q_length", "orientation", "report")

    def __init__(self, m: int, n: int, q_length: int, orientation: str, report: KuranishiReport):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q_length", q_length)
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "report", report)

    @property
    def margin(self) -> int:
        return self.report.margin

    @property
    def established(self) -> bool:
        return self.report.margin_established


class ComparisonReport(Record):
    """Aggregate margin check over all enumerated unstable strata."""

    __slots__ = ("surface", "polarization", "c2", "bound", "strata",
                 "excluded", "not_established", "min_margin", "verdict")

    def __init__(self, surface: ProductSurface, polarization: Polarization, c2: int, bound: int,
                 strata: tuple[StratumOutcome, ...], excluded: tuple[dict, ...],
                 not_established: tuple[dict, ...], min_margin: int | None, verdict: str):
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "polarization", polarization)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "excluded", excluded)
        object.__setattr__(self, "not_established", not_established)
        object.__setattr__(self, "min_margin", min_margin)
        object.__setattr__(self, "verdict", verdict)


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


def _h1_product(first: tuple, second: tuple) -> Dim:
    """Kunneth ``h^1`` of an external product from the factors' integer
    bounds ``(h0 lower, h0 upper, h1 lower, h1 upper)``: ``h0 h1 + h1 h0``,
    bound by bound (every bound is a nonnegative integer)."""
    return Dim(
        first[0] * second[2] + first[2] * second[0],
        first[1] * second[3] + first[3] * second[1],
    )


def _h2_product(first: tuple, second: tuple) -> Dim:
    """Kunneth ``h^2`` of an external product: ``h1 h1``, bound by bound."""
    return Dim(first[2] * second[2], first[3] * second[3])


def component_report(stratum: SplitStratum) -> KuranishiReport:
    """Full dimension ledger around a split bundle.

    Requires ``m >= 1`` so the first-factor section count of the inverse
    square vanishes and its h1, the multiplier ``nu1``, is exact. The margin
    is exact unconditionally; it is only meaningful (established) when the
    Euler characteristic of the second-factor inverse square is positive.

    The four stored dimensions come from four evaluations of the generic
    curve rule (:func:`modulidim.curves.h0_h1_bounds`), at degrees ``2m``
    and ``-2m`` on the first factor and ``2n`` and ``-2n`` on the second,
    combined by Kunneth products and sums of integer bounds. They equal
    :func:`modulidim.surface.kunneth_h` on the twists of ``L``; no bundle
    objects are built. The rest of the ledger is derived from them.
    """
    if stratum.m < 1:
        raise PreconditionError(f"the ledger requires m >= 1, got m = {stratum.m}")
    g1, g2 = stratum.surface.genera
    m, n = stratum.m, stratum.n

    square1 = h0_h1_bounds(g1, 2 * m)
    square2 = h0_h1_bounds(g2, 2 * n)
    inverse1 = h0_h1_bounds(g1, -2 * m)
    inverse2 = h0_h1_bounds(g2, -2 * n)
    nu1 = inverse1[2]  # exact: no sections in negative degree
    return KuranishiReport(
        g1=g1,
        g2=g2,
        m=m,
        n=n,
        alpha=stratum.polarization.alpha,
        beta=stratum.polarization.beta,
        q_length=0,
        t_u=_h1_product(square1, square2),
        comp_i_target=_h2_product(square1, square2),
        codim=Dim(nu1 * inverse2[0], nu1 * inverse2[1]),
        equations=Dim(nu1 * inverse2[2], nu1 * inverse2[3]),
    )


def nonfiltrable_report(split: SplitStratum, l: int) -> KuranishiReport:
    """Dimension ledger around a nonfiltrable bundle: an extension of a
    rank-1 torsion-free sheaf by the destabilizing bundle of ``split``, whose
    point-supported quotient has total length ``l``. It is the split ledger
    (:func:`component_report`) shifted by ``l`` (:func:`shift_by_length`);
    ``l = 0`` gives the split ledger itself."""
    return shift_by_length(component_report(split), l)


def shift_by_length(split: KuranishiReport, l: int) -> KuranishiReport:
    """The nonfiltrable ledger with quotient length ``l`` over a split ledger.

    Of the stored entries only ``t_u`` depends on ``l``; the derived ones
    (``t_o``, ``t_s``, ``c2``, the verdicts) follow from the new
    ``q_length``, and the margin is unchanged. The split ledger does not
    depend on ``l``, so a caller walking several lengths over one stratum
    computes it once and shifts it per length.
    """
    if l < 0:
        raise PreconditionError("q_length must be >= 0")
    if split.q_length != 0:
        raise PreconditionError("only a split ledger (q_length 0) can be shifted")
    if l == 0:
        return split

    # Exactness pins t_u between h1 of the square plus the part of the
    # length not absorbed by h2 of the square, and h1 plus the full length;
    # it stays exact (t_u_established) when that h2 vanishes.
    absorbed = min(l, split.comp_i_target.upper)
    return KuranishiReport(
        g1=split.g1,
        g2=split.g2,
        m=split.m,
        n=split.n,
        alpha=split.alpha,
        beta=split.beta,
        q_length=l,
        t_u=Dim(split.t_u.lower + l - absorbed, split.t_u.upper + l),
        comp_i_target=split.comp_i_target,
        codim=split.codim,
        equations=split.equations,
    )


def enumerate_strata(
    surface: ProductSurface, w: Polarization, c2: int, bound: int
) -> tuple[list[tuple[int, int, int, str]], list[dict]]:
    """Destabilizing types ``(m, n, l)`` for the given ``c2`` inside the box.

    A type is admissible when its polarization degree is nonnegative and
    ``l = c2 + 2mn`` is nonnegative. The margin analysis applies to mixed
    bidegrees; when the negative entry sits in the first slot, the factor
    roles swap. Types with ``mn >= 0`` fall in the regime of families
    consisting only of unstable bundles, which are removed before the
    comparison; they are returned separately as ``{m, n, l}`` entries so
    nothing is silently skipped.
    """
    mixed: list[tuple[int, int, int, str]] = []
    excluded: list[dict] = []
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            l = c2 + 2 * m * n
            if l < 0:
                continue
            if degree_wrt((m, n), w) < 0:
                continue
            if m * n >= 0:
                excluded.append({"m": m, "n": n, "l": l})
                continue
            orientation = "standard" if m >= 1 else "swapped"
            mixed.append((m, n, l, orientation))
    mixed.sort()
    excluded.sort(key=lambda e: (e["m"], e["n"], e["l"]))
    return mixed, excluded


def _oriented_report(
    surface: ProductSurface,
    w: Polarization,
    m: int,
    n: int,
    l: int,
    orientation: str,
) -> KuranishiReport:
    if orientation == "standard":
        split = SplitStratum(surface, m, n, w)
    else:
        swapped_surface = ProductSurface(surface.curve2, surface.curve1)
        split = SplitStratum(swapped_surface, n, m, Polarization(w.beta, w.alpha))
    return nonfiltrable_report(split, l)


def homology_comparison_report(
    surface: ProductSurface, w: Polarization, c2: int, bound: int
) -> ComparisonReport:
    """Aggregate margin check: does every enumerated stratum clear ``c2``?

    Verdicts, in order of precedence: ``"false"`` when some established
    margin fails to exceed ``c2``, which decides the question whatever the
    other strata say; ``"not-established"`` when some stratum falls outside
    the hypotheses of the margin formulas; ``"true"`` otherwise, when every
    margin is established and exceeds ``c2`` (vacuously true with no
    strata). Not-established strata are listed with every verdict.
    Enumeration is complete only within the box ``|m|, |n| <= bound``.
    """
    if c2 < 1:
        raise PreconditionError(f"c2 must be >= 1, got {c2}")
    if bound < 1:
        raise PreconditionError(f"the enumeration bound must be >= 1, got {bound}")

    mixed, excluded = enumerate_strata(surface, w, c2, bound)
    outcomes = []
    failing = []
    for m, n, l, orientation in mixed:
        report = _oriented_report(surface, w, m, n, l, orientation)
        outcomes.append(
            StratumOutcome(
                m=m, n=n, q_length=l, orientation=orientation, report=report
            )
        )
        if not report.margin_established:
            failing.append(
                {
                    "m": m,
                    "n": n,
                    "l": l,
                    "reason": (
                        "the Euler characteristic entering the margin is "
                        f"not positive (chi = {report.chi2} after orientation)"
                    ),
                }
            )

    established = [o.margin for o in outcomes if o.established]
    min_margin = min(established) if established else None
    if min_margin is not None and min_margin <= c2:
        verdict = "false"
    elif failing:
        verdict = "not-established"
    else:
        verdict = "true"
    return ComparisonReport(
        surface=surface,
        polarization=w,
        c2=c2,
        bound=bound,
        strata=tuple(outcomes),
        excluded=tuple(excluded),
        not_established=tuple(failing),
        min_margin=min_margin,
        verdict=verdict,
    )
