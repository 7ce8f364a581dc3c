"""Brute-force verification engines, independent of the closed-form rules.

Three oracles, all over exact integer arithmetic:

* a two-chart Cech complex for twisting sheaves on the projective line,
* a four-chart double complex for bidegree sheaves on a product of two
  projective lines (built as a genuine double complex rather than by
  convolving the line oracle, so the Kunneth identity itself gets tested),
* a Koszul-resolution Ext computer for monomial complete-intersection
  quotients ``O / (x^a, y^b)``.

Infinite section spaces are truncated to a monomial exponent window
``[-N, N]``. Correctness of a truncated answer is certified operationally:
every result is recomputed at window ``N + 1``, and a change in any
dimension raises :class:`StabilizationError`. The Koszul oracle raises
:class:`KoszulAssertionError` when a differential fails to vanish. The
command line reports either error with exit code 4.
"""

from __future__ import annotations

from .dims import Record
from .linalg import sparse_rank


class WindowTooSmallError(ValueError):
    """The truncation window cannot contain the requested computation."""


class StabilizationError(RuntimeError):
    """Recomputation at a larger window changed the answer."""


class KoszulAssertionError(RuntimeError):
    """A resolution differential expected to vanish did not."""


class P1CechResult(Record):
    __slots__ = ("k", "h0", "h1", "window")

    def __init__(self, k: int, h0: int, h1: int, window: int):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "window", window)


class ProductCechResult(Record):
    __slots__ = ("a", "b", "h0", "h1", "h2", "window")

    def __init__(self, a: int, b: int, h0: int, h1: int, h2: int, window: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "window", window)


class KoszulModel(Record):
    """The quotient ``O / (x^a, y^b)``, a complete intersection of length ab."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        self.__post_init__()

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("exponents must be >= 1")

    @property
    def length(self) -> int:
        return self.a * self.b


class KoszulExtResult(Record):
    __slots__ = ("e0", "e1", "e2", "length")

    def __init__(self, e0: int, e1: int, e2: int, length: int):
        object.__setattr__(self, "e0", e0)
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)
        object.__setattr__(self, "length", length)


def _chart_exponents(chart: int, k: int, N: int) -> range:
    """Window-truncated exponents of chart sections of the degree-k sheaf.

    Chart 0 sections are polynomial (exponents from 0 up), chart 1 sections
    are bounded above by the twist degree.
    """
    if chart == 0:
        return range(0, N + 1)
    return range(-N, min(k, N) + 1)


def _p1_dims(k: int, N: int) -> tuple[int, int]:
    exps0 = _chart_exponents(0, k, N)
    exps1 = _chart_exponents(1, k, N)
    n0 = len(exps0) + len(exps1)
    overlap_index = {e: i for i, e in enumerate(range(-N, N + 1))}
    n1 = len(overlap_index)
    # One column per chart section; the differential is the restriction
    # difference on the overlap.
    columns = [{overlap_index[e]: -1} for e in exps0]
    columns += [{overlap_index[e]: 1} for e in exps1]
    rank = sparse_rank(columns)
    return n0 - rank, n1 - rank


def cech_h_p1(k: int, N: int | None = None) -> P1CechResult:
    """Cohomology of the degree-k twisting sheaf on the projective line.

    Builds the two-chart complex with monomial exponents truncated to the
    window ``[-N, N]`` and computes exact kernel and cokernel ranks.
    Requires ``N >= |k| + 2``, the default, so that the window contains
    every true cohomology class.
    """
    need = abs(k) + 2
    if N is None:
        N = need
    if N < need:
        raise WindowTooSmallError(f"need N >= {need} for degree {k}, got {N}")
    h = _p1_dims(k, N)
    if h != _p1_dims(k, N + 1):
        raise StabilizationError(f"degree {k} not stabilized at window {N}")
    return P1CechResult(k=k, h0=h[0], h1=h[1], window=N)


def _product_dims(a: int, b: int, N: int) -> tuple[int, int, int]:
    """Total-complex cohomology of the four-chart double complex."""
    sign = {0: -1, 1: 1}

    t0 = [
        (cx, cy, e, f)
        for cx in (0, 1)
        for cy in (0, 1)
        for e in _chart_exponents(cx, a, N)
        for f in _chart_exponents(cy, b, N)
    ]
    t1 = [
        ("x", cy, e, f)
        for cy in (0, 1)
        for e in range(-N, N + 1)
        for f in _chart_exponents(cy, b, N)
    ]
    t1 += [
        ("y", cx, e, f)
        for cx in (0, 1)
        for e in _chart_exponents(cx, a, N)
        for f in range(-N, N + 1)
    ]
    t2 = [(e, f) for e in range(-N, N + 1) for f in range(-N, N + 1)]

    t1_index = {key: i for i, key in enumerate(t1)}
    t2_index = {key: i for i, key in enumerate(t2)}

    # d0: restrict each double-chart section to the two adjacent overlaps.
    d0_cols = [
        {
            t1_index[("x", cy, e, f)]: sign[cx],
            t1_index[("y", cx, e, f)]: sign[cy],
        }
        for (cx, cy, e, f) in t0
    ]
    # d1: the remaining restrictions, with a sign twist on the y-part so
    # that the composite with d0 vanishes.
    d1_cols = []
    for key in t1:
        if key[0] == "x":
            _, cy, e, f = key
            d1_cols.append({t2_index[(e, f)]: sign[cy]})
        else:
            _, cx, e, f = key
            d1_cols.append({t2_index[(e, f)]: -sign[cx]})

    rank0 = sparse_rank(d0_cols)
    rank1 = sparse_rank(d1_cols)
    h0 = len(t0) - rank0
    h1 = len(t1) - rank0 - rank1
    h2 = len(t2) - rank1
    return h0, h1, h2


def cech_h_product(a: int, b: int, N: int | None = None) -> ProductCechResult:
    """Cohomology of the bidegree-(a, b) sheaf on a product of two lines.

    Exponents are truncated to ``[-N, N]``; requires
    ``N >= max(|a|, |b|) + 2``, the default.
    """
    need = max(abs(a), abs(b)) + 2
    if N is None:
        N = need
    if N < need:
        raise WindowTooSmallError(f"need N >= {need} for bidegree ({a}, {b}), got {N}")
    h = _product_dims(a, b, N)
    if h != _product_dims(a, b, N + 1):
        raise StabilizationError(f"bidegree ({a}, {b}) not stabilized at window {N}")
    return ProductCechResult(a=a, b=b, h0=h[0], h1=h[1], h2=h[2], window=N)


def _multiplication_matrix(model: KoszulModel, dx: int, dy: int) -> list[dict[int, int]]:
    """Multiplication by ``x^dx y^dy`` on ``O / (x^a, y^b)``, as sparse columns.

    One column ``{row: value}`` per basis monomial ``x^i y^j`` with ``i < a``
    and ``j < b``; a product whose exponents leave the box is zero in the
    quotient and gives an empty column.
    """
    basis = [(i, j) for i in range(model.a) for j in range(model.b)]
    index = {m: idx for idx, m in enumerate(basis)}
    columns = []
    for i, j in basis:
        target = index.get((i + dx, j + dy))
        columns.append({} if target is None else {target: 1})
    return columns


def koszul_ext(model: KoszulModel) -> KoszulExtResult:
    """Self-Ext dimensions of the quotient via its Koszul resolution.

    Applying the hom functor into the quotient to the length-two resolution
    by the generators ``x^a`` and ``y^b`` produces a three-term complex whose
    differentials are the multiplication maps by those generators. Both are
    built explicitly as sparse columns and must vanish identically on the
    quotient ring; the cohomology dimensions are then ``(l, 2l, l)`` with
    ``l = ab``. Time and memory are linear in ``l``.
    """
    l = model.length
    mx = _multiplication_matrix(model, model.a, 0)
    my = _multiplication_matrix(model, 0, model.b)
    # First differential: v -> (y^b v, -x^a v); second: (u, w) -> x^a u + y^b w.
    d1 = [{**y, **{r + l: -v for r, v in x.items()}} for x, y in zip(mx, my)]
    d2 = mx + my
    rank1 = sparse_rank(d1)
    rank2 = sparse_rank(d2)
    if rank1 != 0 or rank2 != 0:
        raise KoszulAssertionError(
            f"resolution differentials have ranks ({rank1}, {rank2}), expected zero"
        )
    return KoszulExtResult(
        e0=l - rank1,
        e1=2 * l - rank1 - rank2,
        e2=l - rank2,
        length=l,
    )
