"""Brute-force verification engines, independent of the closed-form rules.

Three oracles, all over exact integer arithmetic:

* a two-chart Cech complex for twisting sheaves on the projective line,
* for bidegree sheaves on a product of two projective lines, the total
  complex of the tensor product of two such line complexes, ranked as a
  whole rather than by convolving the line oracle's answers, so the
  Kunneth identity itself gets tested,
* a Koszul-resolution Ext computer for monomial complete-intersection
  quotients ``O / (x^a, y^b)``.

Infinite section spaces are truncated to a monomial exponent window
``[-N, N]``; overlap exponent ``e`` is row ``e + N``, and the product's
terms are row-major in their two factors. Every oracle generates its sparse
columns as the rank reads them, one differential after the other, and
:func:`_cohomology` alone turns ranks into dimensions. The rank keeps only
its pivots, so a chart complex takes O(rank) memory and the Koszul complex,
whose ranks vanish, O(1). Every size is taken before the first column: a
window too long for a machine word raises :class:`OverflowError`, and a
Koszul length over :data:`KOSZUL_MAX_LENGTH` is refused. A truncated answer
is certified by recomputing it at window ``N + 1``: a change in any
dimension raises :class:`OracleCheckError`, as does a Koszul differential
that fails to vanish. The command line reports that error with exit code 4.
"""

from __future__ import annotations

from collections.abc import Iterator

from .linalg import sparse_rank

# the longest Koszul quotient ranked: 2-3 s of CPU on a 2-vCPU Xeon, Python 3.11
KOSZUL_MAX_LENGTH = 2_000_000


class OracleCheckError(RuntimeError):
    """An oracle's own check failed: recomputation at a larger window changed
    the answer, or a resolution differential expected to vanish did not."""


def _stable(dims, args: tuple, need: int, N: int | None, what: str) -> tuple:
    """``(*dims(*args, N), N)`` at the window ``N``, ``need`` by default and
    refused below it, checked against window ``N + 1``."""
    if N is None:
        N = need
    if N < need:
        raise ValueError(f"need N >= {need} for {what}, got {N}")
    h = dims(*args, N)
    if h != dims(*args, N + 1):
        raise OracleCheckError(f"{what} not stabilized at window {N}")
    return (*h, N)


def _cohomology(sizes: tuple, *differentials) -> tuple:
    """``h^i = n_i - rank d_i - rank d_(i-1)`` of the complex whose terms have
    the ``sizes`` n_i, each differential d_i a stream of sparse columns.

    The streams are ranked in order, so a generated one starts only after
    the one before it is ranked.
    """
    ranks = [0, *map(sparse_rank, differentials), 0]
    return tuple(n - r - s for n, r, s in zip(sizes, ranks, ranks[1:]))


def _line(k: int, N: int) -> tuple[tuple[range, int], ...]:
    """The two-chart complex of the degree-k sheaf on the projective line in
    the window ``[-N, N]``: per chart, the range of overlap rows its sections
    restrict to (exponent ``e`` is row ``e + N``, of ``2N + 1``) and its sign.
    Chart 0 sections are polynomial, chart 1 sections end at the degree."""
    return (range(N, 2 * N + 1), -1), (range(0, min(k, N) + N + 1), 1)


def _p1_dims(k: int, N: int) -> tuple[int, int]:
    # one column per chart section: its restriction to the overlap
    line = _line(k, N)
    return _cohomology(
        (sum(len(rows) for rows, _ in line), 2 * N + 1),
        ({row: s} for rows, s in line for row in rows),
    )


def cech_h_p1(k: int, N: int | None = None) -> tuple[int, int, int]:
    """Cohomology ``(h0, h1, N)`` of the degree-k twisting sheaf on the
    projective line, with the window ``N`` used.

    Builds the two-chart complex with monomial exponents truncated to the
    window ``[-N, N]`` and computes exact kernel and cokernel ranks.
    Requires ``N >= |k| + 2``, the default, so that the window contains
    every true cohomology class.
    """
    return _stable(_p1_dims, (k,), abs(k) + 2, N, f"degree {k}")


def _product_dims(a: int, b: int, N: int) -> tuple[int, int, int]:
    """Cohomology of the total complex of ``_line(a, N)`` tensor
    ``_line(b, N)``: X0Y0 -> X1Y0 + X0Y1 -> X1Y1, every term row-major in its
    two factors.

    d0 restricts a section along each factor with that factor's chart sign;
    d1 restricts along the other factor, with + on X1Y0 and - on X0Y1 so
    that the composite with d0 vanishes.
    """
    xs, ys = _line(a, N), _line(b, N)
    w = 2 * N + 1
    nx, ny = (sum(len(rows) for rows, _ in line) for line in (xs, ys))

    def d0_columns():
        y_row = w * ny
        for x_rows, sx in xs:
            for rx in x_rows:
                x_row = rx * ny
                for y_rows, sy in ys:
                    for ry in y_rows:
                        yield {x_row: sx, y_row + ry: sy}
                        x_row += 1
                y_row += w

    def d1_columns():
        for r in range(0, w * w, w):
            for y_rows, sy in ys:
                for ry in y_rows:
                    yield {r + ry: sy}
        for x_rows, sx in xs:
            for rx in x_rows:
                for r in range(rx * w, rx * w + w):
                    yield {r: -sx}

    return _cohomology((nx * ny, w * (ny + nx), w * w), d0_columns(), d1_columns())


def cech_h_product(a: int, b: int, N: int | None = None) -> tuple[int, int, int, int]:
    """Cohomology ``(h0, h1, h2, N)`` of the bidegree-(a, b) sheaf on a
    product of two lines, with the window ``N`` used.

    Exponents are truncated to ``[-N, N]``; requires
    ``N >= max(|a|, |b|) + 2``, the default.
    """
    return _stable(_product_dims, (a, b), max(abs(a), abs(b)) + 2, N, f"bidegree ({a}, {b})")


def _multiplication_matrix(a: int, b: int, dx: int, dy: int) -> Iterator[dict[int, int]]:
    """Multiplication by ``x^dx y^dy`` on ``O / (x^a, y^b)``, as sparse columns.

    One column ``{row: value}`` per basis monomial ``x^i y^j`` with ``i < a``
    and ``j < b``, whose index is ``i * b + j``; a product whose exponents
    leave the box is zero in the quotient and gives an empty column.
    """
    return (
        {(i + dx) * b + j + dy: 1} if 0 <= i + dx < a and 0 <= j + dy < b else {}
        for i in range(a)
        for j in range(b)
    )


def koszul_ext(a: int, b: int) -> tuple[int, int, int]:
    """Self-Ext dimensions ``(e0, e1, e2)`` of the quotient ``O / (x^a, y^b)``,
    a complete intersection of length ``l = ab`` (both exponents ``>= 1``,
    ``l`` at most :data:`KOSZUL_MAX_LENGTH`), via its Koszul resolution.

    Applying the hom functor into the quotient to the length-two resolution
    by the generators ``x^a`` and ``y^b`` produces a three-term complex whose
    differentials are the multiplication maps by those generators. Both are
    generated explicitly as sparse columns and must vanish identically on
    the quotient ring; the cohomology dimensions are then ``(l, 2l, l)``.
    Time is linear in ``l``, and memory is O(1) while the check holds.
    """
    if a < 1 or b < 1:
        raise ValueError("exponents must be >= 1")
    l = a * b
    if l > KOSZUL_MAX_LENGTH:
        raise ValueError(f"length a*b = {l} exceeds the cap of {KOSZUL_MAX_LENGTH}")
    mx, my = _multiplication_matrix(a, b, a, 0), _multiplication_matrix(a, b, 0, b)
    # d1: v -> (y^b v, -x^a v), just y^b v where x^a v = 0; d2: (u, w) -> x^a u + y^b w
    e0, e1, e2 = _cohomology(
        (l, 2 * l, l),
        ({**y, **{r + l: -v for r, v in x.items()}} if x else y for x, y in zip(mx, my)),
        (column for d in ((a, 0), (0, b)) for column in _multiplication_matrix(a, b, *d)),
    )
    if e0 != l or e2 != l:
        raise OracleCheckError(
            f"resolution differentials have ranks ({l - e0}, {l - e2}), expected zero"
        )
    return e0, e1, e2
