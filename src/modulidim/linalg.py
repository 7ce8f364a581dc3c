"""Exact integer matrix ranks by fraction-free elimination.

Dimension counts must be exact, so no floating point appears anywhere.
Elimination uses integer cross-multiplication (subtracting the pivot row
scaled by the entry against the row scaled by the pivot, then dividing out
the gcd), which keeps every intermediate value an integer.

Every oracle ranks through the sparse routine, keyed on dict-encoded rows
(or columns: rank is unchanged under transpose). The oracle matrices are
large but have only one or two nonzero entries per row, so the sparse
routine settles a one-entry row without arithmetic and reduces only rows
that meet a pivot with more than one entry. It reads its rows once, from
any iterable (every oracle generates its columns, and one function,
``oracle._cohomology``, turns the ranks into dimensions), and keeps only
its pivots: a one-entry pivot as its column in a set, a longer one as its
row. Memory is therefore O(rank), not O(size of the matrix). The dense
routine is kept as an independent reference that the tests check it
against.
"""

from __future__ import annotations

from math import gcd
from collections.abc import Iterable


def dense_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix given as a list of rows."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    pivot_col = 0
    while rank < nrows and pivot_col < ncols:
        pivot_row = next(
            (r for r in range(rank, nrows) if m[r][pivot_col] != 0), None
        )
        if pivot_row is None:
            pivot_col += 1
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        p = m[rank][pivot_col]
        for r in range(rank + 1, nrows):
            v = m[r][pivot_col]
            if v == 0:
                continue
            g = gcd(p, v)
            a, b = p // g, v // g
            row = [a * x - b * y for x, y in zip(m[r], m[rank])]
            shrink = 0
            for x in row:
                shrink = gcd(shrink, x)
                if shrink == 1:
                    break
            if shrink > 1:
                row = [x // shrink for x in row]
            m[r] = row
        rank += 1
        pivot_col += 1
    return rank


def sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank of an integer matrix given as sparse rows ``{column: value}``.

    ``rows`` may be any iterable, a generator included; it is read once,
    row by row, and only the pivots are kept, so memory is O(rank). Each
    incoming row is reduced against the pivots until it either empties out
    or claims a fresh leading column, divided by the gcd of its entries. A
    one-entry row needs no entries kept: it claims its column in the set of
    unit leads (as a pivot of +1 or -1 would) or vanishes against it, and a
    longer row whose lead is a unit lead drops that entry.
    Rows are never modified: a row that holds a zero is copied without it,
    and a caller's row may be kept as a pivot as it is.
    """
    units: set[int] = set()
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(row) > 1 and 0 in row.values():
            row = {c: v for c, v in row.items() if v != 0}
        while row:
            if len(row) == 1:
                [lead] = row
                if lead in units or row[lead] == 0:
                    break
                pivot = pivots.get(lead) if pivots else None
                if pivot is None:
                    units.add(lead)
                    break
            else:
                lead = min(row)
                if lead in units:
                    # a unit lead clears the entry and touches nothing else
                    row = {c: v for c, v in row.items() if c != lead}
                    continue
                pivot = pivots.get(lead)
                if pivot is None:
                    g = 0
                    for v in row.values():
                        g = gcd(g, v)
                        if g == 1:
                            break
                    else:
                        row = {c: v // g for c, v in row.items()}
                    pivots[lead] = row
                    break
            p, v = pivot[lead], row[lead]
            g = gcd(p, v)
            a, b = p // g, v // g
            merged = {c: a * x for c, x in row.items() if c != lead}
            for c, y in pivot.items():
                if c != lead:
                    x = merged.get(c, 0) - b * y
                    if x:
                        merged[c] = x
                    else:
                        del merged[c]
            row = merged
    return len(units) + len(pivots)
