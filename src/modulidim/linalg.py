"""Exact integer matrix ranks by fraction-free elimination.

Dimension counts must be exact, so no floating point appears anywhere.
Elimination uses integer cross-multiplication (subtracting the pivot row
scaled by the entry against the row scaled by the pivot, then dividing out
the gcd), which keeps every intermediate value an integer.

Every oracle ranks through the sparse routine, keyed on dict-encoded rows
(or columns: rank is unchanged under transpose). The oracle matrices are
large but have only a couple of nonzero entries per row. The dense routine
is kept as an independent reference that the tests check it against.
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


def _reduced(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank of an integer matrix given as sparse rows ``{column: value}``.

    Maintains a pivot row per leading column; each incoming row is reduced
    against existing pivots until it either empties out or claims a fresh
    leading column.
    """
    pivots: dict[int, dict[int, int]] = {}
    for incoming in rows:
        row = {c: v for c, v in incoming.items() if v != 0}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _reduced(row)
                break
            p, v = pivot[lead], row[lead]
            g = gcd(p, v)
            a, b = p // g, v // g
            merged: dict[int, int] = {}
            for c in row.keys() | pivot.keys():
                x = a * row.get(c, 0) - b * pivot.get(c, 0)
                if x != 0:
                    merged[c] = x
            row = merged
    return len(pivots)
