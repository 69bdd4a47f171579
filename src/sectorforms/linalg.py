"""Exact rank over the rationals for sparse row dictionaries.

Rows are dicts mapping a column key (any sortable hashable) to a nonzero
Fraction.  Elimination runs forward only, in exact `Fraction` arithmetic
with no floating point: pivots are chosen deterministically (shortest
row, then smallest column key), and each pivot's column is cleared from
the rows not yet pivoted.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Hashable, Sequence

Row = dict[Hashable, Fraction]


def _sub_scaled(target: Row, source: Row, factor: Fraction) -> None:
    """target -= factor * source, dropping zeros in place."""
    if not factor:
        return
    for col, val in source.items():
        s = target.get(col, Fraction(0)) - factor * val
        if s:
            target[col] = s
        else:
            target.pop(col, None)


def rank(rows: Sequence[Row]) -> int:
    """Rank of the rows, by forward elimination; empty rows are skipped.

    Each step takes the sparsest remaining row, ties going to the smallest
    leading column and then to the earliest input row, and clears its
    smallest column from every other remaining row.  The keys wait in a
    heap: a changed row is pushed again, and a popped key that no longer
    fits its row skipped.
    """
    work = {i: dict(r) for i, r in enumerate(rows) if r}
    heap = [(len(r), min(r), i) for i, r in work.items()]
    heapify(heap)
    count = 0
    while heap:
        size, col, i = heappop(heap)
        row = work.get(i)
        if not row or (size, col) != (len(row), min(row)):
            continue  # pivoted, emptied, or changed since this key was pushed
        del work[i]
        for j, other in work.items():
            if col in other:
                _sub_scaled(other, row, other[col] / row[col])
                if other:
                    heappush(heap, (len(other), min(other), j))
        count += 1
    return count
