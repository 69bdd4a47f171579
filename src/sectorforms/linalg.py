"""Exact linear algebra over the rationals for sparse row dictionaries.

Rows are dicts mapping a column key (any sortable hashable) to a nonzero
Fraction.  Elimination is fraction-free in spirit: pivots are chosen
deterministically (shortest row, then smallest column key), rows are
rescaled exactly, and results never touch floating point.
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


def rref(rows: Sequence[Row]) -> tuple[list[Row], dict[Hashable, int]]:
    """Reduced row echelon form.

    Returns the nonzero reduced rows and a map pivot column -> row index.
    Deterministic: each step takes the sparsest remaining row, ties going
    to the smallest leading column and then to the earliest input row, and
    pivots on its smallest column.  The keys wait in a heap: a changed row
    is pushed again, and a popped key that no longer fits its row skipped.
    """
    work = {i: dict(r) for i, r in enumerate(rows) if r}
    heap = [(len(r), min(r), i) for i, r in work.items()]
    heapify(heap)
    pivots: dict[Hashable, int] = {}
    reduced: list[Row] = []
    while heap:
        size, col, i = heappop(heap)
        row = work.get(i)
        if not row or (size, col) != (len(row), min(row)):
            continue  # pivoted, emptied, or changed since this key was pushed
        del work[i]
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        for j, other in work.items():
            if col in other:
                _sub_scaled(other, row, other[col])
                if other:
                    heappush(heap, (len(other), min(other), j))
        for done in reduced:
            if col in done:
                _sub_scaled(done, row, done[col])
        pivots[col] = len(reduced)
        reduced.append(row)
    return reduced, pivots


def rank(rows: Sequence[Row]) -> int:
    return len(rref(rows)[0])

