"""Exact linear algebra over the rationals for sparse row dictionaries.

Rows are dicts mapping a column key (any sortable hashable) to a nonzero
Fraction.  Elimination is fraction-free in spirit: pivots are chosen
deterministically (shortest row, then smallest column key), rows are
rescaled exactly, and results never touch floating point.
"""

from __future__ import annotations

from fractions import Fraction
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
    pivots on its smallest column.
    """
    work = [dict(r) for r in rows if r]
    pivots: dict[Hashable, int] = {}
    reduced: list[Row] = []
    while work:
        row = work.pop(min(range(len(work)), key=lambda k: (len(work[k]), min(work[k]))))
        col = min(row)
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        for other in work:
            if col in other:
                _sub_scaled(other, row, other[col])
        for done in reduced:
            if col in done:
                _sub_scaled(done, row, done[col])
        pivots[col] = len(reduced)
        reduced.append(row)
        work = [r for r in work if r]
    return reduced, pivots


def rank(rows: Sequence[Row]) -> int:
    return len(rref(rows)[0])

