"""Exact rank over the rationals for sparse row dictionaries.

Rows are dicts mapping a column key (any sortable hashable) to a nonzero
int or Fraction.  Each row is scaled to integers by the lcm of its
denominators, and elimination runs forward only, fraction-free, with no
floating point: pivots are chosen deterministically (shortest row, then
smallest column key), and each pivot's column is cleared from the rows
not yet pivoted.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Hashable, Sequence

Row = dict[Hashable, int | Fraction]


def rank(rows: Sequence[Row]) -> int:
    """Rank of the rows, by forward elimination; empty rows are skipped.

    Each step takes the sparsest remaining row, ties going to the smallest
    leading column and then to the earliest input row, and clears its
    smallest column from every other remaining row: with p the pivot and
    g = gcd(p, q), a row holding q there becomes (p/g) * row - (q/g) * pivot
    row, divided by the gcd of its entries.  That is a multiple of the
    rational elimination, with the same columns, so the pivots and the rank
    are those of `Fraction` arithmetic.  The keys wait in a heap: a changed
    row is pushed again, and a popped key that no longer fits its row
    skipped.
    """
    work = {}
    for i, r in enumerate(rows):
        if r:
            den = lcm(*[v.denominator for v in r.values()])
            work[i] = {c: v.numerator * (den // v.denominator) for c, v in r.items()}
    heap = [(len(r), min(r), i) for i, r in work.items()]
    heapify(heap)
    count = 0
    while heap:
        size, col, i = heappop(heap)
        row = work.get(i)
        if not row or (size, col) != (len(row), min(row)):
            continue  # pivoted, emptied, or changed since this key was pushed
        del work[i]
        pivot = row[col]
        for j, other in work.items():
            if col not in other:
                continue
            g = gcd(pivot, other[col])
            p, q = pivot // g, other[col] // g
            if p != 1:
                for c in other:
                    other[c] *= p
            for c, v in row.items():
                s = other.get(c, 0) - q * v
                if s:
                    other[c] = s
                else:
                    del other[c]
            if other:
                g = gcd(*other.values())
                if g > 1:
                    for c in other:
                        other[c] //= g
                heappush(heap, (len(other), min(other), j))
        count += 1
    return count
