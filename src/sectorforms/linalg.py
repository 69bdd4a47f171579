"""Exact ranks over the rationals of sparse row dictionaries: the rank of
every prefix of a list of rows, from one pass.

Rows are dicts mapping a column key (any sortable hashable) to a nonzero
int or Fraction.  Each row is scaled to integers by the lcm of its
denominators and reduced, fraction-free and with no floating point,
against the pivot rows found so far, each kept under its leading column.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from fractions import Fraction
from math import gcd, lcm

Row = dict[Hashable, int | Fraction]


def ranks(rows: Iterable[Row]) -> list[int]:
    """The rank of each nonempty prefix of the rows, from one pass: entry
    i is the rank of the first i + 1 rows.  The input rows are not changed.

    Each row, copied to integers, is reduced at its smallest column by the
    pivot row leading there: with p that pivot's entry, q the row's and
    g = gcd(p, q), the row becomes (p/g) * row - (q/g) * pivot, divided by
    the gcd of its entries.  That is a multiple of the rational step, so a
    row that vanishes is in the span of the rows before it.  A row that
    reaches a column no pivot leads becomes its pivot, and the rank of
    the rows so far is the number of pivots.
    """
    pivots = {}
    counts = []
    for r in rows:
        den = lcm(*[v.denominator for v in r.values()])
        row = {c: v.numerator * (den // v.denominator) for c, v in r.items()}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            g = gcd(pivot[col], row[col])
            p, q = pivot[col] // g, row[col] // g
            if p != 1:
                for c in row:
                    row[c] *= p
            for c, v in pivot.items():
                s = row.get(c, 0) - q * v
                if s:
                    row[c] = s
                else:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
        counts.append(len(pivots))
    return counts
