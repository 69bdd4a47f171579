"""Independent references for checking sectorforms outputs.

Nothing here imports sectorforms.  Sector forms are handled through the
partition-monomial description: a monomial of a degree-n form on R^m is
a base monomial times tangent coordinates (j, S), where S is a set of
cardinal elements 1..n.  Cardinal element e sits at tangent level n+1-e,
so it is bit n-e of a coordinate's level mask, and the flat coordinate
index is mask * m + j (0-based j), as in docs/coordinate-layout.md.

The action of a map of finite cardinals f: n -> n' on a form pushes the
level set S of every coordinate forward to f(S) when S is a union of
fibres of f, sends the coordinate to 0 otherwise, and then applies, for
each element of n' outside the image, the derivation that adds that
element to one coordinate of each monomial (to a base coordinate x_j
it adds the new coordinate (j, {L})).  Cofaces, the exterior derivative
and `apply` are all instances.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

# A form body is {exponent tuple: Fraction} over m << n flat coordinates.
# Internally a monomial is a sorted tuple of ((j, element_mask), power),
# with element_mask bit e-1 set for cardinal element e (0 for base x_j).


def _to_monomial(exp, m, n):
    mono = []
    for v, p in enumerate(exp):
        if p:
            j, mask = v % m, v // m
            elems = 0
            for b in range(n):
                if mask >> b & 1:
                    elems |= 1 << (n - b - 1)
            mono.append(((j, elems), p))
    return tuple(sorted(mono))


def exponent(mono, m, n):
    """Flat exponent tuple of an internal monomial on T^n R^m."""
    exp = [0] * (m << n)
    for (j, elems), p in mono:
        mask = 0
        for e in range(1, n + 1):
            if elems >> (e - 1) & 1:
                mask |= 1 << (n - e)
        exp[mask * m + j] += p
    return tuple(exp)


def add_term(terms, key, c):
    """terms[key] += c, dropping the key when the sum is zero."""
    s = terms.get(key, 0) + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def _derivation(terms, new):
    """Add cardinal element ``new`` to one coordinate of each monomial."""
    bit = 1 << (new - 1)
    out = {}
    for mono, c in terms.items():
        for (j, elems), p in mono:
            rest = dict(mono)
            if p == 1:
                del rest[(j, elems)]
            else:
                rest[(j, elems)] = p - 1
            key = (j, elems | bit)
            rest[key] = rest.get(key, 0) + 1
            add_term(out, tuple(sorted(rest.items())), c * p)
    return out


def act(terms, m, n, table, cod):
    """The action of the map 1..n -> 1..cod given by ``table`` on a degree-n form."""
    fibres = {}
    for x, y in enumerate(table, start=1):
        fibres[y] = fibres.get(y, 0) | 1 << (x - 1)
    work = {}
    for exp, c in terms.items():
        pushed = {}
        for (j, elems), p in _to_monomial(exp, m, n):
            image = 0
            for e in range(1, n + 1):
                if elems >> (e - 1) & 1:
                    image |= 1 << (table[e - 1] - 1)
            saturated = 0
            for y in range(1, cod + 1):
                if image >> (y - 1) & 1:
                    saturated |= fibres[y]
            if saturated != elems:
                break
            pushed[(j, image)] = pushed.get((j, image), 0) + p
        else:
            add_term(work, tuple(sorted(pushed.items())), c)
    for new in sorted(set(range(1, cod + 1)) - set(table)):
        work = _derivation(work, new)
    out = {}
    for mono, c in work.items():
        add_term(out, exponent(mono, m, cod), c)
    return out


def coface(terms, m, n, i):
    """Derivative in position i: the action of the coface skipping i."""
    return act(terms, m, n, [x if x < i else x + 1 for x in range(1, n + 1)], n + 1)


def exterior_derivative(terms, m, n):
    out = {}
    for i in range(1, n + 2):
        for exp, c in coface(terms, m, n, i).items():
            add_term(out, exp, c if i % 2 else -c)
    return out


def is_partition_form(terms, m, n):
    """Every monomial's tangent coordinates are linear with level sets
    partitioning 1..n: the partition-monomial basis of sector forms."""
    full = (1 << n) - 1
    for exp in terms:
        seen = 0
        for (j, elems), p in _to_monomial(exp, m, n):
            if not elems:
                continue
            if p != 1 or seen & elems:
                return False
            seen |= elems
        if seen != full:
            return False
    return True


def compose_tables(f, g):
    """Diagrammatic composite of two 1-based tables: first f, then g."""
    return [g[y - 1] for y in f]


def form_dict(terms, m, n):
    """The sectorforms SectorForm wire format, terms sorted by exponent."""
    size = m << n
    rows = [{"exp": list(exp), "num": str(Fraction(c).numerator),
             "den": str(Fraction(c).denominator)} for exp, c in sorted(terms.items())]
    return {"n": n, "m": m, "k": 1,
            "body": {"dom": size, "cod": 1,
                     "components": [{"vars": size, "terms": rows}]}}


def canonical(payload):
    """The CLI's canonical rendering: two-space indent and a trailing newline."""
    return json.dumps(payload, indent=2) + "\n"


# -- finite-cardinal generators ------------------------------------------

def generator_table(kind, n, i):
    """(dom, cod, table) of epsilon, delta or sigma at level n and index i."""
    if kind == "epsilon":
        if not 1 <= i <= n:
            raise ValueError(f"epsilon({n},{i}) out of range")
        return n + 1, n, [x if x <= i else x - 1 for x in range(1, n + 2)]
    if kind == "delta":
        if not 1 <= i <= n + 1:
            raise ValueError(f"delta({n},{i}) out of range")
        return n, n + 1, [x if x < i else x + 1 for x in range(1, n + 1)]
    if kind == "sigma":
        if not 1 <= i <= n - 1:
            raise ValueError(f"sigma({n},{i}) out of range")
        table = list(range(1, n + 1))
        table[i - 1], table[i] = table[i], table[i - 1]
        return n, n, table
    raise ValueError(f"unknown generator kind {kind!r}")


def evaluate_word(word):
    """(dom, cod, table) of a GenWord payload, composed left to right."""
    at = word["dom"]
    table = list(range(1, at + 1))
    for g in word["gens"]:
        dom, cod, gt = generator_table(g["kind"], g["n"], g["i"])
        if dom != at:
            raise ValueError(f"{g['kind']}({g['n']},{g['i']}) leaves {dom}, word is at {at}")
        table = compose_tables(table, gt)
        at = cod
    return word["dom"], at, table


# -- closed form of the sector-form dimension -----------------------------

def touchard(n, m):
    """T_n(m) = sum_k S(n, k) m^k: ways to split 1..n into blocks, each
    labelled with one of m base coordinates."""
    stirling = [1]  # S(i, k) for k = 0..i, starting at i = 0
    for i in range(1, n + 1):
        stirling = [0] + [stirling[k - 1] + k * (stirling[k] if k < i else 0)
                          for k in range(1, i + 1)]
    return sum(s * m ** k for k, s in enumerate(stirling))


def sector_dimension(n, m, d):
    """Dimension of sector n-forms on R^m with coefficient degree <= d."""
    return comb(m + d, m) * touchard(n, m)
