"""Sparse multivariate polynomials and polynomial maps over exact rationals.

Coefficients are `fractions.Fraction`; a polynomial stores a dict from
exponent tuples to nonzero coefficients, so equality is decidable term
by term and every identity in this package is checked exactly.  There is
no floating point anywhere.

A `PolyMap` holds one polynomial per output, or a table in their place.
A coordinate map built by `coordinate_map`, `identity_map` or `zero_map`
(each output an input coordinate or 0) is held as ``picks``, and a linear
map built by `linear_map` as ``rows``, one sparse integer row per output.
`compose`, ``+``, equality and `tangent.tangent_of_map` of tables, and
the pairings of two picks, give a table again without building a
polynomial (docs/coordinate-layout.md, "Maps held as tables").
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import compress
from operator import add

from .fincard import _fill

Rat = Fraction | int
Exponent = tuple[int, ...]


# Fractions are immutable, so every unit coefficient can be this one
_ONE = Fraction(1)


def _frac(c) -> Fraction:
    if isinstance(c, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    return Fraction(c)


class Poly:
    """A polynomial in ``nvars`` variables x0, ..., x{nvars-1}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Rat] | None = None):
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for {nvars} variables")
            c = _frac(c)
            if c:
                clean[exp] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def _from_terms(cls, nvars: int, terms: dict[Exponent, Fraction]) -> "Poly":
        """Wrap a term dict the package built itself, without re-checking it.

        The caller guarantees what `__init__` would enforce: every key is
        an exponent tuple of length ``nvars`` with entries >= 0, and every
        value is a nonzero `Fraction`.
        """
        out = cls.__new__(cls)
        out.nvars, out.terms = nvars, terms
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: Rat) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, nvars: int, j: int) -> "Poly":
        if not 0 <= j < nvars:
            raise ValueError(f"variable {j} out of range")
        exp = [0] * nvars
        exp[j] = 1
        return cls._from_terms(nvars, {tuple(exp): _ONE})

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            mono = "*".join(f"x{j}" + (f"^{e}" if e > 1 else "")
                            for j, e in enumerate(exp) if e)
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits)

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        _add_terms(terms, other.terms.items())
        return Poly._from_terms(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly._from_terms(self.nvars, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        terms: dict[Exponent, Fraction] = {}
        _add_terms(terms, [(tuple(map(add, e1, e2)), c1 * c2)
                           for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()])
        return Poly._from_terms(self.nvars, terms)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, c: Rat) -> "Poly":
        c = _frac(c)
        return Poly._from_terms(self.nvars, {exp: c * v for exp, v in self.terms.items()} if c else {})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus and substitution ------------------------------------

    def partial(self, j: int) -> "Poly":
        """Formal partial derivative with respect to variable j."""
        if not 0 <= j < self.nvars:
            raise ValueError(f"variable {j} out of range")
        terms: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            e = exp[j]
            if e:
                new = list(exp)
                new[j] = e - 1
                terms[tuple(new)] = c * e
        return Poly._from_terms(self.nvars, terms)

    def embed(self, nvars: int, where: Sequence[int]) -> "Poly":
        """Rename variable j to where[j] inside a larger variable set."""
        if len(where) != self.nvars:
            raise ValueError("need one target per variable")
        return Poly._from_terms(nvars, _rename(self.terms, where, nvars))

    def subs(self, args: Sequence["Poly"], nvars: int | None = None) -> "Poly":
        """Substitute args[j] for variable j; all args share a variable set.

        ``nvars`` names the target variable count when ``args`` is empty
        (a polynomial in zero variables is a constant in any space).
        """
        if len(args) != self.nvars:
            raise ValueError("need one replacement per variable")
        if args:
            nvars = args[0].nvars
        elif nvars is None:
            nvars = 0
        if any(a.nvars != nvars for a in args):
            raise ValueError("replacements disagree on variable count")

        out: dict[Exponent, Fraction] = {}
        powers: dict[tuple[int, int], Poly] = {}
        for exp, c in self.terms.items():
            term = None
            for j, e in enumerate(exp):
                if e:
                    if (j, e) not in powers:
                        powers[j, e] = args[j] if e == 1 else args[j] ** e
                    term = powers[j, e] if term is None else term * powers[j, e]
            if term is None:
                _add_terms(out, (((0,) * nvars, c),))
            elif c != 1:
                _add_terms(out, [(key, c * v) for key, v in term.terms.items()])
            else:
                _add_terms(out, term.terms.items())
        return Poly._from_terms(nvars, out)

    def eval(self, point: Sequence[Rat]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("need one value per variable")
        vals = [_frac(v) for v in point]
        total = Fraction(0)
        for exp, c in self.terms.items():
            prod = c
            for v, e in zip(vals, exp):
                if e:
                    prod *= v ** e
            total += prod
        return total


# -- summing and renaming term dicts -----------------------------------

def _add_terms(out: dict[Exponent, Fraction], items: Iterable[tuple[Exponent, Fraction]]):
    """Add (exponent, nonzero coefficient) pairs into the term dict ``out``
    in place, dropping a term whose sum is 0; only a sum is truth-tested,
    since `Fraction.__bool__` is a Python-level call."""
    for exp, c in items:
        if exp in out:
            s = out[exp] + c
            if s:
                out[exp] = s
            else:
                del out[exp]
        else:
            out[exp] = c


def _rename(terms: Mapping[Exponent, Fraction], table: Sequence[int | None],
            nvars: int) -> dict[Exponent, Fraction]:
    """The term dict, in ``nvars`` variables, of a polynomial with variable j
    renamed to table[j], or replaced by 0 where table[j] is None.

    Works only on the nonzero entries of each exponent (found at C speed
    by `compress`); a term that meets a None vanishes, exponents of
    variables renamed alike add up, and terms that collide are summed,
    dropping zero sums.
    """
    renamed = []
    places = range(len(table))
    for exp, c in terms.items():
        new = [0] * nvars
        for j in compress(places, exp):
            to = table[j]
            if to is None:
                break
            new[to] += exp[j]
        else:
            renamed.append((tuple(new), c))
    out: dict[Exponent, Fraction] = {}
    _add_terms(out, renamed)
    return out


class PolyMap:
    """A polynomial map R^a -> R^b: one component per output coordinate.

    A map built as a table holds one of two tables, and ``components`` is
    built from it on first read and kept:

    * ``picks``: per output, the input index or None for 0.
    * ``rows``: per output, a tuple of (input, nonzero int coefficient)
      pairs sorted by input, the sparse row of a linear map.

    A map keeps the form it was built in: unit rows stay ``rows``, and a
    map built from components holds neither table, whatever the
    components are.  Compose, ``+``, T and equality use the tables when
    both sides have one, reading picks as unit rows beside rows; the
    pairings use them when both are picks.  Immutable: assigning to a
    field raises.
    """

    __slots__ = ("dom_dim", "cod_dim", "components", "picks", "rows")

    def __init__(self, dom_dim: int, cod_dim: int, components: Iterable[Poly]):
        comps = tuple(components)
        if len(comps) != cod_dim:
            raise ValueError(f"{len(comps)} components for codomain {cod_dim}")
        for c in comps:
            if c.nvars != dom_dim:
                raise ValueError(f"component in {c.nvars} variables, domain is {dom_dim}")
        _fill(self, "dom_dim", dom_dim)
        _fill(self, "cod_dim", cod_dim)
        _fill(self, "components", comps)
        _fill(self, "picks", None)
        _fill(self, "rows", None)

    @classmethod
    def _from_components(cls, dom_dim: int, components: tuple[Poly, ...]) -> "PolyMap":
        """Wrap a tuple of polynomials in dom_dim variables that the package
        built itself, without the checks of `__init__`."""
        out = cls.__new__(cls)
        _fill(out, "dom_dim", dom_dim)
        _fill(out, "cod_dim", len(components))
        _fill(out, "components", components)
        _fill(out, "picks", None)
        _fill(out, "rows", None)
        return out

    @classmethod
    def _from_picks(cls, dom_dim: int, picks: tuple[int | None, ...]) -> "PolyMap":
        """Hold a coordinate map as its table: each entry an index in
        range(dom_dim) or None, already checked by the caller."""
        out = cls.__new__(cls)
        _fill(out, "dom_dim", dom_dim)
        _fill(out, "cod_dim", len(picks))
        _fill(out, "picks", picks)
        _fill(out, "rows", None)
        return out

    @classmethod
    def _from_rows(cls, dom_dim: int, rows: tuple[tuple[tuple[int, int], ...], ...]) -> "PolyMap":
        """Hold a linear map as its sparse rows, already checked and sorted
        by the caller; rows that are all units stay rows."""
        out = cls.__new__(cls)
        _fill(out, "dom_dim", dom_dim)
        _fill(out, "cod_dim", len(rows))
        _fill(out, "picks", None)
        _fill(out, "rows", rows)
        return out

    def __getattr__(self, name):
        # reached only for a slot not filled yet: the components of a map
        # held as a table; a property for them made every read slower
        if name != "components":
            raise AttributeError(f"'PolyMap' object has no attribute {name!r}")
        n, rows = self.dom_dim, _table_rows(self)
        # a zero map needs no exponent, however large its domain
        unit = [0] * n if any(rows) else None
        comps = []
        for row in rows:
            terms = {}
            for j, c in row:
                unit[j] = 1
                terms[tuple(unit)] = _ONE if c == 1 else Fraction(c)
                unit[j] = 0
            comps.append(Poly._from_terms(n, terms))
        value = tuple(comps)
        _fill(self, name, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"PolyMap is immutable; cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PolyMap is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by assignment
        return PolyMap, (self.dom_dim, self.cod_dim, self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        if self.dom_dim != other.dom_dim or self.cod_dim != other.cod_dim:
            return False
        if self.picks is not None and other.picks is not None:
            return self.picks == other.picks
        left, right = _table_rows(self), _table_rows(other)
        if left is None or right is None:
            return self.components == other.components
        return left == right

    def __hash__(self):
        return hash((self.dom_dim, self.cod_dim, self.components))

    def __call__(self, point: Sequence[Rat]) -> tuple[Fraction, ...]:
        return tuple(c.eval(point) for c in self.components)

    def __add__(self, other: "PolyMap") -> "PolyMap":
        if (self.dom_dim, self.cod_dim) != (other.dom_dim, other.cod_dim):
            raise ValueError("dimension mismatch")
        left, right = _table_rows(self), _table_rows(other)
        if left is not None and right is not None:
            return PolyMap._from_rows(self.dom_dim, tuple(_sparse_row(r + s)
                                                          for r, s in zip(left, right)))
        return PolyMap._from_components(
            self.dom_dim, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        return self + (-other)

    def __neg__(self) -> "PolyMap":
        return PolyMap._from_components(self.dom_dim, tuple(-c for c in self.components))

    def scale(self, c: Rat) -> "PolyMap":
        return PolyMap._from_components(self.dom_dim, tuple(p.scale(c) for p in self.components))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __repr__(self):
        body = ", ".join(repr(c) for c in self.components)
        return f"PolyMap({self.dom_dim}->{self.cod_dim}: [{body}])"


def _table_rows(f: PolyMap) -> tuple[tuple[tuple[int, int], ...], ...] | None:
    """The sparse rows of a map held as a table, picks read as unit rows;
    None for a map held as components."""
    if f.rows is not None:
        return f.rows
    if f.picks is not None:
        return tuple([() if j is None else ((j, 1),) for j in f.picks])
    return None


def _sparse_row(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sum (input, nonzero coefficient) pairs by input and sort them,
    dropping zero sums."""
    if len(pairs) < 2:
        return tuple(pairs)
    out: list[tuple[int, int]] = []
    for j, c in sorted(pairs):
        if out and out[-1][0] == j:
            c += out.pop()[1]
            if not c:
                continue
        out.append((j, c))
    return tuple(out)


def identity_map(n: int) -> PolyMap:
    return PolyMap._from_picks(n, tuple(range(n)))


def zero_map(dom_dim: int, cod_dim: int) -> PolyMap:
    return PolyMap._from_picks(dom_dim, (None,) * cod_dim)


def coordinate_map(dom_dim: int, assignment: Iterable[int | None]) -> PolyMap:
    """Each output is an input coordinate or constant zero (None)."""
    picks = tuple(assignment)
    for j in picks:
        if j is None:
            continue
        if type(j) is not int:
            raise TypeError(f"entry {j!r} is not an int or None")
        if not 0 <= j < dom_dim:
            raise ValueError(f"variable {j} out of range")
    return PolyMap._from_picks(dom_dim, picks)


def linear_map(dom_dim: int, rows: Iterable[Mapping[int, int]]) -> PolyMap:
    """The linear map whose output k is the sum of c * x_j over the items
    j: c of rows[k]; every j and c is an int, and zeros are dropped."""
    table = []
    for row in rows:
        for j, c in row.items():
            if type(j) is not int or type(c) is not int:
                raise TypeError(f"item {j!r}: {c!r} is not a pair of ints")
            if not 0 <= j < dom_dim:
                raise ValueError(f"variable {j} out of range")
        table.append(tuple(sorted([(j, c) for j, c in row.items() if c])))
    return PolyMap._from_rows(dom_dim, tuple(table))


def paired_outputs(f: PolyMap, g: PolyMap):
    """The outputs of two maps on one domain, and the constructor of a map
    from a selection of them (called as ``wrap(dom_dim, outputs)``).

    When both are picks the outputs are table entries, and a selection
    stays picks; otherwise they are components.
    """
    if f.picks is not None and g.picks is not None:
        return f.picks, g.picks, PolyMap._from_picks
    return f.components, g.components, PolyMap._from_components


def compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """Diagrammatic composite: first ``f``, then ``g``.

    Four routes, tried in order:

    * both are tables: two picks give the table ``f.picks[j]`` for each
      ``j`` in ``g.picks``; otherwise row k of the composite sums c times
      f's row j over the pairs (j, c) of g's row k.  No polynomial is
      built, and the composite is rows even when its rows are all units.
    * g is picks: the composite picks component j of f for each x_j
      and one zero polynomial for each 0; nothing is substituted.
    * f is picks: each component of g has its variables renamed by
      f's table (`_rename`).
    * otherwise each component of g is expanded by `Poly.subs`, a rows
      map reading the components built from its rows.
    """
    if f.cod_dim != g.dom_dim:
        raise ValueError(f"cod {f.cod_dim} != dom {g.dom_dim}")
    n, table, picks = f.dom_dim, f.picks, g.picks
    if picks is not None and table is not None:
        return PolyMap._from_picks(n, tuple([None if j is None else table[j] for j in picks]))
    if table is not None or f.rows is not None:
        if picks is not None:
            inner = f.rows
            return PolyMap._from_rows(n, tuple([() if j is None else inner[j] for j in picks]))
        if g.rows is not None:
            inner = _table_rows(f)
            return PolyMap._from_rows(n, tuple([_sparse_row([(i, c * d) for j, c in row
                                                             for i, d in inner[j]])
                                                for row in g.rows]))
    if picks is not None:
        args, zero = f.components, Poly._from_terms(n, {})
        return PolyMap._from_components(n, tuple(zero if j is None else args[j]
                                                 for j in picks))
    if table is not None:
        return PolyMap._from_components(n, tuple(Poly._from_terms(n, _rename(c.terms, table, n))
                                                 for c in g.components))
    return PolyMap._from_components(n, tuple(c.subs(f.components, nvars=n)
                                             for c in g.components))
