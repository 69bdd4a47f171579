"""Sparse multivariate polynomials and polynomial maps over exact rationals.

Coefficients are `fractions.Fraction`; a polynomial stores a dict from
exponent tuples to nonzero coefficients, so equality is decidable term
by term and every identity in this package is checked exactly.  There is
no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping, Sequence

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
        for exp, c in other.terms.items():
            s = terms.get(exp, Fraction(0)) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
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
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(exp, Fraction(0)) + c1 * c2
                if s:
                    terms[exp] = s
                else:
                    terms.pop(exp, None)
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
        terms: dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            new = [0] * nvars
            for j, e in enumerate(exp):
                if e:
                    new[where[j]] += e
            key = tuple(new)
            terms[key] = terms.get(key, Fraction(0)) + c
        return Poly._from_terms(nvars, {exp: c for exp, c in terms.items() if c})

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

        out = Poly.zero(nvars)
        powers: dict[tuple[int, int], Poly] = {}
        for exp, c in self.terms.items():
            term = None
            for j, e in enumerate(exp):
                if e:
                    if (j, e) not in powers:
                        powers[j, e] = args[j] if e == 1 else args[j] ** e
                    term = powers[j, e] if term is None else term * powers[j, e]
            if term is None:
                term = Poly.const(nvars, c)
            elif c != 1:
                term = term.scale(c)
            out = out + term
        return out

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


# -- substituting 0 or single terms ----------------------------------------

_Image = tuple[tuple[tuple[int, int], ...], Fraction | None] | None


def _images(args: Sequence[Poly]) -> list[_Image]:
    """Each argument, 0 or one term c * x^a, as None or (nonzero (v, a_v), c).

    The coefficient is None when it is 1, so substitution skips the product.
    """
    out: list[_Image] = []
    for a in args:
        if not a.terms:
            out.append(None)
            continue
        (exp, c), = a.terms.items()
        # compress finds the nonzero entries at C speed; a coordinate has one
        pairs = tuple([(v, exp[v]) for v in compress(range(len(exp)), exp)])
        out.append((pairs, None if c == 1 else c))
    return out


def _substitute(terms: Mapping[Exponent, Fraction], images: Sequence[_Image],
                nvars: int) -> dict[Exponent, Fraction]:
    """The term dict of a polynomial with variable j replaced by images[j].

    Works only on the nonzero entries of each exponent; a term that meets a
    zero image vanishes, and terms that cancel are dropped.
    """
    out: dict[Exponent, Fraction] = {}
    for exp, c in terms.items():
        new = [0] * nvars
        for j, e in enumerate(exp):
            if not e:
                continue
            image = images[j]
            if image is None:
                break
            pairs, ac = image
            if ac is not None:
                c = c * ac ** e
            for v, p in pairs:
                new[v] += p * e
        else:
            key = tuple(new)
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


@dataclass(frozen=True)
class PolyMap:
    """A polynomial map R^a -> R^b: one component per output coordinate."""

    dom_dim: int
    cod_dim: int
    components: tuple[Poly, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != self.cod_dim:
            raise ValueError(f"{len(comps)} components for codomain {self.cod_dim}")
        for c in comps:
            if c.nvars != self.dom_dim:
                raise ValueError(f"component in {c.nvars} variables, domain is {self.dom_dim}")

    @classmethod
    def _from_components(cls, dom_dim: int, components: tuple[Poly, ...]) -> "PolyMap":
        """Wrap a tuple of polynomials in dom_dim variables that the package
        built itself, without the checks of `__post_init__`."""
        out = cls.__new__(cls)
        vars(out).update(dom_dim=dom_dim, cod_dim=len(components), components=components)
        return out

    def __call__(self, point: Sequence[Rat]) -> tuple[Fraction, ...]:
        return tuple(c.eval(point) for c in self.components)

    def __add__(self, other: "PolyMap") -> "PolyMap":
        if (self.dom_dim, self.cod_dim) != (other.dom_dim, other.cod_dim):
            raise ValueError("dimension mismatch")
        return PolyMap(self.dom_dim, self.cod_dim,
                       tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        return self + (-other)

    def __neg__(self) -> "PolyMap":
        return PolyMap(self.dom_dim, self.cod_dim, tuple(-c for c in self.components))

    def scale(self, c: Rat) -> "PolyMap":
        return PolyMap(self.dom_dim, self.cod_dim, tuple(p.scale(c) for p in self.components))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __repr__(self):
        body = ", ".join(repr(c) for c in self.components)
        return f"PolyMap({self.dom_dim}->{self.cod_dim}: [{body}])"


def identity_map(n: int) -> PolyMap:
    return PolyMap(n, n, tuple(Poly.var(n, j) for j in range(n)))


def zero_map(dom_dim: int, cod_dim: int) -> PolyMap:
    return PolyMap(dom_dim, cod_dim, tuple(Poly.zero(dom_dim) for _ in range(cod_dim)))


def coordinate_map(dom_dim: int, assignment: Iterable[int | None]) -> PolyMap:
    """Each output is an input coordinate or constant zero (None)."""
    comps = tuple(Poly.zero(dom_dim) if j is None else Poly.var(dom_dim, j)
                  for j in assignment)
    return PolyMap(dom_dim, len(comps), comps)


def _picks(g: PolyMap) -> list[int | None] | None:
    """The coordinate table of g when every component is 0 or a variable
    with coefficient 1 (None for 0, j for x_j); None when some is not."""
    out: list[int | None] = []
    for comp in g.components:
        terms = comp.terms
        if not terms:
            out.append(None)
            continue
        if len(terms) > 1:
            return None
        (exp, c), = terms.items()
        if c != 1 or sum(exp) != 1:
            return None
        out.append(exp.index(1))
    return out


def compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """Diagrammatic composite: first ``f``, then ``g``.

    Three cases, tried in order:

    * g is a coordinate map (each component 0 or a variable x_j with
      coefficient 1): the composite picks component j of f for each x_j
      and one zero polynomial for each 0; nothing is substituted.
    * every component of f is 0 or a single term: exponents of g are
      rewritten term by term (`_substitute`).
    * otherwise each component of g is expanded by `Poly.subs`.
    """
    if f.cod_dim != g.dom_dim:
        raise ValueError(f"cod {f.cod_dim} != dom {g.dom_dim}")
    # every component of f lives in f.dom_dim variables (PolyMap checks it),
    # so subs' per-call checks would only repeat; decide the case once
    args, n = f.components, f.dom_dim
    picks = _picks(g)
    if picks is not None:
        zero = Poly._from_terms(n, {})
        comps = tuple(zero if j is None else args[j] for j in picks)
    elif all(len(a.terms) <= 1 for a in args):
        images = _images(args)
        comps = tuple(Poly._from_terms(n, _substitute(c.terms, images, n))
                      for c in g.components)
    else:
        comps = tuple(c.subs(args, nvars=n) for c in g.components)
    return PolyMap(n, g.cod_dim, comps)
