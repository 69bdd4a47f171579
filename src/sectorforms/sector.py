"""Sector forms on R^m and their cosimplicial operator calculus.

A sector form of degree n is a polynomial map from the n-th iterated
tangent space of R^m to R^k that is linear in each of its n tangent
variables; `is_sector_form` decides the defining equations exactly.
Degree 1 recovers ordinary differential 1-forms f(x) dx; from degree 2
on the forms are strictly richer (g(x) v1 v2 + h(x) d on the line).

The operators:

* ``fundamental_derivative``  degree n -> n+1, the Jacobian followed by
  the principal projection;
* ``coface(_, i)``            derivative in position i (a flip cycle
  before the fundamental derivative);
* ``codegeneracy(_, i)``      precompose with the lift whisker;
* ``symmetry(_, i)``          precompose with the swap whisker;
* ``apply_cardinal_map``      the action of an arbitrary map of finite
  cardinals: one reindexing by its surjection onto the image, then a
  coface at each missing value;
* ``exterior_derivative``     the signed sum of cofaces, which squares
  to zero.

Each operator acts on sector forms only: it checks the linearity
equations on every call, after its own index checks, and raises
ValueError on a form that fails them.  Every operator rewrites exponent
tuples and builds no map: on the bitmask layout each whisker is a table
of source masks, and the Jacobian followed by the principal projection
moves one power of a variable v to v + m*2^n (docs/coordinate-layout.md,
"Derivatives on exponent tuples" and "Linearity, codegeneracy and
symmetry on exponent tuples").

Alternating forms (every adjacent swap acts as negation) are the
singular forms; they are closed under the exterior derivative.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cache
from itertools import compress
from math import lcm
from operator import itemgetter

from .fincard import (EPSILON, SIGMA, FinMap, Generator, _Record, generator_map, sigma_cycle,
                      split_map)
from .poly import Poly, PolyMap, _rename, zero_map
from .tangent import _flat_sources, _surjection_sources


class SectorForm(_Record):
    """A candidate sector form: degree n, base dimension m, values in R^k,
    with the polynomial map ``body`` from T^n R^m to R^k.

    Construction only checks dimensions; every operator checks the
    linearity equations (`multilinearity_failures`) before it acts.
    Immutable, and equal to another form with the same fields.
    """

    __slots__ = ("n", "m", "k", "body")

    def __init__(self, n: int, m: int, k: int, body: PolyMap):
        if n < 0 or m < 1 or k < 1:
            raise ValueError("need degree >= 0, base dim >= 1, value dim >= 1")
        if n >= body.dom_dim.bit_length():  # m << n has more than n bits
            raise ValueError(f"body is {body.dom_dim}->{body.cod_dim}, "
                             f"too small for degree {n}")
        expect = m << n
        if (body.dom_dim, body.cod_dim) != (expect, k):
            raise ValueError(
                f"body is {body.dom_dim}->{body.cod_dim}, "
                f"expected {expect}->{k}")
        _Record.__init__(self, n, m, k, body)

    @classmethod
    def _from_components(cls, n: int, m: int, components: tuple[Poly, ...]) -> "SectorForm":
        """Wrap a nonempty tuple of polynomials in the m << n variables of
        T^n R^m that the package built itself, without the checks of
        `__init__`; k is its length."""
        return cls._new(n, m, len(components), PolyMap._from_components(m << n, components))

    @classmethod
    def zero(cls, n: int, m: int, k: int = 1) -> "SectorForm":
        return cls(n, m, k, zero_map(m << n, k))

    @property
    def is_zero(self) -> bool:
        return self.body.is_zero

    def __add__(self, other: "SectorForm") -> "SectorForm":
        self._match(other)
        return SectorForm(self.n, self.m, self.k, self.body + other.body)

    def __sub__(self, other: "SectorForm") -> "SectorForm":
        self._match(other)
        return SectorForm(self.n, self.m, self.k, self.body - other.body)

    def __neg__(self) -> "SectorForm":
        return SectorForm(self.n, self.m, self.k, -self.body)

    def scale(self, c) -> "SectorForm":
        return SectorForm(self.n, self.m, self.k, self.body.scale(c))

    def _match(self, other: "SectorForm"):
        if (self.n, self.m, self.k) != (other.n, other.m, other.k):
            raise ValueError("forms live on different spaces")


def multilinearity_failures(omega: SectorForm) -> tuple[int, ...]:
    """Indices i whose linearity equation fails, in ascending order.

    The equation at i holds when every monomial has degree exactly 1 in
    the coordinates of level n-i+1, those with mask bit n-i.  Each term's
    nonzero entries fold their masks into bitsets of the levels met
    (``once``) and met again or to a power above 1 (``twice``); the term
    fails at the levels in ``twice`` and at those it never meets.
    """
    n, m, bad = omega.n, omega.m, 0
    full, flats = (1 << n) - 1, range(m << n)
    for comp in omega.body.components:
        for exp in comp.terms:
            once = twice = 0
            for flat in compress(flats, exp):
                mask = flat // m
                twice |= once & mask if exp[flat] == 1 else mask
                once |= mask
            bad |= twice | full & ~once
    return tuple([i for i in range(1, n + 1) if bad >> (n - i) & 1])


def is_sector_form(omega: SectorForm) -> bool:
    return not multilinearity_failures(omega)


def _require_sector(omega: SectorForm):
    bad = multilinearity_failures(omega)
    if bad:
        raise ValueError(f"not a sector form: linearity fails at positions {list(bad)}")


def _reindex(omega: SectorForm, u: FinMap) -> SectorForm:
    """Precompose the body with the action of the surjection u, degree u.dom to u.cod.

    The exponent at flat index mask*m + j moves to sources[mask]*m + j; a
    term with a positive exponent where sources[mask] is None is 0.  The
    tables are injective where defined, so distinct terms stay distinct.
    The table is built only when some term's exponent bounds its size.
    """
    n = u.cod
    if omega.is_zero:
        return SectorForm.zero(n, omega.m, omega.k)
    m, size = omega.m, omega.m << n
    where = _flat_sources(m, _surjection_sources(u))
    return SectorForm._from_components(n, m, tuple(
        Poly._from_terms(size, _rename(comp.terms, where, size))
        for comp in omega.body.components))


def _coface_table(m: int, n: int, i: int) -> tuple[int, ...]:
    """The flip-cycle table of `_coface_sums` at i into degree n on R^m: the
    preimage table of `sigma_cycle(n, i)` over flat indices."""
    return tuple(_flat_sources(m, _surjection_sources(sigma_cycle(n, i))))


@cache
def _coface_reader(m: int, n: int, i: int) -> itemgetter:
    """Reads the coface at i off a fundamental-derivative exponent list:
    the flip-cycle table at i is a permutation of the flat indices, and
    the reader picks, for each output index, the entry its inverse names.
    Degree n >= 1 gives at least two indices, so the reader returns a tuple."""
    table = _coface_table(m, n, i)
    inverse = [0] * len(table)
    for flat, to in enumerate(table):
        inverse[to] = flat
    return itemgetter(*inverse)


def _coface_sums(vectors: Iterable[Iterable[tuple[tuple[int, ...], int]]], m: int, n: int,
                 signs: dict[int, int]) -> Iterator[dict[tuple[int, ...], int]]:
    """The sum of signs[i] * coface(_, i), signs +-1, of each integer vector,
    the (exponent, int coefficient) pairs of a scalar n-form on R^m.

    For each term a * x^e and each variable v with e_v > 0, the Jacobian
    and principal projection give a * e_v * x^(e - 1_v + 1_(v + half)),
    half = m << n; the coface at i then moves the exponent at flat index
    mask*m + j to src[mask]*m + j, src the flip-cycle table at i.  One
    padded exponent list per term takes each move and is restored after
    it.  Each sum dict is raw: entries that cancel stay, as 0, and each
    caller drops them in the one pass it makes over the sums anyway.  The
    sums are yielded one vector at a time, so a caller that only tests
    them holds one at once.  The flip-cycle tables are built when the
    first sum is asked for, terms or none.
    """
    half = m << n
    moves = [(sign > 0, _coface_reader(m, n + 1, i)) for i, sign in signs.items()]
    padding, flats = [0] * half, range(half)
    for vector in vectors:
        sums = {}
        get = sums.get
        for exp, a in vector:
            derived = list(exp)
            derived += padding
            for v in compress(flats, exp):
                e = exp[v]
                derived[v] = e - 1
                derived[v + half] = 1
                plus = a * e
                minus = -plus
                for positive, read in moves:
                    key = read(derived)
                    sums[key] = get(key, 0) + (plus if positive else minus)
                derived[v] = e
                derived[v + half] = 0
        yield sums


def _exterior_signs(n: int) -> dict[int, int]:
    """The signs (-1)^(i-1) of the cofaces at i = 1..n+1 leaving degree n."""
    return {i: 1 if i % 2 else -1 for i in range(1, n + 2)}


def _cofaces(omega: SectorForm, signs: dict[int, int]) -> SectorForm:
    """The sum of signs[i] * coface(omega, i), signs +-1, through `_coface_sums`.

    Common-denominator rule: every coefficient of a component is written
    as a/D over D, the lcm of that component's denominators, and the
    kernel sums the integer numerators; each nonzero sum s becomes one
    `Fraction(s, D)`, which is in lowest terms.  A zero form returns
    before the kernel, so the flip-cycle tables are built only when some
    term's exponent bounds their size.
    """
    if omega.is_zero:
        return SectorForm.zero(omega.n + 1, omega.m, omega.k)
    m, n = omega.m, omega.n
    dens, vectors = [], []
    for comp in omega.body.components:
        den = lcm(*[c.denominator for c in comp.terms.values()])
        dens.append(den)
        vectors.append([(exp, c.numerator * (den // c.denominator))
                        for exp, c in comp.terms.items()])
    size = m << (n + 1)
    return SectorForm._from_components(n + 1, m, tuple(
        Poly._from_terms(size, {e: Fraction(s, den) for e, s in sums.items() if s})
        for sums, den in zip(_coface_sums(vectors, m, n, signs), dens)))


def fundamental_derivative(omega: SectorForm) -> SectorForm:
    """Jacobian then principal projection: degree n to degree n+1.

    A term c*x^e gives, for each variable v in it, c*e_v times x^e with
    one power of v moved to v + m*2^n, a coordinate of the new outermost
    level.
    """
    return coface(omega, 1)


def coface(omega: SectorForm, i: int) -> SectorForm:
    """Derivative in position i: flip cycle, Jacobian, principal projection.

    The fundamental derivative with its flat indices permuted by the
    flip-cycle table at i; position 1 is the fundamental derivative.
    """
    if not 1 <= i <= omega.n + 1:
        raise ValueError(f"need 1 <= i <= {omega.n + 1}, got {i}")
    _require_sector(omega)
    return _cofaces(omega, {i: 1})


def codegeneracy(omega: SectorForm, i: int) -> SectorForm:
    """Precompose with the lift whisker at i: degree n+1 down to n."""
    if omega.n < 1 or not 1 <= i <= omega.n - 1:
        raise ValueError(f"need 1 <= i <= {omega.n - 1}, got {i}")
    _require_sector(omega)
    return _reindex(omega, generator_map(Generator(EPSILON, omega.n - 1, i)))


def symmetry(omega: SectorForm, i: int) -> SectorForm:
    """Precompose with the adjacent swap at i; an involution on degree n."""
    if not 1 <= i <= omega.n - 1:
        raise ValueError(f"need 1 <= i <= {omega.n - 1}, got {i}")
    _require_sector(omega)
    return _reindex(omega, generator_map(Generator(SIGMA, omega.n, i)))


def apply_cardinal_map(omega: SectorForm, f: FinMap) -> SectorForm:
    """Act by an arbitrary map of finite cardinals f: n -> n'.

    f is a surjection onto its image followed by the monotone injection
    missing v_1 < ... < v_q (`split_map`): one reindexing pass by the
    surjection, then the coface at each v_k in ascending order.
    """
    if f.dom != omega.n:
        raise ValueError(f"map leaves cardinal {f.dom}, form has degree {omega.n}")
    _require_sector(omega)
    if omega.is_zero:  # the cofaces would build a zero form per missing value
        return SectorForm.zero(f.cod, omega.m, omega.k)
    surjection, missing = split_map(f)
    out = _reindex(omega, surjection)
    for v in missing:
        out = _cofaces(out, {v: 1})
    return out


def exterior_derivative(omega: SectorForm) -> SectorForm:
    """The alternating sum of cofaces, (-1)^(i-1) at position i.

    One pass over the exponent tuples adds every signed coface into the
    same term dict.  Squares to zero: sector forms are a cochain complex.
    """
    _require_sector(omega)
    return _cofaces(omega, _exterior_signs(omega.n))


def is_alternating(omega: SectorForm) -> bool:
    """Every adjacent swap acts as negation (vacuous below degree 2); on
    any form, so the swaps rewrite without `symmetry`'s linearity check."""
    negated = -omega
    return all(_reindex(omega, generator_map(Generator(SIGMA, omega.n, i))) == negated
               for i in range(1, omega.n))


# -- convenient constructors for the worked shapes ----------------------

def form_from_coefficients(n: int, m: int, blocks: dict[tuple[tuple[int, ...], ...], Poly]) -> SectorForm:
    """Build sum of coeff(x) * product of tangent coordinates.

    ``blocks`` maps a tuple of (flat coordinate indices) to a coefficient
    polynomial in the m base variables; mostly a test/demo convenience.
    """
    size = m << n
    total = Poly.zero(size)
    base_embed = list(range(m))
    for coords, coeff in blocks.items():
        if coeff.nvars != m:
            raise ValueError("coefficients are polynomials in the base variables")
        term = coeff.embed(size, base_embed)
        for c in coords:
            term = term * Poly.var(size, c)
        total = total + term
    return SectorForm(n, m, 1, PolyMap(size, 1, (total,)))


def line_one_form(f: Poly) -> SectorForm:
    """f(x) v on the line, for f a polynomial in one variable."""
    return form_from_coefficients(1, 1, {(1,): f})


def line_two_form(g: Poly, h: Poly) -> SectorForm:
    """g(x) v1 v2 + h(x) d on the line."""
    return form_from_coefficients(2, 1, {(1, 2): g, (3,): h})
