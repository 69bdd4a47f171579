"""The concrete tangent-category model on Cartesian spaces.

The n-th iterated tangent space of R^m is R^{m * 2^n}, coordinatized by
pairs (j, S) of a base index j in 1..m and a set S of tangent levels
S subset of {1..n}; nesting one more tangent level appends the new top
level, so the flat order is the binary-counter order on S.  Applying the
tangent functor to a polynomial map is exact forward-mode
differentiation: Tf(base, tangent) = (f(base), Jf(base) . tangent).

The structural natural transformations (vertical lift, canonical flip,
projection, zero section, fibre addition) are realized as polynomial
maps, whiskered to any level, and every tangent-category axiom is
machine-checked as an exact identity of polynomial maps by
`verify_tangent_axioms`.  Surjections of finite cardinals act on
iterated tangent spaces contravariantly, by preimages of level sets
(`realize_surjection`); the whiskers are the actions of the generators.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from .fincard import (
    SIGMA,
    FinMap,
    Generator,
    RelationReport,
    _Record,
    classify,
    generator_map,
)
from .poly import (
    Poly,
    PolyMap,
    compose,
    coordinate_map,
    identity_map,
    linear_map,
    paired_outputs,
    zero_map,
)


class TangentCoords(_Record):
    """Coordinate bookkeeping for the flattened space T^depth R^base_dim."""

    __slots__ = ("base_dim", "depth")

    def __init__(self, base_dim: int, depth: int):
        if base_dim < 0 or depth < 0:
            raise ValueError("dimensions must be nonnegative")
        _Record.__init__(self, base_dim, depth)

    @property
    def size(self) -> int:
        return self.base_dim << self.depth

    def label(self, flat: int) -> tuple[int, frozenset[int]]:
        if not 0 <= flat < self.size:
            raise ValueError("flat index out of range")
        mask, j = divmod(flat, self.base_dim)
        return j + 1, frozenset(l + 1 for l in range(self.depth) if mask >> l & 1)

    def name(self, flat: int) -> str:
        j, levels = self.label(flat)
        suffix = f"_{j}" if self.base_dim > 1 else ""
        if not levels:
            return f"x{suffix}"
        return "u{" + ",".join(str(l) for l in sorted(levels)) + "}" + suffix


def tangent_of_map(f: PolyMap) -> PolyMap:
    """One application of the tangent functor: exact Jacobian pushforward.

    Tf(x, u) = (f(x), Σ_v ∂_v f(x) · u_v) on R^{2a}, with u_v the variable
    a + v.  Term by term: c · x^e gives the base term c · x^(e, 0), and,
    for each v with e_v > 0, the tangent term c · e_v · x^(e − 1_v + 1_(a+v)),
    one power moved from v to a + v.  Distinct (e, v) give distinct
    exponents, so nothing cancels.  `sector._cofaces` uses the same shift
    (docs/coordinate-layout.md, "Derivatives on exponent tuples").
    T of a map built as a table t is the table t, then t shifted by a.
    """
    a, b = f.dom_dim, f.cod_dim
    if f.picks is not None:
        return PolyMap._from_picks(2 * a, f.picks + tuple([None if j is None else a + j
                                                           for j in f.picks]))
    if f.rows is not None:
        return PolyMap._from_rows(2 * a, f.rows + tuple([tuple([(a + j, c) for j, c in row])
                                                         for row in f.rows]))
    n, pad = 2 * a, (0,) * a
    base, tangent = [], []
    for comp in f.components:
        base_terms, terms = {}, {}
        for exp, c in comp.terms.items():
            padded = exp + pad
            base_terms[padded] = c
            for v, e in enumerate(exp):
                if e:
                    new = list(padded)
                    new[v] = e - 1
                    new[a + v] = 1
                    terms[tuple(new)] = c * e if e > 1 else c
        base.append(Poly._from_terms(n, base_terms))
        tangent.append(Poly._from_terms(n, terms))
    return PolyMap(n, 2 * b, tuple(base + tangent))


# -- structural transformations at R^m --------------------------------

def vertical_lift(m: int) -> PolyMap:
    """(x, v) |-> (x, 0, 0, v): duplicate a tangent vector into the double bundle."""
    return coordinate_map(2 * m,
                          list(range(m)) + [None] * (2 * m) + list(range(m, 2 * m)))


def canonical_flip(m: int) -> PolyMap:
    """(x, v1, v2, d) |-> (x, v2, v1, d): exchange the two tangent levels."""
    return coordinate_map(4 * m,
                          list(range(m)) + list(range(2 * m, 3 * m))
                          + list(range(m, 2 * m)) + list(range(3 * m, 4 * m)))


def bundle_projection(m: int) -> PolyMap:
    """(x, v) |-> x."""
    return coordinate_map(2 * m, range(m))


def zero_section(m: int) -> PolyMap:
    """x |-> (x, 0)."""
    return coordinate_map(m, list(range(m)) + [None] * m)


def fibre_addition(m: int) -> PolyMap:
    """(x, u, w) |-> (x, u + w) on the fibre product of two tangent bundles."""
    return linear_map(3 * m, [{j: 1} for j in range(m)]
                      + [{m + j: 1, 2 * m + j: 1} for j in range(m)])


# -- the differential object R^k ---------------------------------------

def origin_lift(k: int) -> PolyMap:
    """x |-> (0, x): the vector x seen as a tangent vector at the origin."""
    return coordinate_map(k, [None] * k + list(range(k)))


def principal_projection(k: int) -> PolyMap:
    """(x, v) |-> v: extract the tangent part of T R^k."""
    return coordinate_map(2 * k, range(k, 2 * k))


# -- whiskered transformations on iterated tangent spaces --------------
#
# Every whisker is a coordinate map of the bitmask layout
# (docs/coordinate-layout.md): output coordinate (mask, j) reads input
# coordinate (src, j), or is 0, so each one is built from a table of
# source masks in closed form.  The sector operators rewrite exponent
# tuples through the same tables instead of building the maps.

def _flat_sources(m: int, sources: Iterable[int | None]) -> list[int | None]:
    """Expand a table of source masks to flat indices: mask*m + j reads sources[mask]*m + j."""
    return [None if src is None else src * m + j for src in sources for j in range(m)]


def _mask_map(m: int, depth: int, sources: Iterable[int | None]) -> PolyMap:
    """Coordinate map on T^depth R^m; output block mask reads block sources[mask]."""
    return coordinate_map(m << depth, _flat_sources(m, sources))


def _surjection_sources(u: FinMap) -> list[int | None]:
    """The source-mask table of a surjection u: a -> b, acting T^b R^m -> T^a R^m.

    Element x of a cardinal c is mask bit c - x.  Output block S (a bits)
    reads input block S' (b bits) when S = u^-1(S'), and is 0 when S is
    no preimage.
    """
    a, b = u.dom, u.cod
    fibres = [0] * b  # fibres[k]: the mask of u^-1(b - k), for input bit k
    for x, y in enumerate(u.table, start=1):
        fibres[b - y] |= 1 << (a - x)
    preimages = [0]  # after k fibres: preimages[S'] for every S' below 2^k
    for fibre in fibres:
        preimages += [s | fibre for s in preimages]
    out: list[int | None] = [None] * (1 << a)
    for src, s in enumerate(preimages):
        out[s] = src
    return out


def flip_whisker(m: int, n: int, i: int) -> PolyMap:
    """Adjacent level swap at generator index i: T^n R^m -> T^n R^m.

    Swaps tangent levels n-i and n-i+1, mask bits n-i-1 and n-i; index 1
    swaps the outermost two.
    """
    return _mask_map(m, n, _surjection_sources(generator_map(Generator(SIGMA, n, i))))


# -- realizing finite-cardinal surjections ------------------------------

def realize_surjection(u: FinMap, m: int) -> PolyMap:
    """The action of a surjection u: a -> b on tangent iterates, T^b -> T^a.

    Output block S reads input block S' when S = u^-1(S'), in one table
    built from the fibres of u; no factorization into generators.
    """
    if not classify(u).surjective:
        raise ValueError(f"{u!r} is not surjective")
    return _mask_map(m, u.cod, _surjection_sources(u))


# -- fibre products and pairings ---------------------------------------

def _fibre_projections(m: int) -> tuple[PolyMap, PolyMap]:
    """The two projections of the fibre product, (x, u, w) |-> (x, u) and
    (x, u, w) |-> (x, w), as tables."""
    return (coordinate_map(3 * m, range(2 * m)),
            coordinate_map(3 * m, list(range(m)) + list(range(2 * m, 3 * m))))


def tangent_fibre_map(f: PolyMap) -> PolyMap:
    """The induced map on fibre products: (x, u, w) |-> (f x, Jf u, Jf w),
    the pairing of Tf after each fibre projection."""
    tf = tangent_of_map(f)
    pi1, pi2 = _fibre_projections(f.dom_dim)
    return fibre_pair(compose(pi1, tf), compose(pi2, tf))


def fibre_pair(f: PolyMap, g: PolyMap) -> PolyMap:
    """Pair two maps into T Y over a shared base as a map into the fibre product.

    f and g land in T R^y = R^{2y} and must agree on the base block.
    """
    if f.dom_dim != g.dom_dim or f.cod_dim != g.cod_dim or f.cod_dim % 2:
        raise ValueError("expected two maps into the same tangent space")
    y = f.cod_dim // 2
    fb, gb, wrap = paired_outputs(f, g)
    if fb[:y] != gb[:y]:
        raise ValueError("maps disagree on the base block")
    return wrap(f.dom_dim, fb[:y] + fb[y:] + gb[y:])


def tangent_pair(f: PolyMap, g: PolyMap) -> PolyMap:
    """Pair two maps into T^2 R^m over the tangent projection.

    The target is T applied to the fibre product, laid out as
    (x, u, w, x', u', w'); f and g must agree on the blocks that the
    tangent projection keeps.
    """
    if f.dom_dim != g.dom_dim or f.cod_dim != g.cod_dim or f.cod_dim % 4:
        raise ValueError("expected two maps into the same double tangent space")
    m = f.cod_dim // 4
    fb, gb, wrap = paired_outputs(f, g)
    if fb[:m] != gb[:m] or fb[2 * m:3 * m] != gb[2 * m:3 * m]:
        raise ValueError("maps disagree under the tangent projection")
    return wrap(f.dom_dim, fb[:m] + fb[m:2 * m] + gb[m:2 * m]
                + fb[2 * m:3 * m] + fb[3 * m:] + gb[3 * m:])


# -- axiom verification -------------------------------------------------

def _random_polymap(rng: random.Random, a: int, b: int) -> PolyMap:
    comps = []
    for _ in range(b):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = [0] * a
            for _ in range(rng.randint(0, 2)):
                exp[rng.randrange(a)] += 1
            terms[tuple(exp)] = terms.get(tuple(exp), 0) + rng.randint(-3, 3)
        comps.append(Poly(a, terms))
    return PolyMap(a, b, tuple(comps))


# Each axiom source yields (name, intrinsic depth, build): build() returns
# the two sides, so the sweep builds only the axioms it checks.

def _coherence_axioms(mu: int):
    """The lift/flip coherence equations instantiated at R^mu, with depths."""
    L, C = vertical_lift, canonical_flip
    T = tangent_of_map
    yield ("flip-involution", 2,
           lambda: (compose(C(mu), C(mu)), identity_map(4 * mu)))
    yield ("flip-fixes-lift", 2,
           lambda: (compose(L(mu), C(mu)), L(mu)))
    yield ("lift-coassociative", 3,
           lambda: (compose(L(mu), T(L(mu))), compose(L(mu), L(2 * mu))))
    yield ("flip-braid", 3,
           lambda: (compose(compose(T(C(mu)), C(2 * mu)), T(C(mu))),
                    compose(compose(C(2 * mu), T(C(mu))), C(2 * mu))))
    yield ("lift-flip-exchange", 3,
           lambda: (compose(compose(L(2 * mu), T(C(mu))), C(2 * mu)),
                    compose(C(mu), T(L(mu)))))


def _bundle_morphism_axioms(mu: int):
    """Both structural transformations are morphisms of additive bundles."""
    L, C, P, Z, A = (vertical_lift, canonical_flip, bundle_projection,
                     zero_section, fibre_addition)
    T = tangent_of_map

    def lift_additive():
        pi1, pi2 = _fibre_projections(mu)
        lift2 = tangent_pair(compose(pi1, L(mu)), compose(pi2, L(mu)))
        return compose(lift2, T(A(mu))), compose(A(mu), L(mu))

    def flip_additive():
        tpi1, tpi2 = map(T, _fibre_projections(mu))
        flip2 = fibre_pair(compose(tpi1, C(mu)), compose(tpi2, C(mu)))
        return compose(flip2, A(2 * mu)), compose(T(A(mu)), C(mu))

    yield ("lift-bundle-square", 2,
           lambda: (compose(L(mu), T(P(mu))), compose(P(mu), Z(mu))))
    yield ("lift-additive", 2, lift_additive)
    yield ("lift-unit", 2,
           lambda: (compose(Z(mu), T(Z(mu))), compose(Z(mu), L(mu))))
    yield ("flip-bundle-square", 2,
           lambda: (compose(C(mu), P(2 * mu)), T(P(mu))))
    yield ("flip-additive", 2, flip_additive)
    yield ("flip-unit", 2,
           lambda: (Z(2 * mu), compose(T(Z(mu)), C(mu))))


def _differential_object_axioms(mu: int):
    """Lift and principal projection identities on the coefficient object R^mu."""
    lam, phat = origin_lift, principal_projection
    L, C, Z = vertical_lift, canonical_flip, zero_section
    T = tangent_of_map

    def principal_additive():
        # additivity of the principal projection under the tangent of +
        plus = linear_map(2 * mu, [{j: 1, mu + j: 1} for j in range(mu)])
        tpi1 = T(coordinate_map(2 * mu, range(mu)))
        tpi2 = T(coordinate_map(2 * mu, range(mu, 2 * mu)))
        return (compose(T(plus), phat(mu)),
                compose(tpi1, phat(mu)) + compose(tpi2, phat(mu)))

    def tp_p():
        return compose(T(phat(mu)), phat(mu))

    def flip_principal():
        tp = tp_p()
        return compose(C(mu), tp), tp

    yield ("principal-additive", 2, principal_additive)
    yield ("principal-retract", 1,
           lambda: (compose(lam(mu), phat(mu)), identity_map(mu)))
    yield ("zero-principal", 1,
           lambda: (compose(Z(mu), phat(mu)), zero_map(mu, mu)))
    yield ("lift-principal-double", 2,
           lambda: (compose(L(mu), tp_p()), phat(mu)))
    yield ("flip-principal", 2, flip_principal)
    yield ("lift-principal-swap", 2,
           lambda: (compose(L(mu), T(phat(mu))), compose(phat(mu), lam(mu))))
    yield ("flip-principal-lift", 2,
           lambda: (compose(compose(T(lam(mu)), C(mu)), T(phat(mu))),
                    compose(phat(mu), lam(mu))))


def _naturality_squares(idx: int, f: PolyMap):
    """The five naturality squares of one panel map f: R^a -> R^b."""
    a, b = f.dom_dim, f.cod_dim
    tf = tangent_of_map(f)
    ttf = tangent_of_map(tf)
    yield (f"naturality-lift[{idx}]", 2,
           lambda: (compose(tf, vertical_lift(b)), compose(vertical_lift(a), ttf)))
    yield (f"naturality-flip[{idx}]", 2,
           lambda: (compose(ttf, canonical_flip(b)), compose(canonical_flip(a), ttf)))
    yield (f"naturality-proj[{idx}]", 1,
           lambda: (compose(tf, bundle_projection(b)), compose(bundle_projection(a), f)))
    yield (f"naturality-zero[{idx}]", 1,
           lambda: (compose(f, zero_section(b)), compose(zero_section(a), tf)))
    yield (f"naturality-add[{idx}]", 1,
           lambda: (compose(tangent_fibre_map(f), fibre_addition(b)),
                    compose(fibre_addition(a), tf)))


def _naturality_axioms(m: int):
    """Naturality squares for lift, flip, projection, zero, addition."""
    rng = random.Random(2024)
    dims = sorted({1, 2, m})
    panel = [_random_polymap(rng, a, b) for a in dims for b in dims]
    for idx, f in enumerate(panel):
        yield from _naturality_squares(idx, f)


def verify_tangent_axioms(m: int, depth: int = 3) -> RelationReport:
    """Machine-check every tangent-structure axiom at R^m, exactly.

    Coherence, bundle-morphism, and differential-object identities are
    re-instantiated at iterated tangent spaces of R^m whenever the total
    tangent depth stays within ``depth``; naturality is checked on a
    fixed seeded panel of random polynomial maps.  Only the axioms within
    ``depth`` are built.  An axiom whose sides cannot be built is a
    failure carrying ``"error"``, not a crash.
    """
    if m < 1:
        raise ValueError("base dimension must be at least 1")
    if depth < 1:
        raise ValueError("tangent depth must be at least 1")
    checked = 0
    failures = []

    def run(name, build, mu):
        nonlocal checked
        checked += 1
        try:
            lhs, rhs = build()
        except ValueError as err:
            # a broken structural map can make an axiom unbuildable;
            # that is a failure, not a crash
            failures.append({"axiom": name, "at_dim": mu, "error": str(err)})
            return
        if lhs != rhs:
            failures.append({"axiom": name, "at_dim": mu})

    for source in (_coherence_axioms, _bundle_morphism_axioms, _differential_object_axioms):
        for j in range(depth):
            mu = m << j
            for name, intrinsic, build in source(mu):
                if j == 0 or j + intrinsic <= depth:
                    run(f"{name}@T^{j}" if j else name, build, mu)
    for name, _intrinsic, build in _naturality_axioms(m):
        run(name, build, m)
    return RelationReport("tangent-axioms", depth, checked, tuple(failures))
