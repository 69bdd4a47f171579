import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sectorforms.poly import (
    Poly,
    PolyMap,
    _rename,
    compose,
    coordinate_map,
    identity_map,
    linear_map,
    zero_map,
)
from sectorforms.sector import coface, exterior_derivative
from sectorforms.tangent import fibre_pair, origin_lift, tangent_of_map, tangent_pair

from helpers import random_sector_form, reference_mul

F = Fraction
Y0, Y1 = Poly.var(2, 0), Poly.var(2, 1)


def random_poly(rng, nvars, deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        exp = [0] * nvars
        for _ in range(rng.randint(0, deg)):
            exp[rng.randrange(nvars)] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + F(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(nvars, terms)


def random_arg(rng, nvars, single):
    """0, one term with coefficient and powers drawn freely, or several terms."""
    if rng.random() < 0.2:
        return Poly.zero(nvars)
    nterms = 1 if single else rng.randint(2, 3)
    return Poly(nvars, {tuple(rng.choice((0, 0, 1, 2)) for _ in range(nvars)):
                        F(rng.choice((1, 1, -1, 2, -3)), rng.randint(1, 3))
                        for _ in range(nterms)})


def reference_subs(p, args, nvars):
    """Substitution by ring arithmetic alone: sum of c * prod(args[j] ** e_j)."""
    total = Poly.zero(nvars)
    for exp, c in p.terms.items():
        term = Poly.const(nvars, c)
        for a, e in zip(args, exp):
            term = term * a ** e
        total = total + term
    return total


def assert_built(p, nvars):
    """What `Poly.__init__` enforces, and `jsonio.poly_to_dict` relies on."""
    assert p.nvars == nvars
    for exp, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert len(exp) == nvars and all(type(e) is int and e >= 0 for e in exp)


def interpolate_coefficients(points, values):
    """Solve the Vandermonde system exactly; coefficients of the unique poly."""
    n = len(points)
    rows = [[F(t) ** e for e in range(n)] + [values[i]] for i, t in enumerate(points)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[r][n] for r in range(n)]


class TestPoly:
    def test_zero_coefficients_dropped(self):
        p = Poly(2, {(1, 0): 0, (0, 1): 2})
        assert list(p.terms) == [(0, 1)]
        assert (p - p).is_zero

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Poly(1, {(1,): 0.5})

    def test_ring_identities(self):
        rng = random.Random(1)
        for _ in range(30):
            a, b, c = (random_poly(rng, 3) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == Poly.zero(3)

    def test_pow(self):
        x = Poly.var(1, 0)
        p = x + Poly.const(1, 1)
        assert p ** 3 == p * p * p
        assert p ** 0 == Poly.const(1, 1)

    def test_partial_matches_termwise_oracle(self):
        rng = random.Random(2)
        for _ in range(30):
            p = random_poly(rng, 3)
            j = rng.randrange(3)
            expected = {}
            for exp, coeff in p.terms.items():
                if exp[j]:
                    e = list(exp)
                    e[j] -= 1
                    expected[tuple(e)] = coeff * exp[j]
            assert p.partial(j) == Poly(3, expected)

    def test_partial_matches_interpolation_oracle(self):
        # restrict to a line, interpolate exactly, read off the linear coefficient
        rng = random.Random(3)
        for _ in range(20):
            p = random_poly(rng, 2)
            j = rng.randrange(2)
            base = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
            deg = max((sum(e) for e in p.terms), default=0) + 1
            ts = list(range(deg + 1))
            vals = []
            for t in ts:
                pt = list(base)
                pt[j] += t
                vals.append(p.eval(pt))
            coeffs = interpolate_coefficients(ts, vals)
            derivative_at_base = coeffs[1] if len(coeffs) > 1 else F(0)
            assert p.partial(j).eval(base) == derivative_at_base

    def test_subs_single_term_fast_path_agrees(self):
        # compose substitutes 0 and one-term arguments on exponent tuples;
        # subs multiplies them out
        rng = random.Random(4)
        for _ in range(20):
            p = random_poly(rng, 2)
            args = [random_arg(rng, 3, single=True) for _ in range(2)]
            fast = compose(PolyMap(3, 2, tuple(args)), PolyMap(2, 1, (p,))).components[0]
            assert fast == p.subs(args) == reference_subs(p, args, 3)

    @pytest.mark.parametrize("p,args", [
        (Poly(2, {(0, 0): 5, (1, 1): 1}), [Y0 + Y1, Y1]),
        (Poly(2, {(2, 1): F(3, 2)}), [Y0 - Y1, Y0.scale(2)]),
        (Poly(2, {(1, 0): 1, (0, 1): 1}), [Y0 + Y1, Y0 * Y1]),
        (Poly(2, {(1, 0): 1, (0, 1): -3, (1, 2): 2}), [Poly.zero(2), Y0 + Y1]),
    ], ids=["constant-term", "coefficient", "first-power", "zero-argument"])
    def test_subs_cases(self, p, args):
        before = [dict(a.terms) for a in args]
        got = p.subs(args)
        assert got == reference_subs(p, args, 2)
        assert_built(got, 2)
        assert [a.terms for a in args] == before  # a first power is no alias

    def test_subs_evaluation_consistency(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_poly(rng, 2)
            q0, q1 = random_poly(rng, 2, deg=2, nterms=2), random_poly(rng, 2, deg=2, nterms=2)
            point = [F(rng.randint(-2, 2)), F(rng.randint(-2, 2))]
            composed = p.subs([q0, q1])
            assert composed.eval(point) == p.eval([q0.eval(point), q1.eval(point)])

    def test_embed(self):
        p = Poly(2, {(1, 2): 3})
        q = p.embed(4, [3, 1])
        assert q == Poly(4, {(0, 2, 0, 1): 3})


class TestPolyMap:
    def test_identity_and_compose(self):
        rng = random.Random(6)
        f = PolyMap(2, 3, tuple(random_poly(rng, 2) for _ in range(3)))
        assert compose(identity_map(2), f) == f
        assert compose(f, identity_map(3)) == f

    def test_compose_matches_pointwise(self):
        rng = random.Random(7)
        f = PolyMap(2, 2, tuple(random_poly(rng, 2, deg=2) for _ in range(2)))
        g = PolyMap(2, 1, (random_poly(rng, 2, deg=2),))
        h = compose(f, g)
        for _ in range(10):
            pt = [F(rng.randint(-3, 3)), F(rng.randint(-3, 3))]
            assert h(pt) == g(f(pt))

    def test_compose_associative(self):
        rng = random.Random(8)
        f = PolyMap(1, 2, tuple(random_poly(rng, 1, deg=2, nterms=2) for _ in range(2)))
        g = PolyMap(2, 2, tuple(random_poly(rng, 2, deg=2, nterms=2) for _ in range(2)))
        h = PolyMap(2, 1, (random_poly(rng, 2, deg=2, nterms=2),))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_coordinate_map(self):
        swap = coordinate_map(2, [1, 0])
        assert swap((F(1), F(2))) == (F(2), F(1))
        drop = coordinate_map(2, [0, None, 1])
        assert drop((F(5), F(7))) == (F(5), F(0), F(7))

    def test_addition(self):
        rng = random.Random(9)
        f = PolyMap(2, 2, tuple(random_poly(rng, 2) for _ in range(2)))
        assert f - f == zero_map(2, 2)
        assert (f + f).components[0] == f.components[0].scale(2)

    def test_compose_matches_componentwise_subs(self):
        rng = random.Random(606)
        for trial in range(80):
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            f = PolyMap(a, b, tuple(random_arg(rng, a, single=trial % 4 != 3)
                                    for _ in range(b)))
            g = PolyMap(b, 2, tuple(random_arg(rng, b, single=False) for _ in range(2)))
            got = compose(f, g).components
            assert got == tuple(p.subs(f.components, nvars=a) for p in g.components)
            assert got == tuple(reference_subs(p, f.components, a) for p in g.components)

    def test_compose_drops_cancelled_terms(self):
        # 3 x0^2 - 12 x1 - x2 at (2y, y^2, 0) is 0; x2 alone meets the zero argument
        y = Poly.var(1, 0)
        f = PolyMap(1, 3, (y.scale(2), y * y, Poly.zero(1)))
        g = PolyMap(3, 2, (Poly(3, {(2, 0, 0): 3, (0, 1, 0): -12, (0, 0, 1): -1}),
                           Poly(3, {(0, 1, 0): F(1, 2), (1, 0, 0): 1})))
        h = compose(f, g)
        assert h.components[0].terms == {}
        assert h.components[1] == Poly(1, {(2,): F(1, 2), (1,): 2})

    def test_compose_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError):
            compose(identity_map(2), identity_map(3))
        with pytest.raises(ValueError):
            compose(zero_map(1, 0), identity_map(1))

    def test_zero_dimensional_domain(self):
        point = PolyMap(0, 2, (Poly.const(0, 3), Poly.const(0, 5)))
        through = compose(zero_map(2, 0), point)
        assert through((F(9), F(9))) == (F(3), F(5))


@st.composite
def polymaps(draw, dom_dim, cod_dim):
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    exps = st.tuples(*[st.integers(0, 2)] * dom_dim)
    return PolyMap(dom_dim, cod_dim, tuple(
        Poly(dom_dim, draw(st.dictionaries(exps, coeffs, max_size=3)))
        for _ in range(cod_dim)))


def not_coordinates(b):
    """Components of a map out of R^b that `compose` must not read as coordinates."""
    out = [Poly.const(b, 1), Poly.const(b, F(1, 2))]
    for j in range(b):
        x = Poly.var(b, j)
        out += [x.scale(2), x.scale(-1), x * x, x + Poly.const(b, 1)]
        out += [x + Poly.var(b, k) for k in range(j + 1, b)]
    return out


@st.composite
def coordinate_cases(draw, coordinates_only):
    """(f, g): a random f: R^a -> R^b and a map g out of R^b whose components are
    0 or a variable, repeats allowed, or, unless coordinates_only, a mix of
    those and `not_coordinates(b)`."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    f = draw(polymaps(a, b))
    assignment = draw(st.lists(st.one_of(st.none(), st.integers(0, b - 1)) if b else st.none(),
                               max_size=5))
    comps = list(coordinate_map(b, assignment).components)
    if not coordinates_only:
        comps += draw(st.lists(st.sampled_from(not_coordinates(b)), min_size=1, max_size=3))
        comps = draw(st.permutations(comps))
    return f, PolyMap(b, len(comps), tuple(comps))


def term_dicts(h):
    return [dict(p.terms) for p in h.components]


@st.composite
def product_pairs(draw):
    """(p, q) in 1..3 variables, or, half the time, (a + b, a - b) for
    a and b of disjoint support, whose cross terms a*b - b*a cancel."""
    nvars = draw(st.integers(1, 3))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    if draw(st.booleans()):
        p, q = (Poly(nvars, draw(st.dictionaries(exps, coeffs, max_size=4))) for _ in range(2))
        return p, q
    terms = draw(st.dictionaries(exps, coeffs, min_size=2, max_size=5))
    cut = draw(st.integers(1, len(terms) - 1))
    items = list(terms.items())
    a, b = Poly(nvars, dict(items[:cut])), Poly(nvars, dict(items[cut:]))
    return a + b, a - b


class TestProduct:
    @given(product_pairs())
    def test_equals_the_term_by_term_sum(self, pair):
        p, q = pair
        product = p * q
        assert product == reference_mul(p, q)
        assert_built(product, p.nvars)

    def test_cross_terms_cancel(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        product = (x + y) * (x - y)
        assert product == reference_mul(x + y, x - y) == x * x - y * y
        assert (1, 1) not in product.terms


class TestPickPath:
    """`compose(f, g)` picks components of f when g is built as a table."""

    @given(coordinate_cases(coordinates_only=True))
    def test_coordinate_map_picks_components(self, case):
        # g built from components is substituted; its twin built as a table
        # picks f's components themselves
        f, g = case
        before = term_dicts(f), term_dicts(g)
        h = compose(f, g)
        assert h.components == tuple(reference_subs(p, f.components, f.dom_dim)
                                     for p in g.components)
        table = [next(iter(p.terms)).index(1) if p.terms else None for p in g.components]
        picked = compose(f, coordinate_map(g.dom_dim, table))
        assert picked.components == h.components
        for p, out in zip(g.components, picked.components):
            if p.terms:
                (exp, _), = p.terms.items()
                assert out is f.components[exp.index(1)]
        assert (term_dicts(f), term_dicts(g)) == before

    @given(coordinate_cases(coordinates_only=False))
    def test_other_components_are_substituted(self, case):
        f, g = case
        before = term_dicts(f), term_dicts(g)
        h = compose(f, g)
        assert h.components == tuple(reference_subs(p, f.components, f.dom_dim)
                                     for p in g.components)
        assert (term_dicts(f), term_dicts(g)) == before

    @pytest.mark.parametrize("p", not_coordinates(2), ids=repr)
    def test_not_a_coordinate(self, p):
        # f = (y + 1, y^2): every component of g above changes f's images
        y = Poly.var(1, 0)
        f = PolyMap(1, 2, (y + Poly.const(1, 1), y * y))
        g = PolyMap(2, 2, (Poly.var(2, 0), p))
        assert compose(f, g).components[1] == reference_subs(p, f.components, 1)


class TestBuiltPolynomials:
    """Polynomials the package builds itself skip the constructor's checks."""

    def test_no_zero_coefficients_and_only_fractions(self):
        rng = random.Random(707)
        for trial in range(40):
            a, b = rng.randint(0, 3), rng.randint(1, 3)
            f = PolyMap(a, b, tuple(random_arg(rng, a, single=trial % 2 == 0)
                                    for _ in range(b)))
            g = PolyMap(b, 2, tuple(random_arg(rng, b, single=False) for _ in range(2)))
            for p in compose(f, g).components:
                assert_built(p, a)
            for p in tangent_of_map(f).components:
                assert_built(p, 2 * a)
            for p in g.components:
                assert_built(p.subs(f.components, nvars=a), a)
                assert_built(p.embed(b + 2, [b + 1 - j for j in range(b)]), b + 2)
                assert_built(p.embed(1, [0] * b), 1)
            for j in range(a):
                assert_built(Poly.var(a, j), a)
        # x0 - x1 with both variables renamed to y cancels
        assert Poly(2, {(1, 0): 1, (0, 1): -1}).embed(1, [0, 0]).terms == {}

    def test_sector_derivatives_drop_cancelled_terms(self):
        # d(d(w)) = 0 cancels every term the cofaces produce
        rng = random.Random(808)
        for n, m in ((1, 1), (2, 1), (2, 2), (3, 1)):
            w = random_sector_form(rng, n, m, 2)
            dw = exterior_derivative(w)
            assert exterior_derivative(dw).body.components[0].terms == {}
            for form in (dw, coface(w, n + 1)):
                for p in form.body.components:
                    assert_built(p, form.body.dom_dim)

    @pytest.mark.parametrize("exp", ((1,), (0, -1), (1, 0, 0)),
                             ids=["short", "negative", "long"])
    def test_public_constructor_still_checks(self, exp):
        with pytest.raises(ValueError):
            Poly(2, {exp: 1})


@st.composite
def tables(draw, dom_dim, cod_dim):
    """A coordinate table: per output, an input index or None."""
    index = st.integers(0, dom_dim - 1) if dom_dim else st.none()
    return tuple(draw(st.lists(st.one_of(st.none(), index),
                               min_size=cod_dim, max_size=cod_dim)))


def held(table, dom_dim, kind):
    """The coordinate map of a table, built as the table or from components."""
    if kind == "table":
        return coordinate_map(dom_dim, table)
    return PolyMap(dom_dim, len(table), coordinate_map(dom_dim, table).components)


@st.composite
def map_pairs(draw):
    """(f, g) composable, each a coordinate map built as its table or from
    components, or a random polynomial map."""
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
    kinds = ("table", "components", "random")
    fk, gk = draw(st.sampled_from(kinds)), draw(st.sampled_from(kinds))
    f = draw(polymaps(a, b)) if fk == "random" else held(draw(tables(a, b)), a, fk)
    g = draw(polymaps(b, c)) if gk == "random" else held(draw(tables(b, c)), b, gk)
    return f, g


@st.composite
def renamings(draw):
    """A polynomial in a variables and a table of length a into n variables,
    with None entries and repeated targets; up to 6 terms into at most 2
    targets, so that renamed terms often collide."""
    a, n = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    exps = st.tuples(*[st.integers(0, 2)] * a)
    p = Poly(a, draw(st.dictionaries(exps, coeffs, max_size=6)))
    return p, draw(tables(n, a)), n


class TestRename:
    @given(renamings())
    def test_matches_reference_subs(self, case):
        # x_j becomes y_table[j], or 0 for None: exponents renamed alike add
        # up, terms that meet 0 vanish and colliding terms are summed
        p, table, n = case
        got = Poly._from_terms(n, _rename(p.terms, table, n))
        args = [Poly.zero(n) if t is None else Poly.var(n, t) for t in table]
        assert got == reference_subs(p, args, n)
        assert_built(got, n)


class TestTableMaps:
    """Coordinate maps built as their tables: compose, equality and checks."""

    @given(map_pairs())
    def test_compose_matches_reference_subs(self, pair):
        f, g = pair
        h = compose(f, g)
        assert (h.dom_dim, h.cod_dim) == (f.dom_dim, g.cod_dim)
        assert h.components == tuple(reference_subs(p, f.components, f.dom_dim)
                                     for p in g.components)
        for p in h.components:
            assert_built(p, f.dom_dim)

    @given(st.integers(0, 4).flatmap(lambda a: st.tuples(
        st.just(a), tables(a, 3), tables(a, 3))))
    def test_equal_and_hash_equal_across_representations(self, case):
        # fresh maps for every pair, hashed before anything reads their fields
        a, t, u = case
        kinds = ("table", "components")
        for x, y in ((t, t), (t, u), (u, t)):
            for left_kind in kinds:
                for right_kind in kinds:
                    left, right = held(x, a, left_kind), held(y, a, right_kind)
                    hashes = hash(left), hash(right)
                    assert (left == right) is (right == left) is (x == y)
                    if x == y:
                        assert hashes[0] == hashes[1]

    def test_component_built_map_holds_no_table(self):
        # only coordinate_map, identity_map and zero_map hold a table; the
        # same map built from components equals its table twin and hashes alike
        f = PolyMap(2, 3, (Y1, Poly.zero(2), Y0))
        twin = coordinate_map(2, [1, None, 0])
        assert f.picks is None
        assert f == twin and twin == f
        assert hash(f) == hash(twin)
        assert PolyMap(2, 1, (Y0.scale(2),)).picks is None
        assert PolyMap(2, 1, (Y0 + Y1,)).picks is None

    def test_components_built_from_table_once_and_kept(self):
        f = coordinate_map(3, [2, None, 0])
        assert f.components == (Poly.var(3, 2), Poly.zero(3), Poly.var(3, 0))
        assert f.components is f.components
        for p in f.components:
            assert_built(p, 3)

    @pytest.mark.parametrize("index", (2, 7, -1, -3))
    def test_coordinate_map_rejects_out_of_range(self, index):
        with pytest.raises(ValueError, match="out of range"):
            coordinate_map(2, [0, index])

    @pytest.mark.parametrize("entry", (1.0, True, F(1)), ids=("float", "bool", "Fraction"))
    def test_coordinate_map_rejects_entries_that_are_not_ints(self, entry):
        # a float, bool or Fraction index would otherwise fail only later,
        # when components are built or the map is composed
        with pytest.raises(TypeError, match="not an int or None"):
            coordinate_map(2, [entry, None])

    @pytest.mark.parametrize("field", ("dom_dim", "cod_dim", "components", "picks"))
    def test_fields_cannot_be_assigned(self, field):
        for f in (coordinate_map(2, [1, None]), PolyMap(2, 2, (Y1, Poly.zero(2)))):
            before = f.dom_dim, f.cod_dim, f.components, f.picks
            with pytest.raises(AttributeError):
                setattr(f, field, None)
            with pytest.raises(AttributeError):
                delattr(f, field)
            assert (f.dom_dim, f.cod_dim, f.components, f.picks) == before

    def test_copy_and_pickle(self):
        for f in (coordinate_map(3, [2, None]), PolyMap(2, 1, (Y0 * Y1 + Y1,))):
            for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
                assert g == f and hash(g) == hash(f)

    def test_arithmetic_results_are_built(self):
        rng = random.Random(909)
        f = PolyMap(2, 2, tuple(random_poly(rng, 2) for _ in range(2)))
        g = coordinate_map(2, [1, None])
        for h in (f + g, -f, f.scale(F(3, 2)), f - g, g + g):
            assert (h.dom_dim, h.cod_dim) == (2, 2)
            for p in h.components:
                assert_built(p, 2)
        assert (f + g).components == tuple(p + q for p, q in zip(f.components, g.components))


# -- linear maps held as sparse rows -------------------------------------

@st.composite
def any_maps(draw, dom_dim, cod_dim):
    """A map R^a -> R^b: a coordinate table, a linear map of int rows
    (negative coefficients included), or a random polynomial map."""
    kind = draw(st.sampled_from(("table", "linear", "random")))
    if kind == "table":
        return coordinate_map(dom_dim, draw(tables(dom_dim, cod_dim)))
    if kind == "linear":
        row = (st.dictionaries(st.integers(0, dom_dim - 1), st.integers(-2, 2), max_size=3)
               if dom_dim else st.just({}))
        return linear_map(dom_dim, draw(st.lists(row, min_size=cod_dim, max_size=cod_dim)))
    return draw(polymaps(dom_dim, cod_dim))


def rebuilt(f):
    """The same map held as components, so every operation takes the polynomial route."""
    return PolyMap(f.dom_dim, f.cod_dim, f.components)


def form(f):
    """How a map is held: "picks", "rows", or None for components."""
    if f.picks is not None:
        return "picks"
    return "rows" if f.rows is not None else None


def composite_form(f, g):
    """The form of `compose(f, g)`: a table exactly when both are tables,
    picks when both are picks."""
    if form(f) is None or form(g) is None:
        return None
    return "picks" if form(f) == form(g) == "picks" else "rows"


def sum_form(f, h):
    """The form of ``f + h``: rows exactly when both are tables."""
    return "rows" if form(f) and form(h) else None


def pair_form(f, g):
    """The form of a pairing of f and g: picks exactly when both are picks."""
    return "picks" if form(f) == form(g) == "picks" else None


def assert_same_map(got, want, held_as):
    """``got`` equals the oracle ``want`` component by component, as ``==`` and
    as a hash; it is held as ``held_as`` ("picks", "rows" or None for
    components), its rows sorted by input with nonzero int coefficients."""
    assert (got.dom_dim, got.cod_dim) == (want.dom_dim, want.cod_dim)
    assert got.components == want.components
    assert got == want and want == got and hash(got) == hash(want)
    for p in got.components:
        assert_built(p, got.dom_dim)
    assert form(got) == held_as
    if got.rows is not None:
        for row in got.rows:
            assert [j for j, _ in row] == sorted({j for j, _ in row})
            assert all(type(c) is int and c for _, c in row)


@st.composite
def linear_cases(draw):
    """f, h: R^a -> R^b and g: R^b -> R^c, each any of the three kinds."""
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
    return draw(any_maps(a, b)), draw(any_maps(b, c)), draw(any_maps(a, b))


@st.composite
def pairing_cases(draw, blocks, shared):
    """(f, g): two maps into ``blocks`` blocks of y outputs that agree on the
    ``shared`` blocks; g is f plus a map that is 0 there."""
    a, y = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    free = [k for k in range(blocks) if k not in shared]
    f = draw(any_maps(a, blocks * y))
    h = draw(any_maps(a, len(free) * y))
    # R^(len(free) y) -> R^(blocks y): block free[i] reads input block i
    spread = coordinate_map(len(free) * y, [free.index(k) * y + j if k in free else None
                                            for k in range(blocks) for j in range(y)])
    return f, f + compose(h, spread)


def twins(table, dom_dim):
    """The coordinate map of a table held three ways: as picks, as unit rows
    from `linear_map`, and rebuilt from components."""
    picks = coordinate_map(dom_dim, table)
    return picks, linear_map(dom_dim, [{} if j is None else {j: 1} for j in table]), rebuilt(picks)


@st.composite
def twin_maps(draw, dom_dim, cod_dim):
    """A coordinate map R^a -> R^b held in any of its three forms."""
    return draw(st.sampled_from(twins(draw(tables(dom_dim, cod_dim)), dom_dim)))


@st.composite
def twin_cases(draw):
    """f, h: R^a -> R^b and g: R^b -> R^c, coordinate maps in mixed forms."""
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
    return draw(twin_maps(a, b)), draw(twin_maps(b, c)), draw(twin_maps(a, b))


@st.composite
def twin_pairing_cases(draw, blocks, shared):
    """(f, g): coordinate maps into ``blocks`` blocks of y outputs, in mixed
    forms, whose tables agree on the ``shared`` blocks."""
    a, y = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    t, other = draw(tables(a, blocks * y)), draw(tables(a, blocks * y))
    u = tuple(t[i] if i // y in shared else other[i] for i in range(blocks * y))
    return draw(st.sampled_from(twins(t, a))), draw(st.sampled_from(twins(u, a)))


class TestLinearRows:
    """Maps held as sparse int rows against the same maps held as components,
    and one coordinate table held as picks, as unit rows and as components."""

    @given(st.one_of(linear_cases(), twin_cases()))
    def test_operations_match_the_component_route(self, case):
        f, g, h = case
        assert_same_map(compose(f, g), compose(rebuilt(f), rebuilt(g)), composite_form(f, g))
        assert_same_map(tangent_of_map(f), tangent_of_map(rebuilt(f)), form(f))
        assert_same_map(f + h, rebuilt(f) + rebuilt(h), sum_form(f, h))
        assert (f == h) is (h == f) is (rebuilt(f) == rebuilt(h))
        if f == h:
            assert hash(f) == hash(h)

    @given(st.one_of(pairing_cases(2, shared=(0,)), twin_pairing_cases(2, shared=(0,))))
    def test_fibre_pair_matches_the_component_route(self, case):
        f, g = case
        assert_same_map(fibre_pair(f, g), fibre_pair(rebuilt(f), rebuilt(g)), pair_form(f, g))

    @given(st.one_of(pairing_cases(4, shared=(0, 2)), twin_pairing_cases(4, shared=(0, 2))))
    def test_tangent_pair_matches_the_component_route(self, case):
        f, g = case
        assert_same_map(tangent_pair(f, g), tangent_pair(rebuilt(f), rebuilt(g)),
                        pair_form(f, g))

    @given(st.integers(0, 3).flatmap(lambda a: st.tuples(st.just(a), tables(a, 3))))
    def test_table_twins_are_equal_and_hash_alike(self, case):
        a, table = case
        held_as = twins(table, a)
        assert [form(f) for f in held_as] == ["picks", "rows", None]
        for left in held_as:
            for right in held_as:
                assert left == right and hash(left) == hash(right)

    def test_composite_that_cancels_to_units_stays_rows(self):
        # a table keeps the form it was built in, and unit rows equal the
        # picks that read the same inputs
        shear, unshear = linear_map(2, [{0: 1, 1: 1}, {1: 1}]), linear_map(2, [{0: 1, 1: -1}, {1: 1}])
        assert shear.rows == (((0, 1), (1, 1)), ((1, 1),)) and shear.picks is None
        composite = compose(shear, unshear)
        assert composite.rows == (((0, 1),), ((1, 1),)) and composite.picks is None
        assert composite == identity_map(2) and identity_map(2) == composite
        assert hash(composite) == hash(identity_map(2))
        cancelled = shear + linear_map(2, [{1: -1}, {1: -1}])
        assert cancelled.rows == (((0, 1),), ()) and cancelled == coordinate_map(2, [0, None])
        dropped = linear_map(3, [{2: 1}, {}, {0: 0, 1: 1}])
        assert dropped.rows == (((2, 1),), (), ((1, 1),))
        assert dropped == coordinate_map(3, [2, None, 1])

    def test_unit_rows_equal_their_picks_twin(self):
        unit, picks = linear_map(2, [{1: 1}, {}]), coordinate_map(2, [1, None])
        assert unit.rows is not None and unit == picks and picks == unit
        assert hash(unit) == hash(picks)
        # a coefficient other than 1 is a different map
        double = linear_map(1, [{0: 2}])
        assert double != coordinate_map(1, [0]) and coordinate_map(1, [0]) != double
        assert double == rebuilt(double) and hash(double) == hash(rebuilt(double))
        assert double.components == (Poly(1, {(1,): 2}),)

    def test_linear_map_checks(self):
        with pytest.raises(ValueError, match="out of range"):
            linear_map(2, [{2: 1}])
        with pytest.raises(ValueError, match="out of range"):
            linear_map(2, [{-1: 1}])
        # every item is checked before zeros are dropped: a falsy
        # coefficient that is not an int is refused like a nonzero one
        for c in (F(1, 2), 1.0, True, 0.0, False, F(0)):
            with pytest.raises(TypeError, match="pair of ints"):
                linear_map(2, [{0: c}])
        for j in (1.0, True, F(1)):
            with pytest.raises(TypeError, match="pair of ints"):
                linear_map(2, [{j: 1}])
            with pytest.raises(TypeError, match="pair of ints"):
                linear_map(2, [{j: 0}])

    def test_rows_substitute_into_components(self):
        # (x, y) |-> (x + y, x - 2y) substituted into x0^2 x1 + 3 x1
        f = linear_map(2, [{0: 1, 1: 1}, {0: 1, 1: -2}])
        g = PolyMap(2, 1, (Poly(2, {(2, 1): 1, (0, 1): 3}),))
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        want = (x + y) * (x + y) * (x - y.scale(2)) + (x - y.scale(2)).scale(3)
        assert compose(f, g).components == (want,)
        # an empty row substitutes 0: the terms in x0 vanish
        half = linear_map(2, [{}, {0: 1, 1: -2}])
        assert half.rows is not None
        assert compose(half, g).components == ((x - y.scale(2)).scale(3),)

    def test_high_powers_expand_to_binomials(self):
        # (x0 + x1)^20 has 21 terms, and (x0 - x1)^12 alternates in sign
        x20 = PolyMap(1, 1, (Poly(1, {(20,): 1}),))
        got = compose(linear_map(2, [{0: 1, 1: 1}]), x20).components
        assert got == (Poly(2, {(k, 20 - k): math.comb(20, k) for k in range(21)}),)
        x12 = PolyMap(1, 1, (Poly(1, {(12,): 1}),))
        got = compose(linear_map(2, [{0: 1, 1: -1}]), x12).components
        assert got == (Poly(2, {(k, 12 - k): (-1) ** (12 - k) * math.comb(12, k)
                                for k in range(13)}),)
