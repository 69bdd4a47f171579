import random
from fractions import Fraction
from functools import partial
from math import gcd
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_maps,
    flat_index,
    random_finmap,
    random_sector_form,
    random_surjection,
    reference_codegeneracy,
    reference_coface,
    reference_exterior_derivative,
    reference_fundamental_derivative,
    reference_multilinearity_failures,
    reference_pullback,
    reference_symmetry,
    rotated_cofaces,
    rotated_exterior_derivative,
)
from sectorforms import cohomology, fincard, poly, sector, tangent
from sectorforms.cohomology import sector_basis, sector_candidates, singular_basis
from sectorforms.fincard import (
    DELTA,
    EPSILON,
    SIGMA,
    FinMap,
    Generator,
    compose as fc_compose,
    factor_map,
    identity,
    sigma_cycle,
    _relation_instances,
)
from sectorforms.poly import Poly, PolyMap, compose
from sectorforms.sector import (
    SectorForm,
    apply_cardinal_map,
    codegeneracy,
    coface,
    exterior_derivative,
    form_from_coefficients,
    fundamental_derivative,
    is_alternating,
    is_sector_form,
    line_one_form,
    line_two_form,
    multilinearity_failures,
    symmetry,
)
from sectorforms.tangent import realize_surjection

F = Fraction
X = Poly.var(1, 0)
G_POLY = X * X * Poly.const(1, 2) + Poly.const(1, 1)  # 2x^2 + 1
H_POLY = X * X * X - X.scale(4)                        # x^3 - 4x
F_POLY = X * X * X + X.scale(-2)                       # x^3 - 2x


def embed_line(p, size):
    return p.embed(size, [0])


def var_products(size, *idxs):
    out = Poly.const(size, 1)
    for i in idxs:
        out = out * Poly.var(size, i)
    return out


class TestSectorFormType:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            SectorForm(2, 1, 1, PolyMap(2, 1, (Poly.var(2, 0),)))
        SectorForm(1, 1, 1, PolyMap(2, 1, (Poly.var(2, 1),)))

    def test_degree_beyond_body_rejected_before_shifting(self):
        # m << n would need n bits; the check must not compute it
        with pytest.raises(ValueError, match="too small for degree"):
            SectorForm(10 ** 12, 1, 1, PolyMap(2, 1, (Poly.var(2, 1),)))
        with pytest.raises(ValueError, match="too small for degree"):
            SectorForm(2, 1, 1, PolyMap(3, 1, (Poly.var(3, 1),)))

    def test_addition_and_zero(self):
        w = line_one_form(F_POLY)
        assert (w - w).is_zero
        assert (w + w).body == w.body.scale(2)


def validated(w):
    """w rebuilt through the checking constructors, its body at m << n."""
    size = w.m << w.n
    comps = tuple(Poly(size, c.terms) for c in w.body.components)
    return SectorForm(w.n, w.m, w.k, PolyMap(size, w.k, comps))


def package_built_forms():
    """Forms the package wraps without checks: bases, cofaces, d and the
    reindexing operators, on basis forms, seeded k = 2 forms and zeros."""
    rng = random.Random(29)
    yield from sector_basis(2, 2, 1)
    yield from singular_basis(2, 2, 1)
    yield from singular_basis(3, 3, 0)
    forms = [*sector_basis(3, 1, 1), *random_vector_forms(43), SectorForm.zero(2, 2, 2)]
    for w in forms:
        yield exterior_derivative(w)
        yield from (coface(w, i) for i in range(1, w.n + 2))
        yield from (symmetry(w, i) for i in range(1, w.n))
        yield from (codegeneracy(w, i) for i in range(1, w.n))
        for cod in range(max(w.n - 1, 0), w.n + 3):
            if w.n == 0 or cod:
                yield apply_cardinal_map(w, random_finmap(rng, w.n, cod))


class TestTrustedConstructors:
    def test_equal_and_hash_equal_to_validated_forms(self):
        count = 0
        for w in package_built_forms():
            v = validated(w)
            assert w == v and hash(w) == hash(v), w
            count += 1
        assert count > 200


class TestIsSectorForm:
    def test_one_forms_pass(self):
        rng = random.Random(1)
        for _ in range(5):
            coeffs = {(i,): F(rng.randint(-4, 4)) for i in range(4)}
            assert is_sector_form(line_one_form(Poly(1, coeffs)))

    def test_two_forms_pass(self):
        assert is_sector_form(line_two_form(G_POLY, H_POLY))

    def test_v_squared_fails(self):
        v = Poly.var(2, 1)
        bad = SectorForm(1, 1, 1, PolyMap(2, 1, (v * v,)))
        assert not is_sector_form(bad)
        assert multilinearity_failures(bad) == (1,)

    def test_base_dependence_only_is_not_linear(self):
        # a nonzero form ignoring its tangent slot cannot be linear in it
        bad = SectorForm(1, 1, 1, PolyMap(2, 1, (Poly.var(2, 0),)))
        assert not is_sector_form(bad)

    def test_zero_forms_trivially_pass(self):
        assert is_sector_form(SectorForm(0, 2, 1, PolyMap(2, 1, (Poly.var(2, 0) * Poly.var(2, 1),))))

    @pytest.mark.parametrize("n", range(4))
    def test_every_small_monomial_matches_reference(self, n):
        for m in (1, 2):
            size = m << n
            for deg in range(4):
                for flats in combinations_with_replacement(range(size), deg):
                    exp = [0] * size
                    for flat in flats:
                        exp[flat] += 1
                    body = PolyMap(size, 1, (Poly(size, {tuple(exp): F(3, 2)}),))
                    w = SectorForm(n, m, 1, body)
                    assert multilinearity_failures(w) == reference_multilinearity_failures(w), exp

    def test_multi_term_forms_match_reference(self):
        outcomes = set()
        for w in perturbed_vector_forms(61, 120):
            got = multilinearity_failures(w)
            assert got == reference_multilinearity_failures(w)
            outcomes.add(len(got) / w.n)
        # passing, partly failing and wholly failing forms all occur
        assert 0 in outcomes and 1 in outcomes and len(outcomes) > 3


@st.composite
def nudged_forms(draw):
    """Forms with n <= 4, m <= 2, k <= 2: each term a few flat indices with
    exponents 1..3, so passing, partly failing and wholly failing forms occur."""
    n, m, k = draw(st.integers(0, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    size = m << n
    entries = st.dictionaries(st.integers(0, size - 1), st.integers(1, 3), max_size=n + 2)
    comps = []
    for _ in range(k):
        terms = {}
        for entry in draw(st.lists(entries, max_size=3)):
            exp = [0] * size
            for flat, e in entry.items():
                exp[flat] = e
            terms[tuple(exp)] = F(1)
        comps.append(Poly(size, terms))
    return SectorForm(n, m, k, PolyMap(size, k, tuple(comps)))


class TestLinearityBitsets:
    @settings(max_examples=200, deadline=None)
    @given(nudged_forms())
    def test_matches_reference(self, w):
        assert multilinearity_failures(w) == reference_multilinearity_failures(w)

    @pytest.mark.parametrize("op", [
        fundamental_derivative,
        lambda w: coface(w, 2),
        lambda w: codegeneracy(w, 1),
        lambda w: symmetry(w, 1),
        lambda w: apply_cardinal_map(w, FinMap(2, 2, (2, 2))),
        exterior_derivative,
    ], ids=["fundamental_derivative", "coface", "codegeneracy", "symmetry",
            "apply_cardinal_map", "exterior_derivative"])
    def test_every_operator_rejects_v_squared(self, op):
        # v1 * v1 on the line at degree 2: level 2 met twice, level 1 never
        v = Poly.var(4, 1)
        bad = SectorForm(2, 1, 1, PolyMap(4, 1, (v * v,)))
        with pytest.raises(ValueError, match=r"linearity fails at positions \[1, 2\]"):
            op(bad)

    def test_index_checks_come_first(self):
        v = Poly.var(4, 1)
        bad = SectorForm(2, 1, 1, PolyMap(4, 1, (v * v,)))
        for op in (lambda w: coface(w, 4), lambda w: codegeneracy(w, 2),
                   lambda w: symmetry(w, 2),
                   lambda w: apply_cardinal_map(w, FinMap(1, 1, (1,)))):
            with pytest.raises(ValueError) as err:
                op(bad)
            assert "not a sector form" not in str(err.value)

    def test_is_alternating_answers_any_form(self):
        # v1^2 - v2^2 fails linearity, and the swap at 1 negates it
        v1, v2 = Poly.var(4, 1), Poly.var(4, 2)
        w = SectorForm(2, 1, 1, PolyMap(4, 1, (v1 * v1 - v2 * v2,)))
        assert multilinearity_failures(w) == (1, 2)
        assert is_alternating(w)
        assert not is_alternating(w + SectorForm(2, 1, 1, PolyMap(4, 1, (v1 * v1,))))


class TestFundamentalDerivative:
    def test_zero_form_rule(self):
        p = X * X * X + X.scale(5)
        w = SectorForm(0, 1, 1, PolyMap(1, 1, (p,)))
        dw = fundamental_derivative(w)
        assert dw.body.components[0] == embed_line(p.partial(0), 2) * Poly.var(2, 1)

    def test_one_form_rule(self):
        dw = fundamental_derivative(line_one_form(F_POLY))
        expected = (embed_line(F_POLY.partial(0), 4) * var_products(4, 1, 2)
                    + embed_line(F_POLY, 4) * Poly.var(4, 3))
        assert dw.body.components[0] == expected

    def test_zero_to_zero(self):
        assert fundamental_derivative(SectorForm.zero(2, 1)).is_zero

    def test_output_is_sector_form(self):
        rng = random.Random(2)
        for n in (0, 1, 2):
            w = random_sector_form(rng, n, 1, 2)
            assert is_sector_form(fundamental_derivative(w))

    def test_rejects_invalid_input(self):
        v = Poly.var(2, 1)
        with pytest.raises(ValueError):
            fundamental_derivative(SectorForm(1, 1, 1, PolyMap(2, 1, (v * v,))))


class TestCoface:
    def test_position_one_is_fundamental(self):
        rng = random.Random(3)
        for n in (0, 1, 2):
            w = random_sector_form(rng, n, 1, 2)
            assert coface(w, 1).body == fundamental_derivative(w).body

    def test_position_two_worked_example(self):
        w = line_two_form(G_POLY, H_POLY)
        got = coface(w, 2).body.components[0]
        gp, hp = G_POLY.partial(0), H_POLY.partial(0)
        expected = (embed_line(gp, 8) * var_products(8, 1, 4, 2)
                    + embed_line(hp, 8) * var_products(8, 5, 2)
                    + embed_line(G_POLY, 8) * var_products(8, 4, 3)
                    + embed_line(G_POLY, 8) * var_products(8, 1, 6)
                    + embed_line(H_POLY, 8) * Poly.var(8, 7))
        assert got == expected

    def test_one_form_cofaces_cancel(self):
        w = line_one_form(F_POLY)
        assert (coface(w, 1) - coface(w, 2)).is_zero

    def test_index_range(self):
        w = line_one_form(F_POLY)
        with pytest.raises(ValueError):
            coface(w, 3)
        with pytest.raises(ValueError):
            coface(w, 0)

    def test_outputs_are_sector_forms(self):
        rng = random.Random(4)
        for n in (1, 2):
            w = random_sector_form(rng, n, 2, 1)
            for i in range(1, n + 2):
                assert is_sector_form(coface(w, i))


class TestCodegeneracy:
    def test_retracts_fundamental_derivative(self):
        rng = random.Random(5)
        for n in (1, 2, 3):
            w = random_sector_form(rng, n, 1, 2)
            back = codegeneracy(fundamental_derivative(w), 1)
            assert back.body == w.body

    def test_worked_example(self):
        w = line_two_form(G_POLY, H_POLY)
        got = codegeneracy(w, 1)
        assert got.body.components[0] == embed_line(H_POLY, 2) * Poly.var(2, 1)

    def test_zero_to_zero(self):
        assert codegeneracy(SectorForm.zero(3, 1), 2).is_zero

    def test_output_is_sector_form(self):
        rng = random.Random(6)
        w = random_sector_form(rng, 3, 1, 2)
        for i in (1, 2):
            assert is_sector_form(codegeneracy(w, i))

    def test_index_range(self):
        w = line_two_form(G_POLY, H_POLY)
        with pytest.raises(ValueError):
            codegeneracy(w, 2)
        with pytest.raises(ValueError):
            codegeneracy(line_one_form(F_POLY), 1)


class TestSymmetry:
    def test_involution(self):
        rng = random.Random(7)
        for n in (2, 3):
            w = random_sector_form(rng, n, 1, 2)
            for i in range(1, n):
                assert symmetry(symmetry(w, i), i).body == w.body

    def test_symmetric_two_form_fixed(self):
        w = line_two_form(G_POLY, H_POLY)
        assert symmetry(w, 1).body == w.body

    def test_alternating_form_negates(self):
        size = 8
        det = (var_products(size, flat_index(2, 2, 1, {1}), flat_index(2, 2, 2, {2}))
               - var_products(size, flat_index(2, 2, 2, {1}), flat_index(2, 2, 1, {2})))
        w = SectorForm(2, 2, 1, PolyMap(size, 1, (det,)))
        assert is_sector_form(w) and is_alternating(w)
        assert symmetry(w, 1).body == (-w).body

    def test_output_is_sector_form(self):
        rng = random.Random(8)
        w = random_sector_form(rng, 2, 2, 1)
        assert is_sector_form(symmetry(w, 1))


class TestApplyCardinalMap:
    def test_identity(self):
        rng = random.Random(9)
        for n in (0, 1, 2):
            w = random_sector_form(rng, n, 1, 2)
            assert apply_cardinal_map(w, identity(n)).body == w.body

    def test_shifted_coface(self):
        rng = random.Random(10)
        w = random_sector_form(rng, 1, 1, 2)
        got = apply_cardinal_map(w, FinMap(1, 2, (1,)))
        assert got.body == coface(w, 2).body

    def test_single_codegeneracy(self):
        rng = random.Random(11)
        w = random_sector_form(rng, 2, 1, 2)
        got = apply_cardinal_map(w, FinMap(2, 1, (1, 1)))
        assert got.body == codegeneracy(w, 1).body

    def test_degree_mismatch(self):
        w = line_one_form(F_POLY)
        with pytest.raises(ValueError):
            apply_cardinal_map(w, identity(3))

    def test_functorial_and_factorization_independent(self):
        rng = random.Random(12)
        for _ in range(25):
            a, b, c = rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3)
            f = random_finmap(rng, a, b)
            g = random_finmap(rng, b, c)
            m = rng.randint(1, 2)
            w = random_sector_form(rng, a, m, 1)
            sequent = apply_cardinal_map(apply_cardinal_map(w, f), g)
            composite = apply_cardinal_map(w, fc_compose(f, g))
            assert sequent.body == composite.body

    def test_outputs_are_sector_forms(self):
        rng = random.Random(13)
        for _ in range(10):
            a, b = rng.randint(0, 2), rng.randint(1, 3)
            w = random_sector_form(rng, a, 1, 2)
            out = apply_cardinal_map(w, random_finmap(rng, a, b))
            assert out.n == b and is_sector_form(out)

    def test_zero_form_takes_no_coface(self, monkeypatch):
        # a coface per missing value would build a zero form with a fresh
        # m << v integer each time, work growing as cod squared
        def refuse(*args):
            raise AssertionError("a zero form went through _cofaces")

        monkeypatch.setattr(sector, "_cofaces", refuse)
        w = SectorForm.zero(1, 2, 2)
        assert apply_cardinal_map(w, FinMap(1, 10 ** 5, (3,))) == SectorForm.zero(10 ** 5, 2, 2)

    def test_matches_composed_generators(self):
        # every map n <= 3 -> cod <= 4, against the composed whiskers and
        # derivatives along its generator word
        for w in random_vector_forms(14):
            for cod in range(5):
                for f in all_maps(w.n, cod):
                    expect = w
                    for g in factor_map(f).gens:
                        if g.kind == EPSILON:
                            expect = reference_codegeneracy(expect, g.i)
                        elif g.kind == SIGMA:
                            expect = reference_symmetry(expect, g.i)
                        else:
                            expect = reference_coface(expect, g.i)
                    assert apply_cardinal_map(w, f) == expect, f


class TestExteriorDerivative:
    def test_zero_form(self):
        p = X * X + X.scale(3)
        w = SectorForm(0, 1, 1, PolyMap(1, 1, (p,)))
        dw = exterior_derivative(w)
        assert dw.body.components[0] == embed_line(p.partial(0), 2) * Poly.var(2, 1)

    def test_every_line_one_form_is_closed(self):
        rng = random.Random(14)
        for _ in range(5):
            coeffs = {(i,): F(rng.randint(-5, 5)) for i in range(5)}
            assert exterior_derivative(line_one_form(Poly(1, coeffs))).is_zero

    def test_two_form_five_term_expansion(self):
        w = line_two_form(G_POLY, H_POLY)
        dw = exterior_derivative(w)
        gp, hp = G_POLY.partial(0), H_POLY.partial(0)
        expected = (embed_line(gp, 8) * var_products(8, 1, 2, 4)
                    + embed_line(hp, 8) * var_products(8, 4, 3)
                    + (embed_line(G_POLY, 8).scale(2) - embed_line(hp, 8)) * var_products(8, 2, 5)
                    + embed_line(hp, 8) * var_products(8, 1, 6)
                    + embed_line(H_POLY, 8) * Poly.var(8, 7))
        assert dw.body.components[0] == expected

    def test_closed_two_form_on_line_is_zero(self):
        # the exterior derivative above vanishes only for g = h = 0
        w = line_two_form(G_POLY, H_POLY)
        assert not exterior_derivative(w).is_zero

    def test_squares_to_zero(self):
        rng = random.Random(15)
        for m in (1, 2):
            for n in (0, 1, 2):
                w = random_sector_form(rng, n, m, 2)
                dd = exterior_derivative(exterior_derivative(w))
                assert dd.is_zero

    def test_output_is_sector_form(self):
        rng = random.Random(16)
        w = random_sector_form(rng, 2, 2, 1)
        assert is_sector_form(exterior_derivative(w))


# (n, m, d) with n <= 4, m <= 3, d <= 2, each at the largest d whose basis
# of C(m+d, m)*T_n(m) partition monomials stays within 300; the basis at
# bound d holds the bases at every lower bound.
MONOMIAL_SHAPES = [(0, 1, 2), (0, 2, 2), (0, 3, 2), (1, 1, 2), (1, 2, 2), (1, 3, 2),
                   (2, 1, 2), (2, 2, 2), (2, 3, 2), (3, 1, 2), (3, 2, 2), (3, 3, 1),
                   (4, 1, 2), (4, 2, 1)]


def monomials_and_their_derivatives(n, m, d):
    """Every partition monomial at (n, m, d), each followed by its d."""
    for w in sector_basis(n, m, d):
        yield w
        yield rotated_exterior_derivative(w)


def random_vector_forms(seed):
    """Seeded two-component forms with non-integer rational coefficients."""
    rng = random.Random(seed)
    for n in range(4):
        for m in (1, 2):
            comps = []
            for _ in range(2):
                a, b = random_sector_form(rng, n, m, 2), random_sector_form(rng, n, m, 2)
                mix = (a.scale(F(rng.randint(1, 9), rng.randint(2, 7)))
                       - b.scale(F(rng.randint(1, 9), rng.randint(2, 7))))
                comps.append(mix.body.components[0])
            yield SectorForm(n, m, 2, PolyMap(m << n, 2, tuple(comps)))


def zero_and_degree_zero_forms():
    for n, m, k in ((0, 1, 1), (0, 2, 3), (2, 2, 2), (3, 1, 1)):
        yield SectorForm.zero(n, m, k)
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    body = ((x * x * y).scale(F(2, 3)) - y.scale(F(1, 5)) + Poly.const(2, 4), Poly.const(2, F(7, 2)))
    yield SectorForm(0, 2, 2, PolyMap(2, 2, body))


REFERENCE_CASES = {
    **{f"monomials-{n}-{m}-{d}": partial(monomials_and_their_derivatives, n, m, d)
       for n, m, d in MONOMIAL_SHAPES},
    "random-k2-fractions": partial(random_vector_forms, 41),
    "zero-and-degree-zero": zero_and_degree_zero_forms,
}

# the composed maps on T^5 and T^6 R^2 take seconds, so this case checks the
# derivatives against the rotation oracle alone; every other case checks
# that oracle against the composed maps
ROTATION_ONLY = {"monomials-4-2-1"}


def perturbed_vector_forms(seed, count):
    """Seeded two-component forms, some nudged off the sector-form equations.

    Each component is a random sum of partition monomials; up to two of
    its terms are copied with one exponent raised or lowered by one.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n, m = rng.randint(1, 4), rng.randint(1, 2)
        comps = []
        for _ in range(2):
            body = random_sector_form(rng, n, m, 1).body.components[0]
            extra = {}
            for exp in list(body.terms)[:rng.randint(0, 2)]:
                exp = list(exp)
                flat = rng.randrange(len(exp))
                exp[flat] = max(0, exp[flat] + rng.choice((-1, 1)))
                extra[tuple(exp)] = F(rng.randint(1, 5), rng.randint(1, 3))
            comps.append(body + Poly(m << n, extra))
        yield SectorForm(n, m, 2, PolyMap(m << n, 2, tuple(comps)))


class TestComposeReference:
    """The exponent-tuple operators equal the composed polynomial maps."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_derivatives_match_reference(self, case):
        for w in REFERENCE_CASES[case]():
            expect, d_expect = rotated_cofaces(w), rotated_exterior_derivative(w)
            if case not in ROTATION_ONLY:
                assert reference_fundamental_derivative(w) == expect[0]
                for i in range(1, w.n + 2):
                    assert reference_coface(w, i) == expect[i - 1], i
                assert reference_exterior_derivative(w) == d_expect
            assert fundamental_derivative(w) == expect[0]
            for i in range(1, w.n + 2):
                assert coface(w, i) == expect[i - 1], i
            assert exterior_derivative(w) == d_expect

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_reindexing_matches_reference(self, case):
        for w in REFERENCE_CASES[case]():
            swapped = [reference_symmetry(w, i) for i in range(1, w.n)]
            for i in range(1, w.n):
                assert codegeneracy(w, i) == reference_codegeneracy(w, i), i
                assert symmetry(w, i) == swapped[i - 1], i
            assert is_alternating(w) == all(s == -w for s in swapped)

    def test_operators_build_no_map(self, monkeypatch):
        # every operator works on exponent tuples
        w = random_sector_form(random.Random(25), 3, 2, 1)
        f = FinMap(3, 4, (3, 1, 1))
        assert {g.kind for g in factor_map(f).gens} == {DELTA, EPSILON, SIGMA}

        def refuse(*args, **kwargs):
            raise AssertionError("a sector operator built or composed a map")

        for module in (poly, tangent, sector):
            for name in ("compose", "coordinate_map", "tangent_of_map", "flip_whisker"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert multilinearity_failures(w) == ()
        assert apply_cardinal_map(w, f).n == 4
        assert exterior_derivative(w).n == 4
        assert not is_alternating(w)

    def test_cardinal_maps_act_without_factoring(self, monkeypatch):
        # surjections act through their preimage tables, maps through one
        # surjection pass and cofaces: no generator word, no composite
        w = random_sector_form(random.Random(26), 3, 2, 1)
        f = FinMap(3, 4, (3, 1, 1))
        expect = apply_cardinal_map(w, f)
        u = sigma_cycle(3, 3)
        realized = realize_surjection(u, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("a cardinal map was factored or composed")

        for module in (fincard, poly, tangent, sector):
            for name in ("factor_map", "factor_surjection", "compose"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert apply_cardinal_map(w, f) == expect
        assert realize_surjection(u, 2) == realized


MIXED_COEFFICIENTS = (F(1, 2), F(2, 3), F(-5, 6), F(10 ** 30, 7))


def mixed_denominator_forms():
    """Seeded forms whose terms cycle through the coefficients 1/2, 2/3,
    -5/6 and 10**30/7, one or two components, and the closed 1-form
    d((1/4)x^2 + (2/9)x^3 - (5/24)x^4) = ((1/2)x + (2/3)x^2 - (5/6)x^3) v,
    whose own d cancels term by term."""
    rng = random.Random(71)
    for n, m, k in ((0, 2, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)):
        comps = []
        for _ in range(k):
            exps = list(random_sector_form(rng, n, m, 2, nterms=4).body.components[0].terms)
            comps.append(Poly(m << n, {exp: MIXED_COEFFICIENTS[idx % 4]
                                       for idx, exp in enumerate(exps)}))
        yield SectorForm(n, m, k, PolyMap(m << n, k, tuple(comps)))
    yield line_one_form(Poly(1, {(1,): F(1, 2), (2,): F(2, 3), (3,): F(-5, 6)}))


def assert_canonical(w):
    """Every coefficient is a nonzero Fraction in lowest terms, as
    `Poly._from_terms` requires of its caller."""
    for comp in w.body.components:
        for c in comp.terms.values():
            assert type(c) is Fraction and c != 0, c
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1, c


class TestCommonDenominator:
    """`_cofaces` sums integer numerators over each component's common
    denominator and makes one Fraction per output term."""

    def test_matches_reference(self):
        for w in mixed_denominator_forms():
            for i in range(1, w.n + 2):
                got = coface(w, i)
                assert got == reference_coface(w, i), (w, i)
                assert_canonical(got)
            got = exterior_derivative(w)
            assert got == reference_exterior_derivative(w), w
            assert_canonical(got)

    def test_exact_cancellation(self):
        # each coefficient of d(dw) is a sum of terms that cancel exactly
        for w in mixed_denominator_forms():
            dw = exterior_derivative(w)
            assert exterior_derivative(dw).is_zero, w
        closed = line_one_form(Poly(1, {(1,): F(1, 2), (2,): F(2, 3), (3,): F(-5, 6)}))
        assert exterior_derivative(closed).is_zero

    def test_reduced_output(self):
        # d((2/9)x^3 + (10**30/49)x^7) = ((2/3)x^2 + (10**30/7)x^6) v: the
        # common denominator 441 reduces to 3 and 7
        w = SectorForm(0, 1, 1, PolyMap(1, 1, (Poly(1, {(3,): F(2, 9), (7,): F(10 ** 30, 49)}),)))
        got = coface(w, 1)
        assert sorted(got.body.components[0].terms.values()) == [F(2, 3), F(10 ** 30, 7)]
        assert_canonical(got)


class TestCofaceSums:
    """The integer kernel on the vectors `complex_report` passes: the partition
    monomials of `sector_candidates` and the signed monomials of the singular
    basis, each against the reference derivative of its basis form."""

    @pytest.mark.parametrize("n,m,d", [(n, m, d) for n in range(4) for m in range(1, 4)
                                       for d in range(3)])
    def test_numerators_of_reference(self, n, m, d):
        vectors = ([[(exp, 1)] for exp in sector_candidates(n, m, d)]
                   + cohomology._singular_vectors(n, m, d))
        forms = sector_basis(n, m, d) + singular_basis(n, m, d)
        sums = list(sector._coface_sums(vectors, m, n, {i: 1 if i % 2 else -1 for i in range(1, n + 2)}))
        assert len(sums) == len(vectors) == len(forms)
        for vector, got, form in zip(vectors, sums, forms):
            assert dict(vector) == form.body.components[0].terms
            want = reference_exterior_derivative(form).body.components[0].terms
            assert all(c.denominator == 1 for c in want.values())
            assert {e: s for e, s in got.items() if s} == {e: c.numerator
                                                           for e, c in want.items()}


class TestAlternating:
    def test_low_degrees_vacuous(self):
        rng = random.Random(17)
        assert is_alternating(random_sector_form(rng, 0, 1, 2))
        assert is_alternating(random_sector_form(rng, 1, 1, 2))

    def test_nonzero_two_form_on_line_is_not(self):
        assert not is_alternating(line_two_form(G_POLY, H_POLY))

    def test_zero_form_is(self):
        assert is_alternating(SectorForm.zero(3, 1))

    def test_stability_under_derivative(self):
        det = (var_products(8, flat_index(2, 2, 1, {1}), flat_index(2, 2, 2, {2}))
               - var_products(8, flat_index(2, 2, 2, {1}), flat_index(2, 2, 1, {2})))
        coeff = Poly.var(2, 0) * Poly.var(2, 1)
        w = SectorForm(2, 2, 1, PolyMap(8, 1, (det * coeff.embed(8, [0, 1]),)))
        assert is_sector_form(w) and is_alternating(w)
        assert is_alternating(exterior_derivative(w))


class TestPullback:
    def test_identity(self):
        from sectorforms.poly import identity_map
        rng = random.Random(18)
        w = random_sector_form(rng, 2, 2, 1)
        assert reference_pullback(w, identity_map(2)).body == w.body

    def test_chain_rule_on_square(self):
        w = line_one_form(F_POLY)
        phi = PolyMap(1, 1, (X * X,))
        got = reference_pullback(w, phi)
        y, wvar = Poly.var(2, 0), Poly.var(2, 1)
        expected = F_POLY.subs([y * y]) * y.scale(2) * wvar
        assert got.body.components[0] == expected

    def test_commutes_with_exterior_derivative(self):
        rng = random.Random(19)
        for _ in range(6):
            n = rng.randint(0, 2)
            w = random_sector_form(rng, n, 1, 2)
            phi = PolyMap(2, 1, (Poly(2, {(2, 0): 1, (0, 1): F(rng.randint(-2, 2))}),))
            lhs = reference_pullback(exterior_derivative(w), phi)
            rhs = exterior_derivative(reference_pullback(w, phi))
            assert lhs.body == rhs.body

    def test_commutes_with_operators(self):
        rng = random.Random(20)
        w = random_sector_form(rng, 2, 1, 2)
        phi = PolyMap(1, 1, (X * X - X,))
        pulled = reference_pullback(w, phi)
        assert reference_pullback(symmetry(w, 1), phi).body == symmetry(pulled, 1).body
        assert reference_pullback(codegeneracy(w, 1), phi).body == codegeneracy(pulled, 1).body
        for i in (1, 2, 3):
            assert reference_pullback(coface(w, i), phi).body == coface(pulled, i).body

    def test_dimension_mismatch(self):
        w = line_one_form(F_POLY)
        with pytest.raises(ValueError):
            reference_pullback(w, PolyMap(1, 2, (X, X)))

    def test_result_is_sector_form(self):
        rng = random.Random(21)
        w = random_sector_form(rng, 2, 1, 2)
        phi = PolyMap(2, 1, (Poly(2, {(1, 1): 1}),))
        assert is_sector_form(reference_pullback(w, phi))


class TestVectorValuedForms:
    def make_pair(self, rng):
        a = random_sector_form(rng, 2, 1, 2)
        b = random_sector_form(rng, 2, 1, 2)
        body = PolyMap(4, 2, (a.body.components[0], b.body.components[0]))
        return SectorForm(2, 1, 2, body), a, b

    def test_componentwise_membership(self):
        rng = random.Random(31)
        w, _, _ = self.make_pair(rng)
        assert is_sector_form(w)

    def test_operators_act_componentwise(self):
        rng = random.Random(32)
        w, a, b = self.make_pair(rng)
        dw = exterior_derivative(w)
        da, db = exterior_derivative(a), exterior_derivative(b)
        assert dw.body.components == (da.body.components[0], db.body.components[0])
        cw = codegeneracy(w, 1)
        assert cw.body.components == (codegeneracy(a, 1).body.components[0],
                                      codegeneracy(b, 1).body.components[0])
        assert is_sector_form(dw) and is_sector_form(cw)


class TestMonoidStructure:
    def test_operators_are_additive(self):
        rng = random.Random(22)
        w1 = random_sector_form(rng, 2, 1, 2)
        w2 = random_sector_form(rng, 2, 1, 2)
        zero = SectorForm.zero(2, 1)
        ops = [
            fundamental_derivative,
            (lambda w: coface(w, 2)),
            (lambda w: codegeneracy(w, 1)),
            (lambda w: symmetry(w, 1)),
            exterior_derivative,
            (lambda w: apply_cardinal_map(w, FinMap(2, 2, (2, 2)))),
        ]
        for op in ops:
            assert op(w1 + w2).body == (op(w1) + op(w2)).body
            assert op(zero).is_zero


class TestCosimplicialIdentities:
    def apply_word(self, w, gens):
        out = w
        for g in gens:
            if g.kind == EPSILON:
                out = codegeneracy(out, g.i)
            elif g.kind == DELTA:
                out = coface(out, g.i)
            else:
                out = symmetry(out, g.i)
        return out

    @pytest.mark.parametrize("family", [
        "pure-codegeneracy", "pure-coface", "coface-codegeneracy",
        "moore-involution", "moore-braid", "moore-commute",
        "codegeneracy-symmetry", "coface-symmetry",
        "fundamental-coface-codegeneracy", "fundamental-coface-symmetry",
    ])
    def test_relations_transport_to_operators(self, family):
        rng = random.Random(hash(family) % 10_000)
        for params, lhs, rhs in _relation_instances(family, 2):
            lhs = tuple(Generator(*k) for k in lhs)
            if not isinstance(rhs, int):
                rhs = tuple(Generator(*k) for k in rhs)
            dom = lhs[0].map_dom if lhs else rhs
            if dom > 3:
                continue
            for m in (1, 2):
                w = random_sector_form(rng, dom, m, 1)
                left = self.apply_word(w, lhs)
                right = w if isinstance(rhs, int) else self.apply_word(w, rhs)
                assert left.body == right.body, (family, params, m)

    def test_named_identities_degree_three(self):
        rng = random.Random(23)
        w = random_sector_form(rng, 3, 1, 2)
        assert codegeneracy(fundamental_derivative(w), 1).body == w.body
        dd = fundamental_derivative(fundamental_derivative(w))
        assert symmetry(dd, 1).body == dd.body

    def test_identities_on_basis_combinations(self):
        # draw random rational combinations straight out of the computed bases
        rng = random.Random(24)
        for n, m, d in ((2, 1, 2), (2, 2, 1), (3, 1, 1)):
            basis = sector_basis(n, m, d)
            for _ in range(3):
                w = SectorForm.zero(n, m)
                for b in basis:
                    w = w + b.scale(F(rng.randint(-3, 3)))
                assert is_sector_form(w)
                back = codegeneracy(fundamental_derivative(w), 1)
                assert back.body == w.body
                for i in range(1, n):
                    assert symmetry(symmetry(w, i), i).body == w.body
                dd = fundamental_derivative(fundamental_derivative(w))
                assert symmetry(dd, 1).body == dd.body
