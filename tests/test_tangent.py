import random
from fractions import Fraction

import pytest

from sectorforms import tangent
from sectorforms.fincard import (
    EPSILON,
    FinMap,
    Generator,
    compose as fc_compose,
    eval_word,
    factor_surjection,
    generator_map,
    identity,
    probe_surjection,
    sigma_cycle,
)
from sectorforms.poly import (Poly, PolyMap, compose, coordinate_map, identity_map, linear_map,
                              zero_map)
from sectorforms.sector import _coface_table
from sectorforms.tangent import (
    TangentCoords,
    bundle_projection,
    canonical_flip,
    fibre_addition,
    fibre_pair,
    flip_whisker,
    origin_lift,
    principal_projection,
    realize_surjection,
    tangent_fibre_map,
    tangent_pair,
    tangent_of_map,
    verify_tangent_axioms,
    vertical_lift,
    zero_section,
)

F = Fraction


def random_polymap(rng, a, b, deg=2, nterms=3):
    comps = []
    for _ in range(b):
        terms = {}
        for _ in range(nterms):
            exp = [0] * a
            for _ in range(rng.randint(0, deg)):
                exp[rng.randrange(a)] += 1
            terms[tuple(exp)] = terms.get(tuple(exp), 0) + rng.randint(-3, 3)
        comps.append(Poly(a, terms))
    return PolyMap(a, b, tuple(comps))


from helpers import (
    all_surjections,
    flat_index,
    iterate_tangent,
    random_surjection,
    randomized_factorization,
    reference_cycle_sources,
    reference_flip_cycle,
    reference_flip_whisker,
    reference_lift_whisker,
    reference_multilinearity_probe,
    reference_realize_word,
    reference_axiom_instances,
    reference_tangent_of_map,
)


def labels(tc):
    return [tc.label(flat) for flat in range(tc.size)]


class TestTangentCoords:
    def test_layout_depth2(self):
        tc = TangentCoords(1, 2)
        assert labels(tc) == [(1, frozenset()), (1, frozenset({1})),
                              (1, frozenset({2})), (1, frozenset({1, 2}))]

    def test_layout_depth3_matches_eight_tuple(self):
        # <x, u{1}, u{2}, u{1,2}, u{3}, u{1,3}, u{2,3}, u{1,2,3}>
        tc = TangentCoords(1, 3)
        masks = [frozenset(), {1}, {2}, {1, 2}, {3}, {1, 3}, {2, 3}, {1, 2, 3}]
        assert [lv for _, lv in labels(tc)] == [frozenset(s) for s in masks]

    def test_prefix_property(self):
        inner = TangentCoords(2, 2)
        outer = TangentCoords(2, 3)
        assert labels(outer)[: inner.size] == labels(inner)

    def test_index_label_round_trip(self):
        tc = TangentCoords(3, 3)
        for flat in range(tc.size):
            j, levels = tc.label(flat)
            assert flat_index(3, 3, j, levels) == flat

    def test_names(self):
        tc = TangentCoords(2, 1)
        assert tc.name(0) == "x_1"
        assert tc.name(3) == "u{1}_2"


class TestTangentFunctor:
    def test_preserves_identity(self):
        for a in (1, 2, 3):
            assert tangent_of_map(identity_map(a)) == identity_map(2 * a)

    def test_square_map(self):
        x = Poly.var(1, 0)
        f = PolyMap(1, 1, (x * x,))
        tf = tangent_of_map(f)
        X, V = Poly.var(2, 0), Poly.var(2, 1)
        assert tf == PolyMap(2, 2, (X * X, X * V.scale(2)))

    def test_one_form_jacobian_expands_by_product_rule(self):
        # body (x, v) -> f(x) v with f = 3 x^2 + 1/2
        X, V = Poly.var(2, 0), Poly.var(2, 1)
        f_of_x = X * X * Poly.const(2, 3) + Poly.const(2, F(1, 2))
        body = PolyMap(2, 1, (f_of_x * V,))
        tb = tangent_of_map(body)
        x, v1, v2, d = (Poly.var(4, j) for j in range(4))
        f4 = x * x * Poly.const(4, 3) + Poly.const(4, F(1, 2))
        fprime4 = x.scale(6)
        assert tb.components[1] == fprime4 * v1 * v2 + f4 * d

    def test_iterate_zero_is_identity(self):
        rng = random.Random(10)
        f = random_polymap(rng, 2, 2)
        assert iterate_tangent(f, 0) == f

    def test_iterate_functorial(self):
        rng = random.Random(11)
        for n in (1, 2, 3):
            for _ in range(4):
                a, b, c = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
                f = random_polymap(rng, a, b)
                g = random_polymap(rng, b, c)
                assert iterate_tangent(compose(f, g), n) == compose(
                    iterate_tangent(f, n), iterate_tangent(g, n))

    def test_second_iterate_of_square(self):
        x = Poly.var(1, 0)
        f = PolyMap(1, 1, (x * x,))
        t2 = iterate_tangent(f, 2)
        X, V1, V2, D = (Poly.var(4, j) for j in range(4))
        assert t2 == PolyMap(4, 4, (X * X, (X * V1).scale(2),
                                    (X * V2).scale(2), (V1 * V2).scale(2) + (X * D).scale(2)))

    def test_matches_partial_derivative_reference(self):
        # Fraction coefficients, zero and constant components, dom_dim 0,
        # exponents above 1; the second iterate differentiates the first
        rng = random.Random(505)
        for a in range(5):
            for _ in range(10):
                comps = []
                for _ in range(rng.randint(1, 3)):
                    kind = rng.randrange(4)
                    if kind == 0:
                        comps.append(Poly.zero(a))
                    elif kind == 1:
                        comps.append(Poly.const(a, F(rng.randint(-5, 5), rng.randint(1, 4))))
                    else:
                        comps.append(Poly(a, {
                            tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(a)):
                                F(rng.randint(-5, 5), rng.randint(1, 4))
                            for _ in range(rng.randint(1, 5))}))
                f = PolyMap(a, len(comps), tuple(comps))
                tf = tangent_of_map(f)
                assert tf == reference_tangent_of_map(f)
                assert tangent_of_map(tf) == reference_tangent_of_map(tf)

    def test_table_route_matches_jacobian(self):
        # T of a map built as a table is a table; the same map rebuilt from its
        # components takes the Jacobian route, which stays the oracle
        rng = random.Random(1717)
        for a in range(5):
            for b in range(5):
                for _ in range(4):
                    table = [rng.choice([None] + list(range(a))) for _ in range(b)]
                    tf = tangent_of_map(coordinate_map(a, table))
                    rebuilt = PolyMap(a, b, coordinate_map(a, table).components)
                    assert tf.picks == tuple(table) + tuple(
                        None if j is None else a + j for j in table)
                    assert tf == tangent_of_map(rebuilt) == reference_tangent_of_map(rebuilt)
                    assert tf.components == tangent_of_map(rebuilt).components

    def test_tangent_part_matches_termwise_derivative_oracle(self):
        # assemble the expected Jacobian pushforward without Poly.partial
        rng = random.Random(77)
        for _ in range(20):
            a = rng.randint(1, 3)
            exp = tuple(rng.randint(0, 3) for _ in range(a))
            mono = Poly(a, {exp: F(rng.randint(1, 5), rng.randint(1, 3))})
            tf = tangent_of_map(PolyMap(a, 1, (mono,)))
            expected = Poly.zero(2 * a)
            for j in range(a):
                if exp[j]:
                    dexp = list(exp) + [0] * a
                    dexp[j] -= 1
                    dexp[a + j] += 1
                    coeff = mono.terms[exp] * exp[j]
                    expected = expected + Poly(2 * a, {tuple(dexp): coeff})
            assert tf.components[1] == expected


class TestStructural:
    def test_vertical_lift_coordinates(self):
        assert vertical_lift(1) == coordinate_map(2, [0, None, None, 1])

    def test_flip_coordinates(self):
        assert canonical_flip(1) == coordinate_map(4, [0, 2, 1, 3])

    def test_zero_then_projection(self):
        for m in (1, 2, 3):
            assert compose(zero_section(m), bundle_projection(m)) == identity_map(m)

    def test_addition(self):
        assert fibre_addition(1)((F(1), F(2), F(3))) == (F(1), F(5))
        # (x1, x2, u1, u2, w1, w2) |-> (x1, x2, u1 + w1, u2 + w2), held as rows
        assert fibre_addition(2).rows == (((0, 1),), ((1, 1),), ((2, 1), (4, 1)), ((3, 1), (5, 1)))


class TestDifferentialObject:
    def test_origin_lift_coordinates(self):
        assert origin_lift(1) == coordinate_map(1, [None, 0])

    def test_retract(self):
        for k in (1, 2, 3):
            assert compose(origin_lift(k), principal_projection(k)) == identity_map(k)

    def test_over_the_origin(self):
        for k in (1, 2):
            assert compose(origin_lift(k), bundle_projection(k)) == zero_map(k, k)

    def test_principal_identities(self):
        for k in (1, 2):
            lam, phat = origin_lift(k), principal_projection(k)
            L, C, Z = vertical_lift(k), canonical_flip(k), zero_section(k)
            T = tangent_of_map
            tp_p = compose(T(phat), phat)
            assert compose(L, tp_p) == phat
            assert compose(C, tp_p) == tp_p
            assert compose(Z, phat) == zero_map(k, k)
            assert compose(L, T(phat)) == compose(phat, lam)
            assert compose(compose(T(lam), C), T(phat)) == compose(phat, lam)


class TestWhiskers:
    def test_golden_tuple_inner_flip(self):
        # swap at index 1 on T^3 R: <x,v1,v2,d1,v3,d2,d3,t> -> <x,v1,v3,d2,v2,d1,d3,t>
        assert flip_whisker(1, 3, 1) == coordinate_map(8, [0, 1, 4, 5, 2, 3, 6, 7])

    def test_golden_tuple_outer_flip(self):
        # swap at index 2 on T^3 R: <x,v1,v2,d1,v3,d2,d3,t> -> <x,v2,v1,d1,v3,d3,d2,t>
        assert flip_whisker(1, 3, 2) == coordinate_map(8, [0, 2, 1, 3, 4, 6, 5, 7])

    def test_lift_whisker_base_case(self):
        lift = generator_map(Generator(EPSILON, 1, 1))
        for m in (1, 2):
            assert realize_surjection(lift, m) == vertical_lift(m)

    def test_flip_cycle_index_one_is_identity(self):
        # the coface at position 1 is the fundamental derivative
        for m in (1, 2):
            for n in range(1, 5):
                assert _coface_table(m, n, 1) == tuple(range(m << n))

    def test_flip_cycle_realizes_cycle_permutation(self):
        # the action of the cycle permutation is the composed flip cycle
        for n in (2, 3):
            for i in range(1, n + 1):
                assert realize_surjection(sigma_cycle(n, i), 1) == reference_flip_cycle(1, n, i)

    def test_cycle_table_is_the_preimage_rule(self):
        # the coface tables rotate the outer i levels, as the preimage rule gives
        for n in range(1, 8):
            for i in range(1, n + 1):
                assert _coface_table(1, n, i) == tuple(reference_cycle_sources(n, i))

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_tables_match_tangent_functor_reference(self, m):
        for n in range(7):
            for i in range(1, n):
                assert flip_whisker(m, n, i) == reference_flip_whisker(m, n, i)
            for i in range(1, n + 1):
                lift = generator_map(Generator(EPSILON, n, i))
                assert realize_surjection(lift, m) == reference_lift_whisker(m, n, i)
                assert realize_surjection(sigma_cycle(n, i), m) == reference_flip_cycle(m, n, i)

    def test_index_ranges(self):
        with pytest.raises(ValueError):
            Generator(EPSILON, 2, 3)
        with pytest.raises(ValueError):
            flip_whisker(1, 2, 2)


class TestRealization:
    def test_identity_realizes_identity(self):
        for n in (0, 1, 3):
            assert realize_surjection(identity(n), 2) == identity_map(2 << n)

    def test_merge_realizes_vertical_lift(self):
        u = generator_map(Generator(EPSILON, 1, 1))
        assert realize_surjection(u, 1) == vertical_lift(1)

    def test_probe_surjection_realizes_probe(self):
        for n in (1, 2, 3):
            for j in range(1, n + 1):
                assert (realize_surjection(probe_surjection(n, j), 1)
                        == reference_multilinearity_probe(1, n, j))

    def test_rejects_non_surjection(self):
        with pytest.raises(ValueError):
            realize_surjection(FinMap(1, 2, (1,)), 1)

    def test_factorization_independence(self):
        rng = random.Random(42)
        for trial in range(200):
            cod = rng.randint(1, 4)
            dom = min(5, cod + rng.randint(0, 2))
            u = random_surjection(rng, dom, cod)
            alt = randomized_factorization(rng, u)
            assert eval_word(alt) == u
            m = 2 if dom <= 4 else 1
            assert reference_realize_word(alt, m) == realize_surjection(u, m)

    def test_every_small_surjection_matches_composed_whiskers(self):
        # the preimage table against the generator word, whisker by whisker
        for dom in range(6):
            for cod in range(dom + 1):
                for u in all_surjections(dom, cod):
                    word = factor_surjection(u)
                    for m in ((1, 2) if dom <= 4 else (1,)):
                        assert realize_surjection(u, m) == reference_realize_word(word, m), (u, m)

    def test_contravariant_functoriality(self):
        rng = random.Random(43)
        for _ in range(40):
            c = rng.randint(1, 3)
            b = min(4, c + rng.randint(0, 1))
            a = min(4, b + rng.randint(0, 1))
            u = random_surjection(rng, a, b)
            w = random_surjection(rng, b, c)
            lhs = realize_surjection(fc_compose(u, w), 1)
            rhs = compose(realize_surjection(w, 1), realize_surjection(u, 1))
            assert lhs == rhs


class TestFibreMaps:
    def test_tangent_fibre_map_naturality(self):
        rng = random.Random(44)
        for _ in range(10):
            f = random_polymap(rng, 2, 2)
            lhs = compose(tangent_fibre_map(f), fibre_addition(2))
            rhs = compose(fibre_addition(2), tangent_of_map(f))
            assert lhs == rhs

    @pytest.mark.parametrize("pair, f, g, expected", [
        (fibre_pair, [0, 1], [0, 2], (0, 1, 2)),
        (tangent_pair, [0, 1, 2, 3], [0, 4, 2, None], (0, 1, 4, 2, 3, None)),
    ], ids=["fibre", "tangent"])
    def test_pairs_of_tables_stay_tables(self, monkeypatch, pair, f, g, expected):
        # the same pairing of the maps rebuilt from components is the oracle
        oracle = pair(*(PolyMap(5, len(t), coordinate_map(5, t).components) for t in (f, g)))

        def refuse(*args, **kwargs):
            raise AssertionError("pairing two tables built a polynomial")

        for name in ("var", "_from_terms", "__init__"):
            monkeypatch.setattr(Poly, name, refuse)
        paired = pair(coordinate_map(5, f), coordinate_map(5, g))
        assert paired.picks == expected
        monkeypatch.undo()
        assert paired == oracle and oracle.picks is None
        with pytest.raises(ValueError, match="disagree"):
            pair(coordinate_map(5, f), coordinate_map(5, [1] + g[1:]))


class TestAxioms:
    def test_all_axioms_pass_dim1(self):
        rep = verify_tangent_axioms(1, depth=3)
        assert rep.ok, rep.failures
        assert rep.checked >= 50

    def test_all_axioms_pass_dim2(self):
        rep = verify_tangent_axioms(2, depth=3)
        assert rep.ok, rep.failures

    def test_flip_involution_and_lift_fix(self):
        for m in (1, 2):
            C, L = canonical_flip(m), vertical_lift(m)
            assert compose(C, C) == identity_map(4 * m)
            assert compose(L, C) == L

    def test_mutated_flip_detected(self, monkeypatch):
        def bad_flip(m):
            # swap the wrong coordinates: base against first tangent block
            return coordinate_map(4 * m, list(range(m, 2 * m)) + list(range(m))
                                  + list(range(2 * m, 4 * m)))

        monkeypatch.setattr(tangent, "canonical_flip", bad_flip)
        rep = verify_tangent_axioms(1, depth=2)
        assert [f["axiom"] for f in rep.failures] == [
            "flip-fixes-lift", "flip-braid", "lift-flip-exchange", "flip-bundle-square",
            "flip-additive", "flip-unit", "naturality-flip[0]", "naturality-flip[1]",
            "naturality-flip[2]", "naturality-flip[3]"]
        assert rep.failures[4]["error"] == "maps disagree on the base block"

    def test_mutated_lift_detected(self, monkeypatch):
        def bad_lift(m):
            # (x, v) |-> (x, 0, v, 0): v lands in the wrong tangent block
            return coordinate_map(2 * m, list(range(m)) + [None] * m
                                  + list(range(m, 2 * m)) + [None] * m)

        monkeypatch.setattr(tangent, "vertical_lift", bad_lift)
        rep = verify_tangent_axioms(1, depth=2)
        assert [f["axiom"] for f in rep.failures] == [
            "flip-fixes-lift", "lift-bundle-square", "lift-additive",
            "lift-principal-double", "lift-principal-swap"]
        assert rep.failures[2]["error"] == "maps disagree under the tangent projection"

    @pytest.mark.parametrize("mu", (1, 2, 3, 4))
    def test_coherence_builds_no_polynomial(self, monkeypatch, mu):
        # lift, flip, identity and their T and composites are tables
        # throughout, and two tables compare as tables
        def refuse(*args, **kwargs):
            raise AssertionError("a coherence axiom built a polynomial")

        for name in ("var", "_from_terms", "__init__"):
            monkeypatch.setattr(Poly, name, refuse)
        for name, _depth, build in tangent._coherence_axioms(mu):
            lhs, rhs = build()
            assert lhs == rhs, name

    @pytest.mark.parametrize("mu", (1, 2, 3, 4))
    def test_additive_axioms_build_no_polynomial(self, monkeypatch, mu):
        # fibre addition and + are linear maps held as rows, so their T,
        # composites with tables and pairings are rows and compare as rows
        def refuse(*args, **kwargs):
            raise AssertionError("an additive axiom built a polynomial")

        axioms = {name: build for source in (tangent._bundle_morphism_axioms,
                                             tangent._differential_object_axioms)
                  for name, _depth, build in source(mu)}
        for name in ("var", "_from_terms", "__init__"):
            monkeypatch.setattr(Poly, name, refuse)
        for name in ("lift-additive", "flip-additive", "principal-additive"):
            lhs, rhs = axioms[name]()
            assert lhs.rows is not None and rhs.rows is not None, name
            assert lhs == rhs, name

    def test_mutated_addition_detected(self, monkeypatch):
        def twisted(m):
            # (x, u, w) |-> (x, x + u + w): the sum leans on the base point
            return linear_map(3 * m, [{j: 1} for j in range(m)]
                              + [{j: 1, m + j: 1, 2 * m + j: 1} for j in range(m)])

        def curved(m):
            # (x, u, w) |-> (x, u + w + u w), held as components
            v = [Poly.var(3 * m, j) for j in range(3 * m)]
            return PolyMap(3 * m, 2 * m, v[:m] + [v[m + j] + v[2 * m + j] + v[m + j] * v[2 * m + j]
                                                  for j in range(m)])

        naturality = [f"naturality-add[{idx}]" for idx in range(4)]
        monkeypatch.setattr(tangent, "fibre_addition", twisted)
        rep = verify_tangent_axioms(1, depth=2)
        assert [f["axiom"] for f in rep.failures] == ["lift-additive"] + naturality
        monkeypatch.setattr(tangent, "fibre_addition", curved)
        rep = verify_tangent_axioms(1, depth=2)
        assert [f["axiom"] for f in rep.failures] == ["lift-additive", "flip-additive"] + naturality
        assert not any("error" in f for f in rep.failures)

    def test_additive_axioms_cannot_see_a_linear_addition(self, monkeypatch):
        # the additive axioms say that lift, flip and each Tf are additive,
        # and every linear map of the fibres is, so (x, u - w) passes them all
        def minus(m):
            return linear_map(3 * m, [{j: 1} for j in range(m)]
                              + [{m + j: 1, 2 * m + j: -1} for j in range(m)])

        monkeypatch.setattr(tangent, "fibre_addition", minus)
        assert verify_tangent_axioms(1, depth=2).ok

    def test_unbuildable_axiom_is_a_failure(self, monkeypatch):
        def broken_pair(f, g):
            raise ValueError("maps disagree on the base block")

        monkeypatch.setattr(tangent, "fibre_pair", broken_pair)
        rep = verify_tangent_axioms(1, depth=3)
        assert not rep.ok
        assert all("error" in failure for failure in rep.failures)

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("depth", (1, 2, 3, 4, 5))
    def test_checks_the_eager_rule_instances(self, monkeypatch, m, depth):
        expected = reference_axiom_instances(m, depth)
        # every comparison fails, so the failures list every checked instance
        monkeypatch.setattr(PolyMap, "__eq__", lambda self, other: False)
        rep = verify_tangent_axioms(m, depth)
        assert [(f["axiom"], f["at_dim"]) for f in rep.failures] == expected
        assert rep.checked == len(expected)

    @pytest.mark.parametrize("m, depth, checked", [
        (1, 3, 55), (1, 4, 73), (1, 5, 91),
        (2, 3, 55), (2, 4, 73), (2, 5, 91),
        (3, 3, 80), (3, 4, 98), (3, 5, 116),
    ])
    def test_checked_at_benchmark_sizes(self, m, depth, checked):
        rep = verify_tangent_axioms(m, depth)
        assert rep.ok, rep.failures
        assert rep.checked == checked

    def test_naturality_squares_explicit(self):
        rng = random.Random(45)
        for _ in range(10):
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            f = random_polymap(rng, a, b)
            tf = tangent_of_map(f)
            ttf = tangent_of_map(tf)
            assert compose(tf, vertical_lift(b)) == compose(vertical_lift(a), ttf)
            assert compose(ttf, canonical_flip(b)) == compose(canonical_flip(a), ttf)
            assert compose(tf, bundle_projection(b)) == compose(bundle_projection(a), f)
            assert compose(f, zero_section(b)) == compose(zero_section(a), tf)
