import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (all_maps, all_surjections, eval_word_check_relations,
                     reference_check_relations, reference_factor_map,
                     reference_factor_surjection, sigma_cycle_word)
from sectorforms.fincard import (
    DELTA,
    EPSILON,
    RELATION_FAMILIES,
    SIGMA,
    CompositionError,
    FinMap,
    GenWord,
    Generator,
    check_relations,
    classify,
    compose,
    eval_word,
    factor_map,
    factor_surjection,
    generator_map,
    identity,
    monoidal_sum,
    probe_surjection,
    sigma_cycle,
    _generator,
    _relation_instances,
)


def table(f):
    return list(f.table)


@st.composite
def finmaps(draw, max_dom=5, max_cod=5):
    dom = draw(st.integers(0, max_dom))
    if dom == 0:
        return FinMap(0, draw(st.integers(0, max_cod)), ())
    cod = draw(st.integers(1, max_cod))
    entries = draw(st.lists(st.integers(1, cod), min_size=dom, max_size=dom))
    return FinMap(dom, cod, tuple(entries))


@st.composite
def surjections(draw, max_dom=8):
    cod = draw(st.integers(1, 5))
    dom = draw(st.integers(cod, max_dom))
    extra = draw(st.lists(st.integers(1, cod), min_size=dom - cod, max_size=dom - cod))
    entries = draw(st.permutations(list(range(1, cod + 1)) + extra))
    return FinMap(dom, cod, tuple(entries))


def random_surjection(rng, dom, cod):
    # hit every value once, fill the rest arbitrarily, then shuffle
    entries = list(range(1, cod + 1)) + [rng.randint(1, cod) for _ in range(dom - cod)]
    rng.shuffle(entries)
    return FinMap(dom, cod, tuple(entries))


class TestFinMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            FinMap(2, 1, (1, 2))
        with pytest.raises(ValueError):
            FinMap(2, 2, (1,))
        with pytest.raises(ValueError):
            FinMap(2, 2, (1, 1.5))
        with pytest.raises(ValueError):
            FinMap(1, 1, (True,))
        assert FinMap(0, 3, ()).dom == 0

    def test_apply(self):
        f = FinMap(3, 2, (2, 1, 1))
        assert [f(1), f(2), f(3)] == [2, 1, 1]

    def test_compose_identity(self):
        f = FinMap(3, 4, (2, 2, 4))
        assert compose(identity(3), f) == f
        assert compose(f, identity(4)) == f

    def test_compose_merges_to_constant(self):
        # eps^2_1 then eps^1_1 collapses 3 -> 1
        f = generator_map(Generator(EPSILON, 2, 1))
        g = generator_map(Generator(EPSILON, 1, 1))
        assert table(compose(f, g)) == [1, 1, 1]

    def test_compose_swap_involution(self):
        s = generator_map(Generator(SIGMA, 2, 1))
        assert compose(s, s) == identity(2)

    def test_compose_arity_error(self):
        with pytest.raises(CompositionError):
            compose(identity(2), identity(3))

    @given(finmaps(), finmaps(), finmaps())
    def test_compose_associative(self, f, g, h):
        g = FinMap(f.cod, g.cod if g.cod else 1, tuple(min(x, g.cod or 1) for x in range(1, f.cod + 1)))
        h = FinMap(g.cod, h.cod if h.cod else 1, tuple(1 for _ in range(g.cod)))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


class TestMonoidalSum:
    def test_unit(self):
        f = FinMap(3, 2, (2, 1, 2))
        assert monoidal_sum(f, identity(0)) == f
        assert monoidal_sum(identity(0), f) == f

    def test_epsilon_block(self):
        left = monoidal_sum(generator_map(Generator(EPSILON, 1, 1)), identity(1))
        assert left == generator_map(Generator(EPSILON, 2, 1))
        assert table(left) == [1, 1, 2]

    def test_sigma_block(self):
        right = monoidal_sum(identity(1), generator_map(Generator(SIGMA, 2, 1)))
        assert right == generator_map(Generator(SIGMA, 3, 2))
        assert table(right) == [1, 3, 2]

    @given(finmaps(max_dom=3, max_cod=3), finmaps(max_dom=3, max_cod=3), finmaps(max_dom=3, max_cod=3))
    def test_associative(self, f, g, h):
        assert monoidal_sum(monoidal_sum(f, g), h) == monoidal_sum(f, monoidal_sum(g, h))

    def test_interchange(self):
        rng = random.Random(7)
        for _ in range(100):
            ac, bc = rng.randint(1, 3), rng.randint(1, 3)
            a = random_surjection(rng, ac + rng.randint(0, 2), ac)
            b = random_surjection(rng, bc + rng.randint(0, 2), bc)
            lhs = compose(monoidal_sum(a, identity(b.dom)), monoidal_sum(identity(a.cod), b))
            rhs = compose(monoidal_sum(identity(a.dom), b), monoidal_sum(a, identity(b.cod)))
            assert lhs == rhs


class TestGenerators:
    def test_epsilon_realization(self):
        assert table(generator_map(Generator(EPSILON, 1, 1))) == [1, 1]
        assert table(generator_map(Generator(EPSILON, 3, 2))) == [1, 2, 2, 3]

    def test_delta_realization(self):
        assert table(generator_map(Generator(DELTA, 1, 1))) == [2]
        assert table(generator_map(Generator(DELTA, 3, 2))) == [1, 3, 4]

    def test_sigma_realization(self):
        assert table(generator_map(Generator(SIGMA, 3, 2))) == [1, 3, 2]

    def test_index_ranges(self):
        with pytest.raises(ValueError):
            Generator(EPSILON, 0, 1)
        with pytest.raises(ValueError):
            Generator(SIGMA, 2, 2)
        with pytest.raises(ValueError):
            Generator(DELTA, 2, 4)
        Generator(DELTA, 0, 1)  # the empty cardinal is first class

    @pytest.mark.parametrize("kind,top", ((EPSILON, 0), (DELTA, 1), (SIGMA, -1)))
    def test_largest_index_per_kind(self, kind, top):
        # at level n the indices run 1 .. n + top; 0 and n + top + 1 are out
        for n in range(6):
            last = n + top
            if last >= 1:
                assert Generator(kind, n, last).i == last
            for bad in (0, last + 1):
                with pytest.raises(ValueError):
                    Generator(kind, n, bad)

    @pytest.mark.parametrize("kind", ("zeta", "", None, 3, ["epsilon"]),
                             ids=["zeta", "empty", "none", "int", "unhashable"])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError):
            Generator(kind, 2, 1)


    def test_shared_generator_is_the_validated_one(self):
        g = _generator(SIGMA, 3, 2)
        assert g is _generator(SIGMA, 3, 2)
        assert g == Generator(SIGMA, 3, 2) and type(g) is Generator

    @pytest.mark.parametrize("triple", ((EPSILON, 2, 3), (SIGMA, 2, 2), (DELTA, -1, 1),
                                        ("zeta", 2, 1)), ids=["epsilon", "sigma", "level", "kind"])
    def test_shared_generator_rejects_on_every_call(self, triple):
        for _ in range(3):
            with pytest.raises(ValueError):
                _generator(*triple)

    def test_words_share_their_generators(self):
        f = FinMap(4, 5, (3, 1, 3, 2))
        first, second = factor_map(f), factor_map(f)
        assert first == reference_factor_map(f)
        assert all(a is b for a, b in zip(first.gens, second.gens))


class TestWords:
    def test_empty_word_is_identity(self):
        assert eval_word(GenWord(4, 4)) == identity(4)

    def test_sigma_involution_word(self):
        w = GenWord(2, 2, (Generator(SIGMA, 2, 1), Generator(SIGMA, 2, 1)))
        assert eval_word(w) == identity(2)

    def test_fundamental_retract_word(self):
        w = GenWord(1, 1, (Generator(DELTA, 1, 1), Generator(EPSILON, 1, 1)))
        assert eval_word(w) == identity(1)

    def test_noncomposable_rejected(self):
        with pytest.raises(CompositionError):
            GenWord(2, 2, (Generator(EPSILON, 1, 1), Generator(EPSILON, 1, 1)))
        with pytest.raises(CompositionError):
            GenWord(2, 3, (Generator(EPSILON, 1, 1),))


class TestSigmaCycle:
    def test_index_one_is_identity(self):
        for n in range(1, 9):
            assert sigma_cycle(n, 1) == identity(n)

    def test_small_tables(self):
        assert table(sigma_cycle(3, 3)) == [3, 1, 2]
        assert table(sigma_cycle(4, 2)) == [2, 1, 3, 4]

    def test_matches_word(self):
        for n in range(1, 9):
            for i in range(1, n + 1):
                assert sigma_cycle(n, i) == eval_word(sigma_cycle_word(n, i))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_cycle(3, 4)
        with pytest.raises(ValueError):
            sigma_cycle(3, 0)


class TestProbeSurjection:
    def test_small_tables(self):
        assert table(probe_surjection(1, 1)) == [1, 1]
        assert table(probe_surjection(2, 1)) == [1, 1, 2]
        assert table(probe_surjection(3, 2)) == [2, 1, 2, 3]

    def test_cycle_then_merge_factorization(self):
        for n in range(1, 9):
            for j in range(1, n + 1):
                merged = compose(sigma_cycle(n + 1, j), generator_map(Generator(EPSILON, n, j)))
                assert probe_surjection(n, j) == merged

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            probe_surjection(3, 4)


class TestClassify:
    def test_identity(self):
        c = classify(identity(4))
        assert (c.surjective, c.bijective, c.order_preserving) == (True, True, True)

    def test_codegeneracy(self):
        c = classify(generator_map(Generator(EPSILON, 2, 1)))
        assert (c.surjective, c.bijective, c.order_preserving) == (True, False, True)

    def test_swap(self):
        c = classify(generator_map(Generator(SIGMA, 2, 1)))
        assert (c.surjective, c.bijective, c.order_preserving) == (True, True, False)

    def test_composition_consistency(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b = rng.randint(0, 3), rng.randint(1, 4)
            f = random_surjection(rng, a + b, b)
            g = random_surjection(rng, b, rng.randint(1, b))
            fg = compose(f, g)
            assert classify(fg).surjective
            if classify(f).order_preserving and classify(g).order_preserving:
                assert classify(fg).order_preserving

    def test_monotone_composites_monotone(self):
        ups = [generator_map(Generator(EPSILON, 3, i)) for i in range(1, 4)]
        for u in ups:
            for v in (generator_map(Generator(EPSILON, 2, j)) for j in range(1, 3)):
                assert classify(compose(u, v)).order_preserving


class TestFactorSurjection:
    def test_identity_gives_empty_word(self):
        for n in range(0, 5):
            w = factor_surjection(identity(n))
            assert len(w) == 0 and w.dom == w.cod == n

    def test_unique_small_factorization(self):
        w = factor_surjection(FinMap(2, 1, (1, 1)))
        assert list(w.gens) == [Generator(EPSILON, 1, 1)]

    def test_pinned_word_for_2_1_1(self):
        w = factor_surjection(FinMap(3, 2, (2, 1, 1)))
        assert eval_word(w) == FinMap(3, 2, (2, 1, 1))
        # deterministic output pinned for golden stability
        assert list(w.gens) == [Generator(SIGMA, 3, 1), Generator(SIGMA, 3, 2),
                                Generator(EPSILON, 2, 1)]

    def test_only_epsilon_sigma(self):
        rng = random.Random(3)
        for _ in range(50):
            b = rng.randint(1, 5)
            f = random_surjection(rng, b + rng.randint(0, 3), b)
            assert {g.kind for g in factor_surjection(f).gens} <= {EPSILON, SIGMA}

    def test_rejects_non_surjection(self):
        with pytest.raises(ValueError):
            factor_surjection(FinMap(2, 2, (1, 1)))

    def test_round_trip_exhaustive(self):
        for dom in range(0, 6):
            for cod in range(0, dom + 1):
                for f in all_surjections(dom, cod):
                    assert eval_word(factor_surjection(f)) == f

    def test_round_trip_random_large(self):
        rng = random.Random(23)
        for _ in range(300):
            dom = rng.randint(1, 9)
            cod = rng.randint(1, dom)
            f = random_surjection(rng, dom, cod)
            assert eval_word(factor_surjection(f)) == f

    def test_words_equal_the_reference(self):
        # the round trip would pass any valid word; the CLI writes this one
        for dom in range(0, 7):
            for cod in range(0, dom + 1):
                for f in all_surjections(dom, cod):
                    assert factor_surjection(f) == reference_factor_surjection(f)

    @given(surjections())
    def test_round_trip_property(self, f):
        word = factor_surjection(f)
        assert {g.kind for g in word.gens} <= {EPSILON, SIGMA}
        assert eval_word(word) == f


class TestFactorMap:
    def test_surjection_matches_factor_surjection(self):
        rng = random.Random(5)
        for _ in range(50):
            dom = rng.randint(1, 6)
            f = random_surjection(rng, dom, rng.randint(1, dom))
            assert factor_map(f) == factor_surjection(f)

    def test_fundamental_coface_alone(self):
        w = factor_map(FinMap(1, 2, (2,)))
        assert list(w.gens) == [Generator(DELTA, 1, 1)]

    def test_shifted_coface(self):
        w = factor_map(FinMap(1, 2, (1,)))
        assert list(w.gens) == [Generator(DELTA, 1, 1), Generator(SIGMA, 2, 1)]
        assert eval_word(w) == FinMap(1, 2, (1,))

    def test_delta_only_at_index_one(self):
        for dom in range(0, 4):
            for cod in range(0, 4):
                for f in all_maps(dom, cod):
                    w = factor_map(f)
                    assert all(g.i == 1 for g in w.gens if g.kind == DELTA)

    def test_round_trip_exhaustive(self):
        for dom in range(0, 5):
            for cod in range(0, 5):
                for f in all_maps(dom, cod):
                    assert eval_word(factor_map(f)) == f

    def test_words_equal_the_reference(self):
        for dom in range(0, 6):
            for cod in range(0, 6):
                for f in all_maps(dom, cod):
                    assert factor_map(f) == reference_factor_map(f)

    def test_empty_domain(self):
        f = FinMap(0, 3, ())
        assert eval_word(factor_map(f)) == f

    @given(finmaps(max_dom=5, max_cod=5))
    def test_round_trip_property(self, f):
        word = factor_map(f)
        assert all(g.i == 1 for g in word.gens if g.kind == DELTA)
        assert eval_word(word) == f


def corrupt_epsilon_3_2(g):
    """Swaps the first two entries of epsilon(3, 2)."""
    m = generator_map(g)
    if g.kind == EPSILON and g.n == 3 and g.i == 2:
        t = list(m.table)
        t[0], t[1] = t[1], t[0]
        return FinMap(m.dom, m.cod, tuple(t))
    return m


def sigma_as_identity(g):
    m = generator_map(g)
    return identity(m.dom) if g.kind == SIGMA else m


def epsilon_as_identity(g):
    """Every codegeneracy keeps its domain, so words stop composing."""
    m = generator_map(g)
    return identity(m.dom) if g.kind == EPSILON else m


def corrupt_delta_top(g):
    """delta at its top index n + 1 skips the value n instead."""
    m = generator_map(g)
    if g.kind == DELTA and g.n >= 1 and g.i == g.n + 1:
        return FinMap(m.dom, m.cod, tuple(range(1, g.n)) + (g.n + 1,))
    return m


class TestRelations:
    def test_moore_families_small(self):
        reports = {r.family: r for r in check_relations(2)}
        for family in ("moore-involution", "moore-braid", "moore-commute"):
            assert reports[family].ok

    def test_all_families_to_five(self):
        reports = check_relations(5)
        assert [r.family for r in reports] == list(RELATION_FAMILIES)
        for rep in reports:
            assert rep.ok, rep.summary()
            assert rep.checked > 0

    def test_mutated_epsilon_detected(self):
        reports = check_relations(4, realize=corrupt_epsilon_3_2)
        assert any(not r.ok for r in reports)

    def test_reports_accumulate_failures(self):
        # sigma |-> identity still satisfies sigma;sigma = 1 ...
        reports = {r.family: r for r in check_relations(4, realize=sigma_as_identity)}
        assert reports["moore-involution"].ok
        # ... but breaks the codegeneracy-symmetry family in many places at once
        assert len(reports["codegeneracy-symmetry"].failures) > 1

    def test_wrong_arity_is_a_failure(self):
        reports = {r.family: r for r in check_relations(3, realize=epsilon_as_identity)}
        rep = reports["pure-codegeneracy"]
        assert len(rep.failures) == rep.checked == 10
        assert rep.failures[0]["error"] == "cod 3 != dom 2"
        assert all("error" in f for f in rep.failures)
        assert reports["pure-coface"].ok

    def test_corrupt_top_coface_detected(self):
        # delta_{n+1} read as delta_n still satisfies the pure coface relations
        failed = {r.family for r in check_relations(3, realize=corrupt_delta_top) if not r.ok}
        assert failed == {"coface-codegeneracy", "coface-symmetry"}

    @pytest.mark.parametrize("max_n", range(2, 9))
    @pytest.mark.parametrize("realize", [generator_map, corrupt_epsilon_3_2, sigma_as_identity,
                                         epsilon_as_identity, corrupt_delta_top],
                             ids=lambda f: f.__name__)
    def test_matches_reference(self, realize, max_n):
        reports = check_relations(max_n, realize=realize)
        assert reports == reference_check_relations(max_n, realize=realize)
        assert all(r.ok for r in reports) == (realize is generator_map)

    @pytest.mark.parametrize("max_n", range(2, 7))
    def test_matches_eval_word(self, max_n):
        assert check_relations(max_n) == eval_word_check_relations(max_n)

    def test_corrupt_domain_zero_coface(self):
        # delta(0, 1): 0 -> 1 read as 0 -> 2; words over the empty table
        # compose with map, and the next step's domain no longer matches
        def realize(g):
            return FinMap(0, 2, ()) if (g.kind, g.n, g.i) == (DELTA, 0, 1) else generator_map(g)

        failures = [f for r in check_relations(4, realize=realize) for f in r.failures]
        assert failures == [
            {"family": "pure-coface", "n": 0, "i": 1, "j": 1, "error": "cod 2 != dom 1"},
            {"family": "fundamental-coface-symmetry", "n": 0, "case": "square",
             "error": "cod 2 != dom 1"},
        ]

    def test_corrupt_domain_one_coface(self):
        # delta(1, 1) read as delta(1, 2); a one-entry table composes with
        # map, since itemgetter of one index returns no tuple
        def realize(g):
            return FinMap(1, 2, (1,)) if (g.kind, g.n, g.i) == (DELTA, 1, 1) else generator_map(g)

        failures = [f for r in check_relations(4, realize=realize) for f in r.failures]
        assert failures == [
            {"family": "pure-coface", "n": 1, "i": 1, "j": 1, "lhs": [2], "rhs": [1]},
            {"family": "pure-coface", "n": 1, "i": 1, "j": 2, "lhs": [2], "rhs": [1]},
            {"family": "coface-codegeneracy", "n": 2, "i": 1, "j": 2,
             "lhs": [2, 2], "rhs": [1, 1]},
            {"family": "coface-symmetry", "n": 1, "i": 1, "case": "shift", "lhs": [2], "rhs": [1]},
            {"family": "fundamental-coface-codegeneracy", "n": 1, "j": 1, "case": "slide",
             "lhs": [2, 2], "rhs": [1, 1]},
            {"family": "fundamental-coface-symmetry", "n": 1, "case": "square",
             "lhs": [1], "rhs": [2]},
        ]

    def test_realizes_each_generator_once(self):
        calls = []

        def counting(g):
            calls.append(g)
            return generator_map(g)

        check_relations(6, realize=counting)
        named = {Generator(*k) for family in RELATION_FAMILIES
                 for _, lhs, rhs in _relation_instances(family, 6)
                 for k in lhs + (() if isinstance(rhs, int) else rhs)}
        assert len(calls) == len(set(calls))
        assert set(calls) == named

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            check_relations(1)
