"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Every comparison is an exact equality of integer tables or rational
polynomials; runtime budgets are asserted.  Run with ``pytest -s`` to
see the one-line pass/fail report per criterion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from helpers import (
    all_maps,
    all_surjections,
    apply_generator_word,
    random_finmap,
    random_sector_form,
    randomized_factorization,
)
from sectorforms.cohomology import complex_report, sector_basis
from sectorforms.fincard import (
    FinMap,
    check_relations,
    compose as fc_compose,
    eval_word,
    factor_map,
    factor_surjection,
)
from sectorforms.poly import Poly, PolyMap, coordinate_map
from sectorforms.sector import (
    apply_cardinal_map,
    exterior_derivative,
    fundamental_derivative,
    line_one_form,
    line_two_form,
)
from sectorforms.tangent import (
    canonical_flip,
    flip_whisker,
    verify_tangent_axioms,
    vertical_lift,
)

F = Fraction


@contextmanager
def criterion(name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    in_budget = budget is None or elapsed < budget
    verdict = "PASS" if in_budget else "FAIL (over budget)"
    window = f", budget {budget}s" if budget is not None else ""
    print(f"ACCEPTANCE {name}: {verdict} ({elapsed:.2f}s{window})")
    assert in_budget, f"{name} exceeded its runtime budget"


def random_poly_line(rng, d):
    return Poly(1, {(i,): F(rng.randint(-9, 9), rng.randint(1, 4))
                    for i in range(d + 1)})


def test_presentation_relations():
    """All ten relation families pass exhaustively up to level 8."""
    with criterion("presentation-relations", budget=5.0):
        reports = check_relations(8)
        assert len(reports) == 10
        for rep in reports:
            assert rep.checked > 0
            assert rep.ok, rep.summary()


def test_factorization_round_trips():
    """eval_word(factor(f)) == f, exhaustively."""
    with criterion("factorization-round-trips", budget=30.0):
        for dom in range(0, 7):
            for cod in range(0, dom + 1):
                for f in all_surjections(dom, cod):
                    assert eval_word(factor_surjection(f)) == f
        for dom in range(0, 6):
            for cod in range(0, 6):
                for f in all_maps(dom, cod):
                    assert eval_word(factor_map(f)) == f


def test_tangent_axioms():
    """Structure axioms and differential-object identities, dims 1 and 2."""
    with criterion("tangent-axioms", budget=10.0):
        for m in (1, 2):
            rep = verify_tangent_axioms(m, depth=3)
            assert rep.ok, rep.failures


def test_golden_coordinate_tuples():
    """Golden coordinate permutations for the lift and the three flips."""
    with criterion("golden-tuples"):
        # (x, v) |-> (x, 0, 0, v)
        assert vertical_lift(1) == coordinate_map(2, [0, None, None, 1])
        # (x, v1, v2, d) |-> (x, v2, v1, d)
        assert canonical_flip(1) == coordinate_map(4, [0, 2, 1, 3])
        # inner flip on T^3 R: <x,v1,v2,d1,v3,d2,d3,t> -> <x,v1,v3,d2,v2,d1,d3,t>
        assert flip_whisker(1, 3, 1) == coordinate_map(8, [0, 1, 4, 5, 2, 3, 6, 7])
        # outer flip on T^3 R: <x,v1,v2,d1,v3,d2,d3,t> -> <x,v2,v1,d1,v3,d3,d2,t>
        assert flip_whisker(1, 3, 2) == coordinate_map(8, [0, 2, 1, 3, 4, 6, 5, 7])


def test_worked_derivatives():
    """The worked derivative formulas, as exact polynomial identities."""
    with criterion("worked-derivatives"):
        rng = random.Random(101)

        def lift_line(p, size):
            return p.embed(size, [0])

        for trial in range(10):
            f = random_poly_line(rng, 5)
            # fundamental derivative of f(x) v is f'(x) v1 v2 + f(x) d
            dw = fundamental_derivative(line_one_form(f))
            v = [Poly.var(4, j) for j in range(4)]
            assert dw.body.components[0] == (
                lift_line(f.partial(0), 4) * v[1] * v[2] + lift_line(f, 4) * v[3])
            # every sector 1-form on the line is closed
            assert exterior_derivative(line_one_form(f)).is_zero

        for form in sector_basis(1, 1, 6):
            assert exterior_derivative(form).is_zero

        for trial in range(10):
            g, h = random_poly_line(rng, 4), random_poly_line(rng, 4)
            dw = exterior_derivative(line_two_form(g, h))
            u = [Poly.var(8, j) for j in range(8)]
            gp, hp = g.partial(0), h.partial(0)
            five_terms = (
                lift_line(gp, 8) * u[1] * u[2] * u[4]
                + lift_line(hp, 8) * u[4] * u[3]
                + (lift_line(g, 8).scale(2) - lift_line(hp, 8)) * u[2] * u[5]
                + lift_line(hp, 8) * u[1] * u[6]
                + lift_line(h, 8) * u[7])
            assert dw.body.components[0] == five_terms


def test_boundary_squares_to_zero():
    """d(d omega) == 0 for 100 random sector forms on the line and the plane."""
    with criterion("boundary-squared-zero", budget=60.0):
        rng = random.Random(202)
        for m in (1, 2):
            for _ in range(50):
                n = rng.randint(0, 2)
                w = random_sector_form(rng, n, m, 3)
                first = exterior_derivative(w)
                assert exterior_derivative(first).is_zero


def test_cosimplicial_functoriality():
    """Acting by a composite equals acting stepwise, and the action does not
    depend on the factorization, on 100 random pairs."""
    with criterion("cosimplicial-functoriality"):
        rng = random.Random(303)
        for _ in range(100):
            a, b, c = rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4)
            f = random_finmap(rng, a, b)
            g = random_finmap(rng, b, c)
            w = random_sector_form(rng, a, 1, 2)
            stepwise = apply_cardinal_map(apply_cardinal_map(w, f), g)
            combined = apply_cardinal_map(w, fc_compose(f, g))
            assert stepwise.body == combined.body
            # direct independence: a second, randomized factorization of f
            if a >= b and len(set(f.table)) == b:
                alt_word = randomized_factorization(rng, f)
                along_alt = apply_generator_word(w, alt_word.gens)
                assert along_alt.body == apply_cardinal_map(w, f).body


def test_line_cohomology():
    """H^0 = 1, H^1 = 0, H^2 = 0 at degree bound 4, with exact kernels."""
    with criterion("line-cohomology", budget=60.0):
        rep = complex_report(1, 4, 2)
        assert rep.cohomology == (1, 0, 0)
        assert rep.kernel_dims[2] == 0
        assert rep.singular_dims == (5, 5, 0)
        assert rep.singular_cohomology == (1, 0, 0)
        assert rep.complex_verified and rep.consistent()


def test_basis_dimensions():
    """Sector form spaces on the line: d+1 at degree 1, 2(d+1) at degree 2."""
    with criterion("basis-dimensions"):
        for d in range(5):
            assert len(sector_basis(1, 1, d)) == d + 1
            assert len(sector_basis(2, 1, d)) == 2 * (d + 1)
