import random
from fractions import Fraction
from itertools import product
from math import comb, factorial
from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    body_vector,
    derham_keys,
    in_span,
    nullspace,
    partition_basis_forms,
    random_sector_form,
    reference_alternating_subbasis,
    reference_complex_report,
    reference_derham_derivative,
    reference_sector_basis,
    rref,
    set_partitions,
)
from sectorforms import cohomology, sector
from sectorforms.cli import main
from sectorforms.cohomology import (
    ComplexReport,
    SizeError,
    complex_report,
    partition_basis,
    sector_basis,
    sector_candidates,
    singular_basis,
)
from sectorforms.linalg import rank
from sectorforms.poly import Poly, PolyMap
from sectorforms.sector import (
    SectorForm,
    exterior_derivative,
    is_alternating,
    is_sector_form,
    line_one_form,
    line_two_form,
)

F = Fraction


FRACTIONS = st.fractions(-4, 4, max_denominator=5).filter(bool)
SMALL_INTS = st.integers(-4, 4).filter(bool)
# k * (2^64 + r), k != 0: at least 2^64 in size, and copies scaled by such
# entries leave rows whose entries share factors past 2^64 for the gcd step
PAST_2_64 = st.builds(lambda k, r: k * (2 ** 64 + r), SMALL_INTS, st.integers(0, 3))


@st.composite
def sparse_rows(draw, coeffs=FRACTIONS):
    """Sparse rows over int or exponent-tuple columns (the keys
    `complex_report` passes), some empty, with duplicates and scaled copies."""
    keys = draw(st.sampled_from([list(range(6)), list(product(range(2), repeat=3))]))
    rows = draw(st.lists(st.dictionaries(st.sampled_from(keys), coeffs, max_size=4), max_size=8))
    if rows:
        copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), coeffs), max_size=4))
        rows += [{c: k * v for c, v in rows[i].items()} for i, k in copies]
    return draw(st.permutations(rows))


class TestLinalg:
    def test_rank(self):
        rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}, {1: F(1), 2: F(1)}]
        assert rank(rows) == 2

    def test_rank_skips_stale_keys(self):
        # Pivoting row 0 moves row 1's leading column from 0 to 1, so row 1's
        # first key is stale; pivoting on it would count row 2, which is
        # row 1 - row 0, as independent.
        rows = [{0: F(1), 1: F(1)}, {0: F(1), 2: F(1)}, {1: F(-1), 2: F(1)}]
        assert rank(rows) == 2

    def test_rank_skips_rows_already_pivoted(self):
        # Row 0 is pivoted on column 0 first; column 1, row 1's pivot, is
        # then held only by row 0, which must not be eliminated or counted again.
        assert rank([{0: F(1), 1: F(1)}, {1: F(1), 2: F(1)}]) == 2
        assert rank([{0: 1, 1: 1}, {1: 1, 2: 1}]) == 2

    @given(sparse_rows())
    def test_rank_matches_rref(self, rows):
        assert rank(rows) == len(rref(rows)[0])

    @pytest.mark.parametrize("coeffs", [SMALL_INTS, PAST_2_64], ids=["int", "past-2^64"])
    @given(data=st.data())
    def test_rank_matches_rref_on_int_rows(self, coeffs, data):
        rows = data.draw(sparse_rows(coeffs))
        assert rank(rows) == len(rref([{c: F(v) for c, v in r.items()} for r in rows])[0])

    def test_nullspace_small(self):
        # x + y = 0 over three unknowns: kernel is 2-dimensional
        rows = [{0: F(1), 1: F(1)}]
        basis = nullspace(rows, 3)
        assert len(basis) == 2
        for vec in basis:
            assert sum(vec.get(c, F(0)) * row.get(c, F(0))
                       for row in rows for c in (0, 1, 2)) == 0

    def test_in_span(self):
        rows = [{0: F(1), 1: F(1)}, {1: F(1), 2: F(1)}]
        assert in_span(rows, {0: F(1), 2: F(-1)})
        assert not in_span(rows, {0: F(1)})

    def test_empty(self):
        assert rank([]) == 0
        assert nullspace([], 2) and len(nullspace([], 2)) == 2


class TestSectorBasis:
    def test_zero_form_dimensions(self):
        for d in range(5):
            assert len(sector_basis(0, 1, d)) == d + 1

    def test_one_form_dimensions(self):
        for d in range(5):
            assert len(sector_basis(1, 1, d)) == d + 1

    def test_two_form_dimensions(self):
        for d in range(5):
            assert len(sector_basis(2, 1, d)) == 2 * (d + 1)

    def test_basis_members_are_sector_forms(self):
        for n, m, d in ((1, 1, 2), (2, 1, 2), (2, 2, 1), (3, 1, 1), (4, 1, 1), (4, 2, 0),
                        (5, 1, 0)):
            basis = sector_basis(n, m, d)
            assert basis, (n, m, d)
            for form in basis:
                assert is_sector_form(form)

    def test_known_forms_lie_in_span(self):
        x = Poly.var(1, 0)
        g = x * x - x.scale(3)
        h = x.scale(7) + Poly.const(1, 2)
        target = line_two_form(g, h)
        basis = sector_basis(2, 1, 2)
        rows = [body_vector(b) for b in basis]
        assert in_span(rows, body_vector(target))

    def test_independence(self):
        basis = sector_basis(2, 1, 3)
        rows = [body_vector(b) for b in basis]
        assert rank(rows) == len(basis)

    def test_resource_guard(self):
        # C(3, 2) * T_3(2) = 3 * 22 = 66 partition monomials
        assert len(sector_basis(3, 2, 1, max_candidates=66)) == 66
        with pytest.raises(SizeError):
            sector_basis(3, 2, 1, max_candidates=50)

    def test_guard_counts_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated past the guard")

        monkeypatch.setattr(cohomology, "sector_candidates", refuse)
        with pytest.raises(SizeError):
            sector_basis(12, 3, 8)

    @pytest.mark.parametrize("n,m,d", [(0, 1, 0), (0, 3, 2), (1, 3, 1), (3, 1, 2), (2, 2, 2),
                                       (4, 2, 0)])
    def test_partition_basis_lists_the_same_forms(self, n, m, d):
        b = partition_basis(n, m, d)
        assert len(b) == len(sector_candidates(n, m, d))
        assert partition_basis_forms(b) == sector_basis(n, m, d)

    def test_partition_basis_guard(self, monkeypatch):
        assert len(partition_basis(3, 2, 1, max_candidates=66)) == 66
        monkeypatch.setattr(cohomology, "_partition_tails", None)
        with pytest.raises(SizeError):
            partition_basis(3, 2, 1, max_candidates=65)

    def test_candidate_count(self):
        # C(m+d, m) base monomials x T_n(m) labelled set partitions of 1..n
        for n in range(6):
            partitions = list(set_partitions(range(n)))
            for m in range(1, 4):
                touchard = sum(m ** len(p) for p in partitions)
                for d in range(3):
                    assert len(sector_candidates(n, m, d)) == comb(m + d, m) * touchard

    @pytest.mark.parametrize("n,m,d", [(0, 2, 2), (1, 1, 3), (2, 1, 4), (3, 1, 2),
                                       (2, 2, 3), (2, 3, 1), (1, 3, 2)])
    def test_same_span_as_reference(self, n, m, d):
        rows = [body_vector(b) for b in sector_basis(n, m, d)]
        ref = [body_vector(b) for b in reference_sector_basis(n, m, d)]
        assert rank(rows) == len(rows) == len(ref) == rank(rows + ref)


class TestSingularBasis:
    def test_line_dimensions(self):
        d = 3
        assert len(singular_basis(0, 1, d)) == d + 1
        assert len(singular_basis(1, 1, d)) == d + 1
        assert len(singular_basis(2, 1, d)) == 0

    def test_plane_two_forms(self):
        basis = singular_basis(2, 2, 1)
        assert basis
        for form in basis:
            assert is_sector_form(form) and is_alternating(form)

    def test_derivative_preserves_alternating(self):
        for form in singular_basis(2, 2, 1):
            assert is_alternating(exterior_derivative(form))
        for form in singular_basis(1, 2, 2):
            assert is_alternating(exterior_derivative(form))

    # (4, 3, 1) and (4, 3, 2) are left out: their nullspace takes 2 and 10 s
    # and is empty, as at every n > m
    @pytest.mark.parametrize("n,m,d", [(n, m, d) for n in range(5) for m in range(1, 4)
                                       for d in range(3) if (n, m) != (4, 3) or d == 0])
    def test_matches_reference(self, n, m, d):
        basis = singular_basis(n, m, d)
        ref = reference_alternating_subbasis(sector_basis(n, m, d))
        rows = [body_vector(b) for b in basis]
        ref_rows = [body_vector(b) for b in ref]
        assert len(basis) == comb(m + d, m) * comb(m, n)
        assert rank(rows) == len(rows) == len(ref) == rank(rows + ref_rows)
        for form in basis:
            assert is_sector_form(form) and is_alternating(form)

    def test_resource_guard(self):
        # C(4, 3) * C(3, 3) * 3! = 24 monomials in 4 forms
        assert len(singular_basis(3, 3, 1, max_candidates=24)) == 4
        with pytest.raises(SizeError):
            singular_basis(3, 3, 1, max_candidates=23)

    def test_guard_counts_before_building(self, monkeypatch):
        class Refuse:
            def __getattr__(self, name):
                raise AssertionError("built past the guard")

        def refuse(*args):
            raise AssertionError("built past the guard")

        monkeypatch.setattr(cohomology, "Poly", Refuse())
        monkeypatch.setattr(cohomology, "_base_exponents", refuse)
        with pytest.raises(SizeError):
            singular_basis(6, 8, 8)


class TestDeRhamIsomorphism:
    """Phi, the documented order of `singular_basis`, is a cochain map:
    the sector derivative of Phi(x^e dx_J) is Phi of its de Rham derivative."""

    @pytest.mark.parametrize("n,m", [(n, m) for m in range(1, 4) for n in range(m + 1)])
    def test_phi_commutes_with_d(self, n, m):
        d = 2
        keys, forms = derham_keys(n, m, d), singular_basis(n, m, d)
        assert len(keys) == len(forms) == comb(m + d, m) * comb(m, n)
        target = dict(zip(derham_keys(n + 1, m, d), singular_basis(n + 1, m, d)))
        for (e, J), form in zip(keys, forms):
            expected = SectorForm.zero(n + 1, m)
            for key, c in reference_derham_derivative(e, J).items():
                expected = expected + target[key].scale(c)
            assert exterior_derivative(form) == expected, (e, J)
            if n == m:
                assert expected.is_zero

    def test_derham_derivative_squares_to_zero(self):
        for m in range(1, 4):
            for n in range(m):
                for e, J in derham_keys(n, m, 3):
                    total = {}
                    for (e1, J1), c1 in reference_derham_derivative(e, J).items():
                        for key, c2 in reference_derham_derivative(e1, J1).items():
                            total[key] = total.get(key, 0) + c1 * c2
                    assert not any(total.values()), (e, J)


class TestComplexReport:
    def test_line_cohomology(self):
        rep = complex_report(1, 4, 2)
        assert rep.cohomology == (1, 0, 0)
        assert rep.kernel_dims[2] == 0
        assert rep.singular_dims[2] == 0
        assert rep.singular_cohomology == (1, 0, 0)
        assert rep.complex_verified
        assert rep.consistent()

    def test_line_dims(self):
        rep = complex_report(1, 3, 2)
        assert rep.dims == (4, 4, 8)
        assert rep.singular_dims == (4, 4, 0)

    def test_consistency_identity(self):
        rep = complex_report(1, 2, 2)
        for i in range(3):
            expected = rep.kernel_dims[i] - (rep.image_ranks_raised[i - 1] if i else 0)
            assert rep.cohomology[i] == expected

    def test_plane_report_runs(self):
        rep = complex_report(2, 1, 1)
        assert rep.complex_verified
        assert rep.cohomology[0] == 1  # constants on R^2
        assert rep.dims[0] == 3  # 1, x, y

    def test_level_zero_only(self):
        rep = complex_report(1, 3, 0)
        assert rep.dims == (4,)
        assert rep.cohomology == (1,)

    def test_negative_cohomology_is_inconsistent(self):
        def report(kernels, raised, s_kernels, s_raised):
            # H[i] = kernel[i] - raised[i-1] holds by construction
            h = (kernels[0],) + tuple(k - r for k, r in zip(kernels[1:], raised))
            s_h = (s_kernels[0],) + tuple(k - r for k, r in zip(s_kernels[1:], s_raised))
            zeros = (0,) * len(kernels)
            return ComplexReport(
                base_dim=1, degree_bound=0, levels=len(kernels) - 1,
                dims=kernels, kernel_dims=kernels, boundary_ranks=zeros,
                image_ranks_raised=raised, cohomology=h,
                singular_dims=s_kernels, singular_kernel_dims=s_kernels,
                singular_boundary_ranks=zeros, singular_image_ranks_raised=s_raised,
                singular_cohomology=s_h, complex_verified=True)

        assert report((1, 2), (2,), (1, 2), (2,)).consistent()
        assert not report((1, 2), (3,), (1, 2), (2,)).consistent()
        assert not report((1, 2), (2,), (1, 2), (3,)).consistent()

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            complex_report(1, 2, -1)

    # level 3 holds the negative H[3] the report must reproduce, not mend
    @pytest.mark.parametrize("m,d,levels", [(1, d, levels) for d in range(5) for levels in range(4)]
                             + [(2, d, levels) for d in range(3) for levels in range(4)]
                             + [(3, 0, 2), (3, 1, 2), (3, 0, 3)])
    def test_matches_reference(self, m, d, levels):
        assert complex_report(m, d, levels) == reference_complex_report(m, d, levels)

    def test_builds_no_object_per_basis_element(self, monkeypatch):
        # the report runs on integer vectors: no Poly, Fraction or form is
        # built per basis element, and no linearity check runs on them
        expected = complex_report(2, 1, 2)

        class Refuse:
            def __getattr__(self, name):
                raise AssertionError(f"reached {name}")

            def __call__(self, *args):
                raise AssertionError("built an object")

        monkeypatch.setattr(cohomology, "Poly", Refuse())
        monkeypatch.setattr(cohomology, "Fraction", Refuse())
        monkeypatch.setattr(SectorForm, "_from_components", Refuse())
        monkeypatch.setattr(sector, "_require_sector", Refuse())
        assert complex_report(2, 1, 2) == expected

    def test_swapped_flip_table_fails_the_certificate(self, monkeypatch, capsys):
        # Two entries of the flip-cycle table at position 2 into degree 3 on
        # the line swapped: d of 0- and 1-forms is unchanged and the report
        # stays consistent, so only the d∘d certificate can show the fault.
        real = sector._coface_reader

        def swapped(m, n, i):
            read = real(m, n, i)
            if (m, n, i) != (1, 3, 2):
                return read
            picks = list(read(range(m << n)))
            picks[0], picks[1] = picks[1], picks[0]
            return itemgetter(*picks)

        monkeypatch.setattr(sector, "_coface_reader", swapped)
        rep = complex_report(1, 2, 2)
        assert rep.consistent() and not rep.complex_verified
        assert main(["derham", "--dim", "1", "--deg", "2", "--levels", "2"]) == 1
        out, err = capsys.readouterr()
        assert '"complex_verified": false' in out and "boundary squared zero: False" in err


def outcome(report, *args):
    try:
        return report(*args)
    except SizeError as err:
        return str(err)


class TestComplexReportGuards:
    """The guards raise as when every basis at both bounds was built in
    turn: sector bases at d, at d+1, then singular bases at d, at d+1."""

    def test_raised_bound_message(self):
        # bound 4 passes at levels 0 and 1 (5 forms each); bound 5 at level 0 has 6
        with pytest.raises(SizeError, match=r"^6 candidates at \(n=0, m=1, d=5\) "
                                            r"exceed the guard of 5$"):
            complex_report(1, 4, 1, max_candidates=5)

    @pytest.mark.parametrize("m,d,levels", [(1, 4, 1), (1, 1, 3), (2, 1, 3), (2, 0, 2), (3, 0, 3)])
    def test_same_outcome_as_reference_at_every_cap(self, m, d, levels):
        # each guard's count: sector forms, and singular forms times their n! monomials
        counts = {len(build(nu, m, bound)) * (factorial(nu) if build is singular_basis else 1)
                  for build in (sector_basis, singular_basis)
                  for bound in (d, d + 1) for nu in range(levels + 1)}
        for cap in sorted({c + e for c in counts for e in (-1, 0)} - {-1}):
            args = (m, d, levels, cap)
            assert outcome(complex_report, *args) == outcome(reference_complex_report, *args)

    def test_guards_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built past the guard")

        monkeypatch.setattr(cohomology, "sector_candidates", refuse)
        monkeypatch.setattr(cohomology, "_base_exponents", refuse)
        for args in ((1, 4, 1, 5), (2, 1, 3, 65), (3, 8, 4, 20000)):
            with pytest.raises(SizeError):
                complex_report(*args)


class TestBoundarySquaresToZero:
    def test_random_forms(self):
        rng = random.Random(77)
        for m in (1, 2):
            for _ in range(10):
                n = rng.randint(0, 2)
                w = random_sector_form(rng, n, m, 3)
                dd = exterior_derivative(exterior_derivative(w))
                assert dd.is_zero
