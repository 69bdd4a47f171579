"""Degree-bounded bases of sector forms and desk-scale cohomology.

`sector_basis` returns the partition monomials: a base monomial of
bounded degree times one tangent coordinate per block of a set partition
of the tangent levels.  Linearity in each level forces exactly this
shape, so the monomials are a basis and no equations are solved.
`singular_basis` writes down the alternating (singular) forms as the
images of the polynomial de Rham forms (docs/coordinate-layout.md,
"Alternating forms are de Rham forms").  `complex_report` assembles the
boundary maps of the resulting degree-bounded complex, certifies that
the boundary squares to zero, and reports kernel/image/cohomology ranks
for the full complex and for the alternating subcomplex.

Truncation note: the exterior derivative differentiates base
coefficients, so the image at level n is computed from the level-(n-1)
space with the degree bound raised by one; otherwise truncation
manufactures spurious cohomology at the top of the filtration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

from .linalg import rank
from .poly import _ONE, Poly, PolyMap
from .sector import SectorForm, exterior_derivative


class SizeError(ValueError):
    """Raised instead of silently truncating a blown-up enumeration."""


def _base_exponents(m: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors over m base variables of total degree <= d, ascending."""
    return [e for e in product(range(d + 1), repeat=m) if sum(e) <= d]


def _touchard(n: int, m: int) -> int:
    """T_n(m): set partitions of 1..n with one of m labels on each block."""
    t = [1]
    for i in range(n):
        t.append(m * sum(comb(i, k) * t[k] for k in range(i + 1)))
    return t[n]


def sector_candidates(n: int, m: int, d: int) -> list[Poly]:
    """The partition monomials of sector n-forms on R^m at coefficient bound d.

    Each is a base monomial of degree <= d times one tangent coordinate
    (j, S) per block S of a set partition of the levels 1..n.  The
    blocks grow level by level: level l joins an existing block, which
    adds m << (l-1) to its flat index mask(S)*m + j-1, or opens a new
    block (j, {l}).  Order: base exponents, then these shapes.
    """
    shapes = [()]
    for level in range(n):
        step = m << level
        shapes = ([s[:k] + (s[k] + step,) + s[k + 1:] for s in shapes for k in range(len(s))]
                  + [s + (step + j,) for s in shapes for j in range(m)])
    size = m << n
    candidates = []
    for base in _base_exponents(m, d):
        for shape in shapes:
            exp = list(base) + [0] * (size - m)
            for flat in shape:
                exp[flat] = 1
            candidates.append(Poly._from_terms(size, {tuple(exp): _ONE}))
    return candidates


def sector_basis(n: int, m: int, d: int, max_candidates: int = 20000) -> list[SectorForm]:
    """A basis of sector n-forms on R^m with coefficient degree <= d.

    Linearity in each tangent level makes the level sets of every
    monomial a set partition of 1..n, so the partition monomials of
    `sector_candidates` are a basis, of dimension C(m+d, m)*T_n(m) with
    T_n the Touchard polynomial.  The guard compares that count before
    anything is built.
    """
    if n < 0 or m < 1 or d < 0:
        raise ValueError("need n >= 0, m >= 1, d >= 0")
    count = comb(m + d, m) * _touchard(n, m)
    if count > max_candidates:
        raise SizeError(
            f"{count} candidates at (n={n}, m={m}, d={d}) "
            f"exceed the guard of {max_candidates}")
    size = m << n
    return [SectorForm(n, m, 1, PolyMap(size, 1, (c,))) for c in sector_candidates(n, m, d)]


def _body_vector(form: SectorForm) -> dict:
    """Sparse coefficient vector of a form body over (component, exponent) keys."""
    vec = {}
    for comp_idx, comp in enumerate(form.body.components):
        for exp, coeff in comp.terms.items():
            vec[(comp_idx, exp)] = coeff
    return vec


def singular_basis(n: int, m: int, d: int, max_candidates: int = 20000) -> list[SectorForm]:
    """A basis of singular (alternating sector) n-forms at coefficient bound d.

    The image of the polynomial de Rham n-forms x^e dx_J, |e| <= d, under

        Phi(x^e dx_J) = (-1)^(n(n-1)/2) x^e sum_sigma sgn(sigma) prod_l u(l, j_sigma(l)),

    with J = j_1 < ... < j_n and u(l, j) the coordinate (j, {l}) at flat
    index m*2^(l-1) + j-1.  Order: base exponents as in `sector_basis`,
    then J in `itertools.combinations` order.  There are C(m+d, m)*C(m, n)
    forms, none when n > m; the guard compares their C(m+d, m)*C(m, n)*n!
    monomials before anything is built.
    """
    if n < 0 or m < 1 or d < 0:
        raise ValueError("need n >= 0, m >= 1, d >= 0")
    count = comb(m + d, m) * comb(m, n) * factorial(n)
    if count > max_candidates:
        raise SizeError(
            f"{count} monomials at (n={n}, m={m}, d={d}) "
            f"exceed the guard of {max_candidates}")
    if n > m:
        return []
    size = m << n
    # (-1)^(n(n-1)/2) sgn(sigma) is -1 to the number of ascending pairs of sigma
    signed = [(Fraction((-1) ** sum(a < b for a, b in combinations(p, 2))), p)
              for p in permutations(range(n))]
    out = []
    for base in _base_exponents(m, d):
        for js in combinations(range(m), n):
            terms = {}
            for sign, perm in signed:
                exp = list(base) + [0] * (size - m)
                for level, k in enumerate(perm):
                    exp[(m << level) + js[k]] = 1
                terms[tuple(exp)] = sign
            out.append(SectorForm(n, m, 1, PolyMap(size, 1, (Poly._from_terms(size, terms),))))
    return out


@dataclass(frozen=True)
class ComplexReport:
    """Dimensions and ranks of the degree-bounded sector-form complex.

    ``boundary_ranks[i]`` is the rank of the boundary leaving level i at
    the stated bound; ``image_ranks_raised[i]`` is its rank from the
    bound-(d+1) space, which is what the cohomology subtraction uses:
    H[i] = kernel_dims[i] - image_ranks_raised[i-1].
    """

    base_dim: int
    degree_bound: int
    levels: int
    dims: tuple[int, ...]
    kernel_dims: tuple[int, ...]
    boundary_ranks: tuple[int, ...]
    image_ranks_raised: tuple[int, ...]
    cohomology: tuple[int, ...]
    singular_dims: tuple[int, ...]
    singular_kernel_dims: tuple[int, ...]
    singular_boundary_ranks: tuple[int, ...]
    singular_image_ranks_raised: tuple[int, ...]
    singular_cohomology: tuple[int, ...]
    complex_verified: bool

    def consistent(self) -> bool:
        """The subtraction identity holds and no cohomology rank is negative."""
        ok = all(self.cohomology[i] == self.kernel_dims[i]
                 - (self.image_ranks_raised[i - 1] if i else 0)
                 for i in range(len(self.cohomology)))
        ok = ok and all(self.singular_cohomology[i] == self.singular_kernel_dims[i]
                        - (self.singular_image_ranks_raised[i - 1] if i else 0)
                        for i in range(len(self.singular_cohomology)))
        return ok and all(h >= 0 for h in self.cohomology + self.singular_cohomology)


def _rank_and_kernel(basis: list[SectorForm], derived: dict) -> tuple[int, int, bool]:
    """(rank of the boundary on this basis, kernel dim, boundary-squared-zero).

    ``derived`` maps the terms of each scalar form already seen, as a
    tuple of (exponent, coefficient) pairs, to (its d as a vector, d∘d is
    zero), so a form shared between bases is differentiated once; the key
    hashes far less than the frozen `SectorForm` does.
    """
    vectors = []
    square_zero = True
    for form in basis:
        key = tuple(form.body.components[0].terms.items())
        seen = derived.get(key)
        if seen is None:
            dform = exterior_derivative(form)
            seen = derived[key] = (_body_vector(dform),
                                   exterior_derivative(dform).is_zero)
        vector, ok = seen
        vectors.append(vector)
        square_zero = square_zero and ok
    r = rank([v for v in vectors if v])
    return r, len(basis) - r, square_zero


def complex_report(m: int, d: int, n_max: int, max_candidates: int = 20000) -> ComplexReport:
    """Assemble the degree-bounded complex on R^m up to level n_max.

    Kernels use coefficient bound d; images entering level n use the
    level-(n-1) basis at bound d+1.  Exact rational arithmetic
    throughout; the boundary-squares-to-zero flag is a hard check on
    every basis element encountered.  The bound-d basis is part of the
    bound-(d+1) one, and below level 2 the alternating basis is the
    basis, so each distinct form is differentiated once per call.
    """
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    bases_d = [sector_basis(nu, m, d, max_candidates) for nu in range(n_max + 1)]
    bases_up = [sector_basis(nu, m, d + 1, max_candidates) for nu in range(n_max)]
    alt_d = [singular_basis(nu, m, d, max_candidates) for nu in range(n_max + 1)]
    alt_up = [singular_basis(nu, m, d + 1, max_candidates) for nu in range(n_max)]

    derived: dict[tuple, tuple[dict, bool]] = {}
    verified = True
    dims, kernels, ranks, raised = [], [], [], []
    s_dims, s_kernels, s_ranks, s_raised = [], [], [], []
    for nu in range(n_max + 1):
        r, k, ok = _rank_and_kernel(bases_d[nu], derived)
        verified = verified and ok
        dims.append(len(bases_d[nu]))
        ranks.append(r)
        kernels.append(k)
        sr, sk, sok = _rank_and_kernel(alt_d[nu], derived)
        verified = verified and sok
        s_dims.append(len(alt_d[nu]))
        s_ranks.append(sr)
        s_kernels.append(sk)
    for nu in range(n_max):
        r, _, ok = _rank_and_kernel(bases_up[nu], derived)
        verified = verified and ok
        raised.append(r)
        sr, _, sok = _rank_and_kernel(alt_up[nu], derived)
        verified = verified and sok
        s_raised.append(sr)

    cohomology = [kernels[0]] + [kernels[i] - raised[i - 1] for i in range(1, n_max + 1)]
    s_cohomology = [s_kernels[0]] + [s_kernels[i] - s_raised[i - 1] for i in range(1, n_max + 1)]
    return ComplexReport(
        base_dim=m, degree_bound=d, levels=n_max,
        dims=tuple(dims), kernel_dims=tuple(kernels),
        boundary_ranks=tuple(ranks), image_ranks_raised=tuple(raised),
        cohomology=tuple(cohomology),
        singular_dims=tuple(s_dims), singular_kernel_dims=tuple(s_kernels),
        singular_boundary_ranks=tuple(s_ranks),
        singular_image_ranks_raised=tuple(s_raised),
        singular_cohomology=tuple(s_cohomology),
        complex_verified=verified)
