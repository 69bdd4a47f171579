"""Degree-bounded bases of sector forms and desk-scale cohomology.

`sector_basis` returns the partition monomials: a base monomial of
bounded degree times one tangent coordinate per block of a set partition
of the tangent levels.  Linearity in each level forces exactly this
shape, so the monomials are a basis and no equations are solved;
`partition_basis` holds the same basis as its base exponents and
tangent parts, for writers that need no form object.
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

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

from .fincard import _Record
from .linalg import ranks
from .poly import _ONE, Poly
from .sector import SectorForm, _coface_sums, _exterior_signs


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


def _partition_tails(n: int, m: int) -> list[tuple[int, ...]]:
    """The tangent entries m..(m << n)-1 of the partition monomials of
    degree n on R^m, one tuple per shape: a 1 at the flat index
    (j, S) -> mask(S)*m + j-1 of each block.  The blocks grow level by
    level: level l joins an existing block, which adds m << (l-1) to its
    flat index, or opens a new block (j, {l})."""
    shapes = [()]
    for level in range(n):
        step = m << level
        shapes = ([s[:k] + (s[k] + step,) + s[k + 1:] for s in shapes for k in range(len(s))]
                  + [s + (step + j,) for s in shapes for j in range(m)])
    tails = []
    for shape in shapes:
        tail = [0] * ((m << n) - m)
        for flat in shape:
            tail[flat - m] = 1
        tails.append(tuple(tail))
    return tails


def sector_candidates(n: int, m: int, d: int) -> list[tuple[int, ...]]:
    """The exponents of the partition monomials of sector n-forms on R^m
    at coefficient bound d.

    Each is a base monomial of degree <= d times one tangent coordinate
    (j, S) per block S of a set partition of the levels 1..n.  Order:
    base exponents, then the shapes of `_partition_tails`.
    """
    tails = _partition_tails(n, m)
    return [base + tail for base in _base_exponents(m, d) for tail in tails]


def sector_basis(n: int, m: int, d: int, max_candidates: int = 20000) -> list[SectorForm]:
    """A basis of sector n-forms on R^m with coefficient degree <= d.

    Linearity in each tangent level makes the level sets of every
    monomial a set partition of 1..n, so the partition monomials of
    `sector_candidates` are a basis, of dimension C(m+d, m)*T_n(m) with
    T_n the Touchard polynomial.  The guard compares that count before
    anything is built.
    """
    _guard_sector_count(n, m, d, max_candidates)
    size = m << n
    return [SectorForm._from_components(n, m, (Poly._from_terms(size, {exp: _ONE}),))
            for exp in sector_candidates(n, m, d)]


class PartitionBasis(_Record):
    """The basis `sector_basis(n, m, d)` as its two factors, with no form
    built: form i*len(tails) + j is the monomial with the exponent
    ``bases[i] + tails[j]``."""

    __slots__ = ("n", "m", "bases", "tails")

    def __init__(self, n: int, m: int, bases: tuple[tuple[int, ...], ...],
                 tails: tuple[tuple[int, ...], ...]):
        _Record.__init__(self, n, m, bases, tails)

    def __len__(self) -> int:
        return len(self.bases) * len(self.tails)


def partition_basis(n: int, m: int, d: int, max_candidates: int = 20000) -> PartitionBasis:
    """`sector_basis(n, m, d)` by its factors, behind the same guard."""
    _guard_sector_count(n, m, d, max_candidates)
    return PartitionBasis(n, m, tuple(_base_exponents(m, d)), tuple(_partition_tails(n, m)))


def _guard_sector_count(n: int, m: int, d: int, max_candidates: int) -> None:
    """Raise unless `sector_basis` may build its C(m+d, m)*T_n(m) forms."""
    if n < 0 or m < 1 or d < 0:
        raise ValueError("need n >= 0, m >= 1, d >= 0")
    count = comb(m + d, m) * _touchard(n, m)
    if count > max_candidates:
        raise SizeError(
            f"{count} candidates at (n={n}, m={m}, d={d}) "
            f"exceed the guard of {max_candidates}")


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
    size = m << n
    return [SectorForm._from_components(n, m, (Poly._from_terms(
                size, {exp: Fraction(sign) for exp, sign in vector}),))
            for vector in _singular_vectors(n, m, d)]


def _singular_vectors(n: int, m: int, d: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """The forms of `singular_basis(n, m, d)`, in its order and unguarded, as
    lists of (exponent, +-1) pairs."""
    if n > m:
        return []
    size = m << n
    # (-1)^(n(n-1)/2) sgn(sigma) is -1 to the number of ascending pairs of sigma
    signed = [((-1) ** sum(a < b for a, b in combinations(p, 2)), p)
              for p in permutations(range(n))]
    out = []
    for base in _base_exponents(m, d):
        for js in combinations(range(m), n):
            vector = []
            for sign, perm in signed:
                exp = list(base) + [0] * (size - m)
                for level, k in enumerate(perm):
                    exp[(m << level) + js[k]] = 1
                vector.append((tuple(exp), sign))
            out.append(vector)
    return out


class ComplexReport(_Record):
    """Dimensions and ranks of the degree-bounded sector-form complex.

    Every field but the first three and ``complex_verified`` is a tuple
    of ints, one per level, and the ``singular_`` ones are those of the
    alternating subcomplex.  ``boundary_ranks[i]`` is the rank of the
    boundary leaving level i at the stated bound; ``image_ranks_raised[i]``
    is its rank from the bound-(d+1) space, which is what the cohomology
    subtraction uses: H[i] = kernel_dims[i] - image_ranks_raised[i-1].
    """

    __slots__ = ("base_dim", "degree_bound", "levels",
                 "dims", "kernel_dims", "boundary_ranks", "image_ranks_raised", "cohomology",
                 "singular_dims", "singular_kernel_dims", "singular_boundary_ranks",
                 "singular_image_ranks_raised", "singular_cohomology", "complex_verified")

    def __init__(self, base_dim: int, degree_bound: int, levels: int,
                 dims: tuple[int, ...], kernel_dims: tuple[int, ...],
                 boundary_ranks: tuple[int, ...], image_ranks_raised: tuple[int, ...],
                 cohomology: tuple[int, ...], singular_dims: tuple[int, ...],
                 singular_kernel_dims: tuple[int, ...], singular_boundary_ranks: tuple[int, ...],
                 singular_image_ranks_raised: tuple[int, ...],
                 singular_cohomology: tuple[int, ...], complex_verified: bool):
        _Record.__init__(self, base_dim, degree_bound, levels,
                         dims, kernel_dims, boundary_ranks, image_ranks_raised, cohomology,
                         singular_dims, singular_kernel_dims, singular_boundary_ranks,
                         singular_image_ranks_raised, singular_cohomology, complex_verified)

    def consistent(self) -> bool:
        """The subtraction identity holds and no cohomology rank is negative."""
        ok = all(self.cohomology[i] == self.kernel_dims[i]
                 - (self.image_ranks_raised[i - 1] if i else 0)
                 for i in range(len(self.cohomology)))
        ok = ok and all(self.singular_cohomology[i] == self.singular_kernel_dims[i]
                        - (self.singular_image_ranks_raised[i - 1] if i else 0)
                        for i in range(len(self.singular_cohomology)))
        return ok and all(h >= 0 for h in self.cohomology + self.singular_cohomology)


def _level_ranks(n: int, vectors: list[list[tuple[tuple[int, ...], int]]], m: int,
                 d: int) -> tuple[int, int, int, bool]:
    """(forms of base degree <= d, the rank of their boundary, the rank of
    the boundary on the whole basis, d∘d vanishes on it) for the basis of
    n-forms on R^m given as integer vectors.  One `_coface_sums` call
    gives the row of d of every form, and a second one d∘d of every row.
    Both ranks come from one elimination that takes the low forms' rows
    first."""
    if not vectors:
        return 0, 0, 0, True
    rows = [{e: s for e, s in sums.items() if s}
            for sums in _coface_sums(vectors, m, n, _exterior_signs(n))]
    low, high = [], []
    for row, vector in zip(rows, vectors):
        (low if sum(vector[0][0][:m]) <= d else high).append(row)
    counts = [0] + ranks(low + high)
    squares = _coface_sums([row.items() for row in rows], m, n + 1, _exterior_signs(n + 1))
    return len(low), counts[len(low)], counts[-1], not any(any(sums.values()) for sums in squares)


def complex_report(m: int, d: int, n_max: int, max_candidates: int = 20000) -> ComplexReport:
    """Assemble the degree-bounded complex on R^m up to level n_max.

    Kernels use coefficient bound d; images entering level n use the
    level-(n-1) basis at bound d+1.  Exact integer arithmetic
    throughout; the boundary-squares-to-zero flag is a hard check on
    every basis element encountered.  Past the guards, each level's two
    bases are built once, at d+1 below the top level, as integer vectors
    straight from their exponents, with no form object; below level 2
    they are one basis.
    """
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    # no singular guard can fail past these: C(m, n)*n! <= m^n <= T_n(m)
    for bound, levels in ((d, n_max + 1), (d + 1, n_max)):
        for nu in range(levels):
            _guard_sector_count(nu, m, bound, max_candidates)

    full, singular = [], []
    for nu in range(n_max + 1):
        bound = d + 1 if nu < n_max else d
        full.append(_level_ranks(nu, [[(exp, 1)] for exp in sector_candidates(nu, m, bound)],
                                 m, d))
        # below level 2 every partition monomial is alternating, in the same order
        singular.append(full[-1] if nu < 2 else
                        _level_ranks(nu, _singular_vectors(nu, m, bound), m, d))

    columns = []  # in field order: dims, kernels, ranks, raised, then H, for each complex
    for levels in (full, singular):
        dims, ranks, whole, _ = zip(*levels)
        kernels = tuple(n - r for n, r in zip(dims, ranks))
        h = kernels[:1] + tuple(k - r for k, r in zip(kernels[1:], whole))
        columns += (dims, kernels, ranks, whole[:-1], h)
    return ComplexReport(m, d, n_max, *columns, all(level[3] for level in full + singular))
