"""Shared oracle-style generators for the test suite."""

import json
import random
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, product

from sectorforms.fincard import (
    DELTA,
    EPSILON,
    RELATION_FAMILIES,
    SIGMA,
    CompositionError,
    FinMap,
    GenWord,
    Generator,
    RelationReport,
    _relation_instances,
    compose as fc_compose,
    classify,
    eval_word,
    generator_map,
    identity,
    split_map,
)
from sectorforms.cohomology import ComplexReport, PartitionBasis, sector_basis, singular_basis
from sectorforms.jsonio import sectorform_to_dict
from sectorforms.linalg import ranks
from sectorforms.poly import Poly, PolyMap, compose, identity_map
from sectorforms.sector import (
    SectorForm,
    codegeneracy,
    coface,
    exterior_derivative,
    form_from_coefficients,
    is_sector_form,
    symmetry,
)
from sectorforms import tangent
from sectorforms.tangent import (
    canonical_flip,
    origin_lift,
    principal_projection,
    tangent_of_map,
    vertical_lift,
)


def reference_dumps(payload):
    """The canonical report bytes as `json` writes them, each `SectorForm`
    and `GenWord` passed through `sectorform_to_dict` or `genword_to_dict`
    first, and each `PartitionBasis` through `partition_basis_forms`: the
    oracle of `jsonio.dumps`."""
    return json.dumps(forms_as_dicts(payload), indent=2) + "\n"


def forms_as_dicts(value):
    """value with every `SectorForm`, `GenWord` and `PartitionBasis` in
    it, at any depth, replaced by its dict or its list of form dicts;
    tuples become lists, which `json` writes alike."""
    if isinstance(value, SectorForm):
        return sectorform_to_dict(value)
    if isinstance(value, GenWord):
        return genword_to_dict(value)
    if isinstance(value, PartitionBasis):
        return [sectorform_to_dict(w) for w in partition_basis_forms(value)]
    if isinstance(value, (list, tuple)):
        return [forms_as_dicts(v) for v in value]
    if isinstance(value, dict):
        return {k: forms_as_dicts(v) for k, v in value.items()}
    return value


def partition_basis_forms(b):
    """The forms of a `PartitionBasis`, validated, in its order: each base
    exponent, then each tangent part on it."""
    size = b.m << b.n
    return [SectorForm(b.n, b.m, 1, PolyMap(size, 1, (Poly(size, {base + tail: Fraction(1)}),)))
            for base in b.bases for tail in b.tails]


def genword_to_dict(w):
    """The GenWord wire format, {"dom", "cod", "gens": [{"kind", "n", "i"}, ...]}."""
    return {"dom": w.dom, "cod": w.cod,
            "gens": [{"kind": g.kind, "n": g.n, "i": g.i} for g in w.gens]}


def reference_mul(p, q):
    """The product of two polynomials in the same variables, summed one
    term at a time from a zero `Fraction`: the oracle of `Poly.__mul__`."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(exp, Fraction(0)) + c1 * c2
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
    return Poly._from_terms(p.nvars, terms)


def finmap_payload(f):
    """The FinMap wire format, {"dom", "cod", "table"}, of a FinMap."""
    return {"dom": f.dom, "cod": f.cod, "table": list(f.table)}


def flat_index(base_dim, depth, j, levels):
    """Flat index of the coordinate (j, S) of T^depth R^base_dim:
    blocks in binary-counter order (docs/coordinate-layout.md)."""
    if not 1 <= j <= base_dim:
        raise ValueError(f"base index {j} out of range")
    mask = 0
    for level in levels:
        if not 1 <= level <= depth:
            raise ValueError(f"tangent level {level} out of range")
        mask |= 1 << (level - 1)
    return mask * base_dim + (j - 1)


def set_partitions(elements):
    """All partitions of a list into nonempty blocks (Bell-number many)."""
    elements = list(elements)
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def random_base_poly(rng, m, d):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * m
        for _ in range(rng.randint(0, d)):
            exp[rng.randrange(m)] += 1
        if sum(exp) <= d:
            terms[tuple(exp)] = terms.get(tuple(exp), 0) + Fraction(rng.randint(-3, 3))
    return Poly(m, terms)


def random_sector_form(rng, n, m, d, nterms=3):
    """A random linear combination of partition-monomial sector forms.

    Membership is re-checked exactly, so the generator cannot silently
    drift outside the space it claims to sample.
    """
    partitions = list(set_partitions(range(1, n + 1)))
    blocks = {}
    for _ in range(nterms):
        part = partitions[rng.randrange(len(partitions))]
        coords = tuple(sorted(flat_index(m, n, rng.randint(1, m), b) for b in part))
        coeff = random_base_poly(rng, m, d)
        blocks[coords] = blocks.get(coords, Poly.zero(m)) + coeff
    form = form_from_coefficients(n, m, blocks)
    assert is_sector_form(form)
    return form


def all_maps(dom, cod):
    """All maps dom -> cod (none unless dom == 0 when cod == 0)."""
    if dom == 0:
        yield FinMap(0, cod, ())
        return
    if cod == 0:
        return
    for table in product(range(1, cod + 1), repeat=dom):
        yield FinMap(dom, cod, table)


def all_surjections(dom, cod):
    for f in all_maps(dom, cod):
        if len(set(f.table)) == cod:
            yield f


def sigma_cycle_word(n, i):
    """The word sigma_1; ...; sigma_{i-1} at level n realizing `sigma_cycle`."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    return GenWord(n, n, tuple(Generator(SIGMA, n, j) for j in range(1, i)))


def random_finmap(rng, dom, cod):
    return FinMap(dom, cod, tuple(rng.randint(1, cod) for _ in range(dom)))


def random_surjection(rng, dom, cod):
    entries = list(range(1, cod + 1)) + [rng.randint(1, cod) for _ in range(dom - cod)]
    rng.shuffle(entries)
    return FinMap(dom, cod, tuple(entries))


# -- reference factorization -------------------------------------------------
#
# `factor_surjection` and `factor_map` sort the table itself and write the
# codegeneracies in closed form; these rank the table, decompose the rank
# permutation and merge equal neighbours one at a time.  Their words are
# the CLI's `factor` bytes, so the two must agree word for word.

def _permutation_word(perm):
    """Decompose a permutation into adjacent transpositions by insertion sort."""
    n = perm.dom
    table = list(perm.table)
    word = []
    for upper in range(n, 1, -1):
        for j in range(1, upper):
            if table[j - 1] > table[j]:
                table[j - 1], table[j] = table[j], table[j - 1]
                word.append(Generator(SIGMA, n, j))
    return word


def _monotone_surjection_word(table):
    """Codegeneracy word for an order-preserving surjection, smallest index first."""
    word = []
    cur = list(table)
    while len(cur) > len(set(cur)):
        j = next(x for x in range(1, len(cur)) if cur[x - 1] == cur[x])
        word.append(Generator(EPSILON, len(cur) - 1, j))
        del cur[j]
    return word


def reference_factor_surjection(f):
    """A permutation word sorting the table by (value, position), then codegeneracies."""
    if not classify(f).surjective:
        raise ValueError(f"{f!r} is not surjective")
    order = sorted(range(1, f.dom + 1), key=lambda x: (f.table[x - 1], x))
    rank = [0] * f.dom
    for pos, x in enumerate(order, start=1):
        rank[x - 1] = pos
    word = _permutation_word(FinMap(f.dom, f.dom, tuple(rank)))
    word.extend(_monotone_surjection_word(sorted(f.table)))
    return GenWord(f.dom, f.cod, tuple(word))


def reference_factor_map(f):
    """The surjection onto the image, then each missing value's coface as
    delta_1 and a sigma cycle, the largest missing value first."""
    surj, missing = split_map(f)
    word = list(reference_factor_surjection(surj).gens)
    for k in range(len(missing), 0, -1):
        level, i = f.cod - k, missing[k - 1] - (k - 1)
        word.append(Generator(DELTA, level, 1))
        word.extend(Generator(SIGMA, level + 1, j) for j in range(1, i))
    return GenWord(f.dom, f.cod, tuple(word))


def randomized_factorization(rng, u):
    """Peel random generators off the left of a surjection.

    An independent factorization used to cross-check the deterministic
    one: at each step pick any admissible merge (equal neighbours) or
    swap (inverted neighbours) uniformly at random.
    """
    gens = []
    cur = u
    while True:
        moves = []
        for j in range(1, cur.dom):
            if cur.table[j - 1] == cur.table[j]:
                moves.append((EPSILON, j))
            if cur.table[j - 1] > cur.table[j]:
                moves.append((SIGMA, j))
        if not moves:
            assert cur == identity(cur.dom)
            return GenWord(u.dom, u.cod, tuple(gens))
        kind, j = moves[rng.randrange(len(moves))]
        if kind == SIGMA:
            g = Generator(SIGMA, cur.dom, j)
            gens.append(g)
            cur = fc_compose(generator_map(g), cur)
        else:
            g = Generator(EPSILON, cur.dom - 1, j)
            gens.append(g)
            table = list(cur.table)
            del table[j]
            cur = FinMap(cur.dom - 1, cur.cod, tuple(table))


# -- reference relation sweep ------------------------------------------------
#
# `check_relations` evaluates each relation word on plain 0-based tables;
# this builds every generator as a `Generator`, composes the words as
# `FinMap`s, and is the oracle for its reports.

def _reference_word(realized, gens):
    """Left-to-right composite of a nonempty generator word."""
    out = realized(gens[0])
    for g in gens[1:]:
        out = fc_compose(out, realized(g))
    return out


def reference_check_relations(max_n, realize=generator_map):
    """The `RelationReport` list of `check_relations`, through `FinMap` composition."""
    tables = {}

    def realized(g):
        if g not in tables:
            tables[g] = realize(g)
        return tables[g]

    reports = []
    for family in RELATION_FAMILIES:
        checked = 0
        failures = []
        for params, lhs, rhs in _relation_instances(family, max_n):
            checked += 1
            lhs = tuple(Generator(*k) for k in lhs)
            try:
                left = _reference_word(realized, lhs)
                right = (identity(rhs) if isinstance(rhs, int)
                         else _reference_word(realized, tuple(Generator(*k) for k in rhs)))
            except CompositionError as err:
                failures.append({"family": family, **params, "error": str(err)})
                continue
            if left != right:
                failures.append({"family": family, **params,
                                 "lhs": list(left.table), "rhs": list(right.table)})
        reports.append(RelationReport(family, max_n, checked, tuple(failures)))
    return reports


def _word_map(keys):
    """A nonempty word of (kind, n, i) triples, evaluated by `eval_word`."""
    gens = tuple(Generator(*k) for k in keys)
    return eval_word(GenWord(gens[0].map_dom, gens[-1].map_cod, gens))


def eval_word_check_relations(max_n):
    """The `RelationReport` list of `check_relations(max_n)` with the
    standard generators, each side of each instance a `GenWord` evaluated
    by `fincard.eval_word`."""
    reports = []
    for family in RELATION_FAMILIES:
        instances = list(_relation_instances(family, max_n))
        failures = []
        for params, lhs, rhs in instances:
            left = _word_map(lhs)
            right = identity(rhs) if isinstance(rhs, int) else _word_map(rhs)
            if left != right:
                failures.append({"family": family, **params,
                                 "lhs": list(left.table), "rhs": list(right.table)})
        reports.append(RelationReport(family, max_n, len(instances), tuple(failures)))
    return reports


def apply_generator_word(form, gens):
    """Act on a sector form by an explicit generator word, operator by operator."""
    out = form
    for g in gens:
        if g.kind == EPSILON:
            out = codegeneracy(out, g.i)
        elif g.kind == SIGMA:
            out = symmetry(out, g.i)
        else:
            out = coface(out, g.i)
    return out


def body_vector(form):
    """Sparse coefficient vector of a form body over (component, exponent) keys."""
    vec = {}
    for comp_idx, comp in enumerate(form.body.components):
        for exp, coeff in comp.terms.items():
            vec[(comp_idx, exp)] = coeff
    return vec


def _sub_scaled(target, source, factor):
    """target -= factor * source, dropping zeros in place."""
    if not factor:
        return
    for col, val in source.items():
        s = target.get(col, Fraction(0)) - factor * val
        if s:
            target[col] = s
        else:
            target.pop(col, None)


def rref(rows):
    """Reduced row echelon form.

    Returns the nonzero reduced rows and a map pivot column -> row index.
    Deterministic: each step takes the sparsest remaining row, ties going
    to the smallest leading column and then to the earliest input row, and
    pivots on its smallest column.  The keys wait in a heap: a changed row
    is pushed again, and a popped key that no longer fits its row skipped.
    """
    work = {i: dict(r) for i, r in enumerate(rows) if r}
    heap = [(len(r), min(r), i) for i, r in work.items()]
    heapify(heap)
    pivots = {}
    reduced = []
    while heap:
        size, col, i = heappop(heap)
        row = work.get(i)
        if not row or (size, col) != (len(row), min(row)):
            continue  # pivoted, emptied, or changed since this key was pushed
        del work[i]
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        for j, other in work.items():
            if col in other:
                _sub_scaled(other, row, other[col])
                if other:
                    heappush(heap, (len(other), min(other), j))
        for done in reduced:
            if col in done:
                _sub_scaled(done, row, done[col])
        pivots[col] = len(reduced)
        reduced.append(row)
    return reduced, pivots


def rank(rows):
    """The rank of the rows: the last prefix rank of `linalg.ranks`."""
    counts = ranks(rows)
    return counts[-1] if counts else 0


def in_span(basis_rows, target):
    """Whether the sparse row target lies in the rational span of basis_rows."""
    return len(rref([*basis_rows, target])[0]) == len(rref(basis_rows)[0])


def nullspace(rows, ncols):
    """Basis of the right kernel of a matrix with integer columns 0..ncols-1.

    One basis vector per free column, with a 1 in that column; vectors are
    returned in ascending free-column order.
    """
    reduced, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for col, ridx in pivots.items():
            val = reduced[ridx].get(free)
            if val:
                vec[col] = -val
        basis.append(vec)
    return basis


# -- reference tangent functor: partial derivatives and products --------
#
# The package writes each term of the Jacobian pushforward from its
# exponent tuple; this builds Tf(x, u) = (f(x), sum_j d_j f(x) * u_j) with
# `Poly.partial`, `embed` and products, and is the oracle for it.

def reference_tangent_of_map(f):
    a, b = f.dom_dim, f.cod_dim
    keep = list(range(a))
    base = [c.embed(2 * a, keep) for c in f.components]
    tangent = []
    for c in f.components:
        t = Poly.zero(2 * a)
        for j in range(a):
            d = c.partial(j)
            if not d.is_zero:
                t = t + d.embed(2 * a, keep) * Poly.var(2 * a, a + j)
        tangent.append(t)
    return PolyMap(2 * a, 2 * b, tuple(base + tangent))


# -- reference axiom selection ---------------------------------------------
#
# `verify_tangent_axioms` decides which axioms to check before it builds
# them; this builds every axiom at every level first and filters by total
# depth afterwards, and is the oracle for the instance list.

def reference_axiom_instances(m, depth):
    """The (name, at_dim) of every axiom instance the sweep checks, in order."""
    out = []
    for source in (tangent._coherence_axioms, tangent._bundle_morphism_axioms,
                   tangent._differential_object_axioms):
        for j in range(depth):
            mu = m << j
            axioms = [(name, intrinsic, build()) for name, intrinsic, build in source(mu)]
            out += [(f"{name}@T^{j}" if j else name, mu)
                    for name, intrinsic, _sides in axioms
                    if j == 0 or j + intrinsic <= depth]
    naturality = [(name, build()) for name, _intrinsic, build in tangent._naturality_axioms(m)]
    out += [(name, m) for name, _sides in naturality]
    return out


# -- reference whiskers: the generic tangent-functor constructions -------
#
# The package builds each whisker from its closed-form index table, and
# the sector operators rewrite exponent tuples through the same tables;
# these build the maps by iterating the tangent functor over the
# structural maps and composing, and serve as the oracle for both.  Maps
# are immutable, so each shape is built once.

def iterate_tangent(f, n):
    """T^n f: the tangent functor applied n times."""
    if n < 0:
        raise ValueError("tangent depth must be nonnegative")
    for _ in range(n):
        f = tangent_of_map(f)
    return f


@lru_cache(maxsize=None)
def reference_lift_whisker(m, n, i):
    return iterate_tangent(vertical_lift(m << (n - i)), i - 1)


@lru_cache(maxsize=None)
def reference_flip_whisker(m, n, i):
    return iterate_tangent(canonical_flip(m << (n - i - 1)), i - 1)


@lru_cache(maxsize=None)
def reference_flip_cycle(m, n, i):
    """The descending composite of swaps at indices i-1, ..., 1 on T^n R^m."""
    out = identity_map(m << n)
    for j in range(i - 1, 0, -1):
        out = compose(out, reference_flip_whisker(m, n, j))
    return out


def reference_realize_word(w, m):
    """Contravariant realization of an epsilon/sigma word, T^cod R^m -> T^dom R^m.

    Composes the reference whisker of each generator, last generator first.
    """
    out = identity_map(m << w.cod)
    for g in reversed(w.gens):
        if g.kind == EPSILON:
            out = compose(out, reference_lift_whisker(m, g.n, g.i))
        elif g.kind == SIGMA:
            out = compose(out, reference_flip_whisker(m, g.n, g.i))
        else:
            raise ValueError("coface generators do not act on iterated tangent spaces")
    return out


def reference_cycle_sources(n, i):
    """The flip cycle at i as a rotation: mask bits n-i .. n-1 rotated left by one."""
    shift, field = n - i, (1 << i) - 1
    out = []
    for mask in range(1 << n):
        bits = mask >> shift & field
        rotated = (bits << 1 | bits >> (i - 1)) & field
        out.append(mask & ~(field << shift) | rotated << shift)
    return out


@lru_cache(maxsize=None)
def reference_multilinearity_probe(m, n, i):
    """Lift at index i, then the flip cycle: T^n R^m -> T^{n+1} R^m."""
    return compose(reference_lift_whisker(m, n, i), reference_flip_cycle(m, n + 1, i))


# -- reference linearity test: the probe equations as polynomial maps ---
#
# The package reads each position's equation off the exponent tuples;
# this composes the probe with the Jacobian of the body and compares it
# with the body lifted through the origin.

def reference_multilinearity_failures(omega):
    if omega.n == 0:
        return ()
    jac = tangent_of_map(omega.body)
    rhs = compose(omega.body, origin_lift(omega.k))
    return tuple(i for i in range(1, omega.n + 1)
                 if compose(reference_multilinearity_probe(omega.m, omega.n, i), jac) != rhs)


# -- reference codegeneracy and symmetry: precompose with the whiskers --

def reference_codegeneracy(omega, i):
    body = compose(reference_lift_whisker(omega.m, omega.n - 1, i), omega.body)
    return SectorForm(omega.n - 1, omega.m, omega.k, body)


def reference_symmetry(omega, i):
    body = compose(reference_flip_whisker(omega.m, omega.n, i), omega.body)
    return SectorForm(omega.n, omega.m, omega.k, body)


# -- reference pullback: precompose with an iterated tangent ------------

def reference_pullback(omega, phi):
    """Precompose the body with T^n phi: forms move contravariantly."""
    if phi.cod_dim != omega.m:
        raise ValueError(f"map lands in R^{phi.cod_dim}, form lives on R^{omega.m}")
    body = compose(iterate_tangent(phi, omega.n), omega.body)
    return SectorForm(omega.n, phi.dom_dim, omega.k, body)


# -- reference sector basis: an ansatz and its linearity equations ------
#
# The package lists the partition monomials directly; this solves for
# the same space from scratch.  The ansatz takes base monomials of degree
# <= d times at most one variable from each of the 2^n - 1 tangent
# coordinate groups, (m+1)^(2^n-1) * C(m+d, m) candidates; the linearity
# equations become exact linear constraints on their coefficients, and
# the nullspace is the basis.

def reference_sector_basis(n, m, d):
    size = m << n
    bases = [e for e in product(range(d + 1), repeat=m) if sum(e) <= d]
    candidates = []
    for exps in bases:
        base = Poly(size, {exps + (0,) * (size - m): 1})
        for picks in product(range(m + 1), repeat=(1 << n) - 1):
            term = base
            for mask, pick in enumerate(picks, start=1):
                if pick:
                    term = term * Poly.var(size, mask * m + (pick - 1))
            candidates.append(term)
    lam = origin_lift(1)
    probes = [reference_multilinearity_probe(m, n, i) for i in range(1, n + 1)]
    rows = {}
    for col, cand in enumerate(candidates):
        body = PolyMap(size, 1, (cand,))
        jac = tangent_of_map(body)
        rhs = compose(body, lam)
        for i, probe in enumerate(probes):
            residual = compose(probe, jac) - rhs
            for comp_idx, comp in enumerate(residual.components):
                for exp, coeff in comp.terms.items():
                    rows.setdefault((i, comp_idx, exp), {})[col] = coeff
    basis = []
    for vec in nullspace(list(rows.values()), len(candidates)):
        total = Poly.zero(size)
        for col, coeff in sorted(vec.items()):
            total = total + candidates[col].scale(coeff)
        basis.append(SectorForm(n, m, 1, PolyMap(size, 1, (total,))))
    return basis


# -- reference derivatives: Jacobian, principal projection, flip cycles --
#
# The package rewrites exponent tuples directly; these compose the
# tangent of the body with the principal projection and the flip-cycle
# whiskers as polynomial maps, and serve as the oracle for the rewrite.
# Forms and whiskers are immutable: the whiskers are built once per
# shape, and the Jacobian and cofaces of the last few forms are kept, so
# checking every operator on one form differentiates it once.

@lru_cache(maxsize=8)
def reference_fundamental_derivative(omega):
    body = compose(tangent_of_map(omega.body), principal_projection(omega.k))
    return SectorForm(omega.n + 1, omega.m, omega.k, body)


@lru_cache(maxsize=64)
def reference_coface(omega, i):
    body = compose(reference_flip_cycle(omega.m, omega.n + 1, i),
                   reference_fundamental_derivative(omega).body)
    return SectorForm(omega.n + 1, omega.m, omega.k, body)


def reference_exterior_derivative(omega):
    total = SectorForm.zero(omega.n + 1, omega.m, omega.k)
    for i in range(1, omega.n + 2):
        term = reference_coface(omega, i)
        total = total + (term if i % 2 else -term)
    return total


# -- exponent-tuple derivatives from the rotation formula -----------------
#
# A second oracle, cheap enough for T^5 and T^6 R^2: the Jacobian and
# principal projection on the term dicts (c * e_v * x^(e - 1_v + 1_(v + half))),
# then the flip cycle at i as the bit rotation `reference_cycle_sources`,
# summed in Fractions.  It shares no table and no summation with
# `sector._cofaces`.

@lru_cache(maxsize=None)
def rotation_targets(m, n, i):
    """Where the flip cycle at i sends each flat index of T^n R^m."""
    return [mask * m + j for mask in reference_cycle_sources(n, i) for j in range(m)]


@lru_cache(maxsize=8)
def rotated_cofaces(omega):
    """(coface(omega, 1), ..., coface(omega, n + 1)): each derivative term is
    made once, as its nonzero (flat index, exponent) pairs, and moved by
    every rotation."""
    m, n = omega.m, omega.n + 1
    half, size = m << omega.n, m << n
    derived = []
    for comp in omega.body.components:
        terms = []
        for exp, c in comp.terms.items():
            nonzero = {flat: e for flat, e in enumerate(exp) if e}
            for v, e in nonzero.items():
                entries = dict(nonzero)
                entries[v] -= 1
                entries[v + half] = 1
                terms.append((entries.items(), c * e if e > 1 else c))
        derived.append(terms)
    cofaces = []
    for i in range(1, n + 1):
        to = rotation_targets(m, n, i)
        comps = []
        for terms in derived:
            total = {}
            for entries, c in terms:
                moved = [0] * size
                for flat, e in entries:
                    moved[to[flat]] = e
                key = tuple(moved)
                total[key] = total[key] + c if key in total else c
            comps.append(Poly._from_terms(size, {e: c for e, c in total.items() if c}))
        cofaces.append(SectorForm(n, m, omega.k, PolyMap(size, omega.k, tuple(comps))))
    return tuple(cofaces)


@lru_cache(maxsize=8)
def rotated_exterior_derivative(omega):
    """The signed sum of `rotated_cofaces`, added term by term."""
    size = omega.m << (omega.n + 1)
    comps = []
    for j in range(omega.k):
        total = {}
        for i, w in enumerate(rotated_cofaces(omega), 1):
            for exp, c in w.body.components[j].terms.items():
                c = c if i % 2 else -c
                total[exp] = total[exp] + c if exp in total else c
        comps.append(Poly._from_terms(size, {e: c for e, c in total.items() if c}))
    return SectorForm(omega.n + 1, omega.m, omega.k, PolyMap(size, omega.k, tuple(comps)))


# -- reference singular basis: the alternating equations and their kernel --
#
# The package builds the alternating forms in closed form, as the images
# of the polynomial de Rham forms; this solves for the same space from a
# sector basis: each adjacent swap must act as negation, the residuals
# symmetry(w, i) + w become linear rows, and the nullspace is the basis.

def reference_alternating_subbasis(basis):
    if not basis:
        return []
    n = basis[0].n
    if n < 2:
        return list(basis)
    rows = {}
    for col, form in enumerate(basis):
        for i in range(1, n):
            residual = symmetry(form, i) + form
            for key, coeff in body_vector(residual).items():
                rows.setdefault((i,) + key, {})[col] = coeff
    out = []
    for vec in nullspace(list(rows.values()), len(basis)):
        total = SectorForm.zero(n, basis[0].m, basis[0].k)
        for col, coeff in sorted(vec.items()):
            total = total + basis[col].scale(coeff)
        out.append(total)
    return out


# -- polynomial de Rham forms: x^e dx_J keyed by (e, J), J ascending -------

def derham_keys(n, m, d):
    """The de Rham n-forms x^e dx_J, |e| <= d, in the order `singular_basis` documents:
    base exponents ascending, then J in `itertools.combinations` order."""
    return [(e, J) for e in product(range(d + 1), repeat=m) if sum(e) <= d
            for J in combinations(range(m), n)]


def reference_derham_derivative(e, J):
    """d(x^e dx_J) = sum_i e_i x^(e - 1_i) dx_i ^ dx_J, as {(e', J'): coefficient}.

    Moving dx_i past the dx_j with j < i to its sorted place in J u {i}
    gives the sign (-1)^#{j in J: j < i}.
    """
    out = {}
    for i, ei in enumerate(e):
        if ei and i not in J:
            lowered = e[:i] + (ei - 1,) + e[i + 1:]
            sign = -1 if sum(j < i for j in J) % 2 else 1
            out[(lowered, tuple(sorted(J + (i,))))] = sign * ei
    return out


# -- reference complex report: one form at a time --------------------------
#
# The package builds each level's bases once, at the bound it needs, and
# differentiates each as one stacked form; this builds the bound-d and
# bound-(d+1) bases of every level separately, in the order their guards
# raise, differentiates every form on its own (d, then d∘d) and ranks
# each basis's vectors.

def _reference_rank_and_kernel(basis):
    vectors, square_zero = [], True
    for form in basis:
        dform = exterior_derivative(form)
        vectors.append(body_vector(dform))
        square_zero = square_zero and exterior_derivative(dform).is_zero
    r = len(rref(vectors)[0])
    return r, len(basis) - r, square_zero


def reference_complex_report(m, d, n_max, max_candidates=20000):
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    bases_d = [sector_basis(nu, m, d, max_candidates) for nu in range(n_max + 1)]
    bases_up = [sector_basis(nu, m, d + 1, max_candidates) for nu in range(n_max)]
    alt_d = [singular_basis(nu, m, d, max_candidates) for nu in range(n_max + 1)]
    alt_up = [singular_basis(nu, m, d + 1, max_candidates) for nu in range(n_max)]
    verified = True
    dims, kernels, ranks, raised = [], [], [], []
    s_dims, s_kernels, s_ranks, s_raised = [], [], [], []
    for nu in range(n_max + 1):
        for basis, out in ((bases_d[nu], (dims, ranks, kernels)),
                           (alt_d[nu], (s_dims, s_ranks, s_kernels))):
            r, k, ok = _reference_rank_and_kernel(basis)
            verified = verified and ok
            for column, value in zip(out, (len(basis), r, k)):
                column.append(value)
    for nu in range(n_max):
        for basis, out in ((bases_up[nu], raised), (alt_up[nu], s_raised)):
            r, _, ok = _reference_rank_and_kernel(basis)
            verified = verified and ok
            out.append(r)
    h = [kernels[0]] + [kernels[i] - raised[i - 1] for i in range(1, n_max + 1)]
    s_h = [s_kernels[0]] + [s_kernels[i] - s_raised[i - 1] for i in range(1, n_max + 1)]
    return ComplexReport(
        base_dim=m, degree_bound=d, levels=n_max,
        dims=tuple(dims), kernel_dims=tuple(kernels),
        boundary_ranks=tuple(ranks), image_ranks_raised=tuple(raised),
        cohomology=tuple(h),
        singular_dims=tuple(s_dims), singular_kernel_dims=tuple(s_kernels),
        singular_boundary_ranks=tuple(s_ranks),
        singular_image_ranks_raised=tuple(s_raised),
        singular_cohomology=tuple(s_h),
        complex_verified=verified)
