"""Finite cardinals and their generator-and-relation presentations.

The objects are the cardinals 0, 1, 2, ... whose elements are written
1, ..., n.  A morphism is a total function stored as an explicit table.
Five wide subcategories are distinguished by `classify`: all maps,
surjections, bijections, order-preserving maps, and order-preserving
surjections.

The generating morphisms are

* ``epsilon`` (codegeneracy)  n+1 -> n   merges i and i+1,
* ``delta``   (coface)        n -> n+1   skips the value i,
* ``sigma``   (symmetry)      n -> n     swaps i and i+1,

and every map factors through them.  `check_relations` machine-verifies
the ten relation families of the two presentations (the full one over
epsilon/delta/sigma, and the leaner one over epsilon/sigma plus the
fundamental cofaces delta_1) by exhaustive table evaluation: each
relation word is a tuple of (kind, n, i) triples, evaluated left to
right on plain tables, and each generator is realized once per distinct
triple.

Composition is diagrammatic throughout: ``compose(f, g)`` applies ``f``
first.

The records of the package, here `FinMap`, `Generator`, `GenWord`,
`Classification` and `RelationReport`, are immutable values that
compare and hash by their fields, built on `_Record`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from operator import attrgetter, itemgetter

EPSILON = "epsilon"
DELTA = "delta"
SIGMA = "sigma"

GENERATOR_KINDS = (EPSILON, DELTA, SIGMA)

# a generator of each kind at level n has indices 1 .. n + _INDEX_TOP[kind]
_INDEX_TOP = {EPSILON: 0, DELTA: 1, SIGMA: -1}


class CompositionError(ValueError):
    """Raised when arities do not line up for composition."""


# the fields of an immutable class (a _Record, a poly.PolyMap) are set
# through this; the class itself refuses assignment
_fill = object.__setattr__


class _Record:
    """An immutable value: its fields are its ``__slots__``, in order, or
    its parent's when it declares none.

    A subclass's ``__init__`` checks its arguments, then calls
    ``_Record.__init__``, which fills the fields in slot order; `_new`
    fills them unchecked, for values the package built itself.  Equality
    and hash go by the tuple of fields, and only between instances of one
    class; assigning or deleting a field raises AttributeError; copy and
    pickle rebuild through the constructor, so its checks run again.  The
    repr is ``Name(field=value, ...)``.  `poly.PolyMap` fills its fields
    directly: the sweeps build thousands of maps, and a map compares by
    what it computes, not by its field tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # a subclass that declares no slots keeps its parent's fields
        if cls.__slots__:
            cls._names = cls.__slots__
            cls._fields = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        if len(values) != len(self._names):
            raise TypeError(f"{type(self).__qualname__} has {len(self._names)} fields, "
                            f"got {len(values)} values")
        for name, value in zip(self._names, values):
            _fill(self, name, value)

    @classmethod
    def _new(cls, *values):
        """The record of these fields, unchecked: the caller guarantees
        what the subclass's ``__init__`` would enforce."""
        out = cls.__new__(cls)
        _Record.__init__(out, *values)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = zip(self._names, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __reduce__(self):
        return type(self), self._fields(self)


class FinMap(_Record):
    """A total function between finite cardinals, as a 1-based table.

    ``table[x-1]`` is the image of element x; ``dom == 0`` gives the
    empty table.  Instances are immutable and hashable.
    """

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: int, cod: int, table: Iterable[int]):
        if dom < 0 or cod < 0:
            raise ValueError("cardinals must be nonnegative")
        table = tuple(table)
        if len(table) != dom:
            raise ValueError(f"table length {len(table)} != dom {dom}")
        for x, y in enumerate(table, start=1):
            if not isinstance(y, int) or isinstance(y, bool):
                raise ValueError(f"entry {x} -> {y!r} is not an integer")
            if not 1 <= y <= cod:
                raise ValueError(f"entry {x} -> {y} outside 1..{cod}")
        _Record.__init__(self, dom, cod, table)

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.dom:
            raise ValueError(f"{x} not an element of {self.dom}")
        return self.table[x - 1]

    def __repr__(self):
        return f"FinMap({self.dom}->{self.cod}, {list(self.table)})"


def identity(n: int) -> FinMap:
    return FinMap(n, n, tuple(range(1, n + 1)))


def compose(f: FinMap, g: FinMap) -> FinMap:
    """Diagrammatic composite: first ``f``, then ``g``."""
    if f.cod != g.dom:
        raise CompositionError(f"cod {f.cod} != dom {g.dom}")
    # entries of f lie in 1..f.cod = g.dom, so the composite table is valid
    return FinMap._new(f.dom, g.cod, tuple(g.table[y - 1] for y in f.table))


def monoidal_sum(f: FinMap, g: FinMap) -> FinMap:
    """Block sum: the first block maps via f, the second via g shifted by f.cod."""
    table = f.table + tuple(y + f.cod for y in g.table)
    return FinMap(f.dom + g.dom, f.cod + g.cod, table)


class Generator(_Record):
    """A formal generator epsilon/delta/sigma with level ``n`` and index ``i``."""

    __slots__ = ("kind", "n", "i")

    def __init__(self, kind: str, n: int, i: int):
        if kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if n < 0:
            raise ValueError("level must be nonnegative")
        if not 1 <= i <= n + _INDEX_TOP[kind]:
            raise ValueError(f"index {i} out of range for {kind} at level {n}")
        _Record.__init__(self, kind, n, i)

    @property
    def map_dom(self) -> int:
        return self.n + 1 if self.kind == EPSILON else self.n

    @property
    def map_cod(self) -> int:
        return self.n + 1 if self.kind == DELTA else self.n

    def __repr__(self):
        return f"{self.kind}({self.n},{self.i})"


@lru_cache(maxsize=4096)
def _generator(kind: str, n: int, i: int) -> Generator:
    """The generator (kind, n, i), validated once and shared by the words
    that use it; an invalid triple raises on every call, as nothing is
    kept for it."""
    return Generator(kind, n, i)


def generator_map(g: Generator) -> FinMap:
    """Realize a formal generator as a concrete table."""
    n, i = g.n, g.i
    if g.kind == EPSILON:
        # n+1 -> n, merging i and i+1
        return FinMap(n + 1, n, tuple(x if x <= i else x - 1 for x in range(1, n + 2)))
    if g.kind == DELTA:
        # n -> n+1, skipping the value i
        return FinMap(n, n + 1, tuple(x if x < i else x + 1 for x in range(1, n + 1)))
    # sigma: swap i and i+1
    table = list(range(1, n + 1))
    table[i - 1], table[i] = table[i], table[i - 1]
    return FinMap(n, n, tuple(table))


class GenWord(_Record):
    """A composable sequence of generators with declared endpoints.

    The empty word is the identity at its declared cardinal.  Adjacent
    generators must compose: the realized codomain of each equals the
    realized domain of the next.
    """

    __slots__ = ("dom", "cod", "gens")

    def __init__(self, dom: int, cod: int, gens: Iterable[Generator] = ()):
        gens = tuple(gens)
        at = dom
        for g in gens:
            if g.map_dom != at:
                raise CompositionError(f"generator {g} expects domain {g.map_dom}, word is at {at}")
            at = g.map_cod
        if at != cod:
            raise CompositionError(f"word ends at {at}, declared cod {cod}")
        _Record.__init__(self, dom, cod, gens)

    def __len__(self):
        return len(self.gens)


def eval_word(w: GenWord) -> FinMap:
    """Left-to-right composite of the generator realizations."""
    out = identity(w.dom)
    for g in w.gens:
        out = compose(out, generator_map(g))
    if out.cod != w.cod:
        raise CompositionError(f"word evaluates to cod {out.cod}, declared {w.cod}")
    return out


def sigma_cycle(n: int, i: int) -> FinMap:
    """The descending cycle (i, i-1, ..., 2, 1) on 1..n, fixing everything above i.

    Equals the realization of the word sigma_1; sigma_2; ...; sigma_{i-1};
    in particular i = 1 gives the identity.
    """
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    table = [i] + [x - 1 for x in range(2, i + 1)] + list(range(i + 1, n + 1))
    return FinMap(n, n, tuple(table))


def probe_surjection(n: int, j: int) -> FinMap:
    """The surjection n+1 -> n sending 1 to j and x to x-1 otherwise.

    Its realization on iterated tangent spaces probes linearity in
    position j; it factors as sigma_cycle(n+1, j) followed by the
    codegeneracy at j.
    """
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    return FinMap(n + 1, n, (j,) + tuple(range(1, n + 1)))


class Classification(_Record):
    """Which of the wide subcategories of `classify` a map lies in."""

    __slots__ = ("surjective", "bijective", "order_preserving")

    def __init__(self, surjective: bool, bijective: bool, order_preserving: bool):
        _Record.__init__(self, surjective, bijective, order_preserving)


def classify(f: FinMap) -> Classification:
    hit = set(f.table)
    surjective = len(hit) == f.cod
    bijective = surjective and f.dom == f.cod
    order_preserving = all(f.table[i] <= f.table[i + 1] for i in range(f.dom - 1))
    return Classification(surjective, bijective, order_preserving)


def _sorting_word(table: tuple[int, ...]) -> list[Generator]:
    """The generators of `factor_surjection` for the surjection of a table
    onto its image, on a plain list: sigmas sorting it, then codegeneracies.

    A bubble sort that swaps only strictly greater neighbours never
    reorders equal entries, so it makes the same swaps as a sort of the
    ranks by (value, position), and no ranks are built.  Performing the
    swap at position j on the table turns u into sigma_j; u, so the swaps
    in application order spell the permutation word.
    """
    n = len(table)
    cur = list(table)
    word: list[Generator] = []
    for upper in range(n, 1, -1):
        swapped = False
        for j in range(1, upper):
            if cur[j - 1] > cur[j]:
                cur[j - 1], cur[j] = cur[j], cur[j - 1]
                word.append(_generator(SIGMA, n, j))
                swapped = True
        if not swapped:  # sorted: no later pass swaps either
            break
    k = 0
    for p in range(1, n):
        if cur[p - 1] == cur[p]:
            k += 1
            word.append(_generator(EPSILON, n - k, p - k + 1))
    return word


def factor_surjection(f: FinMap) -> GenWord:
    """Factor a surjection as a permutation word followed by codegeneracies.

    The permutation part sorts the table stably by (value, position).  The
    order-preserving part merges equal neighbours smallest index first, in
    closed form: the k-th repeated entry of the sorted table, at 0-based
    position p, gives epsilon(dom - k, p - k + 1), since the k - 1 merges
    before it all lie to its left.  The contract is the round trip
    eval_word(factor_surjection(f)) == f.
    """
    if len(set(f.table)) != f.cod:
        raise ValueError(f"{f!r} is not surjective")
    return GenWord(f.dom, f.cod, tuple(_sorting_word(f.table)))


def _coface_word(n: int, i: int) -> list[Generator]:
    """delta_i at level n through the fundamental coface: delta_1 then a sigma cycle."""
    word = [_generator(DELTA, n, 1)]
    word.extend(_generator(SIGMA, n + 1, j) for j in range(1, i))
    return word


def split_map(f: FinMap) -> tuple[FinMap, list[int]]:
    """Split f as a surjection onto its image followed by the monotone
    injection enumerating the image; returns the surjection and the
    missing values in ascending order."""
    image = sorted(set(f.table))
    pos = {v: p for p, v in enumerate(image, start=1)}
    surj = FinMap(f.dom, len(image), tuple(pos[v] for v in f.table))
    return surj, [v for v in range(1, f.cod + 1) if v not in pos]


def factor_map(f: FinMap) -> GenWord:
    """Factor an arbitrary map through epsilon, sigma, and delta-at-index-1.

    Splits f as a surjection onto its image followed by the monotone
    injection enumerating the image, then rewrites every coface through
    the fundamental one.  The surjection's word depends only on the order
    of the table's entries, so it is `_sorting_word` of f's own table.
    """
    word = _sorting_word(f.table)
    hit = set(f.table)
    missing = [v for v in range(1, f.cod + 1) if v not in hit]
    # Insert missing values top-down: the k-th smallest missing value m_k is
    # inserted at level cod-k with its index shifted by the k-1 smaller ones.
    for k in range(len(missing), 0, -1):
        word.extend(_coface_word(f.cod - k, missing[k - 1] - (k - 1)))
    return GenWord(f.dom, f.cod, tuple(word))


class RelationReport(_Record):
    """Outcome of sweeping one relation family up to a level bound.

    Failures are accumulated, never raised, so a corrupted realization
    shows every broken instance.
    """

    __slots__ = ("family", "bound", "checked", "failures")

    def __init__(self, family: str, bound: int, checked: int, failures: tuple[dict, ...] = ()):
        _Record.__init__(self, family, bound, checked, failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return f"{self.family}: {self.checked} instances, {state}"


Realize = Callable[[Generator], FinMap]
# a generator as a plain (kind, n, i) triple, the key of Generator(kind, n, i)
GenKey = tuple[str, int, int]


def _relation_instances(family: str, max_n: int) -> Iterator[tuple[dict, tuple[GenKey, ...], tuple[GenKey, ...] | int]]:
    """Yield (params, lhs word, rhs word-or-identity-level) for one family.

    Each word is a tuple of (kind, n, i) triples, the fields of the
    `Generator` it names; an int on the right-hand side stands for the
    identity at that cardinal.
    """
    E, D, S = EPSILON, DELTA, SIGMA
    if family == "pure-codegeneracy":
        # eps_i ; eps_j = eps_{j+1} ; eps_i   (i <= j)
        for n in range(1, max_n + 1):
            for j in range(1, n + 1):
                for i in range(1, j + 1):
                    yield ({"n": n, "i": i, "j": j},
                           ((E, n + 1, i), (E, n, j)),
                           ((E, n + 1, j + 1), (E, n, i)))
    elif family == "pure-coface":
        # delta_j ; delta_i = delta_i ; delta_{j+1}   (i <= j)
        for n in range(0, max_n + 1):
            for j in range(1, n + 2):
                for i in range(1, j + 1):
                    yield ({"n": n, "i": i, "j": j},
                           ((D, n, j), (D, n + 1, i)),
                           ((D, n, i), (D, n + 1, j + 1)))
    elif family == "coface-codegeneracy":
        # delta_i ; eps_j = eps_{j-1}; delta_i | 1 | eps_j; delta_{i-1}
        for n in range(1, max_n + 1):
            for i in range(1, n + 2):
                for j in range(1, n + 1):
                    params = {"n": n, "i": i, "j": j}
                    lhs = ((D, n, i), (E, n, j))
                    if i < j:
                        yield (params, lhs, ((E, n - 1, j - 1), (D, n - 1, i)))
                    elif i in (j, j + 1):
                        yield (params, lhs, n)
                    else:
                        yield (params, lhs, ((E, n - 1, j), (D, n - 1, i - 1)))
    elif family == "moore-involution":
        for n in range(2, max_n + 1):
            for i in range(1, n):
                yield ({"n": n, "i": i}, ((S, n, i), (S, n, i)), n)
    elif family == "moore-braid":
        for n in range(3, max_n + 1):
            for i in range(1, n - 1):
                yield ({"n": n, "i": i},
                       ((S, n, i), (S, n, i + 1), (S, n, i)),
                       ((S, n, i + 1), (S, n, i), (S, n, i + 1)))
    elif family == "moore-commute":
        for n in range(2, max_n + 1):
            for j in range(1, n):
                for i in range(1, j - 1):
                    yield ({"n": n, "i": i, "j": j},
                           ((S, n, j), (S, n, i)),
                           ((S, n, i), (S, n, j)))
    elif family == "codegeneracy-symmetry":
        for n in range(2, max_n + 1):
            # eps_j ; sig_i = sig_i ; eps_j           (i < j - 1)
            for j in range(1, n + 1):
                for i in range(1, min(j - 1, n)):
                    yield ({"n": n, "i": i, "j": j, "case": "far-below"},
                           ((E, n, j), (S, n, i)),
                           ((S, n + 1, i), (E, n, j)))
            # eps_i ; sig_i = sig_{i+1} ; sig_i ; eps_{i+1}
            for i in range(1, n):
                yield ({"n": n, "i": i, "case": "clash"},
                       ((E, n, i), (S, n, i)),
                       ((S, n + 1, i + 1), (S, n + 1, i), (E, n, i + 1)))
            # eps_j ; sig_i = sig_{i+1} ; eps_j       (i > j)
            for j in range(1, n + 1):
                for i in range(j + 1, n):
                    yield ({"n": n, "i": i, "j": j, "case": "above"},
                           ((E, n, j), (S, n, i)),
                           ((S, n + 1, i + 1), (E, n, j)))
            # sig_i ; eps_i = eps_i
            for i in range(1, n + 1):
                yield ({"n": n, "i": i, "case": "absorb"},
                       ((S, n + 1, i), (E, n, i)),
                       ((E, n, i),))
    elif family == "coface-symmetry":
        for n in range(1, max_n + 1):
            # delta_j ; sig_i = sig_i ; delta_j       (i < j - 1)
            for j in range(1, n + 2):
                for i in range(1, min(j - 1, n)):
                    yield ({"n": n, "i": i, "j": j, "case": "far-below"},
                           ((D, n, j), (S, n + 1, i)),
                           ((S, n, i), (D, n, j)))
            # delta_i ; sig_i = delta_{i+1}
            for i in range(1, n + 1):
                yield ({"n": n, "i": i, "case": "shift"},
                       ((D, n, i), (S, n + 1, i)),
                       ((D, n, i + 1),))
            # delta_j ; sig_i = sig_{i-1} ; delta_j   (i > j)
            for j in range(1, n + 2):
                for i in range(j + 1, n + 1):
                    yield ({"n": n, "i": i, "j": j, "case": "above"},
                           ((D, n, j), (S, n + 1, i)),
                           ((S, n, i - 1), (D, n, j)))
    elif family == "fundamental-coface-codegeneracy":
        # delta_1 ; eps_1 = 1   and   delta_1 ; eps_{j+1} = eps_j ; delta_1
        for n in range(1, max_n + 1):
            yield ({"n": n, "case": "retract"}, ((D, n, 1), (E, n, 1)), n)
            for j in range(1, n + 1):
                yield ({"n": n, "j": j, "case": "slide"},
                       ((D, n + 1, 1), (E, n + 1, j + 1)),
                       ((E, n, j), (D, n, 1)))
    elif family == "fundamental-coface-symmetry":
        # delta_1 ; delta_1 ; sig_1 = delta_1 ; delta_1   and
        # delta_1 ; sig_{i+1} = sig_i ; delta_1
        for n in range(0, max_n + 1):
            yield ({"n": n, "case": "square"},
                   ((D, n, 1), (D, n + 1, 1), (S, n + 2, 1)),
                   ((D, n, 1), (D, n + 1, 1)))
            for i in range(1, n):
                yield ({"n": n, "i": i, "case": "slide"},
                       ((D, n, 1), (S, n + 1, i + 1)),
                       ((S, n, i), (D, n, 1)))
    else:
        raise ValueError(f"unknown relation family {family!r}")


RELATION_FAMILIES = (
    "pure-codegeneracy",
    "pure-coface",
    "coface-codegeneracy",
    "moore-involution",
    "moore-braid",
    "moore-commute",
    "codegeneracy-symmetry",
    "coface-symmetry",
    "fundamental-coface-codegeneracy",
    "fundamental-coface-symmetry",
)


def check_relations(max_n: int, realize: Realize = generator_map) -> list[RelationReport]:
    """Exhaustively verify every relation family for all levels up to max_n.

    Both sides of each instance are evaluated left to right on plain
    0-based tables and compared with their endpoints for exact equality.
    Each step composes the table so far with the next generator's table
    by one `operator.itemgetter` call, or by `map` on a domain of 0 or
    1 elements, where `itemgetter` gives no tuple.
    Each distinct (kind, n, i) triple is validated as a `Generator` and
    realized through ``realize`` once per call, on its first use.  The
    hook lets tests corrupt a generator realization and watch the sweep
    catch it.  A side whose generators do not compose is a failure
    carrying ``"error"``, not a crash; other failures carry both sides as
    1-based ``"lhs"`` and ``"rhs"`` tables.
    """
    if max_n < 2:
        raise ValueError("need max_n >= 2 to see every family")
    # triple -> (dom, cod, table with table[x] the 0-based image of x)
    tables: dict[GenKey, tuple[int, int, tuple[int, ...]]] = {}

    def table(key: GenKey) -> tuple[int, int, tuple[int, ...]]:
        entry = tables.get(key)
        if entry is None:
            f = realize(Generator(*key))
            entry = tables[key] = (f.dom, f.cod, tuple([y - 1 for y in f.table]))
        return entry

    def evaluate(word: tuple[GenKey, ...]) -> tuple[int, int, tuple[int, ...]]:
        dom, cod, acc = table(word[0])
        for key in word[1:]:
            d, c, t = table(key)
            if cod != d:
                raise CompositionError(f"cod {cod} != dom {d}")
            # itemgetter of two or more indices returns their tuple; of
            # one it returns the bare entry, and of none it cannot be made
            acc = itemgetter(*acc)(t) if dom > 1 else tuple(map(t.__getitem__, acc))
            cod = c
        return dom, cod, acc

    reports = []
    for family in RELATION_FAMILIES:
        checked = 0
        failures = []
        for params, lhs, rhs in _relation_instances(family, max_n):
            checked += 1
            try:
                left = evaluate(lhs)
                right = (rhs, rhs, tuple(range(rhs))) if isinstance(rhs, int) else evaluate(rhs)
            except CompositionError as err:
                failures.append({"family": family, **params, "error": str(err)})
                continue
            if left != right:
                failures.append({"family": family, **params,
                                 "lhs": [y + 1 for y in left[2]],
                                 "rhs": [y + 1 for y in right[2]]})
        reports.append(RelationReport(family, max_n, checked, tuple(failures)))
    return reports
