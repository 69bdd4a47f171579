import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finmap_payload, genword_to_dict, random_sector_form, reference_dumps
from sectorforms.cohomology import PartitionBasis, partition_basis
from sectorforms.fincard import (CompositionError, FinMap, GenWord, Generator, factor_map,
                                 factor_surjection)
from sectorforms.jsonio import (
    InputFormatError,
    JsonSyntaxError,
    dumps,
    finmap_from_dict,
    load_json_file,
    poly_from_dict,
    poly_to_dict,
    polymap_from_dict,
    polymap_to_dict,
    sectorform_from_dict,
    sectorform_to_dict,
)
from sectorforms.poly import Poly, PolyMap
from sectorforms.sector import SectorForm

F = Fraction


class TestFinMapJson:
    def test_round_trip(self):
        f = FinMap(3, 2, (2, 1, 1))
        assert finmap_from_dict(finmap_payload(f)) == f

    def test_golden_bytes(self):
        f = FinMap(2, 2, (2, 1))
        assert dumps(finmap_payload(f)) == (
            '{\n  "dom": 2,\n  "cod": 2,\n  "table": [\n    2,\n    1\n  ]\n}\n')

    def test_bad_payloads(self):
        with pytest.raises(InputFormatError):
            finmap_from_dict({"dom": 2, "cod": 2})
        with pytest.raises(InputFormatError):
            finmap_from_dict({"dom": 2, "cod": 1, "table": [1, 2]})
        with pytest.raises(InputFormatError):
            finmap_from_dict({"dom": True, "cod": 1, "table": [1]})


class TestGenWordJson:
    def test_round_trip(self):
        # the payload names every generator and both endpoints
        w = factor_map(FinMap(2, 3, (3, 1)))
        payload = json.loads(dumps(w))
        gens = tuple(Generator(g["kind"], g["n"], g["i"]) for g in payload["gens"])
        assert GenWord(payload["dom"], payload["cod"], gens) == w

    def test_kind_strings(self):
        w = GenWord(1, 2, (Generator("delta", 1, 1), Generator("sigma", 2, 1)))
        payload = genword_to_dict(w)
        assert [g["kind"] for g in payload["gens"]] == ["delta", "sigma"]

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Generator("zeta", 1, 1)

    def test_noncomposable_rejected(self):
        with pytest.raises(CompositionError):
            GenWord(2, 2, (Generator("epsilon", 1, 1),))


class TestPolyJson:
    def test_round_trip(self):
        p = Poly(2, {(1, 0): F(-3, 7), (0, 2): F(5)})
        assert poly_from_dict(poly_to_dict(p)) == p

    def test_terms_sorted_and_strings(self):
        p = Poly(1, {(2,): F(1, 3), (0,): F(4)})
        payload = poly_to_dict(p)
        assert payload["terms"][0]["exp"] == [0]
        assert payload["terms"][1] == {"exp": [2], "num": "1", "den": "3"}

    def test_big_integers_survive(self):
        big = 10 ** 40 + 1
        p = Poly(1, {(1,): F(big, 3)})
        assert poly_from_dict(poly_to_dict(p)) == p

    def test_bad_coefficient(self):
        with pytest.raises(InputFormatError):
            poly_from_dict({"vars": 1, "terms": [{"exp": [1], "num": "x", "den": "1"}]})
        with pytest.raises(InputFormatError):
            poly_from_dict({"vars": 1, "terms": [{"exp": [1], "num": "1", "den": "0"}]})


class TestPolyMapAndFormJson:
    def test_polymap_round_trip(self):
        pm = PolyMap(2, 2, (Poly.var(2, 0) * Poly.var(2, 1), Poly.const(2, F(1, 2))))
        assert polymap_from_dict(polymap_to_dict(pm)) == pm

    def test_sector_form_round_trip(self):
        rng = random.Random(3)
        w = random_sector_form(rng, 2, 1, 2)
        assert sectorform_from_dict(sectorform_to_dict(w)) == w

    def test_dimension_check(self):
        payload = {"n": 2, "m": 1, "k": 1,
                   "body": polymap_to_dict(PolyMap(2, 1, (Poly.var(2, 0),)))}
        with pytest.raises(InputFormatError):
            sectorform_from_dict(payload)


class TestFiles:
    def test_load_json_file(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"dom": 1, "cod": 1, "table": [1]}')
        assert finmap_from_dict(load_json_file(str(path))) == FinMap(1, 1, (1,))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(JsonSyntaxError):
            load_json_file(str(path))

    def test_missing_file(self):
        with pytest.raises(InputFormatError):
            load_json_file("/nonexistent/x.json")

    def test_dumps_deterministic(self):
        payload = finmap_payload(FinMap(2, 1, (1, 1)))
        assert dumps(payload) == dumps(finmap_payload(FinMap(2, 1, (1, 1))))
        assert json.loads(dumps(payload)) == payload


# strings that exercise every escape: quotes, backslashes, control
# characters, non-ASCII, JSON punctuation and spaces
texts = st.text(st.one_of(st.sampled_from('"\\[]{},: \n\t\x00\x1f\x7f'), st.characters()),
                max_size=8)
ints = st.one_of(st.integers(-3, 3), st.integers(-10 ** 300, 10 ** 300))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(texts, ints, st.booleans(), st.none(), finite_floats)
keys = st.one_of(texts, texts, ints, st.booleans(), st.none(), finite_floats)
int_lists = st.lists(ints, max_size=6)  # the exponent-tuple fast path
mixed_int_lists = st.lists(st.one_of(ints, st.booleans()), min_size=1, max_size=6)
payloads = st.recursive(
    st.one_of(scalars, int_lists, mixed_int_lists),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(texts, inner, max_size=4),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=20)


# coefficients the writer must spell out: signs, non-integral values,
# and numerators and denominators past 64 bits
coefficients = st.builds(F, st.one_of(st.integers(-5, 5), st.sampled_from([10 ** 40, -10 ** 40])),
                         st.sampled_from([1, 2, 3, 7, 10 ** 40]))


@st.composite
def sector_forms(draw):
    """Forms of degree 0..2 on R^1 or R^2 with k = 1 or 2 components, each
    of up to three terms, zero forms among them; the writer does not look
    at the linearity equations, so the exponents are arbitrary."""
    n, m, k = draw(st.integers(0, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    size = m << n
    exps = st.lists(st.integers(0, 3), min_size=size, max_size=size).map(tuple)
    comps = tuple(Poly(size, draw(st.dictionaries(exps, coefficients, max_size=3)))
                  for _ in range(k))
    return SectorForm(n, m, k, PolyMap(size, k, comps))


# forms where reports hold them: top level, in lists and in string-keyed dicts
form_payloads = st.recursive(
    st.one_of(scalars, int_lists, sector_forms()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(texts, inner, max_size=3)),
    max_leaves=6)


def basis_payload(forms):
    """The `sector-basis` report shape: forms in a list at depth 2."""
    return {"n": 1, "m": 1, "d": 0, "dimension": len(forms), "basis": forms}


HALF_X = Poly(2, {(1, 1): F(1, 2)})
EDGE_FORMS = {
    "k1": SectorForm(1, 1, 1, PolyMap(2, 1, (Poly(2, {(2, 1): F(-3), (0, 1): F(2, 3)}),))),
    "k2": SectorForm(1, 1, 2, PolyMap(2, 2, (HALF_X, Poly(2, {(0, 1): F(-5, 6)})))),
    "zero": SectorForm.zero(2, 2, 2),
    "zero-component": SectorForm(1, 1, 2, PolyMap(2, 2, (Poly.zero(2), HALF_X))),
    "degree-0": SectorForm(0, 2, 1, PolyMap(2, 1, (Poly(2, {(0, 0): F(7), (3, 1): F(1)}),))),
    "huge": SectorForm(1, 1, 1, PolyMap(2, 1, (Poly(2, {(0, 1): F(-10 ** 40, 10 ** 40 + 1)}),))),
    # 128-entry exponents, as at degree 6 on R^2, with large negative numerators
    "wide": SectorForm(6, 2, 2, PolyMap(128, 2, (
        Poly(128, {tuple(i % 4 for i in range(128)): F(-10 ** 60, 3),
                   (0,) * 127 + (10 ** 30,): F(-(2 ** 70) - 1)}),
        Poly(128, {(1,) + (0,) * 127: F(-7, 10 ** 25)})))),
}


class TestCanonicalWriter:
    """`dumps` writes its bytes directly; they must be `json`'s."""

    @settings(max_examples=150, deadline=None)
    @given(payloads)
    def test_equals_json_indent_2(self, payload):
        assert dumps(payload) == reference_dumps(payload)

    @pytest.mark.parametrize("payload", [
        [1, True], [False, 0], (1, 2), [[], {}, ()], {1: [2], True: None, 2.5: "x"},
        {"exp": [10 ** 40, -1, 0]}, "\"\\\u00e9\u2028\ud800\x00", [-0.0, 1e300, 0.1],
    ], ids=["int-then-bool", "bool-then-int", "tuple", "empty", "non-str-keys",
            "huge-ints", "escapes", "floats"])
    def test_equals_json_on_edge_cases(self, payload):
        assert dumps(payload) == reference_dumps(payload)

    @settings(max_examples=150, deadline=None)
    @given(form_payloads)
    def test_forms_in_payloads_equal_their_dicts(self, payload):
        assert dumps(payload) == reference_dumps(payload)

    @pytest.mark.parametrize("name", EDGE_FORMS)
    def test_form_equals_its_dict(self, name):
        w = EDGE_FORMS[name]
        for payload in (w, [w], basis_payload([w, w]), {"x": [[w]]}):
            assert dumps(payload) == reference_dumps(payload)

    @pytest.mark.parametrize("b", [
        partition_basis(0, 1, 0), partition_basis(0, 3, 2), partition_basis(2, 2, 1),
        partition_basis(3, 1, 70, max_candidates=400), PartitionBasis(1, 2, (), ((1, 0),)),
    ], ids=["n0-m1", "n0-m3", "n2-m2", "past-the-digit-table", "empty"])
    def test_partition_basis_equals_its_forms(self, b):
        for payload in (b, [b], basis_payload(b), {"x": [[b, 1], b]}):
            assert dumps(payload) == reference_dumps(payload)


@st.composite
def factor_words(draw):
    """`factor_map` of a map with dom 0..10, or `factor_surjection` of its
    surjection onto its image, listed 1..k in order of first appearance."""
    dom = draw(st.integers(0, 10))
    cod = draw(st.integers(1 if dom else 0, 10))
    table = tuple(draw(st.lists(st.integers(1, cod), min_size=dom, max_size=dom))) if cod else ()
    if draw(st.booleans()):
        return factor_map(FinMap(dom, cod, table))
    first = {v: k for k, v in enumerate(dict.fromkeys(table), start=1)}
    return factor_surjection(FinMap(dom, len(first), tuple(first[v] for v in table)))


@st.composite
def wide_entry_forms(draw):
    """Forms on R^1 or R^2 of degree 0..2 whose exponent entries run past
    the writer's digit table (64 up to 10^6), with 30-digit negative
    numerators."""
    n, m, k = draw(st.integers(0, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    size = m << n
    entries = st.one_of(st.integers(0, 70), st.integers(64, 10 ** 6))
    exps = st.lists(entries, min_size=size, max_size=size).map(tuple)
    nums = st.integers(-(10 ** 30) + 1, -(10 ** 29))
    coeffs = st.builds(F, nums, st.integers(1, 10 ** 6))
    comps = tuple(Poly(size, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3)))
                  for _ in range(k))
    return SectorForm(n, m, k, PolyMap(size, k, comps))


class TestWrittenFromFields:
    """Words and forms are written from their fields, not their dicts."""

    @settings(max_examples=150, deadline=None)
    @given(factor_words())
    def test_factor_words_equal_their_dicts(self, word):
        for payload in (word, [word], {"word": word}):
            assert dumps(payload) == reference_dumps(payload)

    @settings(max_examples=100, deadline=None)
    @given(wide_entry_forms())
    def test_entries_past_the_digit_table(self, form):
        for payload in (form, basis_payload([form])):
            assert dumps(payload) == reference_dumps(payload)
