"""JSON wire formats for every value the toolkit exchanges.

Formats are pinned for golden-file stability: fixed field order, terms
sorted by exponent, arbitrary-precision integers as decimal strings.

* FinMap      {"dom": n, "cod": m, "table": [...]}           (1-based)
* GenWord     {"dom": n, "cod": m, "gens": [{"kind": "epsilon|delta|sigma",
              "n": ..., "i": ...}, ...]}
* Poly        {"vars": a, "terms": [{"exp": [e1, ...], "num": "...",
              "den": "..."}, ...]}
* PolyMap     {"dom": a, "cod": b, "components": [Poly, ...]}
* SectorForm  {"n": ..., "m": ..., "k": ..., "body": PolyMap}
* ComplexReport: a flat object of integer rank lists.

`dumps` takes a `SectorForm` at the top of a payload, in a list or as a
value of a string-keyed dict, and writes it exactly as `sectorform_to_dict`
would render it, straight from its term dicts.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .cohomology import ComplexReport
from .fincard import FinMap, GenWord, RelationReport
from .poly import Poly, PolyMap
from .sector import SectorForm


class InputFormatError(ValueError):
    """Structurally wrong payload for the declared wire format."""


class JsonSyntaxError(InputFormatError):
    """The file is not JSON at all."""


def dumps(payload) -> str:
    """Canonical rendering: fixed field order, two-space indent, one trailing
    newline, so identical requests give byte-identical reports.

    The bytes are those of ``json.dumps(payload, indent=2) + "\n"`` with
    each `SectorForm` in the payload (at the top, in a list or in a
    string-keyed dict) replaced by its `sectorform_to_dict`; they are
    written directly, since `json` renders an indented document with its
    pure-Python encoder, and a form is written from its term dicts
    without building that dict.
    """
    return _render(payload, "\n") + "\n"


def _render(value, nl: str) -> str:
    """value as ``json.dumps(value, indent=2)`` writes it, each line break
    written as nl (a newline and the current indentation)."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = nl + "  "
    if kind is list and value:
        if set(map(type, value)) == {int}:  # exponent tuples: one join in C
            return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]"
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in value]) + nl + "]"
    if kind is dict and value and set(map(type, value)) == {str}:
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _render(v, inner) for k, v in value.items()]
        ) + nl + "}"
    if kind is SectorForm:  # after the plain kinds, which reports hold far more of
        return _render_form(value, nl)
    # bool, None, floats, tuples, empty containers, other keys, subclasses
    return json.dumps(value, indent=2).replace("\n", nl)


@lru_cache(maxsize=64)
def _form_layout(n: int, m: int, k: int, dom: int, cod: int, nl: str) -> tuple[str, ...]:
    """The fixed text of `sectorform_to_dict` of a form, rendered at line
    break nl, around its terms: (head, the opening of a component, of its
    terms, term separator, the end of the terms, the end of a component,
    component separator, tail)."""
    i1, i2, i3, i4, i5 = (nl + "  " * depth for depth in range(1, 6))
    return ("{" + i1 + f'"n": {n},' + i1 + f'"m": {m},' + i1 + f'"k": {k},' + i1 + '"body": {'
            + i2 + f'"dom": {dom},' + i2 + f'"cod": {cod},' + i2 + '"components": [' + i3,
            "{" + i4 + f'"vars": {dom},' + i4 + '"terms": ',
            "[" + i5,
            "," + i5,
            i4 + "]",
            i3 + "}",
            "," + i3,
            i2 + "]" + i1 + "}" + nl + "}")


@lru_cache(maxsize=64)
def _term_format(dom: int, nl: str) -> str:
    """One term at line break nl, a ``%d`` for each of its dom exponents,
    its numerator and its denominator."""
    i5, i6, i7 = (nl + "  " * depth for depth in range(5, 8))
    return ("{" + i6 + '"exp": [' + i7 + ("," + i7).join(["%d"] * dom) + i6 + "],"
            + i6 + '"num": "%d",' + i6 + '"den": "%d"' + i5 + "}")


def _render_form(w: SectorForm, nl: str) -> str:
    """`_render` of ``sectorform_to_dict(w)``, written from the term dicts:
    terms sorted by exponent, each written by one ``%`` format."""
    body = w.body
    layout = _form_layout(w.n, w.m, w.k, body.dom_dim, body.cod_dim, nl)
    head, component, terms_open, terms_sep, terms_end, component_end, components_sep, tail = layout
    term = "" if body.is_zero else _term_format(body.dom_dim, nl)  # a zero form's dom may be huge
    comps = []
    for comp in body.components:
        texts = [term % (*exp, c.numerator, c.denominator)
                 for exp, c in sorted(comp.terms.items())]  # exponents are distinct
        terms = terms_open + terms_sep.join(texts) + terms_end if texts else "[]"
        comps.append(component + terms + component_end)
    return head + components_sep.join(comps) + tail


def _expect(payload, key, kind):
    if not isinstance(payload, dict) or key not in payload:
        raise InputFormatError(f"missing field {key!r}")
    value = payload[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise InputFormatError(f"field {key!r} should be {kind.__name__}")
    return value


# -- FinMap -------------------------------------------------------------

def finmap_from_dict(payload: dict) -> FinMap:
    dom = _expect(payload, "dom", int)
    cod = _expect(payload, "cod", int)
    table = _expect(payload, "table", list)
    try:
        return FinMap(dom, cod, tuple(table))
    except (TypeError, ValueError) as err:
        raise InputFormatError(str(err)) from None


# -- GenWord ------------------------------------------------------------

def genword_to_dict(w: GenWord) -> dict:
    return {"dom": w.dom, "cod": w.cod,
            "gens": [{"kind": g.kind, "n": g.n, "i": g.i} for g in w.gens]}


# -- Poly / PolyMap -------------------------------------------------------

def poly_to_dict(p: Poly) -> dict:
    terms = []
    for exp in sorted(p.terms):
        c = p.terms[exp]
        terms.append({"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)})
    return {"vars": p.nvars, "terms": terms}


def poly_from_dict(payload: dict) -> Poly:
    """Checks each exponent as it reads it and sums repeated ones: no second pass."""
    nvars = _expect(payload, "vars", int)
    terms = {}
    for entry in _expect(payload, "terms", list):
        exp = tuple(_expect(entry, "exp", list))
        if not set(map(type, exp)) <= {int}:  # type, not isinstance: no bools
            raise InputFormatError(f"exponent {list(exp)} should hold integers")
        if len(exp) != nvars or min(exp, default=0) < 0:
            raise InputFormatError(f"bad exponent {exp} for {nvars} variables")
        num = _expect(entry, "num", str)
        den = _expect(entry, "den", str)
        try:
            coeff = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise InputFormatError(f"bad coefficient {num}/{den}") from None
        terms[exp] = terms[exp] + coeff if exp in terms else coeff
    return Poly._from_terms(nvars, {exp: c for exp, c in terms.items() if c})


def polymap_to_dict(f: PolyMap) -> dict:
    return {"dom": f.dom_dim, "cod": f.cod_dim,
            "components": [poly_to_dict(c) for c in f.components]}


def polymap_from_dict(payload: dict) -> PolyMap:
    dom = _expect(payload, "dom", int)
    cod = _expect(payload, "cod", int)
    comps = tuple(poly_from_dict(c) for c in _expect(payload, "components", list))
    try:
        return PolyMap(dom, cod, comps)
    except ValueError as err:
        raise InputFormatError(str(err)) from None


# -- SectorForm -----------------------------------------------------------

def sectorform_to_dict(w: SectorForm) -> dict:
    return {"n": w.n, "m": w.m, "k": w.k, "body": polymap_to_dict(w.body)}


def sectorform_from_dict(payload: dict) -> SectorForm:
    n = _expect(payload, "n", int)
    m = _expect(payload, "m", int)
    k = _expect(payload, "k", int)
    body = polymap_from_dict(_expect(payload, "body", dict))
    try:
        return SectorForm(n, m, k, body)
    except ValueError as err:
        raise InputFormatError(str(err)) from None


# -- reports ---------------------------------------------------------------

def relation_report_to_dict(rep: RelationReport) -> dict:
    return {"family": rep.family, "bound": rep.bound, "checked": rep.checked,
            "failures": [dict(f) for f in rep.failures]}


def complex_report_to_dict(rep: ComplexReport) -> dict:
    return {
        "dim": rep.base_dim,
        "degree_bound": rep.degree_bound,
        "levels": rep.levels,
        "dims": list(rep.dims),
        "kernel_dims": list(rep.kernel_dims),
        "boundary_ranks": list(rep.boundary_ranks),
        "image_ranks_raised": list(rep.image_ranks_raised),
        "H": list(rep.cohomology),
        "singular_dims": list(rep.singular_dims),
        "singular_kernel_dims": list(rep.singular_kernel_dims),
        "singular_boundary_ranks": list(rep.singular_boundary_ranks),
        "singular_image_ranks_raised": list(rep.singular_image_ranks_raised),
        "singular_H": list(rep.singular_cohomology),
        "complex_verified": rep.complex_verified,
    }


def load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise InputFormatError(f"cannot read {path}: {err}") from None
    except ValueError as err:  # bad syntax or encoding, or an integer past the digit limit
        raise JsonSyntaxError(f"malformed JSON in {path}: {err}") from None
    except RecursionError:
        raise JsonSyntaxError(f"JSON in {path} is nested too deeply") from None
