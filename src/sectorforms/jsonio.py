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

`dumps` takes a `SectorForm` or a `GenWord` at the top of a payload, in
a list or as a value of a string-keyed dict, and writes it exactly as its
dict above would render, straight from its fields: a form's terms by one
``%`` template per term, their exponent entries below 64 from a table of
digit strings, and a word's generators by one template per generator.
A `PartitionBasis` there is written as the list of its forms, each by
one ``%`` of a per-(n, m) form text around its base and tangent texts.
Every piece of a report goes into one list, which is joined once.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .cohomology import ComplexReport, PartitionBasis
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
    each `SectorForm` and `GenWord` in the payload (at the top, in a list
    or in a string-keyed dict) replaced by its `sectorform_to_dict` or its
    ``{"dom", "cod", "gens"}`` dict, and each `PartitionBasis` by the list
    of `sectorform_to_dict` of its forms.  They are written directly, since
    `json` renders an indented document with its pure-Python encoder:
    every piece of the report goes into one list, joined once at the end,
    and forms and words are written from their fields by cached templates,
    without building their dicts.
    """
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, nl: str, out: list[str]) -> None:
    """Append value as ``json.dumps(value, indent=2)`` writes it to out,
    each line break written as nl (a newline and the current indentation)."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is list and value:
        inner = nl + "  "
        sep = "," + inner
        out.append("[" + inner)
        for v in value:
            _write(v, inner, out)
            out.append(sep)
        out[-1] = nl + "]"
    elif kind is dict and value and set(map(type, value)) == {str}:
        inner = nl + "  "
        sep = "," + inner
        out.append("{" + inner)
        for k, v in value.items():
            out.append(encode_basestring_ascii(k) + ": ")
            _write(v, inner, out)
            out.append(sep)
        out[-1] = nl + "}"
    elif kind is SectorForm:  # after the plain kinds, which reports hold far more of
        _write_form(value, nl, out)
    elif kind is GenWord:
        _write_word(value, nl, out)
    elif kind is PartitionBasis:
        _write_basis(value, nl, out)
    else:  # bool, None, floats, tuples, empty containers, other keys, subclasses
        out.append(json.dumps(value, indent=2).replace("\n", nl))


@lru_cache(maxsize=64)
def _form_layout(n: int, m: int, k: int, dom: int, cod: int, nl: str) -> tuple[str, ...]:
    """The fixed text of `sectorform_to_dict` of a form, rendered at line
    break nl: (head, the opening of a component and of its terms, one
    term, term separator, the end of the terms and of a component, the
    same for a component without terms, component separator, tail, and
    the separator of a term's exponent entries).  A term's text has a
    ``%s`` for its exponent entries and a ``%d`` for its numerator and
    its denominator."""
    i1, i2, i3, i4, i5, i6, i7 = (nl + "  " * depth for depth in range(1, 8))
    component = "{" + i4 + f'"vars": {dom},' + i4 + '"terms": '
    component_end = i3 + "}"
    return ("{" + i1 + f'"n": {n},' + i1 + f'"m": {m},' + i1 + f'"k": {k},' + i1 + '"body": {'
            + i2 + f'"dom": {dom},' + i2 + f'"cod": {cod},' + i2 + '"components": [' + i3,
            component + "[" + i5,
            "{" + i6 + '"exp": [' + i7 + "%s" + i6 + "]," + i6 + '"num": "%d",'
            + i6 + '"den": "%d"' + i5 + "}",
            "," + i5,
            i4 + "]" + component_end,
            component + "[]" + component_end,
            "," + i3,
            i2 + "]" + i1 + "}" + nl + "}",
            "," + i7)


# the text of each exponent entry below 64; an entry past it is written by `str`
_DIGITS = tuple(map(str, range(64)))


def _write_form(w: SectorForm, nl: str, out: list[str]) -> None:
    """Append `_write` of ``sectorform_to_dict(w)``, written from the term
    dicts: terms sorted by exponent, each one piece, written by one ``%``
    format around its exponent entries.  A form's exponents have at least
    one entry, since m >= 1."""
    body = w.body
    layout = _form_layout(w.n, w.m, w.k, body.dom_dim, body.cod_dim, nl)
    head, terms_open, term, terms_sep, terms_end, no_terms, components_sep, tail, entry_sep = layout
    digits = _DIGITS
    out.append(head)
    for comp in body.components:  # a form has at least one
        if not comp.terms:
            out.append(no_terms)
            out.append(components_sep)
            continue
        out.append(terms_open)
        for exp, c in sorted(comp.terms.items()):  # exponents are distinct
            try:
                entries = entry_sep.join([digits[e] for e in exp])  # entries are >= 0
            except IndexError:
                entries = entry_sep.join(map(str, exp))
            out.append(term % (entries, c.numerator, c.denominator))
            out.append(terms_sep)
        out[-1] = terms_end
        out.append(components_sep)
    out[-1] = tail


@lru_cache(maxsize=64)
def _monomial_layout(n: int, m: int, nl: str) -> tuple[str, str]:
    """(the text of a partition monomial of degree n on R^m at line
    break nl, with a ``%s`` for its base entries and one for its tangent
    entries, each tangent entry led by its separator; the separator of
    exponent entries)."""
    size = m << n
    head, terms_open, term, _, terms_end, _, _, tail, entry_sep = _form_layout(
        n, m, 1, size, 1, nl)
    return head + terms_open + term % ("%s%s", 1, 1) + terms_end + tail, entry_sep


def _write_basis(b: PartitionBasis, nl: str, out: list[str]) -> None:
    """Append `_write` of the list of ``sectorform_to_dict`` of the forms
    of b, in their order: one text per base exponent and per tangent
    part, and one ``%`` of the monomial text per form."""
    if not len(b):
        out.append("[]")
        return
    inner = nl + "  "
    sep = "," + inner
    form, entry_sep = _monomial_layout(b.n, b.m, inner)
    bases = [entry_sep.join(map(str, base)) for base in b.bases]
    tails = ["".join([entry_sep + str(e) for e in tail]) for tail in b.tails]
    out.append("[" + inner)
    for base in bases:
        for tail in tails:
            out.append(form % (base, tail))
            out.append(sep)
    out[-1] = nl + "]"


@lru_cache(maxsize=16)
def _word_layout(nl: str) -> tuple[str, ...]:
    """The text of a `GenWord` at line break nl: (head, a ``%d`` for dom
    and for cod; the opening of its generators; one generator, a ``%s``
    for its kind and a ``%d`` for n and for i; generator separator; the
    end of the generators; the end of a word without generators)."""
    i1, i2, i3 = (nl + "  " * depth for depth in range(1, 4))
    return ("{" + i1 + '"dom": %d,' + i1 + '"cod": %d,' + i1 + '"gens": ',
            "[" + i2,
            "{" + i3 + '"kind": "%s",' + i3 + '"n": %d,' + i3 + '"i": %d' + i2 + "}",
            "," + i2,
            i1 + "]" + nl + "}",
            "[]" + nl + "}")


def _write_word(w: GenWord, nl: str, out: list[str]) -> None:
    """Append ``{"dom", "cod", "gens": [{"kind", "n", "i"}, ...]}`` of w,
    written from its fields; generator kinds are plain ASCII names."""
    head, gens_open, gen, gens_sep, gens_end, no_gens = _word_layout(nl)
    out.append(head % (w.dom, w.cod))
    if not w.gens:
        out.append(no_gens)
        return
    out.append(gens_open)
    for g in w.gens:
        out.append(gen % (g.kind, g.n, g.i))
        out.append(gens_sep)
    out[-1] = gens_end


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
