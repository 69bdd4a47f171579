"""Fuzz the JSON readers and the `derive`, `apply` and `factor` commands
in-process, on small forms and maps, malformed ones, and integers near
Python's int-to-str digit limit.  The CLI contract: an exit code in
{0, 1, 2, 3}, no exception out of `main`, and a JSON report on stdout."""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sectorforms.cli import main

LIMIT = sys.get_int_max_str_digits()  # 4300 unless the interpreter was told otherwise


class Huge(int):
    """An integer too long to print under the limit, shown by its bit length."""

    def __repr__(self):
        return f"Huge({self.bit_length()} bits)"


# integers of LIMIT - 1, LIMIT and LIMIT + 1 digits, built without int-to-str
HUGE = [Huge(10 ** (LIMIT - 2)), Huge(10 ** (LIMIT - 1)), Huge(10 ** LIMIT),
        Huge(-(10 ** (LIMIT - 1)))]
NUMS = ["1", "-3", "0", "x", "", "7" * (LIMIT - 1), "7" * LIMIT, "7" * (LIMIT + 1)]

small_ints = st.integers(-2, 6)
ints = small_ints | st.sampled_from(HUGE)
junk = st.recursive(
    st.none() | st.booleans() | ints | st.floats(allow_nan=False) | st.sampled_from(NUMS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(
        ["n", "m", "k", "vars", "exp", "num", "dom", "table"]), inner, max_size=3),
    max_leaves=6)


@st.composite
def form_payloads(draw):
    """Sector forms on R^m, m <= 2, n <= 3: each term a base monomial times
    one coordinate per block of a set partition of the levels."""
    n, m, k = draw(st.integers(0, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    size = m << n
    comps = []
    for _ in range(k):
        terms = []
        for _ in range(draw(st.integers(0, 2))):
            exp = draw(st.lists(st.integers(0, 3) | st.sampled_from(HUGE[:2]),
                                min_size=m, max_size=m)) + [0] * (size - m)
            masks = {}
            for level, block in enumerate(draw(st.lists(st.integers(0, 3), min_size=n,
                                                        max_size=n))):
                masks[block] = masks.get(block, 0) | 1 << level
            for mask in masks.values():
                exp[mask * m + draw(st.integers(0, m - 1))] = 1
            terms.append({"exp": exp, "num": draw(st.sampled_from(NUMS[:3] + NUMS[5:])),
                          "den": draw(st.sampled_from(["1", "3", "7" * LIMIT]))})
        if terms and draw(st.booleans()):  # the reader sums repeated exponents
            terms.append(terms[0])
        comps.append({"vars": size, "terms": terms})
    return {"n": n, "m": m, "k": k, "body": {"dom": size, "cod": k, "components": comps}}


@st.composite
def map_payloads(draw, dom):
    """Maps of finite cardinals out of dom, or out of a small random cardinal."""
    dom = draw(st.sampled_from([dom, dom, draw(st.integers(0, 4))]))
    cod = draw(st.integers(0, 4))
    table = [draw(st.integers(1, cod)) for _ in range(dom)] if cod else [1] * dom
    return {"dom": dom, "cod": cod, "table": table}


def paths(value, prefix=()):
    """Every place in a JSON value, as a tuple of keys and indices."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from paths(inner, prefix + (key,))


def mangle(draw, payload):
    """The payload as is, with one place replaced by junk or removed, or raw text."""
    how = draw(st.sampled_from(["keep", "keep", "keep", "replace", "remove", "text"]))
    if how == "text":
        return draw(st.sampled_from(["", "{", "[1, 2", "\ufeff{}", "nul"]))
    where = draw(st.sampled_from(list(paths(payload))))
    if how == "keep" or not where:
        return payload if how == "keep" else draw(junk)
    parent = payload
    for key in where[:-1]:
        parent = parent[key]
    if how == "remove":
        del parent[where[-1]]
    else:
        parent[where[-1]] = draw(junk)
    return payload


@st.composite
def requests(draw):
    """A form file's payload and a map file's, the map mostly out of the form's degree."""
    form = draw(form_payloads())
    fmap = draw(map_payloads(form["n"]))
    return mangle(draw, form), mangle(draw, fmap)


def write(directory, name, payload):
    path = os.path.join(directory, name)
    if not isinstance(payload, str):
        sys.set_int_max_str_digits(0)  # HUGE holds integers past the limit
        try:
            payload = json.dumps(payload)
        finally:
            sys.set_int_max_str_digits(LIMIT)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    return path


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(command=st.sampled_from(["derive", "apply", "factor"]), request=requests(),
       position=st.none() | st.integers(-1, 5), gens=st.sampled_from(["full", "surj"]))
def test_cli_contract(command, request, position, gens):
    form, fmap = request
    with tempfile.TemporaryDirectory() as directory:
        form_path = write(directory, "form.json", form)
        map_path = write(directory, "map.json", fmap)
        argv = {"derive": ["derive", "--form", form_path]
                + ([] if position is None else ["--position", str(position)]),
                "apply": ["apply", "--form", form_path, "--map", map_path],
                "factor": ["factor", "--in", map_path, "--gens", gens]}[command]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    assert ("error" in report) == (code != 0), report
