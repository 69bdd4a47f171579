"""Tests of the benchmark itself, at small sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

import jobs as joblib
import oracle
import run
import tracing

sys.path.insert(0, run.SRC)

from sectorforms import cli  # noqa: E402
from sectorforms.fincard import FinMap  # noqa: E402
from sectorforms.jsonio import sectorform_from_dict, sectorform_to_dict  # noqa: E402
from sectorforms.poly import Poly, PolyMap  # noqa: E402
from sectorforms.sector import (  # noqa: E402
    SectorForm, apply_cardinal_map, coface, exterior_derivative, is_sector_form)


def snapshot(workload, seed, workdir):
    """Every input byte and every argv of one seeded job list, paths made relative."""
    job_list = joblib.build(workload, seed, str(workdir))
    files = {name: (workdir / name).read_bytes() for name in sorted(os.listdir(workdir))}
    argvs = [[a.replace(str(workdir), "<dir>") for a in job.argv] for job in job_list]
    return files, argvs


@pytest.mark.parametrize("workload", joblib.WORKLOADS)
def test_seed_gives_identical_inputs(workload, tmp_path):
    a = snapshot(workload, 7, tmp_path / "a")
    assert a == snapshot(workload, 7, tmp_path / "b")
    assert a != snapshot(workload, 8, tmp_path / "c")


def cli_output(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = cli.main(list(argv) + ["--out", str(out)])
    return code, out.read_text()


def tamper(text, edit):
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload, indent=2) + "\n"


def test_report_check_rejects_negated_h(tmp_path):
    code, text = cli_output(tmp_path, "derham", "--dim", "1", "--deg", "2", "--levels", "2")
    check = joblib._check_report(1, 2, 2)
    assert check(code, text) is None

    def negate(r):
        r["H"][0] = -r["H"][0]
        r["kernel_dims"][0] = -r["kernel_dims"][0]
    assert "H[0] = -1 < 0" in check(code, tamper(text, negate))
    assert check(1, text) == "exit code 1"


@pytest.mark.xfail(strict=True, reason="derham --levels 3 reports H[3] = -2 (ROADMAP item 1)")
def test_level3_report_passes_check(tmp_path):
    code, text = cli_output(tmp_path, "derham", "--dim", "1", "--deg", "0", "--levels", "3")
    assert joblib._check_report(1, 0, 3)(code, text) is None


def test_report_check_rejects_wrong_dims(tmp_path):
    code, text = cli_output(tmp_path, "derham", "--dim", "1", "--deg", "1", "--levels", "2")
    assert "dims" in joblib._check_report(1, 2, 2)(code, text)


def test_basis_check_rejects_wrong_dimension(tmp_path):
    code, text = cli_output(tmp_path, "sector-basis", "--n", "2", "--dim", "1", "--deg", "2")
    check = joblib._check_basis(2, 1, 2)
    assert check(code, text) is None
    assert "expected 6" in check(code, tamper(text, lambda r: r.update(dimension=7)))
    assert "expected 6" in check(code, tamper(text, lambda r: r["basis"].pop()))


def test_expected_form_rejects_changed_term(tmp_path):
    rng = random.Random(3)
    terms = joblib.random_form(rng, 3, 2)
    form = tmp_path / "form.json"
    form.write_text(oracle.canonical(oracle.form_dict(terms, 2, 3)))
    code, text = cli_output(tmp_path, "derive", "--form", str(form))
    check = joblib._expect_text(oracle.canonical(oracle.form_dict(
        oracle.exterior_derivative(terms, 2, 3), 2, 4)))
    assert check(code, text) is None

    def bump(r):
        term = r["body"]["components"][0]["terms"][0]
        term["num"] = str(int(term["num"]) + 1)
    assert check(code, tamper(text, bump)) is not None


def test_word_check_rejects_wrong_word(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"dom": 4, "cod": 3, "table": [3, 1, 3, 2]}))
    check = joblib._check_word(4, 3, [3, 1, 3, 2], surj=True)
    code, text = cli_output(tmp_path, "factor", "--in", str(path), "--gens", "surj")
    assert check(code, text) is None

    def flip_first(r):
        g = r["gens"][0]
        g["i"] = 1 if g["i"] != 1 else 2
    assert check(code, tamper(text, flip_first)) is not None
    delta = {"kind": "delta", "n": 3, "i": 1}
    assert "coface" in check(code, tamper(text, lambda r: r["gens"].append(delta)))
    code, text = cli_output(tmp_path, "factor", "--in", str(path), "--gens", "full")
    assert joblib._check_word(4, 3, [3, 1, 3, 1], surj=False)(code, text) is not None


def test_self_times_exact_on_nested_trace():
    spans = [  # name, layer, start, end, parent, job, leaf
        ["cli.main", "cli", 0, 100, -1, 0, 0],
        ["cohomology.complex_report", "cohomology", 10, 80, 0, 0, 0],
        ["linalg.rank", "linalg", 20, 30, 1, 0, 0],
        ["linalg.rref", "linalg", 21, 29, 2, 0, 0],
        ["sector.exterior_derivative", "sector", 40, 70, 1, 0, 12],
        ["poly.compose", "poly", 45, 55, 4, 0, 7],
        ["jsonio.dumps", "jsonio", 85, 95, 0, 0, 0],
    ]
    got = tracing.layer_self_times(spans)
    assert got == {"cli": 20, "jsonio": 10, "fincard": 0, "poly": 10 + 12,
                   "tangent": 0, "sector": 30 - 10 - 12, "linalg": 10,
                   "cohomology": 70 - 10 - 30}
    assert sum(got.values()) == 100


def test_tail_rung():
    assert [run.tail_rung(n) for n in (20, 42, 147, 1062)] == [50, 75, 90, 99]
    with pytest.raises(ValueError):
        run.tail_rung(19)


def traced_counts(tmp_path, *argv):
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    try:
        tracer.span("cli", "main", cli.main)(list(argv) + ["--out", str(tmp_path / "o.json")])
    finally:
        tracing.restore(patches)
    return tracing.layer_metrics(tracer)


def test_trace_counts_follow_the_layers(tmp_path):
    before = dict(vars(tracing.modules()["sector"]))
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"dom": 3, "cod": 2, "table": [2, 1, 2]}))
    factor = traced_counts(tmp_path, "factor", "--in", str(path))
    assert factor["fincard.factor_calls"] == 1 and factor["cli.jobs"] == 1
    assert factor["tangent.whisker_builds"] == 0 and factor["linalg.rref_calls"] == 0
    assert factor["jsonio.bytes_in"] == path.stat().st_size
    derham = traced_counts(tmp_path, "derham", "--dim", "1", "--deg", "1", "--levels", "2")
    assert derham["cohomology.candidates"] > 0 and derham["linalg.rref_calls"] > 0
    assert derham["cohomology.basis_dim"] > 0 and derham["poly.subs_calls"] > 0
    assert dict(vars(tracing.modules()["sector"])) == before


def sample_forms():
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 2)
        yield rng, n, m, joblib.random_form(rng, n, m, degree=2)


def library_form(terms, m, n):
    return sectorform_from_dict(oracle.form_dict(terms, m, n))


def test_reference_matches_library():
    for rng, n, m, terms in sample_forms():
        form = library_form(terms, m, n)
        assert is_sector_form(form)
        assert sectorform_to_dict(exterior_derivative(form)) == oracle.form_dict(
            oracle.exterior_derivative(terms, m, n), m, n + 1)
        i = rng.randint(1, n + 1)
        assert sectorform_to_dict(coface(form, i)) == oracle.form_dict(
            oracle.coface(terms, m, n, i), m, n + 1)
        cod = rng.randint(1, n + 1)
        table = joblib.random_table(rng, n, cod)
        got = apply_cardinal_map(form, FinMap(n, cod, tuple(table)))
        assert sectorform_to_dict(got) == oracle.form_dict(oracle.act(terms, m, n, table, cod), m, cod)


def test_partition_criterion_rejects_non_sector_forms():
    size = 1 << 2
    v1 = Poly.var(size, 1)
    square = SectorForm(2, 1, 1, PolyMap(size, 1, (v1 * v1,)))  # v1^2: not linear
    assert not is_sector_form(square)
    terms = dict(square.body.components[0].terms)
    assert not oracle.is_partition_form(terms, 1, 2)
    assert not oracle.is_partition_form({(1, 0, 0, 0): Fraction(1)}, 1, 2)


def test_dimension_closed_form():
    # values the seed's sector_basis reproduces
    assert [oracle.sector_dimension(n, 1, 0) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    assert oracle.sector_dimension(2, 2, 3) == 60
    assert oracle.sector_dimension(3, 2, 0) == 22


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(joblib.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = list(tracing.layer_metrics(tracing.Tracer())) + ["trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layer_names}
