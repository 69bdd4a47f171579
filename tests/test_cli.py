import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import finmap_payload, random_sector_form, reference_dumps
from sectorforms import cli, cohomology
from sectorforms.cli import build_parser, main
from sectorforms.cohomology import sector_basis
from sectorforms.fincard import FinMap, Generator, GenWord, eval_word
from sectorforms.jsonio import dumps, sectorform_to_dict
from sectorforms.poly import Poly, PolyMap
from sectorforms.sector import SectorForm, exterior_derivative, line_one_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps(payload))
    return str(path)


class TestVerifyRelations:
    def test_clean_sweep(self, capsys):
        code, payload, err = run(capsys, "verify-relations", "--max-n", "8")
        assert code == 0
        assert payload["total_failures"] == 0
        assert len(payload["families"]) == 10
        assert "0 failures" in err

    def test_checked_per_family(self, capsys):
        _, payload, _ = run(capsys, "verify-relations", "--max-n", "8")
        assert {f["family"]: f["checked"] for f in payload["families"]} == {
            "pure-codegeneracy": 120,
            "pure-coface": 165,
            "coface-codegeneracy": 240,
            "moore-involution": 28,
            "moore-braid": 21,
            "moore-commute": 35,
            "codegeneracy-symmetry": 175,
            "coface-symmetry": 204,
            "fundamental-coface-codegeneracy": 44,
            "fundamental-coface-symmetry": 37,
        }

    def test_cap_guard(self, capsys):
        code, payload, _ = run(capsys, "verify-relations", "--max-n", "50")
        assert code == 3
        assert payload["error"] == "resource-guard"

    def test_cap_override(self, capsys):
        code, _, _ = run(capsys, "verify-relations", "--max-n", "13", "--cap-n", "13")
        assert code == 0

    # sha256 of stdout at each benchmark size, as the map-per-step sweep wrote it
    @pytest.mark.parametrize("max_n, checked, digest", [
        (8, 1069, "9d04035842281057bf9603d8d96125331d49f6c280a6df4ac018882a66047748"),
        (9, 1468, "8934c4dd99d3639bc07191675ef5d0b9be52b3b5bf194909a86ce3fe07f80a7d"),
        (10, 1956, "5771689357035db8169fe242e1a6b21ef5fc5a9da88e1f28166312465406701d"),
        (11, 2542, "23ffc20d121801a1bd2f236af3962ce624650c1a2c8ae4de11bef8bbe44c04fe"),
        (12, 3235, "ca421623a534024d6a2fd19d6a77f8514ea7d065d8a0a1dfcd635b7d361504b7"),
    ])
    def test_report_bytes_at_benchmark_sizes(self, capsys, max_n, checked, digest):
        code = main(["verify-relations", "--max-n", str(max_n)])
        captured = capsys.readouterr()
        assert code == 0
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
        assert captured.err == f"10 families, {checked} instances, 0 failures\n"


class TestVerifyAxioms:
    def test_passes(self, capsys):
        code, payload, _ = run(capsys, "verify-axioms", "--dim", "1", "--depth", "2")
        assert code == 0
        assert payload["failures"] == []

    # sha256 of stdout at each benchmark size, as the polynomial route wrote it
    @pytest.mark.parametrize("dim, depth, checked, digest", [
        (1, 3, 55, "ed839c26fa721df078c6e59ff4c6dab4e8602bc1a1b0670ad162a5e17e1a4a26"),
        (1, 4, 73, "06e0557e5d3578b53de7f4757a2a44a951927f5533a8979be011d45165d3a2c7"),
        (1, 5, 91, "a71f1447383098c89df19b1189a48cad08eff24b1e62a769503abd6bf8347434"),
        (2, 3, 55, "e2aa90168b4d9ca5ee8c7ecc5b0825f28df69d48064a4f21bbf2f5c2c7eb1f0b"),
        (2, 4, 73, "224de633a73dbe8260452e76d71667abf989a459171303a930af6935ee9124fb"),
        (2, 5, 91, "cc29837cd19d290501bd5599cfefcb7caf95a034f43ed8a0711f6bf546ae0ab9"),
        (3, 3, 80, "f2bcee632c1d91dfead47e9f8135e7941cf0c91ce9d1302d6cfec75ed87671c0"),
        (3, 4, 98, "1b5fc5368d088333dd138914669114804d2f59e2195bbf5a617e3159117bab43"),
        (3, 5, 116, "1709559016f68361e58642f61995255955feff97cdcc7bc75be23062bdd0c293"),
    ])
    def test_report_bytes_at_benchmark_sizes(self, capsys, dim, depth, checked, digest):
        code = main(["verify-axioms", "--dim", str(dim), "--depth", str(depth)])
        captured = capsys.readouterr()
        assert code == 0
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
        assert json.loads(captured.out)["checked"] == checked
        assert captured.err == f"{checked} axiom instances at dim {dim}, 0 failures\n"

    @pytest.mark.parametrize("depth", ("0", "-2"))
    def test_nonpositive_depth_rejected(self, capsys, depth):
        code, payload, _ = run(capsys, "verify-axioms", "--dim", "1", "--depth", depth)
        assert code == 2
        assert "depth" in payload["detail"]


class TestFactor:
    def test_surjection(self, tmp_path, capsys):
        path = write_json(tmp_path, "map.json", finmap_payload(FinMap(3, 2, (2, 1, 1))))
        code, payload, _ = run(capsys, "factor", "--in", path, "--gens", "surj")
        assert code == 0
        assert payload["dom"] == 3 and payload["cod"] == 2
        assert all(g["kind"] in ("epsilon", "sigma") for g in payload["gens"])

    def test_full_factorization(self, tmp_path, capsys):
        path = write_json(tmp_path, "map.json", finmap_payload(FinMap(1, 2, (1,))))
        code, payload, _ = run(capsys, "factor", "--in", path)
        assert code == 0
        assert [g["kind"] for g in payload["gens"]] == ["delta", "sigma"]

    def test_non_surjective_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "map.json", finmap_payload(FinMap(1, 2, (1,))))
        code, payload, _ = run(capsys, "factor", "--in", path, "--gens", "surj")
        assert code == 2
        assert payload["error"] == "invalid-input"

    @pytest.mark.parametrize("table,cod,onto", [
        ((), 0, True), ((2, 1, 2), 2, True), ((3, 3, 1, 2), 3, True), ((1, 1, 3), 3, False),
        ((), 1, False), ((2, 2), 2, False), ((1, 2), 3, False),
    ])
    def test_surjectivity_is_the_image_size(self, tmp_path, capsys, table, cod, onto):
        path = write_json(tmp_path, "map.json", finmap_payload(FinMap(len(table), cod, table)))
        code, payload, err = run(capsys, "factor", "--in", path, "--gens", "surj")
        if onto:
            assert code == 0 and payload["cod"] == cod
        else:
            assert code == 2
            assert payload == {"error": "invalid-input",
                               "detail": "map is not surjective; use --gens full"}
            assert err == "error: map is not surjective; use --gens full\n"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, payload, _ = run(capsys, "factor", "--in", str(path))
        assert code == 2
        assert payload["error"] == "bad-json"

    def test_bad_schema(self, tmp_path, capsys):
        path = write_json(tmp_path, "map.json", {"dom": 1})
        code, payload, _ = run(capsys, "factor", "--in", str(path))
        assert code == 2
        assert payload["error"] == "bad-format"

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path, "id.json", finmap_payload(FinMap(1, 1, (1,))))
        target = tmp_path / "missing" / "x.json"
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        code, payload, err = run(capsys, "factor", "--in", path, "--out", str(target))
        assert code == 2
        assert payload["error"] == "bad-output" and str(target) in payload["detail"]
        assert err.startswith("error: ") and err.count("\n") == 1
        assert opened.count(str(target)) == 1 and not target.exists()

    # a 2.9 KB file whose full factorization has 360,600 generators
    WIDE = {"dom": 600, "cod": 1200, "table": list(range(1, 601))}

    @pytest.mark.parametrize("cap", [None, "600", "1199"])
    def test_cap_guard(self, tmp_path, capsys, monkeypatch, cap):
        def never(f):
            raise AssertionError("factored past the guard")

        monkeypatch.setattr(cli, "factor_map", never)
        path = write_json(tmp_path, "wide.json", self.WIDE)
        code, payload, _ = run(capsys, "factor", "--in", path,
                               *(("--cap-n", cap) if cap else ()))
        assert code == 3
        assert payload["error"] == "resource-guard"
        assert payload["detail"].startswith("dom=600" if cap is None else "cod=1200")

    def test_cap_override(self, tmp_path, capsys):
        path = write_json(tmp_path, "wide.json", self.WIDE)
        out = tmp_path / "word.json"
        code, _, err = run(capsys, "factor", "--in", path, "--cap-n", "1200", "--out", str(out))
        assert code == 0
        assert err == "factored 600->1200 map into 360600 generators\n"
        assert out.read_text().startswith('{\n  "dom": 600,\n  "cod": 1200,\n  "gens": [')

    def test_at_default_cap(self, tmp_path, capsys):
        table = list(range(64, 0, -1))
        path = write_json(tmp_path, "rev.json", {"dom": 64, "cod": 64, "table": table})
        code, payload, _ = run(capsys, "factor", "--in", path)
        assert code == 0
        assert (payload["dom"], payload["cod"]) == (64, 64)
        gens = tuple(Generator(g["kind"], g["n"], g["i"]) for g in payload["gens"])
        assert eval_word(GenWord(64, 64, gens)) == FinMap(64, 64, tuple(table))


@pytest.mark.parametrize("command", ("factor", "derive", "apply"))
def test_deeply_nested_json_is_bad_json(tmp_path, capsys, command):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 1500 + "]" * 1500)
    form = write_json(tmp_path, "form.json", sectorform_to_dict(line_one_form(Poly.var(1, 0))))
    argv = {"factor": ["factor", "--in", str(nested)],
            "derive": ["derive", "--form", str(nested)],
            "apply": ["apply", "--form", form, "--map", str(nested)]}[command]
    code, payload, _ = run(capsys, *argv)
    assert code == 2
    assert payload["error"] == "bad-json"


@pytest.mark.parametrize("command", (("factor", "--in"), ("derive", "--form")),
                         ids=["factor", "derive"])
def test_non_utf8_input_is_bad_json(tmp_path, capsys, command):
    # a file that opens with the UTF-16 byte-order mark \xff\xfe is not UTF-8
    path = tmp_path / "utf16.json"
    path.write_bytes("\ufeff{}".encode("utf-16-le"))
    code, payload, err = run(capsys, *command, str(path))
    assert code == 2
    assert payload["error"] == "bad-json"
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ("factor", "derive", "apply"))
def test_integer_past_the_digit_limit_is_bad_json(tmp_path, capsys, command):
    # 5,000 digits: more than Python turns into an int from text by default
    huge = "9" * 5000
    form = write_json(tmp_path, "form.json", line_one_form(Poly.var(1, 0)))
    path = tmp_path / "huge.json"
    if command == "derive":
        path.write_text('{"n": 1, "m": 1, "k": 1, "body": {"dom": 2, "cod": 1, "components": '
                        '[{"vars": 2, "terms": [{"exp": [%s, 1], "num": "1", "den": "1"}]}]}}'
                        % huge)
        argv = ("derive", "--form", str(path), "--position", "1")
    else:
        path.write_text('{"dom": 1, "cod": %s, "table": [1]}' % huge)
        argv = (("factor", "--in", str(path)) if command == "factor"
                else ("apply", "--form", form, "--map", str(path)))
    code, payload, err = run(capsys, *argv)
    assert code == 2 and payload["error"] == "bad-json"
    assert str(path) in payload["detail"] and err.startswith("error: ")


class TestApplyAndDerive:
    def test_apply_identity(self, tmp_path, capsys):
        rng = random.Random(1)
        w = random_sector_form(rng, 1, 1, 2)
        form = write_json(tmp_path, "form.json", sectorform_to_dict(w))
        fmap = write_json(tmp_path, "map.json", finmap_payload(FinMap(1, 1, (1,))))
        code, payload, _ = run(capsys, "apply", "--form", form, "--map", fmap)
        assert code == 0
        assert payload == sectorform_to_dict(w)

    def test_apply_degree_mismatch(self, tmp_path, capsys):
        w = line_one_form(Poly.var(1, 0))
        form = write_json(tmp_path, "form.json", sectorform_to_dict(w))
        fmap = write_json(tmp_path, "map.json", finmap_payload(FinMap(2, 1, (1, 1))))
        code, payload, _ = run(capsys, "apply", "--form", form, "--map", fmap)
        assert code == 2
        assert payload["error"] == "dimension-mismatch"

    def test_derive_twice_yields_zero(self, tmp_path, capsys):
        w = line_one_form(Poly(1, {(3,): 1, (1,): -2}))
        form = write_json(tmp_path, "form.json", sectorform_to_dict(w))
        code, first, _ = run(capsys, "derive", "--form", form)
        assert code == 0 and first["n"] == 2
        second_in = write_json(tmp_path, "d1.json", first)
        code, second, err = run(capsys, "derive", "--form", second_in)
        assert code == 0 and second["n"] == 3
        assert all(comp["terms"] == [] for comp in second["body"]["components"])
        assert "zero form" in err

    def test_derive_position(self, tmp_path, capsys):
        rng = random.Random(2)
        w = random_sector_form(rng, 1, 1, 1)
        form = write_json(tmp_path, "form.json", sectorform_to_dict(w))
        code, payload, _ = run(capsys, "derive", "--form", form, "--position", "2")
        assert code == 0 and payload["n"] == 2
        code, payload, _ = run(capsys, "derive", "--form", form, "--position", "5")
        assert code == 2 and payload["error"] == "dimension-mismatch"

    @pytest.mark.parametrize("exp", ([0, 1.5], [2.0, 1], [True, 1]),
                             ids=["float", "integral-float", "bool"])
    def test_non_integer_exponent_rejected(self, tmp_path, capsys, exp):
        payload = sectorform_to_dict(line_one_form(Poly.var(1, 0)))
        payload["body"]["components"][0]["terms"][0]["exp"] = exp
        form = write_json(tmp_path, "form.json", payload)
        code, out, _ = run(capsys, "derive", "--form", form)
        assert code == 2
        assert out["error"] == "bad-format"

    @pytest.mark.parametrize("exp", ([-1, 1], [1], [0, 1, 0]),
                             ids=["negative", "short", "long"])
    def test_bad_exponent_rejected(self, tmp_path, capsys, exp):
        payload = sectorform_to_dict(line_one_form(Poly.var(1, 0)))
        payload["body"]["components"][0]["terms"][0]["exp"] = exp
        form = write_json(tmp_path, "form.json", payload)
        code, out, _ = run(capsys, "derive", "--form", form)
        assert code == 2
        assert out["error"] == "bad-format"

    def test_huge_degree_rejected(self, tmp_path, capsys):
        # m << n for this n would be a 125 GB integer; it must never be built
        payload = sectorform_to_dict(line_one_form(Poly.var(1, 0)))
        payload["n"] = 10 ** 12
        form = write_json(tmp_path, "form.json", payload)
        code, out, _ = run(capsys, "derive", "--form", form)
        assert code == 2
        assert out["error"] == "bad-format"

    @pytest.mark.parametrize("n,m,fmap", [
        (40, 1, FinMap(40, 40, (2, 1) + tuple(range(3, 41)))),
        (1, 10 ** 12, FinMap(1, 2, (1,))),
    ], ids=["degree-40", "dim-10^12"])
    def test_zero_form_is_cheap(self, tmp_path, capsys, n, m, fmap):
        # m << n flat indices would be terabytes of tables; a form with no
        # terms must build none of them
        size = m << n
        body = {"dom": size, "cod": 1, "components": [{"vars": size, "terms": []}]}
        form = write_json(tmp_path, "form.json", {"n": n, "m": m, "k": 1, "body": body})
        path = write_json(tmp_path, "map.json", finmap_payload(fmap))
        for argv, degree in ((("derive", "--form", form), n + 1),
                             (("derive", "--form", form, "--position", "1"), n + 1),
                             (("apply", "--form", form, "--map", path), fmap.cod)):
            start = time.perf_counter()
            code, payload, _ = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0, argv
            assert code == 0, argv
            assert payload == sectorform_to_dict(SectorForm.zero(degree, m)), argv

    def test_invalid_form_rejected(self, tmp_path, capsys):
        v = Poly.var(2, 1)
        bad = SectorForm(1, 1, 1, PolyMap(2, 1, (v * v,)))
        form = write_json(tmp_path, "form.json", sectorform_to_dict(bad))
        code, payload, _ = run(capsys, "derive", "--form", form)
        assert code == 2
        assert payload["error"] == "invalid-form"


def top_level_form(n, m=1):
    """The one-term sector n-form on R^m whose single block holds every level."""
    size = m << n
    return SectorForm(n, m, 1, PolyMap(size, 1, (Poly.var(size, size - m),)))


class TestOutputGuard:
    """`apply` and `derive` bound the output degree and the output's
    exponent entries before any operator runs."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an operator ran past the guard")
        for name in ("apply_cardinal_map", "coface", "exterior_derivative"):
            monkeypatch.setattr(cli, name, refuse)

    def test_small_map_cannot_buy_a_huge_form(self, tmp_path, capsys, no_work):
        # 50 bytes of map asked the parent for 2**16 exponent entries per term
        form = write_json(tmp_path, "form.json", line_one_form(Poly.var(1, 0)))
        fmap = write_json(tmp_path, "map.json", {"dom": 1, "cod": 16, "table": [1]})
        code, payload, err = run(capsys, "apply", "--form", form, "--map", fmap)
        assert code == 3 and payload["error"] == "resource-guard"
        assert "output degree=16" in payload["detail"] and err.startswith("error: ")

    @pytest.mark.parametrize("extra", [(), ("--position", "3")], ids=["d", "position"])
    def test_derive_past_the_degree_cap(self, tmp_path, capsys, no_work, extra):
        form = write_json(tmp_path, "form.json", top_level_form(7))
        code, payload, _ = run(capsys, "derive", "--form", form, *extra)
        assert code == 3 and payload["error"] == "resource-guard"

    @pytest.mark.parametrize("m,passes", [(8192, True), (8193, False)])
    def test_entries_cap(self, tmp_path, capsys, no_work, m, passes):
        # a one-term 0-form on R^m sent to degree 7 asks for m << 7 entries
        form = write_json(tmp_path, "form.json",
                          SectorForm(0, m, 1, PolyMap(m, 1, (Poly.var(m, 0),))))
        fmap = write_json(tmp_path, "map.json", {"dom": 0, "cod": 7, "table": []})
        argv = ("apply", "--form", form, "--map", fmap)
        if passes:  # exactly 2**20 entries: the guard lets the operator run
            with pytest.raises(AssertionError, match="past the guard"):
                run(capsys, *argv)
        else:
            code, payload, _ = run(capsys, *argv)
            assert code == 3 and "terms x exponent entries=1048704" in payload["detail"]

    def test_raised_caps_answer(self, tmp_path, capsys):
        form = write_json(tmp_path, "form.json", top_level_form(7))
        code, payload, _ = run(capsys, "derive", "--form", form, "--cap-n", "8")
        assert code == 0 and payload["n"] == 8
        form = write_json(tmp_path, "one.json", line_one_form(Poly.var(1, 0)))
        fmap = write_json(tmp_path, "map.json", {"dom": 1, "cod": 8, "table": [1]})
        code, payload, _ = run(capsys, "apply", "--form", form, "--map", fmap, "--cap-n", "8")
        assert code == 0 and payload["n"] == 8

    def test_zero_form_at_a_large_cod(self, tmp_path, capsys):
        # m << cod has 2048 bits at cod 2047: answered at once; one more is refused
        form = write_json(tmp_path, "form.json", SectorForm.zero(0, 1))
        for cod, code_expected in ((2047, 0), (2048, 3), (10 ** 6, 3)):
            fmap = write_json(tmp_path, "map.json", {"dom": 0, "cod": cod, "table": []})
            start = time.perf_counter()
            code, payload, _ = run(capsys, "apply", "--form", form, "--map", fmap)
            assert time.perf_counter() - start < 1.0 and code == code_expected, cod
        assert payload["error"] == "resource-guard"
        assert "bits of m << output degree=1000001" in payload["detail"]

    def test_zero_form_output_stays_writable(self, tmp_path, capsys, no_work):
        # m has 4300 digits, the most the reader takes; 2m has 4301, more
        # than Python writes, so the guard must refuse before the writer runs
        m = 9 * 10 ** 4299
        body = {"dom": m, "cod": 1, "components": [{"vars": m, "terms": []}]}
        form = write_json(tmp_path, "form.json", {"n": 0, "m": m, "k": 1, "body": body})
        code, payload, _ = run(capsys, "derive", "--form", form)
        assert code == 3 and payload["error"] == "resource-guard"

    @staticmethod
    def big_coefficient_form(tmp_path, digits, exp=(5, 1)):
        """The 1-form c * x^e0 * v on the line, c a numerator of `digits` 7s."""
        return write_json(tmp_path, "form.json", {
            "n": 1, "m": 1, "k": 1, "body": {"dom": 2, "cod": 1, "components": [
                {"vars": 2, "terms": [{"exp": list(exp), "num": "7" * digits, "den": "1"}]}]}})

    @pytest.mark.parametrize("argv", [("derive",), ("derive", "--position", "1"),
                                      ("apply", "--map", "MAP")],
                             ids=["d", "position", "apply"])
    def test_coefficient_past_the_digit_limit(self, tmp_path, capsys, no_work, argv):
        # 4,300 digits, the most the reader takes; times 5 the output needs 4,301
        form = self.big_coefficient_form(tmp_path, 4300)
        fmap = write_json(tmp_path, "map.json", {"dom": 1, "cod": 2, "table": [2]})
        argv = [fmap if a == "MAP" else a for a in argv]
        code, payload, _ = run(capsys, *argv[:1], "--form", form, *argv[1:])
        assert code == 3 and payload["error"] == "resource-guard"
        assert "int-to-str limit of 4300" in payload["detail"]

    def test_summed_coefficient_past_the_digit_limit(self, tmp_path, capsys, no_work):
        # two terms at one exponent, 4,300 digits each, read as one of 4,301:
        # even the identity map would write it
        term = {"exp": [5, 1], "num": "7" * 4300, "den": "1"}
        form = write_json(tmp_path, "form.json", {
            "n": 1, "m": 1, "k": 1, "body": {"dom": 2, "cod": 1, "components": [
                {"vars": 2, "terms": [term, term]}]}})
        fmap = write_json(tmp_path, "map.json", {"dom": 1, "cod": 1, "table": [1]})
        code, payload, _ = run(capsys, "apply", "--form", form, "--map", fmap)
        assert code == 3 and "int-to-str limit of 4300" in payload["detail"]

    def test_coefficient_digits_within_the_limit(self, tmp_path, capsys):
        # 4,290 digits times x * v: the bound is 4,292 digits, and d answers
        form = self.big_coefficient_form(tmp_path, 4290, exp=(1, 1))
        code, payload, _ = run(capsys, "derive", "--form", form, "--position", "1")
        assert code == 0
        assert {t["num"] for t in payload["body"]["components"][0]["terms"]} == {"7" * 4290}

    def test_no_digit_limit_no_coefficient_guard(self, tmp_path, capsys):
        form = self.big_coefficient_form(tmp_path, 4300)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, payload, _ = run(capsys, "derive", "--form", form, "--position", "1")
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        # d(c x^5 v) in position 1 has the coefficients c and 5c = 388...885
        nums = {t["num"] for t in payload["body"]["components"][0]["terms"]}
        assert nums == {"7" * 4300, "3" + "8" * 4298 + "85"}

    @pytest.mark.parametrize("n,m", [(6, 1), (5, 2)])
    def test_defaults_answer_the_largest_calculus_shapes(self, tmp_path, capsys, n, m):
        w = random_sector_form(random.Random(n), n, m, 3, nterms=6)
        form = write_json(tmp_path, "form.json", w)
        identity = write_json(tmp_path, "map.json",
                              finmap_payload(FinMap(n, n, tuple(range(1, n + 1)))))
        for argv in (("derive", "--form", form), ("derive", "--form", form, "--position", "1"),
                     ("apply", "--form", form, "--map", identity)):
            code, payload, _ = run(capsys, *argv)
            assert code == 0 and "error" not in payload, argv


class TestDerham:
    def test_line_cohomology(self, capsys):
        code, payload, err = run(capsys, "derham", "--dim", "1", "--deg", "4", "--levels", "2")
        assert code == 0
        assert payload["H"] == [1, 0, 0]
        assert payload["singular_H"] == [1, 0, 0]
        assert payload["kernel_dims"][2] == 0
        assert payload["singular_dims"][2] == 0
        assert payload["complex_verified"] is True

    @pytest.mark.parametrize("argv", [
        ("derham", "--dim", "1", "--deg", "2", "--levels", "1"),
        ("sector-basis", "--n", "3", "--dim", "2", "--deg", "1"),
        ("derive", "--form", "FORM"),
        ("derive", "--form", "FORM", "--position", "2"),
    ], ids=["derham", "sector-basis", "derive", "derive-position"])
    def test_deterministic_bytes(self, tmp_path, capsys, argv):
        w = random_sector_form(random.Random(6), 3, 2, 2)
        form = write_json(tmp_path, "form.json", sectorform_to_dict(w))
        argv = [form if a == "FORM" else a for a in argv]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert dumps(first) == dumps(second)

    def test_guard(self, capsys):
        code, payload, _ = run(capsys, "derham", "--dim", "3", "--deg", "2", "--levels", "3",
                               "--max-candidates", "50")
        assert code == 3
        assert payload["error"] == "resource-guard"


class TestSectorBasisCommand:
    def test_dimension_line(self, capsys):
        code, payload, _ = run(capsys, "sector-basis", "--n", "2", "--dim", "1", "--deg", "3")
        assert code == 0
        assert payload["dimension"] == 8
        assert len(payload["basis"]) == 8

    def test_level_four_within_guard(self, capsys):
        # Bell(4) = 15 partition monomials
        code, payload, _ = run(capsys, "sector-basis", "--n", "4", "--dim", "1", "--deg", "0")
        assert code == 0
        assert payload["dimension"] == 15
        assert len(payload["basis"]) == 15

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "basis.json"
        code = main(["sector-basis", "--n", "1", "--dim", "1", "--deg", "0",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["dimension"] == 1

    @pytest.mark.parametrize("n", range(5))
    def test_bytes_equal_json_of_the_basis(self, capsys, n):
        # every m <= 3 and d <= 3 lies under the default guard, up to 6180 forms at (4, 3, 3)
        for m in range(1, 4):
            for d in range(4):
                assert main(["sector-basis", "--n", str(n), "--dim", str(m), "--deg", str(d)]) == 0
                basis = sector_basis(n, m, d)
                payload = {"n": n, "m": m, "d": d, "dimension": len(basis),
                           "basis": [sectorform_to_dict(w) for w in basis]}
                assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n", (m, d)

    @pytest.mark.parametrize("n,m", [(0, 2), (1, 1), (2, 1)])
    def test_exponents_past_the_digit_table(self, capsys, n, m):
        argv = ["sector-basis", "--n", str(n), "--dim", str(m), "--deg", "70", "--cap-deg", "70"]
        assert main(argv) == 0
        basis = sector_basis(n, m, 70)
        payload = {"n": n, "m": m, "d": 70, "dimension": len(basis),
                   "basis": [sectorform_to_dict(w) for w in basis]}
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_guard_before_any_shape(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("built past the guard")

        monkeypatch.setattr(cohomology, "_partition_tails", refuse)
        argv = ("sector-basis", "--n", "3", "--dim", "2", "--deg", "1", "--max-candidates")
        code, payload, _ = run(capsys, *argv, "65")  # C(3, 2) * T_3(2) = 66 forms
        assert code == 3 and payload["error"] == "resource-guard"
        with pytest.raises(AssertionError, match="past the guard"):
            main([*argv, "66"])

    def test_builds_no_form(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a form")

        for cls, attr in ((SectorForm, "_from_components"), (PolyMap, "_from_components"),
                          (Poly, "_from_terms"), (SectorForm, "__init__"),
                          (PolyMap, "__init__"), (Poly, "__init__")):
            monkeypatch.setattr(cls, attr, refuse)
        code, payload, _ = run(capsys, "sector-basis", "--n", "3", "--dim", "2", "--deg", "2")
        assert code == 0 and payload["dimension"] == len(payload["basis"]) == 132

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv,work", [
    (("verify-relations", "--max-n", "1"), "check_relations"),
    (("verify-relations", "--max-n", "3", "--cap-n", "-1"), "check_relations"),
    (("verify-axioms", "--dim", "0"), "verify_tangent_axioms"),
    (("verify-axioms", "--dim", "1", "--depth", "0"), "verify_tangent_axioms"),
    (("verify-axioms", "--dim", "1", "--cap-depth", "-1"), "verify_tangent_axioms"),
    (("derham", "--dim", "0", "--deg", "1", "--levels", "1"), "complex_report"),
    (("derham", "--dim", "1", "--deg", "-1", "--levels", "1"), "complex_report"),
    (("derham", "--dim", "1", "--deg", "1", "--levels", "-1"), "complex_report"),
    (("derham", "--dim", "1", "--deg", "1", "--levels", "1", "--cap-deg", "-2"), "complex_report"),
    (("sector-basis", "--n", "-1", "--dim", "1", "--deg", "0"), "partition_basis"),
    (("sector-basis", "--n", "1", "--dim", "1", "--deg", "0", "--max-candidates", "-5"),
     "partition_basis"),
    (("derive", "--form", "form.json", "--cap-n", "-1"), "exterior_derivative"),
    (("apply", "--form", "form.json", "--map", "map.json", "--cap-n", "-1"),
     "apply_cardinal_map"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_out_of_range_argument_is_bad_argument(capsys, monkeypatch, argv, work):
    def no_work(*args):
        raise AssertionError(f"{work} ran on out-of-range arguments")

    monkeypatch.setattr(cli, work, no_work)
    code, payload, err = run(capsys, *argv)
    assert code == 2
    assert payload["error"] == "bad-argument"
    assert err == f"error: {payload['detail']}\n"


@pytest.mark.parametrize("argv", [
    ("verify-relations", "--max-n", "2"),
    ("verify-axioms", "--dim", "1", "--depth", "1"),
    ("derham", "--dim", "1", "--deg", "0", "--levels", "0"),
    ("sector-basis", "--n", "0", "--dim", "1", "--deg", "0"),
], ids=["max-n-2", "depth-1", "levels-0", "n-0"])
def test_least_legal_argument_is_answered(capsys, argv):
    code, payload, _ = run(capsys, *argv)
    assert code == 0 and "error" not in payload


@pytest.mark.parametrize("argv", [
    ("factor", "--in", "MAP"),
    ("factor", "--in", "MAP", "--gens", "surj"),
    ("apply", "--form", "FORM", "--map", "MAP"),
    ("derive", "--form", "FORM"),
    ("derive", "--form", "FORM", "--position", "2"),
    ("derham", "--dim", "1", "--deg", "2", "--levels", "2"),
    ("sector-basis", "--n", "2", "--dim", "2", "--deg", "1"),
    ("verify-relations", "--max-n", "4"),
    ("verify-axioms", "--dim", "1", "--depth", "2"),
    ("derive", "--form", "FORM", "--position", "9"),
], ids=["factor", "factor-surj", "apply", "derive", "derive-position", "derham",
        "sector-basis", "verify-relations", "verify-axioms", "error"])
def test_written_bytes_are_json_indent_2(tmp_path, capsys, monkeypatch, argv):
    form = write_json(tmp_path, "form.json",
                      sectorform_to_dict(random_sector_form(random.Random(7), 2, 2, 2)))
    fmap = write_json(tmp_path, "map.json", finmap_payload(FinMap(2, 2, (2, 1))))
    argv = [{"FORM": form, "MAP": fmap}.get(a, a) for a in argv]
    written = []

    def recording_dumps(payload):
        written.append(payload)
        return dumps(payload)

    monkeypatch.setattr(cli.jsonio, "dumps", recording_dumps)
    main(argv)
    out = capsys.readouterr().out
    assert len(written) == 1
    assert out == reference_dumps(written[0])


# sha256 of the report of each `derham`-workload job of the benchmark:
# its 11 level-2 reports and 12 sector bases
BENCHMARK_REPORTS = [
    ("derham --dim 1 --deg 1 --levels 2", "e7e8b24d0d3499d075270291ed1f4c11a06c7914127345380fe130886bb294d8"),
    ("derham --dim 1 --deg 2 --levels 2", "12978dbe225c5b3d95ec04e464cc5810c75d5bec74207437e24f23c71384f404"),
    ("derham --dim 1 --deg 3 --levels 2", "56068c216755cc6dffad106166e44e5d86e10e15e5bfd9eae7194482d6465a0d"),
    ("derham --dim 1 --deg 4 --levels 2", "000d383a40437366401599d4dd7ef0c7dc5536bd9c8a2e4918447d7f2ba387a8"),
    ("derham --dim 1 --deg 5 --levels 2", "8e2134160d5327e8b9759679be8618ebc39a590df153df444add21cf0a216af7"),
    ("derham --dim 1 --deg 6 --levels 2", "dfc6e1e5b5f3b00c2efe89a38e28a63402d7e4672da92676b2d7800a20046af7"),
    ("derham --dim 1 --deg 7 --levels 2", "dcec0e1a7e22cdf31b4118934b35cad7d2fd43b7a74fc4f2a82f9dbc93e25828"),
    ("derham --dim 1 --deg 8 --levels 2", "f36e1655fa349acadfa70a13d5db57b8fb635d800e41695e4a15465691602a36"),
    ("derham --dim 2 --deg 0 --levels 2", "81afcfa99baa851365195397fc7863f7eac60507b401e6e0af51341134754801"),
    ("derham --dim 2 --deg 1 --levels 2", "d7dd226490998694f0e67ec049051090636ff065fa71007bb47f48fb4c2473d0"),
    ("derham --dim 3 --deg 0 --levels 2", "2c14376024ebad359000b7659ab495f2fd5463dd17dbf1877745cc9903c6180c"),
    ("sector-basis --n 3 --dim 1 --deg 0", "792fa241361682c46b8c38b7ff17220d0a9eed70f20ee9f60125fb88b10fe7b8"),
    ("sector-basis --n 3 --dim 1 --deg 1", "5a84799ad8da61a303ef8de64da103736bf4c82c8f4457b1b395a0a0e602ba0b"),
    ("sector-basis --n 3 --dim 1 --deg 2", "5cd3a8f26d48edb4e09c0b8cd53e96a67a8b75b3e4b8b53e48165b846bbf931d"),
    ("sector-basis --n 3 --dim 1 --deg 3", "cbb10e4df2ccc555d4afbd8d31aeb9af3e306a1b9eabe68ced71d1b814107689"),
    ("sector-basis --n 3 --dim 1 --deg 4", "53e93d62295fb668f21099b71be11d5b29e272805ced44791904b54ea56672ce"),
    ("sector-basis --n 2 --dim 2 --deg 3", "38b989f9a8e8e73bc28da44c55da0b7f5eeb513b95c01dd834ce48d791148a1c"),
    ("sector-basis --n 2 --dim 2 --deg 4", "0372275aa69176db80a429c0b298436cd779e7040d6c7b52412ae4526522d9e6"),
    ("sector-basis --n 2 --dim 2 --deg 5", "ba69bc1308014840f5994539d6e1c2a35856039c57929852bceee57377d834a0"),
    ("sector-basis --n 2 --dim 2 --deg 6", "991169f7bcb2f3e42ed691dbf627a4bfb7356fa0e03fc7b5fd1602034404465b"),
    ("sector-basis --n 2 --dim 3 --deg 2", "6312bc8c9fb8a4940235d00328522ef63d608df0c5fcc1d5c1b57a252b4fd1a1"),
    ("sector-basis --n 1 --dim 3 --deg 7", "996c443d1547cfaede85bbcc3a17c6ce0f262d87c679df664457988138d3310d"),
    ("sector-basis --n 1 --dim 3 --deg 8", "0669c6041050de7c91a58e43be32d7004937e4229a1233f6678e73f9ea1bce8f"),
]


@pytest.mark.parametrize("argv,digest", BENCHMARK_REPORTS, ids=[a for a, _ in BENCHMARK_REPORTS])
def test_benchmark_reports_are_pinned(capsys, argv, digest):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestReusedParser:
    """One parser serves every `main` call of a process; no call may see
    the options of the one before."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_position_does_not_stick(self, tmp_path, capsys):
        w = random_sector_form(random.Random(8), 2, 1, 2)
        form = write_json(tmp_path, "form.json", sectorform_to_dict(w))
        code, coface_two, _ = run(capsys, "derive", "--form", form, "--position", "2")
        assert code == 0
        code, full, _ = run(capsys, "derive", "--form", form)
        assert code == 0
        assert full == sectorform_to_dict(exterior_derivative(w)) != coface_two

    def test_out_does_not_stick(self, tmp_path, capsys):
        out = tmp_path / "first.json"
        argv = ["sector-basis", "--n", "1", "--dim", "1", "--deg", "0"]
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        out.unlink()
        code, payload, _ = run(capsys, *argv)
        assert code == 0 and payload["dimension"] == 1
        assert not out.exists()

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["derham", "--dim", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, payload, _ = run(capsys, "derham", "--dim", "1", "--deg", "1", "--levels", "1")
        assert code == 0 and payload["H"] == [1, 0]


TOP_USAGE = ("usage: sectorforms [-h]\n"
             "                   {verify-relations,verify-axioms,factor,apply,derive,derham,"
             "sector-basis}\n"
             "                   ...\n")
COMMANDS = "'verify-relations', 'verify-axioms', 'factor', 'apply', 'derive', 'derham', 'sector-basis'"


class TestUsage:
    """What argparse prints and exits with on help and usage errors, pinned
    at an 80-column terminal.  The help texts are pinned by sha256 of stdout."""

    @pytest.mark.parametrize("argv, status, err, digest", [
        ([], 2, TOP_USAGE + "sectorforms: error: the following arguments are required: command\n",
         None),
        (["-h"], 0, "", "08ec22fc5786e5f9960889df16958546ca758f3518087926733643545a985f44"),
        (["frobnicate"], 2, TOP_USAGE + "sectorforms: error: argument command: invalid choice: "
         f"'frobnicate' (choose from {COMMANDS})\n", None),
        (["--", "factor"], 2, TOP_USAGE + "sectorforms: error: argument command: invalid choice: "
         f"'--' (choose from {COMMANDS})\n", None),
        (["factor"], 2, "usage: sectorforms factor [-h] --in INFILE [--gens {surj,full}]\n"
         "                          [--cap-n CAP_N] [--out OUT]\n"
         "sectorforms factor: error: the following arguments are required: --in\n", None),
        (["factor", "--in", "x.json", "--bogus"], 2,
         TOP_USAGE + "sectorforms: error: unrecognized arguments: --bogus\n", None),
        (["derive", "-h"], 0, "", "34fcc4094ecf48c7ba76dcb198383e809913213dc7ecd7e315e31fccd3b8fa40"),
        (["factor", "--h"], 0, "", "03b19d210194e13b7356be50cc40520a00ada69406e39e95a43b840fdcd0cf9d"),
    ], ids=["none", "help", "unknown", "dashes", "missing-option", "unrecognized",
            "command-help", "abbreviated-help"])
    def test_pinned(self, capsys, monkeypatch, argv, status, err, digest):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == status
        assert captured.err == err
        if digest is None:
            assert captured.out == ""
        else:
            assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

    def test_known_command_skips_the_top_level_parse(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the top-level parser read a known command's arguments")

        monkeypatch.setattr(build_parser(), "parse_args", never)
        path = write_json(tmp_path, "map.json", finmap_payload(FinMap(3, 2, (2, 1, 1))))
        code, payload, _ = run(capsys, "factor", "--in", path, "--gens", "surj")
        assert code == 0 and payload["dom"] == 3
        with pytest.raises(SystemExit):  # unrecognized arguments still exit through the parser
            main(["factor", "--in", path, "--bogus"])
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --bogus\n")

    def test_none_reads_sys_argv(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path, "map.json", finmap_payload(FinMap(1, 2, (1,))))
        monkeypatch.setattr(sys, "argv", ["sectorforms", "factor", "--in", path])
        assert main() == 0
        payload = json.loads(capsys.readouterr().out)
        assert [g["kind"] for g in payload["gens"]] == ["delta", "sigma"]


class TestEntryPoint:
    """`python -m sectorforms.cli` in a fresh interpreter, where `main`
    reads its arguments from `sys.argv`."""

    @staticmethod
    def launch(*argv):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "sectorforms.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_factor_writes_the_in_process_bytes(self, tmp_path, capsys):
        path = write_json(tmp_path, "map.json", finmap_payload(FinMap(4, 3, (3, 1, 3, 2))))
        out = tmp_path / "out.json"
        proc = self.launch("factor", "--in", path, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        assert main(["factor", "--in", path]) == 0
        assert out.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("argv, status", [((), 2), (("-h",), 0)], ids=["none", "help"])
    def test_usage_exits(self, argv, status):
        proc = self.launch(*argv)
        assert proc.returncode == status
        assert (proc.stdout if status == 0 else proc.stderr).startswith("usage: sectorforms")


def test_internal_value_error_propagates(capsys, monkeypatch):
    def broken(dim, depth):
        raise ValueError("an internal fault")

    monkeypatch.setattr(cli, "verify_tangent_axioms", broken)
    with pytest.raises(ValueError, match="an internal fault"):
        main(["verify-axioms", "--dim", "1", "--depth", "1"])
    assert capsys.readouterr().out == ""
