"""Seeded job lists for the three workloads, with an output check per job.

A job is one `sectorforms` command line.  Its inputs are written as JSON
files before timing starts, and its report goes to an `--out` file that
the check reads after the job has returned.  The seed decides the inputs
and the order of the jobs; the mix of commands and shapes is fixed per
workload, so that runs with different seeds cost about the same.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

WORKLOADS = ("derham", "calculus", "verify")

# derham: (m, d, levels).  complex_report(2, 1, 3) (38 s) and
# sector_basis(3, 2, 1) (33 s) are too long for a run, and
# complex_report(3, 1, 2) (1.8 s) made a pass so long that a run held only
# three to five passes; they stay out.  Every level-3 report returns
# H[3] < 0 today and would fail its check in every pass, so the level-3
# sector bases (3, 1, d) stand in for their ansatz and nullspace work, and
# test_level3_report_passes_check keeps the defect in view.
# Job times lie closely enough around the median and the p75 job that
# these percentiles do not jump between two jobs far apart from run to run.
DERHAM_REPORTS = ([(1, d, 2) for d in range(1, 9)]
                  + [(2, 0, 2), (2, 1, 2), (3, 0, 2)])
SECTOR_BASES = ([(3, 1, d) for d in range(0, 5)]
                + [(2, 2, d) for d in range(3, 7)]
                + [(2, 3, 2), (1, 3, 7), (1, 3, 8)])  # (n, m, d)

# calculus: jobs per pass for each shape (n, m).  Shapes repeat, and the
# commands cycle through position, apply and derive within a shape.  A
# (6, 2) job costs 1-2.3 s, so one would swing a pass with its seed; n = 6
# runs on R^1 only.
CALCULUS_SHAPES = {(2, 1): 9, (2, 2): 9, (3, 1): 9, (3, 2): 9, (4, 1): 6,
                   (4, 2): 6, (5, 1): 6, (5, 2): 3, (6, 1): 3}
CALCULUS_KINDS = ("position", "apply", "derive")

# verify: the sweeps plus many small factor jobs.
RELATION_LEVELS = range(8, 13)
AXIOM_SIZES = [(dim, depth) for dim in (1, 2, 3) for depth in (3, 4, 5)]
FACTOR_JOBS = 340
FACTOR_MAX = 8

Check = Callable[[int, str], "str | None"]


@dataclass
class Job:
    """One CLI invocation: ``argv`` for `cli.main`, and a check that takes
    the exit code and the text of the `--out` file and returns a problem
    description or None."""

    label: str
    argv: list[str]
    out: str
    check: Check


class InputWriter:
    """Writes input files into a work directory and numbers the jobs."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def path(self, stem: str) -> str:
        return os.path.join(self.workdir, f"{self.count:04d}-{stem}.json")

    def write(self, stem: str, payload) -> str:
        path = self.path(stem)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(oracle.canonical(payload))
        return path

    def job(self, label: str, argv: list[str], check: Check) -> Job:
        out = self.path("out")
        self.count += 1
        return Job(label, argv + ["--out", out], out, check)


# -- derham ------------------------------------------------------------

def _check_report(m: int, d: int, levels: int) -> Check:
    def check(code, text):
        if code != 0:
            return f"exit code {code}"
        r = json.loads(text)
        problems = []
        if not r["complex_verified"]:
            problems.append("boundary does not square to zero")
        for prefix in ("", "singular_"):
            h, ker, im = r[prefix + "H"], r[prefix + "kernel_dims"], r[prefix + "image_ranks_raised"]
            if any(h[i] != ker[i] - (im[i - 1] if i else 0) for i in range(len(h))):
                problems.append(f"{prefix}H is not kernel minus image")
            problems += [f"{prefix}H[{i}] = {v} < 0" for i, v in enumerate(h) if v < 0]
        if r["H"][0] != 1:
            problems.append(f"H[0] = {r['H'][0]}, expected 1")
        expect = [oracle.sector_dimension(nu, m, d) for nu in range(levels + 1)]
        if r["dims"] != expect:
            problems.append(f"dims {r['dims']}, expected {expect}")
        return "; ".join(problems) or None
    return check


def _check_basis(n: int, m: int, d: int) -> Check:
    def check(code, text):
        if code != 0:
            return f"exit code {code}"
        r = json.loads(text)
        expect = oracle.sector_dimension(n, m, d)
        if r["dimension"] != expect or len(r["basis"]) != expect:
            return f"dimension {r['dimension']} with {len(r['basis'])} vectors, expected {expect}"
        for vec in r["basis"]:
            terms = {tuple(t["exp"]): 1 for t in vec["body"]["components"][0]["terms"]}
            if not terms or not oracle.is_partition_form(terms, m, n):
                return "a basis vector is not a sum of partition monomials"
        return None
    return check


def derham_jobs(rng: random.Random, b: InputWriter) -> list[Job]:
    jobs = []
    for m, d, levels in DERHAM_REPORTS:
        argv = ["derham", "--dim", str(m), "--deg", str(d), "--levels", str(levels)]
        jobs.append(b.job(" ".join(argv), argv, _check_report(m, d, levels)))
    for n, m, d in SECTOR_BASES:
        argv = ["sector-basis", "--n", str(n), "--dim", str(m), "--deg", str(d)]
        jobs.append(b.job(" ".join(argv), argv, _check_basis(n, m, d)))
    rng.shuffle(jobs)
    return jobs


# -- calculus ----------------------------------------------------------

def random_form(rng: random.Random, n: int, m: int, degree: int = 3,
                nterms: int = 3, base_terms: int = 2) -> dict:
    """``nterms`` partition monomials, each times a base polynomial with
    ``base_terms`` terms of degree <= ``degree``.  The sizes are fixed,
    short of terms that coincide, so that forms of one shape cost about
    the same whatever the seed."""
    terms = {}
    while not terms:
        for _ in range(nterms):
            blocks = []
            for e in range(1, n + 1):
                k = rng.randrange(len(blocks) + 1)
                if k == len(blocks):
                    blocks.append(0)
                blocks[k] |= 1 << (e - 1)
            tangent = [((rng.randrange(m), mask), 1) for mask in blocks]
            for _ in range(base_terms):
                base = [0] * m
                for _ in range(rng.randint(0, degree)):
                    base[rng.randrange(m)] += 1
                mono = tuple(sorted(tangent + [((j, 0), e) for j, e in enumerate(base) if e]))
                coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
                oracle.add_term(terms, oracle.exponent(mono, m, n), coeff)
    return terms


def random_table(rng: random.Random, dom: int, cod: int) -> list[int]:
    return [rng.randint(1, cod) for _ in range(dom)]


def _expect_text(text: str) -> Check:
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        return None if out == text else "output differs from the expected form"
    return check


def _admit(terms, m, n, result, result_n, what):
    """Identity checks an expected output must pass before it is used."""
    if oracle.exterior_derivative(oracle.exterior_derivative(terms, m, n), m, n + 1):
        raise AssertionError(f"{what}: d(d form) != 0 in the reference")
    if not oracle.is_partition_form(result, m, result_n):
        raise AssertionError(f"{what}: the reference result is not a sector form")


def calculus_jobs(rng: random.Random, b: InputWriter) -> list[Job]:
    jobs = []
    for (n, m), count in CALCULUS_SHAPES.items():
        for k in range(count):
            kind = CALCULUS_KINDS[k % len(CALCULUS_KINDS)]
            terms = random_form(rng, n, m)
            form = b.write("form", oracle.form_dict(terms, m, n))
            argv = ["derive", "--form", form]
            if kind == "derive":
                result, result_n = oracle.exterior_derivative(terms, m, n), n + 1
            elif kind == "position":
                # the position sets how many swaps the flip cycle composes,
                # so it is fixed per job rather than drawn from the seed
                i = n + 1 - k // len(CALCULUS_KINDS) % (n + 1)
                argv += ["--position", str(i)]
                result, result_n = oracle.coface(terms, m, n, i), n + 1
            else:
                f = random_table(rng, n, n)
                argv = ["apply", "--form", form,
                        "--map", b.write("map", {"dom": n, "cod": n, "table": f})]
                result, result_n = oracle.act(terms, m, n, f, n), n
                # functoriality on a composable pair (f, g)
                cod = rng.randint(1, n + 1)
                g = random_table(rng, n, cod)
                if (oracle.act(result, m, n, g, cod)
                        != oracle.act(terms, m, n, oracle.compose_tables(f, g), cod)):
                    raise AssertionError(f"apply is not functorial on {f}, {g} in the reference")
            label = f"{kind} n={n} m={m}"
            _admit(terms, m, n, result, result_n, label)
            text = oracle.canonical(oracle.form_dict(result, m, result_n))
            jobs.append(b.job(label, argv, _expect_text(text)))
    rng.shuffle(jobs)
    return jobs


# -- verify ------------------------------------------------------------

def _check_relations(code, text):
    if code != 0:
        return f"exit code {code}"
    r = json.loads(text)
    failures = sum(len(f["failures"]) for f in r["families"])
    if r["total_failures"] != 0 or failures:
        return f"{r['total_failures']} relation failures"
    if not all(f["checked"] > 0 for f in r["families"]):
        return "a relation family checked no instances"
    return None


def _check_axioms(code, text):
    if code != 0:
        return f"exit code {code}"
    r = json.loads(text)
    if r["failures"] or r["checked"] <= 0:
        return f"{len(r['failures'])} axiom failures in {r['checked']} instances"
    return None


def _check_word(dom: int, cod: int, table: list[int], surj: bool) -> Check:
    def check(code, text):
        if code != 0:
            return f"exit code {code}"
        word = json.loads(text)
        if surj and any(g["kind"] not in ("epsilon", "sigma") for g in word["gens"]):
            return "a surjection word uses a coface"
        try:
            got = oracle.evaluate_word(word)
        except ValueError as err:
            return f"word does not compose: {err}"
        if got != (dom, cod, table) or word["cod"] != cod:
            return f"word evaluates to {got}, expected {(dom, cod, table)}"
        return None
    return check


def verify_jobs(rng: random.Random, b: InputWriter) -> list[Job]:
    jobs = []
    for n in RELATION_LEVELS:
        argv = ["verify-relations", "--max-n", str(n)]
        jobs.append(b.job(" ".join(argv), argv, _check_relations))
    for dim, depth in AXIOM_SIZES:
        argv = ["verify-axioms", "--dim", str(dim), "--depth", str(depth)]
        jobs.append(b.job(" ".join(argv), argv, _check_axioms))
    for k in range(FACTOR_JOBS):
        surj = k % 2 == 1
        dom = rng.randint(1, FACTOR_MAX)
        if surj:
            cod = rng.randint(1, dom)
            table = list(range(1, cod + 1)) + random_table(rng, dom - cod, cod)
            rng.shuffle(table)
        else:
            cod = rng.randint(1, FACTOR_MAX)
            table = random_table(rng, dom, cod)
        path = b.write("map", {"dom": dom, "cod": cod, "table": table})
        gens = "surj" if surj else "full"
        jobs.append(b.job(f"factor --gens {gens}", ["factor", "--in", path, "--gens", gens],
                          _check_word(dom, cod, table, surj)))
    rng.shuffle(jobs)
    return jobs


JOB_LISTS = {"derham": derham_jobs, "calculus": calculus_jobs, "verify": verify_jobs}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """The job list of one pass; the same seed writes byte-identical inputs."""
    os.makedirs(workdir, exist_ok=True)
    return JOB_LISTS[workload](random.Random(f"{workload}:{seed}"), InputWriter(workdir))
