"""Per-layer tracing of sectorforms from outside the package.

`instrument` replaces, inside each module's namespace, every function the
module imported by name from another sectorforms module with a wrapper
that records a span: name, layer (the module the function lives in),
start, end, parent span and job id.  The wrapper goes into the importing
module's namespace because `sector` and `cohomology` call what they
imported by name.  A few boundaries inside one module are wrapped too,
where a metric needs them: the `jsonio` functions (the CLI reaches them
through the module object), `cohomology.sector_basis` and
`sector_candidates` (candidate and basis counts), and `linalg.rref`.

The hot `Poly` methods are not spans: each call is counted, and the
time of the outermost one is charged to the `poly` layer and taken off
the self time of the span it ran in.

Spans stay in memory; `write_spans` saves them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "jsonio", "fincard", "poly", "tangent", "sector", "linalg", "cohomology")
OWN_BOUNDARIES = {"cohomology": {"sector_basis", "sector_candidates"}, "linalg": {"rref"}}
LEAF_METHODS = {"subs": "poly.subs_calls", "__mul__": "poly.mul_calls",
                "partial": "poly.partial_calls", "embed": "poly.embed_calls"}
WHISKERS = {"flip_cycle", "flip_whisker", "lift_whisker", "multilinearity_probe"}
DERIVATIVES = {"exterior_derivative", "coface", "fundamental_derivative"}

# span record fields
NAME, LAYER, START, END, PARENT, JOB, LEAF = range(7)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.whiskers: set = set()
        self.job = -1
        self.in_leaf = False

    def span(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        spans, open_ = self.spans, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, open_[-1] if open_ else -1, self.job, 0.0]
            open_.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                open_.pop()
            self._count(layer, attr, args, result, rec[END] - rec[START])
            return result
        return traced

    def leaf(self, key: str, fn):
        counts, spans, open_ = self.counts, self.spans, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[key] += 1
            if self.in_leaf:
                result = fn(*args, **kwargs)
            else:
                self.in_leaf = True
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[open_[-1]][LEAF] += perf_counter() - start
                    self.in_leaf = False
            counts["poly.terms_out"] += len(result.terms)
            return result
        return traced

    def _count(self, layer, attr, args, result, seconds):
        c, t = self.counts, self.times
        if attr in WHISKERS:
            c["tangent.whisker_builds"] += 1
            t["tangent.whisker_s"] += seconds
            self.whiskers.add((attr,) + tuple(args[:3]))
        elif attr == "tangent_of_map":
            c["tangent.tangent_of_map_calls"] += 1
        elif attr == "sector_basis":
            t["cohomology.sector_basis_s"] += seconds
            c["cohomology.basis_dim"] += len(result)
        elif attr == "sector_candidates":
            c["cohomology.candidates"] += len(result)
        elif attr == "rref":
            c["linalg.rref_calls"] += 1
            c["linalg.rows_in"] += len(args[0])
            c["linalg.nnz_in"] += sum(len(r) for r in args[0])
            c["linalg.rank_out"] += len(result[0])
        elif attr == "multilinearity_failures":
            c["sector.linearity_checks"] += 1
            t["sector.linearity_s"] += seconds
        elif attr in DERIVATIVES:
            c["sector.derivative_calls"] += 1
            t["sector.derivative_s"] += seconds
        elif attr == "compose":
            c["poly.compose_calls"] += 1
        elif attr in ("factor_map", "factor_surjection"):
            c["fincard.factor_calls"] += 1
            c["fincard.gens_out"] += len(result)
        elif attr == "check_relations":
            c["fincard.instances_checked"] += sum(r.checked for r in result)
        elif attr == "load_json_file":
            c["jsonio.bytes_in"] += os.path.getsize(args[0])
        elif attr == "dumps":
            c["jsonio.bytes_out"] += len(result)
        elif attr == "main":
            c["cli.jobs"] += 1
        if layer == "sector" and hasattr(result, "body"):
            c["sector.terms_out"] += sum(len(p.terms) for p in result.body.components)


def modules():
    return {name: importlib.import_module(f"sectorforms.{name}") for name in LAYERS}


def instrument(tracer: Tracer) -> list[tuple]:
    """Install the wrappers; returns what `restore` needs to undo them."""
    mods = modules()
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for layer, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn):
                continue
            home = fn.__module__.rpartition(".")[2]
            if home not in LAYERS or not fn.__module__.startswith("sectorforms."):
                continue
            if home == layer and not (attr in OWN_BOUNDARIES.get(layer, ())
                                      or layer == "jsonio" and not attr.startswith("_")):
                continue
            patch(mod, attr, tracer.span(home, attr, fn))
    poly_cls = mods["poly"].Poly
    for meth, key in LEAF_METHODS.items():
        patch(poly_cls, meth, tracer.leaf(key, getattr(poly_cls, meth)))
    return patches


def restore(patches: list[tuple]) -> None:
    for owner, attr, old in reversed(patches):
        setattr(owner, attr, old)


def layer_self_times(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus what its direct
    child spans and its outermost leaf calls cover; leaf time goes to poly."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    out = dict.fromkeys(LAYERS, 0.0)
    for i, rec in enumerate(spans):
        out[rec[LAYER]] += rec[END] - rec[START] - covered[i] - rec[LEAF]
        out["poly"] += rec[LEAF]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    c, t = tracer.counts, tracer.times
    out = {f"{layer}.self_s": s for layer, s in layer_self_times(tracer.spans).items()}
    out.update({
        "tangent.whisker_s": t["tangent.whisker_s"],
        "tangent.whisker_builds": c["tangent.whisker_builds"],
        "tangent.whisker_distinct_frac": _ratio(len(tracer.whiskers), c["tangent.whisker_builds"]),
        "tangent.tangent_of_map_calls": c["tangent.tangent_of_map_calls"],
        "cohomology.sector_basis_s": t["cohomology.sector_basis_s"],
        "cohomology.candidates": c["cohomology.candidates"],
        "cohomology.basis_dim": c["cohomology.basis_dim"],
        "cohomology.candidate_yield": _ratio(c["cohomology.basis_dim"], c["cohomology.candidates"]),
        "linalg.rref_calls": c["linalg.rref_calls"],
        "linalg.rows_in": c["linalg.rows_in"],
        "linalg.nnz_in": c["linalg.nnz_in"],
        "linalg.rank_out": c["linalg.rank_out"],
        "linalg.pivot_yield": _ratio(c["linalg.rank_out"], c["linalg.rows_in"]),
        "sector.linearity_checks": c["sector.linearity_checks"],
        "sector.linearity_s": t["sector.linearity_s"],
        "sector.derivative_calls": c["sector.derivative_calls"],
        "sector.derivative_s": t["sector.derivative_s"],
        "sector.terms_out": c["sector.terms_out"],
        "poly.compose_calls": c["poly.compose_calls"],
        "poly.subs_calls": c["poly.subs_calls"],
        "poly.mul_calls": c["poly.mul_calls"],
        "poly.partial_calls": c["poly.partial_calls"],
        "poly.embed_calls": c["poly.embed_calls"],
        "poly.terms_out": c["poly.terms_out"],
        "fincard.factor_calls": c["fincard.factor_calls"],
        "fincard.gens_out": c["fincard.gens_out"],
        "fincard.instances_checked": c["fincard.instances_checked"],
        "jsonio.bytes_in": c["jsonio.bytes_in"],
        "jsonio.bytes_out": c["jsonio.bytes_out"],
        "cli.jobs": c["cli.jobs"],
    })
    return out


def write_spans(path: str, tracers: list[Tracer]) -> None:
    """One JSON array per line: pass, name, layer, start, end, parent, job, leaf seconds."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k, tracer in enumerate(tracers):
            for rec in tracer.spans:
                fh.write(json.dumps([k] + rec) + "\n")
