"""The sectorforms benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload derham|calculus|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed decides every input; inputs are written as JSON files
under ``.bench_build/perfbench/`` before timing starts.  One process,
one thread: each job is one `sectorforms.cli.main(argv)` call, timed
from entry to return, and the next job starts when it has returned.
Every output is checked after its job, outside the timed region.

A run makes one warm-up pass, whose outputs are checked but whose times
are dropped, then repeats timed passes over the workload's fixed job list
for about ``--seconds`` (it stops at the pass boundary nearest the
deadline), and at least MIN_PASSES times.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics of `tracing`.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr
from time import perf_counter

import jobs as joblib
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

MIN_PASSES = 3
SETUP_LAUNCHES = 9
TAIL_RUNGS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import sectorforms; "
              "from sectorforms.cli import build_parser; build_parser()")

END_TO_END_UNITS = {"jobs_per_s": "jobs/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_yield")):
        return "ratio"
    if name.startswith("jsonio.bytes"):
        return "bytes"
    return "count"


def tail_rung(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for p in TAIL_RUNGS:
        if samples - math.ceil(p / 100 * samples) >= 10:
            return p
    raise ValueError(f"{samples} samples are too few for a tail percentile")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def launch_setup() -> float:
    """Wall time of a fresh interpreter importing the package and building
    the CLI parser, ready for its first job."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], check=True)
    return perf_counter() - start


class Runner:
    """Runs passes over one job list and keeps each job's time and outcome.

    Each pass runs the jobs in a fresh order drawn from ``rng``: the order
    of the heavy jobs moves a pass's time by up to a tenth, so one order
    kept for a whole run would move the run with its seed."""

    def __init__(self, cli, job_list, rng: random.Random):
        self.cli = cli
        self.jobs = job_list
        self.rng = rng
        self.problems: Counter = Counter()
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer: tracing.Tracer | None = None) -> list[float]:
        main = self.cli.main if tracer is None else tracer.span("cli", "main", self.cli.main)
        times = []
        order = self.rng.sample(range(len(self.jobs)), len(self.jobs))
        with open(os.devnull, "w") as devnull:
            for idx in order:
                job = self.jobs[idx]
                if tracer is not None:
                    tracer.job = idx
                code, crash = None, None
                if os.path.exists(job.out):
                    os.remove(job.out)
                with redirect_stderr(devnull):
                    start = perf_counter()
                    try:
                        code = main(job.argv)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception:  # a crash is a failed job, not a failed run
                        crash = traceback.format_exc(limit=-1).strip().splitlines()[-1]
                    times.append(perf_counter() - start)
                self._check(job, code, crash)
        return times

    def _check(self, job, code, crash):
        self.attempted += 1
        if crash is None:
            try:
                with open(job.out, encoding="utf-8") as fh:
                    problem = job.check(code, fh.read())
            except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
                problem = f"unreadable output: {err!r}"
        else:
            problem = f"crashed: {crash}"
        if problem:
            self.failed += 1
            self.problems[f"{job.label}: {problem}"] += 1


def more_time(deadline: float, step: float) -> bool:
    """Whether one more step of ``step`` seconds ends nearer the deadline
    than stopping now does."""
    return perf_counter() + step / 2 < deadline


def timed_run(runner: Runner, seconds: float) -> tuple[dict, str]:
    launch_setup()  # warms the file cache for the interpreter and the package
    passes, setups = [], []
    runner.run_pass()  # a warm-up pass: checked, but its times are not kept
    deadline = perf_counter() + seconds
    step = 0.0
    while len(passes) < MIN_PASSES or more_time(deadline, step):
        start = perf_counter()
        passes.append(runner.run_pass())
        # set-up launches are spread over the run, between passes
        setups.append(launch_setup())
        step = perf_counter() - start
    while len(setups) < SETUP_LAUNCHES:
        setups.append(launch_setup())
    samples = [t for p in passes for t in p]
    rung = tail_rung(MIN_PASSES * len(runner.jobs))
    metrics = {
        "jobs_per_s": len(samples) / sum(samples),
        "job_p50_ms": 1000 * statistics.median(samples),
        "job_tail_ms": 1000 * percentile(samples, rung),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [f"{name:<12} {value:12.4f} {END_TO_END_UNITS[name]}" for name, value in metrics.items()]
    lines[2] += f"  (p{rung:g} of {len(samples)} jobs)"
    lines.append(f"{'failed_frac':<12} {runner.failed / runner.attempted:12.4f} ratio"
                 f"  ({runner.failed} of {runner.attempted} jobs)")
    summary = f"{len(passes)} passes of {len(runner.jobs)} jobs\n" + "\n".join(lines)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, summary


def traced_run(runner: Runner, seconds: float, spans_path: str) -> tuple[dict, str]:
    plain, traced, tracers = [], [], []
    deadline = perf_counter() + seconds
    step = 0.0
    while not tracers or more_time(deadline, step):
        start = perf_counter()
        plain.append(sum(runner.run_pass()))
        tracer = tracing.Tracer()
        patches = tracing.instrument(tracer)
        try:
            traced.append(sum(runner.run_pass(tracer)))
        finally:
            tracing.restore(patches)
        tracers.append(tracer)
        step = perf_counter() - start
    tracing.write_spans(spans_path, tracers)
    # counts repeat exactly from pass to pass; times are medians over passes
    per_pass = [tracing.layer_metrics(t) for t in tracers]
    metrics = dict(per_pass[0])
    for name in metrics:
        if layer_unit(name) == "s":
            metrics[name] = statistics.median(p[name] for p in per_pass)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    lines = [f"{name:<32} {value:14.6g} {layer_unit(name)}" for name, value in metrics.items()]
    summary = (f"{len(tracers)} traced and {len(plain)} untraced passes of {len(runner.jobs)} jobs;"
               f" spans in {os.path.relpath(spans_path, ROOT)}\n" + "\n".join(lines))
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=joblib.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sectorforms", "cli.py")):
        print(f"perfbench: no sectorforms sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from sectorforms import cli

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        runner = Runner(cli, joblib.build(args.workload, args.seed, workdir),
                        random.Random(f"order:{args.workload}:{args.seed}"))
        if args.trace:
            spans = os.path.join(WORK, f"spans-{args.workload}.jsonl")
            metrics, summary = traced_run(runner, args.seconds, spans)
        else:
            metrics, summary = timed_run(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {summary}")
    for problem, count in sorted(runner.problems.items()):
        print(f"FAILED x{count}: {problem}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
