"""Time-to-verdict benchmark for igmax.

Drives igmax from outside, as a library (`igmax.groupid.identify`) and
through `igmax.cli.main`, over a seeded set of rank-k classes, and checks
every verdict against the paper's answer (arXiv 1101.3057):

  1 <= k <= n-2   symmetric_k, order == image_order == k!, hom_valid
  k == n-1        free_of_rank, rank (n-1)(n-2)/2
  k in {0, n}     trivial

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload rank_low --seed 1 --seconds 15 --trace 0

A run measures whole rounds of ROUND passes until --seconds have passed.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it wraps the
pipeline's public functions (see spans.py) and prints per-layer self times
and counters instead. README.md gives the workloads, the metrics and what
each layer is predicted to move. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. All work is serial (workers=1).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKERS = 1
# Interpreter starts per batch; one batch before, between and after the passes,
# so that a burst of load on the machine shifts at most a third of them.
SETUP_PROBES = 7
ANCHOR_RULES = ("lex", "lexmax", "two-step")
PAIRS = [(a, t) for a in ANCHOR_RULES for t in ("least", "greatest")]
ROUND = len(ANCHOR_RULES)

LIB, CLI = "library", "cli"


@dataclass(frozen=True)
class Workload:
    classes: tuple[tuple[str, int, int, str], ...]  # monoid, n, k, how it is driven
    largest: tuple[str, int, int]


WORKLOADS = {
    # Low ranks: type-3 relators dominate, so Tietze and the square scan dominate.
    "rank_low": Workload(
        (("t", 6, 2, LIB), ("t", 6, 3, LIB), ("pt", 5, 2, LIB), ("pt", 5, 3, LIB),
         ("pt", 6, 1, LIB)),
        ("t", 6, 3),
    ),
    # High ranks: every verdict kind; the exhaustive Schreier walk dominates.
    "rank_high": Workload(
        (("t", 7, 5, LIB), ("pt", 6, 4, LIB), ("pt", 7, 6, LIB), ("t", 6, 5, LIB),
         ("pt", 6, 0, LIB), ("t", 6, 6, LIB)),
        ("t", 7, 5),
    ),
    # The CLI with --raw-coset-table: hundreds of unsimplified generators reach
    # Smith normal form and coset enumeration; Tietze does not run.
    "raw_squeeze": Workload(
        (("pt", 5, 3, CLI), ("t", 6, 4, CLI), ("pt", 6, 4, CLI)),
        ("pt", 6, 4),
    ),
    # Tiny classes, one per verdict kind, for the benchmark's own tests.
    "smoke": Workload(
        (("t", 4, 2, CLI), ("pt", 3, 2, LIB), ("pt", 4, 4, LIB)),
        ("t", 4, 2),
    ),
}

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "largest_class_s": "s",
    "peak_rss_mb": "MB",
}

# Layers a workload may never enter (cli.main_s off the CLI workload, Tietze
# under --raw-coset-table, free_rank without a k = n-1 class) read exactly 0
# there, so they are printed in the layer table but kept out of the result.
PER_LAYER_OMITTED = ("cli.main_s", "presentation.tietze_s", "presentation.free_rank_s")
PER_LAYER = {
    **{m: "s" for m in spanlib.TIME_METRICS if m not in PER_LAYER_OMITTED},
    **{m: ("ratio" if m.endswith("_ratio") else "count") for m in spanlib.COUNT_METRICS},
}


@dataclass(frozen=True)
class Job:
    monoid: str
    n: int
    k: int
    via: str
    anchor_rule: str
    tie_break: str

    @property
    def label(self) -> str:
        return class_label(self.monoid, self.n, self.k)


def class_label(monoid: str, n: int, k: int) -> str:
    return f"{monoid.upper()}_{n} k={k}"


def make_plan(workload: str, seed: int) -> list[tuple[tuple[str, int, int, str], int]]:
    """The seed fixes the class order and, per class, where its pair rotation starts."""
    rng = random.Random(seed)
    classes = list(WORKLOADS[workload].classes)
    rng.shuffle(classes)
    return [(cls, rng.randrange(len(PAIRS))) for cls in classes]


def pass_jobs(plan, index: int) -> list[Job]:
    """The jobs of pass `index`: each class steps two places along PAIRS per pass.

    So any ROUND consecutive passes run every class once under each anchor rule,
    with the tie-break the seed drew for it; a run measures whole rounds, and
    its figures do not hinge on which anchor rule one draw picked.
    """
    return [Job(m, n, k, via, *PAIRS[(start + 2 * index) % len(PAIRS)])
            for (m, n, k, via), start in plan]


def expected_answer(n: int, k: int) -> dict:
    """The paper's answer for the rank-k class, the same for T_n and PT_n."""
    if k in (0, n):
        return {"verdict": "trivial", "order": 1}
    if k == n - 1:
        return {"verdict": "free_of_rank", "free_rank": (n - 1) * (n - 2) // 2}
    order = math.factorial(k)
    return {"verdict": "symmetric_k", "order": order, "image_order": order, "hom_valid": True}


def verdict_problems(expected: dict, got: dict) -> list[str]:
    return [
        f"{key}: expected {want!r}, got {got.get(key)!r}"
        for key, want in expected.items()
        if got.get(key) != want
    ]


@dataclass
class Outcome:
    seconds: float
    report: dict | None
    problems: list[str]


def run_job(igmax, job: Job) -> Outcome:
    """One class to verdict; any exception or non-zero exit is a problem, not a crash."""
    clock = time.perf_counter
    try:
        if job.via == CLI:
            argv = ["identify", "--monoid", job.monoid, "--n", str(job.n), "--k", str(job.k),
                    "--anchor-rule", job.anchor_rule, "--tie-break", job.tie_break,
                    "--workers", str(WORKERS), "--raw-coset-table", "--output", "json"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = clock()
                try:
                    code = igmax.cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad flags this way
                    code = exc.code
                seconds = clock() - t0
            if code != 0:
                return Outcome(seconds, None, [f"exit code {code}: {err.getvalue().strip()}"])
            report = json.loads(out.getvalue())
        else:
            monoid = {"t": igmax.Monoid.TOTAL, "pt": igmax.Monoid.PARTIAL}[job.monoid]
            t0 = clock()
            result = igmax.groupid.identify(job.n, job.k, monoid, anchor_rule=job.anchor_rule,
                                            tie_break=job.tie_break, workers=WORKERS)
            seconds = clock() - t0
            report = result.to_json()
    except Exception as exc:  # a class that raises is a counted failure
        traceback.print_exc(file=sys.stderr)
        return Outcome(0.0, None, [f"raised {type(exc).__name__}: {exc}"])
    return Outcome(seconds, report, verdict_problems(expected_answer(job.n, job.k), report))


@dataclass
class Pass:
    seconds: float
    class_seconds: dict[str, float]  # by class label
    failures: list[str]
    per_class_spans: list[list[spanlib.Span]] | None = None


def run_pass(igmax, jobs: list[Job], tracer: spanlib.Tracer | None = None) -> Pass:
    gc.collect()
    class_seconds: dict[str, float] = {}
    failures: list[str] = []
    per_class: list[list[spanlib.Span]] = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(spanlib.patched(tracer, spanlib.targets(igmax)))
        t0 = time.perf_counter()
        for job in jobs:
            first = len(tracer.spans) if tracer is not None else 0
            outcome = run_job(igmax, job)
            problems = outcome.problems
            if tracer is not None:
                # rebase parent indices so each class's spans stand alone
                mine = [spanlib.Span(s.name, None if s.parent is None else s.parent - first,
                                     s.start, s.end, s.counts) for s in tracer.spans[first:]]
                per_class.append(mine)
                if outcome.report is not None and not problems:
                    problems = [f"trace: {p}" for p in spanlib.cross_check(mine, outcome.report)]
            class_seconds[job.label] = outcome.seconds
            if problems:
                failures.append(f"{job.label} ({job.anchor_rule}, {job.tie_break}): "
                                + "; ".join(problems))
        seconds = time.perf_counter() - t0
    return Pass(seconds, class_seconds, failures, per_class if tracer is not None else None)


def measure_setup(module: str) -> list[float]:
    """Seconds from spawning a fresh interpreter until `import <module>` returns."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        f"import {module} as m; sys.stdout.write(m.__file__ + '\\n'); sys.stdout.flush()"
    )
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-I", "-c", probe, str(SRC)],
                              stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or not line.startswith(str(SRC)):
            raise RuntimeError(f"set-up probe failed (exit {code}, imported {line.strip()!r})")
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "igmax").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def emit(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value!r} {unit}{'  ' + note if note else ''}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "igmax" / "__init__.py").is_file():
        print(f"error: no igmax sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    plan = make_plan(args.workload, args.seed)
    probe_module = "igmax.cli" if any(via == CLI for (*_, via), _ in plan) else "igmax"
    setup = [] if args.trace else measure_setup(probe_module)

    sys.path.insert(0, str(SRC))
    import igmax
    import igmax.cli

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": WORKERS, "git_revision": git_revision(),
        "source_sha256": source_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print("meta " + json.dumps(meta))

    timed: list[Pass] = []
    traced: list[Pass] = []
    tracers: list[spanlib.Tracer] = []
    start = time.perf_counter()
    while True:
        if args.trace:
            # the same jobs untraced, then traced: their difference is the overhead
            jobs = pass_jobs(plan, len(timed))
            timed.append(run_pass(igmax, jobs))
            tracers.append(spanlib.Tracer())
            traced.append(run_pass(igmax, jobs, tracers[-1]))
        else:
            for _ in range(ROUND):
                timed.append(run_pass(igmax, pass_jobs(plan, len(timed))))
                if len(timed) == 1:
                    setup += measure_setup(probe_module)
        if time.perf_counter() - start >= args.seconds:
            break
    if not args.trace:
        setup += measure_setup(probe_module)

    passes = timed + traced
    for i, p in enumerate(passes):
        jobs = pass_jobs(plan, i % len(timed))
        role = "traced" if p.per_class_spans is not None else "timed"
        classes = ", ".join(f"{j.label} ({j.anchor_rule}, {j.tie_break}) {p.class_seconds[j.label]:.3f}"
                            for j in jobs)
        print(f"pass {i} {role} {p.seconds:.4f} s: {classes}")
    attempted = sum(len(p.class_seconds) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print(f"FAIL {f}")
    print(f"verdict_fail_ratio = {len(failures) / attempted!r} ratio"
          f"  ({len(failures)} of {attempted} classes)")

    sweeps = [p.seconds for p in timed]
    q1, med, q3 = quartiles(sweeps)
    if args.trace:
        metrics = trace_metrics(traced, med, statistics.median(p.seconds for p in traced))
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({"meta": meta, "passes": [t.to_json() for t in tracers]}))
        print(f"spans written to {dump.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        largest = class_label(*WORKLOADS[args.workload].largest)
        largest_times = [p.class_seconds[largest] for p in timed]
        metrics = {
            "setup_s": statistics.median(setup),
            "sweep_s": med,
            "largest_class_s": statistics.median(largest_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        notes = {
            "setup_s": f"median of {len(setup)} interpreter starts",
            "sweep_s": f"median of {len(sweeps)} passes; q1 {q1:.4f}, q3 {q3:.4f}",
            "largest_class_s": f"{largest}, median of {len(timed)} passes",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for name, value in metrics.items():
            emit(name, value, units[name], notes[name])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }
    print(json.dumps(result))
    return 0


def trace_metrics(traced: list[Pass], untraced_sweep: float, traced_sweep: float) -> dict:
    """Per-layer self times (median over traced passes) and counters (one pass)."""
    per_pass = []
    for p in traced:
        per_class = [spanlib.layer_times(spans) for spans in p.per_class_spans]
        per_pass.append({m: sum(c[m] for c in per_class) for m in spanlib.TIME_METRICS})
    times = {m: statistics.median(t[m] for t in per_pass) for m in spanlib.TIME_METRICS}
    counts = spanlib.layer_counts(traced[0].per_class_spans)
    print(f"traced sweep {traced_sweep:.4f} s, untraced {untraced_sweep:.4f} s, "
          f"tracing overhead {traced_sweep - untraced_sweep:+.4f} s "
          f"({(traced_sweep - untraced_sweep) / untraced_sweep:+.2%})")
    for name, value in times.items():
        emit(name, value, "s", f"{value / traced_sweep:6.1%} of the traced sweep")
    for name, value in counts.items():
        emit(name, value, "ratio" if name.endswith("_ratio") else "count")
    return {**times, **counts}


if __name__ == "__main__":
    sys.exit(main())
