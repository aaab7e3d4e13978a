"""Tests of the benchmark itself: the verdict gate, tracing and the output contract.

Run from the root of a checkout with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import igmax  # noqa: E402
import igmax.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "n, k, verdict, key, value",
    [
        (4, 2, "symmetric_k", "order", 2),
        (6, 3, "symmetric_k", "image_order", 6),
        (3, 2, "free_of_rank", "free_rank", 1),
        (7, 6, "free_of_rank", "free_rank", 15),
        (4, 4, "trivial", "order", 1),
        (6, 0, "trivial", "order", 1),
    ],
)
def test_expected_answer_follows_the_paper(n, k, verdict, key, value):
    want = run.expected_answer(n, k)
    assert want["verdict"] == verdict and want[key] == value


def test_plan_depends_only_on_the_seed():
    assert run.make_plan("rank_low", 3) == run.make_plan("rank_low", 3)
    plans = {tuple(run.make_plan("rank_low", s)) for s in range(8)}
    assert len(plans) > 1
    assert sorted(cls for cls, _ in run.make_plan("rank_low", 3)) == sorted(
        run.WORKLOADS["rank_low"].classes)


def test_a_round_runs_every_class_under_every_anchor_rule():
    plan = run.make_plan("rank_high", 5)
    for start in (0, 4):
        rounds = [run.pass_jobs(plan, start + i) for i in range(run.ROUND)]
        for jobs in zip(*rounds):
            assert len({j.label for j in jobs}) == 1
            assert sorted(j.anchor_rule for j in jobs) == sorted(run.ANCHOR_RULES)
            assert len({j.tie_break for j in jobs}) == 1


def test_smoke_pass_is_correct_and_cross_checks():
    jobs = run.pass_jobs(run.make_plan("smoke", 1), 0)
    tracer = spans.Tracer()
    done = run.run_pass(igmax, jobs, tracer)
    assert done.failures == []
    assert len(done.per_class_spans) == len(jobs)
    top = [s.name for c in done.per_class_spans for s in c if s.parent is None]
    assert sorted(top) == ["cli.main", "groupid.identify", "groupid.identify"]


def test_wrong_expected_answer_is_counted(monkeypatch):
    monkeypatch.setattr(run, "expected_answer", lambda n, k: {"verdict": "symmetric_k", "order": 5})
    jobs = run.pass_jobs(run.make_plan("smoke", 1), 0)
    done = run.run_pass(igmax, jobs)
    assert len(done.failures) == len(jobs)
    assert all("order: expected 5" in f for f in done.failures)


def test_nonzero_exit_is_counted():
    outcome = run.run_job(igmax, run.Job("t", 4, 0, run.CLI, "lex", "least"))
    assert outcome.problems and outcome.problems[0].startswith("exit code 2")


def test_cross_check_flags_a_disagreeing_report():
    tracer = spans.Tracer()
    job = run.Job("t", 4, 2, run.LIB, "lex", "least")
    with spans.patched(tracer, spans.targets(igmax)):
        outcome = run.run_job(igmax, job)
    assert spans.cross_check(tracer.spans, outcome.report) == []
    bad = dict(outcome.report, simplified_relators=outcome.report["simplified_relators"] + 1)
    assert spans.cross_check(tracer.spans, bad) == [
        f"simplified_relators: traced {bad['simplified_relators'] - 1}, "
        f"reported {bad['simplified_relators']}"
    ]


def test_wrapped_attributes_are_restored_after_a_raise(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(igmax.groupid, "build_presentation", broken)
    sites = spans.targets(igmax)
    before = [getattr(mod, attr) for mod, attr, _, _ in sites]
    done = run.run_pass(igmax, run.pass_jobs(run.make_plan("smoke", 1), 0), spans.Tracer())
    assert [getattr(mod, attr) for mod, attr, _, _ in sites] == before
    # the trivial class never builds a presentation; the other two raise
    assert len(done.failures) == 2 and all("RuntimeError: boom" in f for f in done.failures)
    # and the per-layer figures of such a pass can still be reported
    assert run.trace_metrics([done], 1.0, 1.0)["presentation.generators_raw"] == 0


def test_self_time_subtracts_children():
    outer = spans.Span("a", None, 0.0, 10.0)
    inner = spans.Span("b", 0, 2.0, 5.0)
    leaf = spans.Span("c", 1, 3.0, 4.0)
    assert spans.self_times([outer, inner, leaf]) == [7.0, 2.0, 1.0]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_a_unit(trace):
    done = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = _declared()["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared}
    printed = {line.split()[1]: line.split()[4] for line in lines if line.startswith("metric ")}
    names = (list(spans.TIME_METRICS) + list(spans.COUNT_METRICS) if trace == "1"
             else list(run.END_TO_END))
    assert all(printed.get(name) for name in names), sorted(set(names) - set(printed))
    assert any(line.startswith("verdict_fail_ratio = 0.0 ratio") for line in lines)
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    assert meta["workers"] == 1 and meta["seed"] == 1 and meta["nproc"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
