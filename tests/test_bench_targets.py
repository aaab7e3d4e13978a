"""The traced benchmark wraps igmax functions by module attribute name, so a
rename or deletion in igmax would silently drop a span.  Every call site it
wraps must resolve, and on the traced workloads' classes the spans must agree
with identify's own report (the benchmark counts a disagreement as a failed
class): in particular the last coset enumeration must carry the order."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import igmax
import igmax.cli  # noqa: F401  (targets() reads igmax.cli)
from igmax.dclass import ANCHOR_RULES
from igmax.schreier import TIE_BREAKS

from helpers import MONOIDS

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# the library classes of the rank_high and rank_low workloads
TRACED_CLASSES = [
    ("t", 7, 5), ("pt", 6, 4), ("pt", 7, 6), ("t", 6, 5), ("pt", 6, 0), ("t", 6, 6),
    ("t", 6, 2), ("t", 6, 3), ("pt", 5, 2), ("pt", 5, 3), ("pt", 6, 1),
]

# the CLI classes of the raw_squeeze workload
RAW_SQUEEZE_CLASSES = [("pt", 5, 3), ("t", 6, 4), ("pt", 6, 4)]


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves(spans):
    sites = spans.targets(igmax)
    assert sites
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in sites
               if not callable(getattr(module, attr, None))]
    assert missing == []


@pytest.mark.parametrize("key,n,k", TRACED_CLASSES)
def test_traced_spans_agree_with_the_report(spans, key, n, k):
    with spans.patched(spans.Tracer(), spans.targets(igmax)) as tracer:
        report = igmax.groupid.identify(n, k, MONOIDS[key])
    assert tracer.spans
    assert spans.cross_check(tracer.spans, report.to_json()) == []


@pytest.mark.parametrize("tie", TIE_BREAKS)
@pytest.mark.parametrize("rule", ANCHOR_RULES)
@pytest.mark.parametrize("key,n,k", RAW_SQUEEZE_CLASSES)
def test_traced_raw_route_agrees_with_the_report(spans, capsys, key, n, k, rule, tie):
    argv = ["identify", "--monoid", key, "--n", str(n), "--k", str(k), "--anchor-rule", rule,
            "--tie-break", tie, "--raw-coset-table", "--output", "json"]
    with spans.patched(spans.Tracer(), spans.targets(igmax)) as tracer:
        code = igmax.cli.main(argv)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert tracer.spans
    assert spans.cross_check(tracer.spans, report) == []
