"""The traced benchmark wraps igmax functions by module attribute name, so a
rename or deletion in igmax would silently drop a span.  Every call site it
wraps must resolve."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import igmax
import igmax.cli  # noqa: F401  (targets() reads igmax.cli)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_call_site_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    sites = spans.targets(igmax)
    assert sites
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in sites
               if not callable(getattr(module, attr, None))]
    assert missing == []
