"""Spans recorded from outside igmax, by wrapping module attributes.

Each public function the pipeline calls is replaced, at the module attribute
its caller looks up at call time, by a wrapper that records a span: name,
start, end, parent and a few counts read off the arguments or the result.
`identify` and `cli.main` then run unmodified and produce nested spans.
`ptrans.compose` is deliberately not wrapped: it runs millions of times per
class, so a wrapper there would measure the wrapper.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory, in start order; parents are list indices."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None, time.perf_counter())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end, "counts": s.counts}
            for s in self.spans
        ]


def _presentation_counts(args, pres) -> dict:
    return {
        "generators": len(pres.generators),
        "relators": len(pres.relators),
        "by_type": pres.counts_by_type(),
    }


def _verify_elements(args, result) -> dict:
    grid = args[0]
    return {"elements": len(grid.rows) * math.factorial(grid.k) * len(grid.cols)}


def targets(igmax) -> list[tuple]:
    """(module, attribute, span name, counter) for every wrapped call site."""
    g, sq, cli = igmax.groupid, igmax.squares, igmax.cli
    candidates = lambda args, out: {"candidates": len(out)}  # noqa: E731
    return [
        (cli, "main", "cli.main", None),
        (cli, "identify", "groupid.identify", None),
        (g, "identify", "groupid.identify", None),
        (g, "build_grid", "dclass.build_grid", lambda a, grid: {"group_cells": len(grid.group_cells)}),
        (g, "sandwich_matrix", "dclass.sandwich_matrix", None),
        (g, "build_schreier", "schreier.build", None),
        (g, "verify_schreier", "schreier.verify", _verify_elements),
        (g, "group_square_candidates", "squares.candidates", candidates),
        (sq, "group_square_candidates", "squares.candidates", candidates),
        (g, "enumerate_singular_squares", "squares.enumerate", lambda a, out: {"singular": len(out)}),
        (sq, "witness_pool", "squares.witness_pool", lambda a, out: {"pool": len(out)}),
        (sq, "enumerate_idempotents", "ptrans.enumerate_idempotents", None),
        (g, "build_presentation", "presentation.build", _presentation_counts),
        (g, "tietze_simplify", "presentation.tietze", _presentation_counts),
        (g, "gh_graph", "presentation.gh_graph", None),
        (g, "free_rank", "presentation.free_rank", None),
        (g, "todd_coxeter", "groupid.todd_coxeter",
         lambda a, table: {"cosets": len(table.table), "order": table.order}),
        (g, "abelian_invariants", "groupid.abelian_invariants", None),
        (g, "smith_normal_form", "groupid.smith_normal_form", None),
        (g, "rees_hom", "groupid.rees_hom", None),
        (g, "verify_hom", "groupid.verify_hom", None),
        (g, "perm_group_order", "groupid.perm_group_order", None),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer, sites):
    """Install the wrappers; put every original back on exit, also on error."""
    saved = []
    try:
        for module, attr, name, count in sites:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


# per-layer metric -> span names whose self time it sums
TIME_METRICS = {
    "schreier.build_s": ("schreier.build",),
    "schreier.verify_s": ("schreier.verify",),
    "presentation.build_s": ("presentation.build",),
    "presentation.tietze_s": ("presentation.tietze",),
    "presentation.free_rank_s": ("presentation.free_rank", "presentation.gh_graph"),
    "squares.candidates_s": ("squares.candidates",),
    "squares.pool_s": ("squares.witness_pool",),
    "squares.enumerate_s": ("squares.enumerate",),
    "groupid.snf_s": ("groupid.smith_normal_form",),
    "groupid.abelian_s": ("groupid.abelian_invariants",),
    "groupid.coset_s": ("groupid.todd_coxeter",),
    "groupid.hom_s": ("groupid.rees_hom", "groupid.verify_hom", "groupid.perm_group_order"),
    "groupid.identify_self_s": ("groupid.identify",),
    "dclass.build_grid_s": ("dclass.build_grid",),
    "dclass.sandwich_matrix_s": ("dclass.sandwich_matrix",),
    "ptrans.enumerate_idempotents_s": ("ptrans.enumerate_idempotents",),
    "cli.main_s": ("cli.main",),
}

COUNT_METRICS = (
    "schreier.verify_elements",
    "presentation.generators_raw",
    "presentation.relators_raw",
    "presentation.generators_simplified",
    "presentation.relators_simplified",
    "squares.candidates",
    "squares.pool",
    "squares.singular",
    "squares.singular_ratio",
    "groupid.cosets",
    "dclass.group_cells",
)


def layer_times(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for s, t in zip(spans, own):
        by_name[s.name] = by_name.get(s.name, 0.0) + t
    return {m: sum(by_name.get(n, 0.0) for n in names) for m, names in TIME_METRICS.items()}


def _simplified(class_spans: list[Span]) -> Span | None:
    """The presentation the group was identified from: Tietze's, else the raw one."""
    for name in ("presentation.tietze", "presentation.build"):
        found = [s for s in class_spans if s.name == name]
        if found:
            return found[-1]
    return None


def layer_counts(per_class: list[list[Span]]) -> dict[str, float]:
    """Counters summed over the classes of one pass."""
    total = {m: 0 for m in COUNT_METRICS if m != "squares.singular_ratio"}
    for spans in per_class:
        simp = _simplified(spans)
        if simp is not None and simp.counts:  # no counts when the call raised
            total["presentation.generators_simplified"] += simp.counts["generators"]
            total["presentation.relators_simplified"] += simp.counts["relators"]
        for s in spans:
            c = s.counts
            if not c:
                continue
            if s.name == "schreier.verify":
                total["schreier.verify_elements"] += c["elements"]
            elif s.name == "presentation.build":
                total["presentation.generators_raw"] += c["generators"]
                total["presentation.relators_raw"] += c["relators"]
            elif s.name == "squares.candidates" and spans[s.parent].name == "squares.enumerate":
                # identify also lists the candidates itself; count the scan's call only
                total["squares.candidates"] += c["candidates"]
            elif s.name == "squares.witness_pool":
                total["squares.pool"] += c["pool"]
            elif s.name == "squares.enumerate":
                total["squares.singular"] += c["singular"]
            elif s.name == "groupid.todd_coxeter":
                total["groupid.cosets"] += c["cosets"]
            elif s.name == "dclass.build_grid":
                total["dclass.group_cells"] += c["group_cells"]
    cands = total["squares.candidates"]
    total["squares.singular_ratio"] = total["squares.singular"] / cands if cands else 0.0
    return total


def cross_check(class_spans: list[Span], report: dict) -> list[str]:
    """Problems where the traced spans disagree with identify's own report."""
    problems = []
    builds = [s for s in class_spans if s.name == "presentation.build"]
    if report["verdict"] == "trivial":
        if builds:
            problems.append("trivial class built a presentation")
        return problems
    if len(builds) != 1:
        return [f"expected one presentation.build span, saw {len(builds)}"]
    raw = builds[0].counts
    simp = _simplified(class_spans).counts
    pairs = [
        ("generators", raw["generators"], report["generators"]),
        ("relator counts", raw["by_type"], report["relators"]),
        ("simplified_generators", simp["generators"], report["simplified_generators"]),
        ("simplified_relators", simp["relators"], report["simplified_relators"]),
    ]
    cosets = [s for s in class_spans if s.name == "groupid.todd_coxeter"]
    if cosets:
        pairs.append(("order", cosets[-1].counts["order"], report["order"]))
    elif report["verdict"] == "symmetric_k":
        problems.append("symmetric verdict without a coset enumeration span")
    for what, traced, reported in pairs:
        if traced != reported:
            problems.append(f"{what}: traced {traced!r}, reported {reported!r}")
    return problems
