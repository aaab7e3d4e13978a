"""Command line front end.

Every subcommand is deterministic for a fixed set of flags; JSON output is
byte-identical across runs (timings are opt-in because they are not).
Each subcommand takes only the flags it reads.  `main` alone applies the
`--max-n` cap, writes a subcommand's output and maps errors to exit codes; a
`_cmd_*` returns its exit code, a builder of its JSON payload (run only for
`--output json`) and its text.  `main` builds its argparse parser on its
first call and reuses it for every later call in the process; importing
this module builds none.  Exit codes: 0 success, 1 undecided verdict
or failed corpus, 2 usage error or unwritable file, 3 structural error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .dclass import ANCHOR_RULES, build_grid
from .errors import StructuralError
from .groupid import (
    CHAIN_CAP_PER_ORDER,
    DEFAULT_MAX_COSETS,
    VERDICT_FREE,
    VERDICT_SYMMETRIC,
    VERDICT_TRIVIAL,
    VERDICT_UNDECIDED,
    build_stages,
    identify,
    verified_schreier,
)
from .presentation import (
    eliminate_partial_rows,
    free_rank,
    gh_graph,
    presentation_to_json,
    tietze_simplify,
    to_dot,
    to_gap,
)
from .ptrans import Monoid, PartialMap
from .schreier import TIE_BREAKS
from .squares import enumerate_singular_squares

DEFAULT_MAX_N = 8
COSET_MEMORY = "an enumeration that does not close holds about 1 kB per coset defined"

MONOIDS = {"pt": Monoid.PARTIAL, "t": Monoid.TOTAL}


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igmax",
        description="Presentations and identification of maximal subgroups of "
        "free idempotent generated semigroups over T_n / PT_n.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # the class flags, declared once for every subcommand but corpus
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--monoid", choices=sorted(MONOIDS), required=True)
    common.add_argument("--n", type=int, required=True)
    common.add_argument("--k", type=int, required=True)
    common.add_argument("--output", choices=("json", "text"), default="text")
    common.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                        help="hard size cap; raise explicitly for big runs")

    for name, helptext, run in (
        ("grid", "build the rank-k D-class grid", _cmd_grid),
        ("schreier", "build and verify the Schreier system", _cmd_schreier),
        ("squares", "enumerate the singular classes of rows with witnesses", _cmd_squares),
        ("presentation", "assemble the group presentation", _cmd_presentation),
        ("identify", "run the full pipeline and name the group", _cmd_identify),
        ("free-rank", "cycle rank of the Graham-Houghton component", _cmd_free_rank),
    ):
        sub = subs.add_parser(name, help=helptext, parents=[common])
        sub.set_defaults(run=run)
        if name in ("presentation", "identify"):
            sub.add_argument("--anchor-rule", choices=ANCHOR_RULES, default="lex")
        if name in ("schreier", "presentation", "identify"):
            sub.add_argument("--tie-break", choices=TIE_BREAKS, default="least")
        if name == "presentation":
            sub.add_argument("--gap", metavar="PATH", help="write a GAP-compatible file")
            sub.add_argument("--dot", metavar="PATH", help="write the bipartite graph as DOT")
            sub.add_argument("--simplify", action="store_true")
            sub.add_argument("--eliminate-partial", action="store_true",
                             help="rewrite partial-row generators through total rows")
        if name == "identify":
            sub.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS,
                             help="cap on the cosets each enumeration defines, counted on "
                                  "the columns enumerated: on the Tietze-simplified "
                                  "presentation it bounds every level of the subgroup chain, "
                                  f"at most {CHAIN_CAP_PER_ORDER}*k! there, and the full "
                                  "enumeration run when the chain fails; with "
                                  "--raw-coset-table, the one enumeration of the "
                                  "short-relator class presentation; " + COSET_MEMORY)
            sub.add_argument("--raw-coset-table", action="store_true",
                             help="skip Tietze's elimination: enumerate and abelianize once "
                                  "relators of length 1 or 2 have merged generators; no "
                                  "effect at k = n-1, whose free certificate always runs "
                                  "the elimination and reports its sizes")
            sub.add_argument("--timings", action="store_true", help="needs --output json")
            sub.add_argument("--workers", type=int, default=1, help="accepted; no effect")

    corpus = subs.add_parser("corpus", help="run the regression matrix")
    corpus.set_defaults(run=_cmd_corpus)
    corpus.add_argument("--output", choices=("json", "text"), default="text")
    corpus.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS,
                        help="cap on the cosets defined per run; " + COSET_MEMORY)
    return parser


def _grid(args):
    return build_grid(args.n, args.k, MONOIDS[args.monoid])


def _class_json(args) -> dict:
    return {"n": args.n, "k": args.k, "monoid": args.monoid}


def _grid_json(grid) -> dict:
    return {
        "n": grid.n,
        "k": grid.k,
        "monoid": grid.monoid.value,
        "rows": [
            {"domain": [x + 1 for x in kp.domain],
             "blocks": [[x + 1 for x in b] for b in kp.blocks]}
            for kp in grid.rows
        ],
        "cols": [[x + 1 for x in im] for im in grid.cols],
        "group_cells": [
            {"row": i + 1, "col": c + 1, "map": PartialMap(m).to_text()}
            for (i, c), m in sorted(grid.group_cells.items())
        ],
        "base": {"row": grid.base[0] + 1, "col": grid.base[1] + 1},
        "counts": {
            "rows": len(grid.rows),
            "cols": len(grid.cols),
            "group_cells": len(grid.group_cells),
        },
    }


def _cmd_grid(args):
    grid = _grid(args)
    return 0, lambda: _grid_json(grid), (
        f"monoid={args.monoid} n={args.n} k={args.k}: "
        f"rows {len(grid.rows)}, cols {len(grid.cols)}, "
        f"group_cells {len(grid.group_cells)}\n"
    )


def _cmd_schreier(args):
    sys_ = verified_schreier(_grid(args), args.tie_break)
    base = sys_.base_col + 1
    # the star's words: r[c] = e_{i,c} and r_inv[c] = e_{i,base}, empty at the base
    return 0, lambda: {
        **_class_json(args),
        "base_col": base,
        "words": [
            {
                "col": c + 1,
                "r": [] if i is None else [[i + 1, c + 1]],
                "r_inv": [] if i is None else [[i + 1, base]],
            }
            for c, i in enumerate(sys_.rows)
        ],
        "verified": True,
    }, (
        f"schreier system over {len(sys_.rows)} columns, "
        f"max word length {int(len(sys_.rows) > 1)}, verified\n"
    )


def _cmd_squares(args):
    classes = enumerate_singular_squares(_grid(args))
    sizes = [len(c.rows) for c in classes]
    counts = {
        "classes": len(classes),
        "singular_squares": sum(m * (m - 1) // 2 for m in sizes),
        "star_relators": sum(sizes) - len(sizes),
    }
    return 0, lambda: {
        **_class_json(args),
        "counts": counts,
        "classes": [
            {
                "cols": [c.cols[0] + 1, c.cols[1] + 1],
                "rows": [r + 1 for r in c.rows],
                "witness": c.witness.to_text(),
            }
            for c in classes
        ],
    }, ("{classes} classes, {singular_squares} singular squares, "
        "{star_relators} star relators\n".format(**counts))


def _cmd_presentation(args):
    grid, _, _, classes, pres = build_stages(
        args.n, args.k, MONOIDS[args.monoid],
        anchor_rule=args.anchor_rule, tie_break=args.tie_break,
    )
    if args.eliminate_partial:
        pres = eliminate_partial_rows(pres, grid, classes)
    if args.simplify:
        pres = tietze_simplify(pres)
    files = []
    if args.gap:
        files.append((args.gap, to_gap(pres)))
    if args.dot:
        files.append((args.dot, to_dot(gh_graph(grid))))
    _write_files(files)
    counts = pres.counts_by_type()
    return 0, lambda: presentation_to_json(pres), (
        f"{len(pres.generators)} generators, {len(pres.relators)} relators "
        f"({counts['type1']} type1, {counts['type2']} type2, "
        f"{counts['type3']} type3, {counts['tietze']} tietze)\n"
    )


def _write_files(files: list[tuple[str, str]]) -> None:
    """Write each (path, text): every path is opened before any is truncated,
    and a failure removes the files this call created.  An existing path is
    written through, as by `open(path, "w")`: a link, pipe or device stays."""
    handles, created = [], []
    try:
        for path, _ in files:
            try:
                handles.append(open(path, "x"))
                created.append(path)
            except FileExistsError:
                dangling = not os.path.exists(path)  # a link whose target "a" creates
                handles.append(open(path, "a"))
                if dangling:
                    created.append(os.path.realpath(path))
        for fh, (path, text) in zip(handles, files):
            if os.path.isfile(path):  # a pipe or device cannot be truncated
                fh.truncate(0)
            fh.write(text)
            fh.close()  # before the next file, should two paths name one file
    except BaseException:
        for fh in handles:
            fh.close()
        for path in created:
            os.unlink(path)
        raise


def _cmd_identify(args):
    if args.timings and args.output != "json":
        raise ValueError("--timings needs --output json")
    report = identify(
        args.n, args.k, MONOIDS[args.monoid], max_cosets=args.max_cosets,
        anchor_rule=args.anchor_rule, tie_break=args.tie_break, workers=args.workers,
        simplify=not args.raw_coset_table,
    )
    desc = {
        VERDICT_SYMMETRIC: f"symmetric group S_{args.k} of order {report.order}",
        VERDICT_FREE: f"free group of rank {report.free_rank}",
        VERDICT_TRIVIAL: "trivial group",
    }.get(report.verdict, "undecided: " + "; ".join(report.diagnostics))
    return (
        int(report.verdict == VERDICT_UNDECIDED),
        lambda: report.to_json(include_timings=args.timings),
        f"monoid={args.monoid} n={args.n} k={args.k}: {desc}\n",
    )


def _cmd_free_rank(args):
    grid = _grid(args)
    rank = free_rank(gh_graph(grid), grid.base)
    return 0, lambda: {**_class_json(args), "free_rank": rank}, f"{rank}\n"


CORPUS_RUNS: list[tuple[str, int, int, str]] = [
    # monoid, n, k, expected verdict
    ("pt", 4, 2, VERDICT_SYMMETRIC),
    ("pt", 5, 2, VERDICT_SYMMETRIC),
    ("pt", 5, 3, VERDICT_SYMMETRIC),
    ("pt", 6, 4, VERDICT_SYMMETRIC),
    ("t", 4, 2, VERDICT_SYMMETRIC),
    ("t", 5, 2, VERDICT_SYMMETRIC),
    ("t", 5, 3, VERDICT_SYMMETRIC),
    ("t", 6, 4, VERDICT_SYMMETRIC),
    ("pt", 3, 2, VERDICT_FREE),
    ("pt", 4, 3, VERDICT_FREE),
    ("pt", 1, 0, VERDICT_TRIVIAL),
    ("pt", 2, 0, VERDICT_TRIVIAL),
    ("pt", 3, 0, VERDICT_TRIVIAL),
    ("pt", 4, 0, VERDICT_TRIVIAL),
    ("pt", 5, 0, VERDICT_TRIVIAL),
    ("pt", 1, 1, VERDICT_TRIVIAL),
    ("pt", 2, 2, VERDICT_TRIVIAL),
    ("pt", 3, 3, VERDICT_TRIVIAL),
    ("pt", 4, 4, VERDICT_TRIVIAL),
    ("pt", 5, 5, VERDICT_TRIVIAL),
]


def _cmd_corpus(args):
    runs = []
    for mon, n, k, expected in CORPUS_RUNS:
        report = identify(n, k, MONOIDS[mon], max_cosets=args.max_cosets)
        ok = report.verdict == expected
        if expected == VERDICT_SYMMETRIC:
            ok = ok and report.order == math.factorial(k)
        elif expected == VERDICT_FREE:  # the Graham-Houghton cycle rank
            ok = ok and report.free_rank == (n - 1) * (n - 2) // 2
        runs.append(
            {
                "monoid": mon,
                "n": n,
                "k": k,
                "verdict": report.verdict,
                "order": report.order,
                "free_rank": report.free_rank,
                "expected": expected,
                "ok": ok,
            }
        )
    all_ok = all(r["ok"] for r in runs)
    lines = []
    for r in runs:
        if r["verdict"] == VERDICT_FREE:
            order = f"free({r['free_rank']})"
        else:
            order = "unknown" if r["order"] is None else r["order"]
        lines.append(
            f"{'ok ' if r['ok'] else 'FAIL'} {r['monoid']:>2} n={r['n']} k={r['k']} "
            f"verdict={r['verdict']} order={order}\n"
        )
    lines.append("all ok\n" if all_ok else "FAILURES\n")
    return int(not all_ok), lambda: {"runs": runs, "all_ok": all_ok}, "".join(lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # the tree never changes, so `main` builds it on its first call, not at import
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # every subcommand but corpus takes the class flags; each calls
        # build_grid, which checks n, k and the monoid, before it writes
        if "monoid" in args and args.n > args.max_n:
            raise ValueError(
                f"n={args.n} exceeds the cap {args.max_n}; pass --max-n to override"
            )
        code, payload, text = args.run(args)
        sys.stdout.write(_dump(payload()) if args.output == "json" else text)
        return code
    except StructuralError as exc:
        sys.stderr.write(_dump({"error": "structural", "message": str(exc)}))
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
