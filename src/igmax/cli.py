"""Command line front end.

Every subcommand is deterministic for a fixed set of flags; JSON output is
byte-identical across runs (timings are opt-in because they are not).
Each subcommand takes only the flags it reads.  Exit codes: 0 success, 1
undecided verdict or failed corpus, 2 usage error or unwritable file, 3
structural error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .dclass import ANCHOR_RULES, build_grid
from .errors import StructuralError
from .groupid import (
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
from .ptrans import Monoid
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
                             help="cap on the cosets defined, counted on the columns "
                                  "enumerated: the Tietze-simplified presentation's, or "
                                  "with --raw-coset-table the short-relator class "
                                  "presentation's; " + COSET_MEMORY)
            sub.add_argument("--raw-coset-table", action="store_true",
                             help="skip Tietze's elimination: enumerate and abelianize once "
                                  "relators of length 1 or 2 have merged generators")
            sub.add_argument("--timings", action="store_true", help="needs --output json")
            sub.add_argument("--workers", type=int, default=1, help="accepted; no effect")

    corpus = subs.add_parser("corpus", help="run the regression matrix")
    corpus.set_defaults(run=_cmd_corpus)
    corpus.add_argument("--output", choices=("json", "text"), default="text")
    corpus.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS,
                        help="cap on the cosets defined per run; " + COSET_MEMORY)
    return parser


def _validate(args) -> Monoid:
    monoid = MONOIDS[args.monoid]
    if args.n < 1:
        raise ValueError("n must be positive")
    if args.n > args.max_n:
        raise ValueError(
            f"n={args.n} exceeds the cap {args.max_n}; pass --max-n to override"
        )
    if not 0 <= args.k <= args.n:
        raise ValueError(f"k={args.k} out of range for n={args.n}")
    if monoid is Monoid.TOTAL and args.k == 0:
        raise ValueError("T_n has no rank-0 class")
    return monoid


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
            {"row": i + 1, "col": c + 1, "map": m.to_text()}
            for (i, c), m in sorted(grid.group_cells.items())
        ],
        "base": {"row": grid.base[0] + 1, "col": grid.base[1] + 1},
        "counts": {
            "rows": len(grid.rows),
            "cols": len(grid.cols),
            "group_cells": len(grid.group_cells),
        },
    }


def _cmd_grid(args, out) -> int:
    monoid = _validate(args)
    grid = build_grid(args.n, args.k, monoid)
    if args.output == "json":
        out.write(_dump(_grid_json(grid)))
    else:
        out.write(
            f"monoid={args.monoid} n={args.n} k={args.k}: "
            f"rows {len(grid.rows)}, cols {len(grid.cols)}, "
            f"group_cells {len(grid.group_cells)}\n"
        )
    return 0


def _cmd_schreier(args, out) -> int:
    sys_ = verified_schreier(build_grid(args.n, args.k, _validate(args)), args.tie_break)
    payload = {
        "n": args.n,
        "k": args.k,
        "monoid": args.monoid,
        "base_col": sys_.base_col + 1,
        "words": [
            {
                "col": c + 1,
                "r": [[i + 1, l + 1] for i, l in sys_.r[c]],
                "r_inv": [[i + 1, l + 1] for i, l in sys_.r_inv[c]],
            }
            for c in sorted(sys_.r)
        ],
        "verified": True,
    }
    if args.output == "json":
        out.write(_dump(payload))
    else:
        out.write(
            f"schreier system over {len(sys_.r)} columns, "
            f"max word length {max(len(w) for w in sys_.r.values())}, verified\n"
        )
    return 0


def _cmd_squares(args, out) -> int:
    monoid = _validate(args)
    grid = build_grid(args.n, args.k, monoid)
    classes = enumerate_singular_squares(grid)
    sizes = [len(c.rows) for c in classes]
    counts = {
        "classes": len(classes),
        "singular_squares": sum(m * (m - 1) // 2 for m in sizes),
        "star_relators": sum(sizes) - len(sizes),
    }
    payload = {
        "n": args.n,
        "k": args.k,
        "monoid": args.monoid,
        "counts": counts,
        "classes": [
            {
                "cols": [c.cols[0] + 1, c.cols[1] + 1],
                "rows": [r + 1 for r in c.rows],
                "witness": c.witness.to_text(),
            }
            for c in classes
        ],
    }
    if args.output == "json":
        out.write(_dump(payload))
    else:
        out.write("{classes} classes, {singular_squares} singular squares, "
                  "{star_relators} star relators\n".format(**counts))
    return 0


def _cmd_presentation(args, out) -> int:
    monoid = _validate(args)
    grid, _, _, classes, pres = build_stages(
        args.n, args.k, monoid, anchor_rule=args.anchor_rule, tie_break=args.tie_break
    )
    if args.eliminate_partial:
        pres = eliminate_partial_rows(pres, grid, classes)
    if args.simplify:
        pres = tietze_simplify(pres)
    if args.gap:
        with open(args.gap, "w") as fh:
            fh.write(to_gap(pres))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(gh_graph(grid)))
    if args.output == "json":
        out.write(_dump(presentation_to_json(pres)))
    else:
        counts = pres.counts_by_type()
        out.write(
            f"{len(pres.generators)} generators, {len(pres.relators)} relators "
            f"({counts['type1']} type1, {counts['type2']} type2, "
            f"{counts['type3']} type3, {counts['tietze']} tietze)\n"
        )
    return 0


def _cmd_identify(args, out) -> int:
    monoid = _validate(args)
    if args.workers < 1:
        raise ValueError("workers must be positive")
    if args.timings and args.output != "json":
        raise ValueError("--timings needs --output json")
    report = identify(
        args.n,
        args.k,
        monoid,
        max_cosets=args.max_cosets,
        anchor_rule=args.anchor_rule,
        tie_break=args.tie_break,
        simplify=not args.raw_coset_table,
    )
    if args.output == "json":
        out.write(_dump(report.to_json(include_timings=args.timings)))
    else:
        desc = {
            VERDICT_SYMMETRIC: f"symmetric group S_{args.k} of order {report.order}",
            VERDICT_FREE: f"free group of rank {report.free_rank}",
            VERDICT_TRIVIAL: "trivial group",
        }.get(report.verdict, "undecided: " + "; ".join(report.diagnostics))
        out.write(f"monoid={args.monoid} n={args.n} k={args.k}: {desc}\n")
    return 0 if report.verdict != VERDICT_UNDECIDED else 1


def _cmd_free_rank(args, out) -> int:
    monoid = _validate(args)
    grid = build_grid(args.n, args.k, monoid)
    rank = free_rank(gh_graph(grid), grid.base)
    if args.output == "json":
        out.write(_dump({"n": args.n, "k": args.k, "monoid": args.monoid, "free_rank": rank}))
    else:
        out.write(f"{rank}\n")
    return 0


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


def _cmd_corpus(args, out) -> int:
    runs = []
    all_ok = True
    for mon, n, k, expected in CORPUS_RUNS:
        report = identify(n, k, MONOIDS[mon], max_cosets=args.max_cosets)
        ok = report.verdict == expected
        if expected == VERDICT_SYMMETRIC:
            ok = ok and report.order == math.factorial(k)
        elif expected == VERDICT_FREE:  # the Graham-Houghton cycle rank
            ok = ok and report.free_rank == (n - 1) * (n - 2) // 2
        all_ok = all_ok and ok
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
    if args.output == "json":
        out.write(_dump({"runs": runs, "all_ok": all_ok}))
    else:
        for r in runs:
            status = "ok " if r["ok"] else "FAIL"
            if r["verdict"] == VERDICT_FREE:
                order = f"free({r['free_rank']})"
            else:
                order = "unknown" if r["order"] is None else r["order"]
            out.write(
                f"{status} {r['monoid']:>2} n={r['n']} k={r['k']} "
                f"verdict={r['verdict']} order={order}\n"
            )
        out.write("all ok\n" if all_ok else "FAILURES\n")
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, sys.stdout)
    except StructuralError as exc:
        sys.stderr.write(_dump({"error": "structural", "message": str(exc)}))
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
