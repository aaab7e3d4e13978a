"""Golden digests of the default CLI output.

Every byte of default output is kept unless a change says what moved and
why.  `golden_digests.json` holds, for each subcommand variant, anchor rule,
tie-break and `n <= 5` class of `CORPUS_RUNS`, the sha256 of the exit code
and stdout, followed by the written file for the `--gap` variants.  The
default anchor rule and tie-break run in tier 1, the rest of the 3 x 2 matrix
under `slow`.  After a deliberate output change, rewrite the digests of the
variants that changed, and only those, from the root of a checkout with

    PYTHONPATH=src python3 tests/test_golden.py VARIANT [VARIANT ...]

Naming no variant rewrites all of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from igmax.cli import CORPUS_RUNS, main
from igmax.dclass import ANCHOR_RULES
from igmax.schreier import TIE_BREAKS

DIGESTS = Path(__file__).with_name("golden_digests.json")

CLASSES = [(mon, n, k) for mon, n, k, _ in CORPUS_RUNS if n <= 5]

# variant -> (argv after the class flags, partial monoid only)
VARIANTS = {
    "identify-json": (["identify", "--output", "json"], False),
    "identify-text": (["identify", "--output", "text"], False),
    "identify-raw": (["identify", "--raw-coset-table", "--output", "json"], False),
    "squares": (["squares", "--output", "json"], False),
    "grid": (["grid", "--output", "json"], False),
    "free-rank": (["free-rank", "--output", "json"], False),
    "schreier": (["schreier", "--output", "json"], False),
    "presentation": (["presentation", "--output", "json"], False),
    "presentation-simplify": (["presentation", "--simplify", "--output", "json"], False),
    "schreier-lift": (["schreier", "--lift", "--output", "json"], True),
    "presentation-eliminate": (["presentation", "--eliminate-partial", "--output", "json"], True),
    "presentation-gap": (["presentation", "--output", "text", "--gap"], False),
    "presentation-simplify-gap": (
        ["presentation", "--simplify", "--output", "text", "--gap"], False),
}

DEFAULT = ("lex", "least")


def run_digest(argv: list[str]) -> str:
    """sha256 of the exit code and stdout of one in-process CLI run.

    An argv ending in `--gap` gets a scratch path, and the file written there
    is hashed after stdout.
    """
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        gap = Path(tmp, "presentation.g")
        if argv[-1] == "--gap":
            argv = [*argv, str(gap)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        written = gap.read_text() if gap.exists() else ""
    return hashlib.sha256(f"{code}\n{out.getvalue()}{written}".encode()).hexdigest()


def digests(variant: str, anchor_rule: str, tie_break: str) -> dict[str, str]:
    argv, partial_only = VARIANTS[variant]
    out = {}
    for mon, n, k in CLASSES:
        if partial_only and mon != "pt":
            continue
        out[f"{mon}-{n}-{k}"] = run_digest(
            [argv[0], "--monoid", mon, "--n", str(n), "--k", str(k),
             "--anchor-rule", anchor_rule, "--tie-break", tie_break, *argv[1:]]
        )
    return out


def key(variant: str, anchor_rule: str, tie_break: str) -> str:
    return f"{variant} {anchor_rule} {tie_break}"


MATRIX = [
    pytest.param(v, a, t, marks=() if (a, t) == DEFAULT else pytest.mark.slow)
    for v in VARIANTS
    for a in ANCHOR_RULES
    for t in TIE_BREAKS
]


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("variant, anchor_rule, tie_break", MATRIX)
def test_output_bytes_unchanged(golden, variant, anchor_rule, tie_break):
    want = golden[key(variant, anchor_rule, tie_break)]
    got = digests(variant, anchor_rule, tie_break)
    assert [c for c in want if got.get(c) != want[c]] == []
    assert got.keys() == want.keys()


def regenerate(variants: list[str]) -> int:
    """Rewrite the digests of the named variants, or of all when none is named."""
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown:
        sys.stderr.write(
            f"unknown variant(s) {', '.join(unknown)}; known: {', '.join(VARIANTS)}\n"
        )
        return 2
    table = json.loads(DIGESTS.read_text()) if variants else {}
    fresh = {
        key(v, a, t): digests(v, a, t)
        for v in variants or VARIANTS
        for a in ANCHOR_RULES
        for t in TIE_BREAKS
    }
    table.update(fresh)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {sum(map(len, fresh.values()))} digests to {DIGESTS}\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
