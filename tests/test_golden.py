"""Golden digests of the default CLI output.

Every byte of default output is kept unless a change says what moved and
why.  `golden_digests.json` holds, for each subcommand variant, each `n <= 5`
class of `CORPUS_RUNS` and each combination of the anchor rules and
tie-breaks the variant crosses, the sha256 of the exit code and stdout,
followed by the written file for the `--gap` variants.  A variant crosses
exactly the flags its subcommand accepts, which `build_parser` alone decides;
a flag it does not cross sits at its default in the key.  A `corpus` variant
takes no class flags, so it runs once, under the key `corpus`.  The default
combination runs in tier 1, the rest under `slow`.  After a deliberate output
change, rewrite the digests of the variants that changed, and only those,
from the root of a checkout with

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

from igmax.cli import CORPUS_RUNS, build_parser, main
from igmax.dclass import ANCHOR_RULES
from igmax.schreier import TIE_BREAKS

DIGESTS = Path(__file__).with_name("golden_digests.json")

CLASSES = [(mon, n, k) for mon, n, k, _ in CORPUS_RUNS if n <= 5]
PARTIAL = [c for c in CLASSES if c[0] == "pt"]

# flag -> its values, the default first
FLAGS = {"--anchor-rule": ANCHOR_RULES, "--tie-break": TIE_BREAKS}
BOTH = tuple(FLAGS)
DEFAULT = tuple(values[0] for values in FLAGS.values())

# variant -> (argv after the class flags, the classes it runs, flags crossed);
# a variant without classes runs once, with no class flags
VARIANTS = {
    "identify-json": (["identify", "--output", "json"], CLASSES, BOTH),
    "identify-text": (["identify", "--output", "text"], CLASSES, BOTH),
    "identify-raw": (["identify", "--raw-coset-table", "--output", "json"], CLASSES, BOTH),
    "squares": (["squares", "--output", "json"], CLASSES, ()),
    "squares-text": (["squares", "--output", "text"], CLASSES, ()),
    "grid": (["grid", "--output", "json"], CLASSES, ()),
    "grid-text": (["grid", "--output", "text"], CLASSES, ()),
    "free-rank": (["free-rank", "--output", "json"], CLASSES, ()),
    "free-rank-text": (["free-rank", "--output", "text"], CLASSES, ()),
    "schreier": (["schreier", "--output", "json"], CLASSES, ("--tie-break",)),
    "schreier-text": (["schreier", "--output", "text"], CLASSES, ("--tie-break",)),
    "presentation": (["presentation", "--output", "json"], CLASSES, BOTH),
    "presentation-text": (["presentation", "--output", "text"], CLASSES, BOTH),
    "presentation-simplify": (
        ["presentation", "--simplify", "--output", "json"], CLASSES, BOTH),
    "presentation-eliminate": (
        ["presentation", "--eliminate-partial", "--output", "json"], PARTIAL, BOTH),
    "presentation-gap": (["presentation", "--output", "text", "--gap"], CLASSES, BOTH),
    "presentation-simplify-gap": (
        ["presentation", "--simplify", "--output", "text", "--gap"], CLASSES, BOTH),
    "corpus-json": (["corpus", "--output", "json"], [], ()),
    "corpus-text": (["corpus", "--output", "text"], [], ()),
}


def combinations(variant: str) -> list[tuple[str, str]]:
    """The (anchor rule, tie-break) pairs a variant runs; an uncrossed flag
    stays at its default."""
    crossed = VARIANTS[variant][2]
    anchors, ties = (FLAGS[f] if f in crossed else FLAGS[f][:1] for f in FLAGS)
    return [(a, t) for a in anchors for t in ties]


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
    argv, classes, crossed = VARIANTS[variant]
    values = dict(zip(FLAGS, (anchor_rule, tie_break)))
    flags = [x for f in crossed for x in (f, values[f])]
    if not classes:
        return {argv[0]: run_digest([*argv, *flags])}
    return {
        f"{mon}-{n}-{k}": run_digest(
            [argv[0], "--monoid", mon, "--n", str(n), "--k", str(k), *flags, *argv[1:]]
        )
        for mon, n, k in classes
    }


def key(variant: str, anchor_rule: str, tie_break: str) -> str:
    return f"{variant} {anchor_rule} {tie_break}"


MATRIX = [
    pytest.param(v, a, t, marks=() if (a, t) == DEFAULT else pytest.mark.slow)
    for v in VARIANTS
    for a, t in combinations(v)
]


def accepts(argv: list[str]) -> bool:
    """Whether `build_parser` parses `argv` without a usage error."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            return False
    return True


@pytest.mark.parametrize("variant", VARIANTS)
def test_crossed_flags_are_the_accepted_ones(variant):
    argv, classes, crossed = VARIANTS[variant]
    head = [argv[0], "--monoid", "pt", "--n", "4", "--k", "2"] if classes else argv[:1]
    tail = [*argv[1:], "x.g"] if argv[-1] == "--gap" else argv[1:]
    assert accepts([*head, *tail])
    for flag, values in FLAGS.items():
        assert {accepts([*head, flag, value, *tail]) for value in values} == {flag in crossed}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def test_no_orphan_digests(golden):
    assert set(golden) == {key(v, a, t) for v in VARIANTS for a, t in combinations(v)}


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
    table = {k: d for k, d in table.items() if k.split()[0] not in variants}
    fresh = {
        key(v, a, t): digests(v, a, t)
        for v in variants or VARIANTS
        for a, t in combinations(v)
    }
    table.update(fresh)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {sum(map(len, fresh.values()))} digests to {DIGESTS}\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
