import itertools
import json
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from igmax import cli
from igmax.cli import main
from igmax.dclass import build_grid
from igmax.groupid import identify
from igmax.ptrans import Monoid
from igmax.schreier import build_schreier

from helpers import MONOIDS, pipeline, reference_enumerate_singular_squares


# every class with n <= 5 of both monoids; T_n has no rank-0 class
SQUARE_COUNT_CLASSES = [
    (key, n, k)
    for key in ("pt", "t")
    for n in range(1, 6)
    for k in range(0 if key == "pt" else 1, n + 1)
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGrid:
    def test_text_counts(self, capsys):
        code, out, _ = run(capsys, "grid", "--monoid", "pt", "--n", "3", "--k", "2")
        assert code == 0
        assert "rows 6, cols 3, group_cells 9" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "grid", "--monoid", "pt", "--n", "3", "--k", "2", "--output", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["counts"] == {"rows": 6, "cols": 3, "group_cells": 9}
        assert data["cols"][0] == [1, 2]
        assert data["base"] == {"row": 1, "col": 1}
        # the base cell idempotent fixes {1,2} and retracts 3 onto 2
        assert {"row": 1, "col": 1, "map": "[1,2,2]"} in data["group_cells"]
        assert {"row": 4, "col": 1, "map": "[1,2,-]"} in data["group_cells"]


class TestIdentify:
    def test_json_verdict(self, capsys):
        code, out, _ = run(
            capsys, "identify", "--monoid", "pt", "--n", "4", "--k", "2",
            "--output", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "symmetric_k"
        assert data["order"] == 2
        assert data["hom_valid"] is True
        assert "timings" not in data

    def test_timings_opt_in(self, capsys):
        code, out, _ = run(
            capsys, "identify", "--monoid", "pt", "--n", "3", "--k", "2",
            "--output", "json", "--timings",
        )
        assert code == 0
        assert "timings" in json.loads(out)

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "identify", "--monoid", "pt", "--n", "3", "--k", "2")
        assert code == 0
        assert "free group of rank 1" in out


class TestFreeRank:
    def test_boundary_rank(self, capsys):
        code, out, _ = run(capsys, "free-rank", "--monoid", "pt", "--n", "3", "--k", "2")
        assert code == 0
        assert out.strip() == "1"


class TestSchreier:
    def test_verified_output(self, capsys):
        code, out, _ = run(
            capsys, "schreier", "--monoid", "pt", "--n", "4", "--k", "2",
            "--output", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True
        assert any(w["r"] == [] for w in data["words"])

    def test_lift_is_usage_error(self, capsys):
        # the partial grid's default system already is the total grid's, lifted
        with pytest.raises(SystemExit) as exc:
            main(["schreier", "--monoid", "pt", "--n", "4", "--k", "2", "--lift"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "--lift" in captured.err


class TestSchreierFailure:
    """identify and every subcommand that verifies share one failure message."""

    @staticmethod
    def swap_two_columns(grid, tie_break="least"):
        """build_schreier with the rows of two non-base columns swapped, where
        neither row has a cell in the other column."""
        sys_ = build_schreier(grid, tie_break)
        rows = list(sys_.rows)
        a, b = next(
            (a, b) for a, b in itertools.combinations(range(len(rows)), 2)
            if sys_.base_col not in (a, b)
            and (rows[b], a) not in grid.group_cells and (rows[a], b) not in grid.group_cells
        )
        rows[a], rows[b] = rows[b], rows[a]
        return sys_._replace(rows=tuple(rows))

    @pytest.fixture
    def swapped(self, monkeypatch):
        from igmax import groupid

        monkeypatch.setattr(groupid, "build_schreier", self.swap_two_columns)

    def test_same_message_everywhere(self, capsys, swapped):
        from igmax.errors import StructuralError
        from igmax.groupid import identify

        with pytest.raises(StructuralError) as exc:
            identify(4, 2, cli.MONOIDS["pt"])
        message = str(exc.value)
        assert message.startswith("Schreier system failed verification: column ")
        assert message.count("; ") >= 1
        for command in ("identify", "schreier", "presentation"):
            code, out, err = run(capsys, command, "--monoid", "pt", "--n", "4", "--k", "2")
            assert (code, out) == (3, "")
            assert json.loads(err) == {"error": "structural", "message": message}


DEGENERATE = [("pt", 4, 0), ("pt", 4, 4), ("t", 3, 3), ("pt", 1, 1)]


class TestDegenerate:
    """k in {0, n}: one column, the empty-word Schreier system, one anchor."""

    @pytest.mark.parametrize("monoid,n,k", DEGENERATE)
    def test_schreier(self, capsys, monoid, n, k):
        argv = ["schreier", "--monoid", monoid, "--n", str(n), "--k", str(k), "--output", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        data = json.loads(out)
        assert data["verified"] is True
        assert data["base_col"] == 1
        assert data["words"] == [{"col": 1, "r": [], "r_inv": []}]

    @pytest.mark.parametrize("monoid,n,k", DEGENERATE)
    def test_presentation_matches_identify_counts(self, capsys, monoid, n, k):
        common = ["--monoid", monoid, "--n", str(n), "--k", str(k), "--output", "json"]
        code, out, _ = run(capsys, "presentation", *common)
        assert code == 0
        pres = json.loads(out)
        code, out, _ = run(capsys, "identify", *common)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "trivial"
        assert len(pres["generators"]) == report["generators"] == 1
        assert pres["counts"] == report["relators"] == {
            "type1": 1, "type2": 0, "type3": 0, "tietze": 0,
        }
        code, out, _ = run(capsys, "presentation", *common, "--simplify")
        assert code == 0
        assert json.loads(out)["generators"] == []


class TestSquares:
    def test_counts(self, capsys):
        code, out, _ = run(
            capsys, "squares", "--monoid", "pt", "--n", "3", "--k", "2",
            "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["counts"] == {
            "classes": 0, "singular_squares": 0, "star_relators": 0,
        }

    def test_text_counts(self, capsys):
        code, out, _ = run(capsys, "squares", "--monoid", "pt", "--n", "4", "--k", "2")
        assert code == 0
        assert out == "12 classes, 36 singular squares, 24 star relators\n"

    @pytest.mark.parametrize("key,n,k", SQUARE_COUNT_CLASSES)
    def test_counts_match_the_oracle_and_the_presentation(self, capsys, key, n, k):
        # every pair of rows of a class is a singular square, and the star of
        # each class is the presentation's type-3 relators
        code, out, _ = run(
            capsys, "squares", "--monoid", key, "--n", str(n), "--k", str(k), "--output", "json",
        )
        assert code == 0
        data = json.loads(out)
        counts = data["counts"]
        grid, _, _, _, pres = pipeline(key, n, k)
        assert counts["classes"] == len(data["classes"])
        assert counts["singular_squares"] == len(reference_enumerate_singular_squares(grid))
        assert counts["star_relators"] == pres.counts_by_type()["type3"]


class TestPresentation:
    def test_exports(self, capsys, tmp_path):
        gap = tmp_path / "pres.g"
        dot = tmp_path / "graph.dot"
        code, out, _ = run(
            capsys, "presentation", "--monoid", "pt", "--n", "3", "--k", "2",
            "--gap", str(gap), "--dot", str(dot), "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["counts"]["type1"] == 6
        assert "G := F / rels;" in gap.read_text()
        assert dot.read_text().startswith("graph gh {")

    def test_export_writes_through_links(self, capsys, tmp_path):
        real, link, hard = tmp_path / "real.g", tmp_path / "link.g", tmp_path / "hard.dot"
        real.write_text("old\n" * 100)
        real.chmod(0o640)
        link.symlink_to(real)
        hard.hardlink_to(real)
        code, _, _ = run(capsys, "presentation", "--monoid", "pt", "--n", "3", "--k", "2",
                         "--gap", str(link))
        assert code == 0 and link.is_symlink()
        assert "G := F / rels;" in real.read_text() and "old" not in real.read_text()
        assert real.stat().st_mode & 0o777 == 0o640  # the rewritten file keeps its mode
        assert real.samefile(hard)  # and its other links
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hard.dot", "link.g", "real.g"]

    def test_export_through_a_dangling_link_writes_its_target(self, capsys, tmp_path):
        link, target = tmp_path / "link.g", tmp_path / "target.g"
        link.symlink_to(target)
        code, _, _ = run(capsys, "presentation", "--monoid", "pt", "--n", "3", "--k", "2",
                         "--gap", str(link))
        assert code == 0 and link.is_symlink()
        assert "G := F / rels;" in target.read_text()

    def test_export_to_devnull_leaves_the_device(self, capsys, monkeypatch):
        # a rename onto the device would replace it for every process on the host
        for name in ("replace", "rename"):
            monkeypatch.setattr(os, name, lambda *a, name=name: pytest.fail(f"os.{name}{a}"))
        before = os.stat(os.devnull)
        code, _, _ = run(capsys, "presentation", "--monoid", "pt", "--n", "3", "--k", "2",
                         "--gap", os.devnull, "--dot", os.devnull)
        after = os.stat(os.devnull)
        assert code == 0 and stat.S_ISCHR(after.st_mode)
        assert (after.st_ino, after.st_rdev) == (before.st_ino, before.st_rdev)

    def test_export_to_a_pipe(self, capsys):
        # what a shell's process substitution, --dot >(dot -Tsvg), hands over
        read, write = os.pipe()
        with os.fdopen(read) as fh:
            try:
                code, _, _ = run(capsys, "presentation", "--monoid", "pt", "--n", "3",
                                 "--k", "2", "--dot", f"/dev/fd/{write}")
            finally:
                os.close(write)
            assert code == 0 and fh.read().startswith("graph gh {")

    def test_export_to_a_fifo(self, capsys, tmp_path):
        fifo = tmp_path / "gh.dot"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        code, _, _ = run(capsys, "presentation", "--monoid", "pt", "--n", "3", "--k", "2",
                         "--dot", str(fifo))
        reader.join(timeout=10)
        assert code == 0 and got[0].startswith("graph gh {")
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_eliminate_and_simplify_flags(self, capsys):
        code, out, _ = run(
            capsys, "presentation", "--monoid", "pt", "--n", "4", "--k", "2",
            "--eliminate-partial", "--output", "json",
        )
        assert code == 0
        assert len(json.loads(out)["generators"]) == 24

    @pytest.mark.parametrize(
        "monoid,n,k", [(mon, n, k) for mon, n, k, _ in cli.CORPUS_RUNS if n <= 5]
    )
    def test_simplify_matches_identify_counts(self, capsys, monoid, n, k):
        common = ["--monoid", monoid, "--n", str(n), "--k", str(k), "--output", "json"]
        code, out, _ = run(capsys, "identify", *common)
        assert code == 0
        report = json.loads(out)
        code, out, _ = run(capsys, "presentation", "--simplify", *common)
        assert code == 0
        simp = json.loads(out)
        if k in (0, n):  # identify stops at the trivial verdict before simplifying
            assert report["simplified_generators"] is report["simplified_relators"] is None
            assert simp["generators"] == simp["relators"] == []
        else:
            assert report["simplified_generators"] == len(simp["generators"])
            assert report["simplified_relators"] == len(simp["relators"])


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(n + 1)])
def test_eliminate_partial_lists_only_total_row_generators(capsys, n, k):
    code, out, _ = run(
        capsys, "presentation", "--monoid", "pt", "--n", str(n), "--k", str(k),
        "--eliminate-partial", "--output", "json",
    )
    assert code == 0
    total = {i + 1 for i in build_grid(n, k, Monoid.PARTIAL).total_rows()}
    rows = {int(name.split("_")[1]) for name in json.loads(out)["generators"]}
    assert rows <= total and bool(rows) == bool(total)  # k = 0 has no total row


@pytest.mark.parametrize("key,n,k", SQUARE_COUNT_CLASSES)
def test_no_production_path_composes(capsys, monkeypatch, key, n, k):
    # every check on the way reads the grid's cells: no map is composed
    def refuse(*args):
        raise AssertionError("compose_entries called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "igmax" and hasattr(module, "compose_entries"):
            monkeypatch.setattr(module, "compose_entries", refuse)
    identify(n, k, MONOIDS[key])
    flags = ["--monoid", key, "--n", str(n), "--k", str(k)]
    assert main(["schreier", *flags]) == 0
    if key == "pt":  # only partial grids carry partial rows to eliminate
        assert main(["presentation", *flags, "--eliminate-partial"]) == 0
    capsys.readouterr()


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ["identify", "--monoid", "pt", "--n", "4", "--k", "2", "--output", "json"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_worker_count_does_not_change_output(self, capsys):
        base = ["identify", "--monoid", "pt", "--n", "5", "--k", "2", "--output", "json"]
        _, one, _ = run(capsys, *base, "--workers", "1")
        _, two, _ = run(capsys, *base, "--workers", "2")
        assert one == two


CLASS_COMMANDS = ["grid", "schreier", "squares", "presentation", "identify", "free-rank"]


class TestErrors:
    # build_grid checks the class for every subcommand, before any output
    @pytest.mark.parametrize("command", CLASS_COMMANDS)
    @pytest.mark.parametrize(
        "monoid,n,k,message",
        [("pt", "3", "5", "rank 5 out of range for n=3"), ("pt", "0", "0", "n must be positive"),
         ("t", "3", "0", "T_n has no rank-0 class")],
        ids=["k_above_n", "n_zero", "total_rank_zero"],
    )
    def test_k_out_of_range_is_usage_error(self, capsys, command, monoid, n, k, message):
        code, out, err = run(capsys, command, "--monoid", monoid, "--n", n, "--k", k)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_size_cap(self, capsys):
        code, _, err = run(capsys, "grid", "--monoid", "pt", "--n", "9", "--k", "2")
        assert code == 2
        assert "exceeds the cap" in err
        code, out, _ = run(
            capsys, "grid", "--monoid", "pt", "--n", "8", "--k", "7", "--max-n", "8"
        )
        assert code == 0

    def test_default_cap_admits_n_8(self, capsys):
        code, out, _ = run(capsys, "grid", "--monoid", "pt", "--n", "8", "--k", "7",
                           "--output", "json")
        assert code == 0
        assert json.loads(out)["n"] == 8

    @pytest.mark.parametrize(
        "argv",
        [
            ["identify", "--monoid", "t", "--n", "3", "--k", "2"],
            ["identify", "--monoid", "pt", "--n", "3", "--k", "2"],
        ],
    )
    def test_nonpositive_workers_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--workers", "0")
        assert code == 2
        assert out == ""
        assert "workers must be positive" in err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--gap", "--dot"])
    def test_unwritable_export_is_usage_error(self, capsys, tmp_path, flag):
        path = tmp_path / "missing" / "x.g"
        code, out, err = run(
            capsys, "presentation", "--monoid", "pt", "--n", "3", "--k", "2", flag, str(path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize(
        "dot,reason",
        [("nodir/gh.dot", "[Errno 2] No such file or directory"), ("dir", "[Errno 21] Is a directory")],
        ids=["missing_dir", "is_a_dir"],
    )
    @pytest.mark.parametrize("existing", [None, "F := old;\n"], ids=["new", "existing"])
    def test_unwritable_dot_writes_no_gap_file(self, capsys, tmp_path, existing, dot, reason):
        gap, dot = tmp_path / "p.g", tmp_path / dot
        (tmp_path / "dir").mkdir()
        if existing is not None:
            gap.write_text(existing)
        code, out, err = run(
            capsys, "presentation", "--monoid", "pt", "--n", "3", "--k", "2",
            "--gap", str(gap), "--dot", str(dot),
        )
        assert (code, out) == (2, "")
        assert err == f"error: {reason}: {str(dot)!r}\n"
        if existing is not None:
            assert gap.read_bytes() == existing.encode()
        # no new gap file is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["dir"] if existing is None else ["dir", "p.g"]
        )

    def test_failed_export_removes_what_a_dangling_link_created(self, capsys, tmp_path):
        # opening the link for append creates its target; the failure on
        # --dot removes that file and leaves the link dangling, as it was
        link, target = tmp_path / "link.g", tmp_path / "target.g"
        link.symlink_to(target)
        code, out, _ = run(
            capsys, "presentation", "--monoid", "pt", "--n", "3", "--k", "2",
            "--gap", str(link), "--dot", str(tmp_path / "nodir" / "gh.dot"),
        )
        assert (code, out) == (2, "")
        assert link.is_symlink() and not target.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.g"]


CLASS_FLAGS = ["--monoid", "pt", "--n", "4", "--k", "2"]


class TestFlags:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            *([command, flag, value]
              for command in ("grid", "squares", "free-rank")
              for flag, value in (("--anchor-rule", "lex"), ("--tie-break", "least"))),
            ["schreier", "--anchor-rule", "lex"],
            ["identify", "--timings", "--output", "text"],
        ],
        ids=" ".join,
    )
    def test_ignored_flag_is_usage_error(self, capsys, argv):
        try:
            code = main([argv[0], *CLASS_FLAGS, *argv[1:]])
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == (2, "")

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("schreier", "--tie-break", "greatest"),
            ("presentation", "--tie-break", "greatest"),
            ("presentation", "--anchor-rule", "lexmax"),
            ("identify", "--tie-break", "greatest"),
            ("identify", "--anchor-rule", "lexmax"),
        ],
    )
    def test_kept_flag_changes_some_corpus_output(self, capsys, command, flag, value):
        for mon, n, k, _ in cli.CORPUS_RUNS:
            argv = [command, "--monoid", mon, "--n", str(n), "--k", str(k), "--output", "json"]
            if run(capsys, *argv) != run(capsys, *argv, flag, value):
                return
        pytest.fail(f"{command} {flag} {value} changes no corpus output")


class TestCorpus:
    def test_free_rank_is_checked(self, capsys, monkeypatch):
        real_identify = cli.identify

        def off_by_one(n, k, monoid, **kwargs):
            report = real_identify(n, k, monoid, **kwargs)
            if report.verdict == "free_of_rank":
                report = report._replace(free_rank=report.free_rank + 1)
            return report

        monkeypatch.setattr(cli, "identify", off_by_one)
        code, out, _ = run(capsys, "corpus", "--output", "json")
        assert code == 1
        data = json.loads(out)
        assert data["all_ok"] is False
        assert [(r["n"], r["k"]) for r in data["runs"] if not r["ok"]] == [(3, 2), (4, 3)]

    def test_text_prints_a_free_rank_only_for_the_free_verdict(self, capsys):
        # a cap of one coset leaves every S_k class undecided, without an order
        code, out, _ = run(capsys, "corpus", "--max-cosets", "1")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL pt n=4 k=2 verdict=undecided order=unknown" in lines
        assert "ok  pt n=3 k=2 verdict=free_of_rank order=free(1)" in lines
        for line in lines[:-1]:
            assert ("order=free(" in line) == ("verdict=free_of_rank" in line), line

    def test_every_run_passes(self, capsys):
        code, out, _ = run(capsys, "corpus", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["all_ok"] is True
        assert all(r["ok"] for r in data["runs"])
        assert [(r["monoid"], r["n"], r["k"]) for r in data["runs"]] == [
            (mon, n, k) for mon, n, k, _ in cli.CORPUS_RUNS
        ]

    def test_skip_slow_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "--skip-slow"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "--skip-slow" in captured.err


class TestMaxCosets:
    """A nonpositive coset cap is a usage error at every rank, before any work."""

    @pytest.fixture
    def no_pipeline(self, monkeypatch):
        from igmax import groupid

        def refuse(*args, **kwargs):
            raise AssertionError("the pipeline ran before the cap was checked")

        monkeypatch.setattr(groupid, "build_grid", refuse)

    @pytest.mark.parametrize("k", range(0, 5))
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_identify_rejects_nonpositive_cap(self, capsys, no_pipeline, k, cap):
        code, out, err = run(
            capsys, "identify", "--monoid", "pt", "--n", "4", "--k", str(k),
            "--max-cosets", cap, "--output", "json",
        )
        assert code == 2
        assert out == ""
        assert "max_cosets must be positive" in err

    def test_corpus_rejects_nonpositive_cap(self, capsys, no_pipeline):
        code, out, err = run(capsys, "corpus", "--max-cosets", "0")
        assert code == 2
        assert out == ""
        assert "max_cosets must be positive" in err

    def test_cap_of_one_still_runs(self, capsys):
        code, out, _ = run(
            capsys, "identify", "--monoid", "pt", "--n", "4", "--k", "2",
            "--max-cosets", "1", "--output", "json",
        )
        assert code == 1
        assert json.loads(out)["order_kind"] == "overflow"


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src"
FLAG = re.compile(r"--[a-z][a-z-]*")


def usage(capsys, *argv) -> str:
    """The usage line of `igmax ARGV --help`."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out.split("\n\n")[0]


def test_readme_flag_list_matches_the_parser(capsys):
    # each bullet of README's flag list names a subcommand, or every one but
    # corpus, and its flags; a subcommand without a bullet takes the shared
    # flags alone
    text = README.read_text()
    start = text.index("\n\n", text.index("Each subcommand takes only the flags it reads")) + 2
    bullets = {}
    for bullet in text[start:text.index("\n\n", start)].split("\n- "):
        head, _, body = bullet.removeprefix("- ").partition(":")
        bullets[head] = set(FLAG.findall(body))
    shared = bullets.pop("every subcommand but `corpus`")
    for command in re.search(r"\{([a-z,-]+)\}", usage(capsys)).group(1).split(","):
        want = bullets.pop(f"`{command}`", set()) | (set() if command == "corpus" else shared)
        assert set(FLAG.findall(usage(capsys, command))) == want, command
    assert bullets == {}


def test_ci_runs_the_installed_console_script_last():
    # installed last, so the copy in site-packages shadows src/ in no other step
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    last = text.rstrip("\n").split("\n")[-3:]
    assert [line.strip() for line in last] == [
        "- run: |", "python -m pip install --no-deps .", "igmax corpus"]
    assert text.count("install --no-deps") == 1


RAW = ["identify", "--monoid", "pt", "--n", "5", "--k", "3", "--raw-coset-table",
       "--output", "json"]
# a usage error (argparse exits 2), help (exits 0), the raw route twice, the corpus
REUSE_CALLS = (["identify", "--monoid", "pt", "--n", "4"], ["identify", "--help"],
               RAW, RAW, ["corpus"])


class TestParserReuse:
    """`main` builds its parser once per process, and never at import."""

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reused_parser_answers_like_a_fresh_one(self, capsys, monkeypatch):
        fresh = []
        for argv in REUSE_CALLS:
            cli._parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0]
        assert fresh[2] == fresh[3]

        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        assert [self.call(capsys, argv) for argv in REUSE_CALLS] == fresh
        assert len(built) == 1

    def test_import_builds_no_parser(self):
        # count every ArgumentParser made while importing, then check the count
        # sees one made on purpose
        probe = (
            "import argparse, sys; sys.path.insert(0, sys.argv[1]); made = []; "
            "init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: made.append(1) or init(self, *a, **k); "
            "import igmax.cli; print(len(made)); "
            "igmax.cli.build_parser(); print(len(made) > 0)"
        )
        done = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "True"]
