import json
import re
from pathlib import Path

import pytest

from igmax import cli
from igmax.cli import main
from igmax.dclass import build_grid
from igmax.ptrans import Monoid
from igmax.schreier import SchreierSystem, build_schreier

from helpers import pipeline, reference_enumerate_singular_squares


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
        """build_schreier with the words of two non-base columns swapped."""
        sys_ = build_schreier(grid, tie_break)
        a, b = [c for c in sorted(sys_.r) if c != sys_.base_col][:2]
        r, r_inv = dict(sys_.r), dict(sys_.r_inv)
        r[a], r[b], r_inv[a], r_inv[b] = r[b], r[a], r_inv[b], r_inv[a]
        return SchreierSystem(sys_.base_col, r, r_inv)

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


class TestErrors:
    def test_k_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "grid", "--monoid", "pt", "--n", "3", "--k", "5")
        assert code == 2
        assert "out of range" in err

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

    def test_total_rank_zero_rejected(self, capsys):
        code, _, err = run(capsys, "grid", "--monoid", "t", "--n", "3", "--k", "0")
        assert code == 2

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


README = Path(__file__).resolve().parent.parent / "README.md"
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
