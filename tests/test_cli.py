import dataclasses
import json

import pytest

from igmax import cli
from igmax.cli import main


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

    def test_lift(self, capsys):
        code, out, _ = run(
            capsys, "schreier", "--monoid", "pt", "--n", "4", "--k", "2", "--lift"
        )
        assert code == 0
        assert "verified" in out


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
        if monoid == "pt":
            assert run(capsys, *argv, "--lift") == (0, out, "")

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
        assert json.loads(out)["count"] == 0


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


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ["identify", "--monoid", "pt", "--n", "4", "--k", "2", "--output", "json"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_worker_count_does_not_change_output(self, capsys):
        base = ["squares", "--monoid", "pt", "--n", "5", "--k", "2", "--output", "json"]
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

    def test_total_rank_zero_rejected(self, capsys):
        code, _, err = run(capsys, "grid", "--monoid", "t", "--n", "3", "--k", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [["corpus"], ["identify", "--monoid", "pt", "--n", "3", "--k", "2"]]
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


class TestCorpus:
    def test_free_rank_is_checked(self, capsys, monkeypatch):
        real_identify = cli.identify

        def off_by_one(n, k, monoid, **kwargs):
            report = real_identify(n, k, monoid, **kwargs)
            if report.verdict == "free_of_rank":
                report = dataclasses.replace(report, free_rank=report.free_rank + 1)
            return report

        monkeypatch.setattr(cli, "identify", off_by_one)
        code, out, _ = run(capsys, "corpus", "--skip-slow", "--output", "json")
        assert code == 1
        data = json.loads(out)
        assert data["all_ok"] is False
        assert [(r["n"], r["k"]) for r in data["runs"] if not r["ok"]] == [(3, 2), (4, 3)]

    def test_fast_subset_passes(self, capsys):
        code, out, _ = run(capsys, "corpus", "--skip-slow", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["all_ok"] is True
        assert all(r["ok"] for r in data["runs"])
        assert all(r["n"] < 6 for r in data["runs"])


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
        code, out, err = run(capsys, "corpus", "--skip-slow", "--max-cosets", "0")
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
