import json

import pytest

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
    def test_fast_subset_passes(self, capsys):
        code, out, _ = run(capsys, "corpus", "--skip-slow", "--output", "json")
        assert code == 0
        data = json.loads(out)
        assert data["all_ok"] is True
        assert all(r["ok"] for r in data["runs"])
        assert all(r["n"] < 6 for r in data["runs"])
