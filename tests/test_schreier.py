import pytest

from igmax.dclass import build_grid
from igmax.groupid import verified_schreier
from igmax.ptrans import Monoid, compose
from igmax.schreier import (
    TIE_BREAKS,
    SchreierSystem,
    build_schreier,
    verify_schreier,
    word_value,
)

from helpers import l_class_elements, pipeline, reference_lift

PT = Monoid.PARTIAL
T = Monoid.TOTAL


class TestBuild:
    def test_root_word_is_empty(self):
        grid = build_grid(4, 2, PT)
        sys_ = build_schreier(grid)
        assert sys_.r[sys_.base_col] == ()
        assert sys_.r_inv[sys_.base_col] == ()
        assert sys_.base_col == grid.base[1]

    def test_pt3_k2_single_letters(self):
        grid = build_grid(3, 2, PT)
        sys_ = build_schreier(grid)
        assert set(sys_.r) == {0, 1, 2}
        assert all(len(w) <= 1 for w in sys_.r.values())

    @pytest.mark.parametrize("monoid", [T, PT])
    def test_built_systems_verify(self, monoid):
        for n in range(2, 6):
            for k in range(1, n):
                grid = build_grid(n, k, monoid)
                sys_ = build_schreier(grid)
                assert verify_schreier(grid, sys_) == [], (monoid, n, k)

    def test_reversed_tie_break_verifies(self):
        grid = build_grid(4, 2, PT)
        sys_ = build_schreier(grid, tie_break="greatest")
        assert verify_schreier(grid, sys_) == []

    def test_deterministic(self):
        grid = build_grid(4, 2, PT)
        a = build_schreier(grid)
        b = build_schreier(grid)
        assert a.r == b.r and a.r_inv == b.r_inv

    @pytest.mark.parametrize("tie", TIE_BREAKS)
    def test_degenerate_grid_gets_empty_words(self, tie):
        # k in {0, n}: one column, so the BFS stops at the root
        for n in range(1, 7):
            for monoid, k in [(PT, 0), (PT, n), (T, n)]:
                grid = build_grid(n, k, monoid)
                base = grid.base[1]
                want = SchreierSystem(base, {base: ()}, {base: ()})
                assert build_schreier(grid, tie) == verified_schreier(grid, tie) == want

    def test_prefix_closure(self):
        for key, n, k in [("pt", 4, 2), ("t", 5, 3)]:
            _, _, sys_, _, _ = pipeline(key, n, k)
            words = set(sys_.r.values())
            for w in words:
                for cut in range(len(w)):
                    assert w[:cut] in words

    def test_word_value_lands_in_base_row(self):
        grid, _, sys_, _, _ = pipeline("pt", 4, 2)
        e = grid.base_idempotent
        for col in range(len(grid.cols)):
            q = compose(e, word_value(grid, sys_.r[col]))
            assert q.kernel() == grid.rows[grid.base[0]]
            assert q.image() == grid.cols[col]


class TestVerify:
    def test_corrupted_system_reports_violations(self):
        grid = build_grid(3, 2, PT)
        sys_ = build_schreier(grid)
        cols = [c for c in sys_.r if c != sys_.base_col]
        a, b = cols[0], cols[1]
        broken = SchreierSystem(
            base_col=sys_.base_col,
            r=dict(sys_.r),
            r_inv={**sys_.r_inv, a: sys_.r_inv[b], b: sys_.r_inv[a]},
        )
        assert verify_schreier(grid, broken) != []

    def test_empty_word_system_on_degenerate_grid(self):
        grid = build_grid(3, 3, PT)
        sys_ = SchreierSystem(base_col=0, r={0: ()}, r_inv={0: ()})
        assert verify_schreier(grid, sys_) == []

    def test_missing_column_detected(self):
        grid = build_grid(3, 2, PT)
        sys_ = build_schreier(grid)
        broken = SchreierSystem(sys_.base_col, {0: ()}, {0: ()})
        assert verify_schreier(grid, broken) != []

    def test_l_class_size(self):
        grid = build_grid(3, 2, PT)
        elems = l_class_elements(grid, grid.base[1])
        # every row contributes k! elements
        assert len(elems) == len(grid.rows) * 2
        assert len(set(elems)) == len(elems)
        assert all(m.image() == grid.cols[grid.base[1]] for m in elems)


class TestLift:
    """With tie-break least the PT_n system is the T_n system lifted."""

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 8) for k in range(1, n)])
    def test_partial_system_is_the_lifted_total_one(self, n, k):
        grid_t = build_grid(n, k, T)
        grid_pt = build_grid(n, k, PT)
        assert grid_pt.rows[: len(grid_t.rows)] == grid_t.rows
        assert build_schreier(grid_pt) == build_schreier(grid_t) == reference_lift(grid_t, grid_pt)
