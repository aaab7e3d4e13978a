import pytest

from igmax.dclass import build_grid
from igmax.errors import StructuralError
from igmax.groupid import verified_schreier
from igmax.ptrans import Monoid, PartialMap, compose
from igmax.schreier import (
    TIE_BREAKS,
    SchreierSystem,
    build_schreier,
    verify_schreier,
)

from helpers import (
    l_class_elements,
    pipeline,
    reference_build_schreier,
    reference_lift,
    reference_word_value,
    star_words,
    swap_cells,
)

PT = Monoid.PARTIAL
T = Monoid.TOTAL


class TestBuild:
    def test_base_column_has_no_row(self):
        grid = build_grid(4, 2, PT)
        sys_ = build_schreier(grid)
        assert sys_.base_col == grid.base[1]
        assert sys_.rows[sys_.base_col] is None

    @pytest.mark.parametrize("tie", TIE_BREAKS)
    @pytest.mark.parametrize("monoid", [T, PT])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_star_matches_breadth_first_oracle(self, n, monoid, tie):
        # the column graph is complete, so the BFS never leaves the base column
        for k in range(0 if monoid is PT else 1, n + 1):
            grid = build_grid(n, k, monoid)
            sys_ = build_schreier(grid, tie)
            assert star_words(sys_) == reference_build_schreier(grid, tie), (n, k)
            assert len(sys_.rows) == len(grid.cols)
            for col, i in enumerate(sys_.rows):
                assert (i is None) == (col == sys_.base_col), (n, k, col)

    def test_unknown_tie_break(self):
        with pytest.raises(ValueError, match="tie_break must be one of"):
            build_schreier(build_grid(3, 2, PT), "middle")

    def test_column_sharing_no_base_row_is_structural_error(self):
        grid = build_grid(4, 2, PT)
        base = grid.base[1]
        mu = 1 if base != 1 else 2
        base_rows = set(grid.cells_in_col[base])
        cut = grid._replace(cells_in_col=tuple(
            tuple(i for i in rows if i not in base_rows) if c == mu else rows
            for c, rows in enumerate(grid.cells_in_col)
        ))
        assert cut.cells_in_col[mu]
        with pytest.raises(StructuralError, match=f"column {mu} shares no row with the base"):
            build_schreier(cut)

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
        assert build_schreier(grid) == build_schreier(grid)

    @pytest.mark.parametrize("tie", TIE_BREAKS)
    def test_degenerate_grid_has_no_row(self, tie):
        # k in {0, n}: one column, the base, so there is no letter to read
        for n in range(1, 7):
            for monoid, k in [(PT, 0), (PT, n), (T, n)]:
                grid = build_grid(n, k, monoid)
                want = SchreierSystem(grid.base[1], (None,))
                assert build_schreier(grid, tie) == verified_schreier(grid, tie) == want

    def test_representative_lands_in_base_row(self):
        grid, _, sys_, _, _ = pipeline("pt", 4, 2)
        e = PartialMap(grid.base_idempotent)
        words = star_words(sys_)
        for col in range(len(grid.cols)):
            q = compose(e, reference_word_value(grid, words.r[col]))
            assert q.kernel() == grid.rows[grid.base[0]]
            assert q.image() == grid.cols[col]


class TestVerify:
    @staticmethod
    def corrupted(corruption):
        """PT_3 k=2 with one corruption of its star or its grid."""
        grid = build_grid(3, 2, PT)
        sys_ = build_schreier(grid)
        base = sys_.base_col
        rows = list(sys_.rows)
        if corruption == "foreign_row":
            mu = next(c for c in range(len(rows)) if c != base)
            rows[mu] = next(i for i in range(len(grid.rows)) if (i, mu) not in grid.group_cells)
        elif corruption == "base_row":
            rows[base] = grid.cells_in_col[base][0]
        else:
            # the shared row's cells in its column and in the base column trade entries
            mu, i = next((c, i) for c, i in enumerate(rows) if i not in (None, grid.base[0]))
            grid = swap_cells(grid, (i, mu), (i, base))
        return grid, sys_._replace(rows=tuple(rows))

    @pytest.mark.parametrize(
        "corruption,violation",
        [("foreign_row", "is not a group cell"), ("base_row", "has a row"),
         ("swapped_cells", "does not land")],
    )
    def test_corrupted_system_reports_violations(self, corruption, violation):
        grid, sys_ = self.corrupted(corruption)
        violations = verify_schreier(grid, sys_)
        assert violations and all(violation in v for v in violations), violations

    def test_no_row_system_on_degenerate_grid(self):
        grid = build_grid(3, 3, PT)
        assert verify_schreier(grid, SchreierSystem(base_col=0, rows=(None,))) == []

    def test_missing_column_detected(self):
        grid = build_grid(3, 2, PT)
        sys_ = build_schreier(grid)
        assert verify_schreier(grid, SchreierSystem(sys_.base_col, (None,))) != []

    def test_foreign_base_column_detected(self):
        grid = build_grid(3, 2, PT)
        sys_ = build_schreier(grid)
        other = next(c for c in range(len(grid.cols)) if c != sys_.base_col)
        assert verify_schreier(grid, sys_._replace(base_col=other)) != []

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
