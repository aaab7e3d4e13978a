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
    word_value,
)

from helpers import (
    MONOIDS,
    l_class_elements,
    pipeline,
    reference_build_schreier,
    reference_lift,
    reference_word_value,
)

PT = Monoid.PARTIAL
T = Monoid.TOTAL


class TestBuild:
    def test_root_word_is_empty(self):
        grid = build_grid(4, 2, PT)
        sys_ = build_schreier(grid)
        assert sys_.r[sys_.base_col] == ()
        assert sys_.r_inv[sys_.base_col] == ()
        assert sys_.base_col == grid.base[1]

    @pytest.mark.parametrize("tie", TIE_BREAKS)
    @pytest.mark.parametrize("monoid", [T, PT])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_star_matches_breadth_first_oracle(self, n, monoid, tie):
        # the column graph is complete, so the BFS never leaves the base column
        for k in range(0 if monoid is PT else 1, n + 1):
            grid = build_grid(n, k, monoid)
            sys_ = build_schreier(grid, tie)
            assert sys_ == reference_build_schreier(grid, tie), (n, k)
            assert set(sys_.r) == set(range(len(grid.cols)))
            for col, w in sys_.r.items():
                assert len(w) == (col != sys_.base_col) == len(sys_.r_inv[col]), (n, k, col)

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
        a = build_schreier(grid)
        b = build_schreier(grid)
        assert a.r == b.r and a.r_inv == b.r_inv

    @pytest.mark.parametrize("tie", TIE_BREAKS)
    def test_degenerate_grid_gets_empty_words(self, tie):
        # k in {0, n}: one column, the base, so there is no letter to read
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
        e = PartialMap(grid.base_idempotent)
        for col in range(len(grid.cols)):
            q = compose(e, PartialMap(word_value(grid, sys_.r[col])))
            assert q.kernel() == grid.rows[grid.base[0]]
            assert q.image() == grid.cols[col]


class TestWordValue:
    """The entry-tuple product against the product of checked maps."""

    @pytest.mark.parametrize("tie", TIE_BREAKS)
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_checked_map_product(self, n, key, tie):
        monoid = MONOIDS[key]
        for k in range(0 if monoid is PT else 1, n + 1):
            grid = build_grid(n, k, monoid)
            sys_ = build_schreier(grid, tie)
            assert word_value(grid, ()) == tuple(range(n))
            for w in (*sys_.r.values(), *sys_.r_inv.values()):
                assert PartialMap(word_value(grid, w)) == reference_word_value(grid, w), (k, w)


class TestVerify:
    @pytest.mark.parametrize("corruption", ["swap_inverses", "foreign_letter"])
    def test_corrupted_system_reports_violations(self, corruption):
        grid = build_grid(3, 2, PT)
        sys_ = build_schreier(grid)
        cols = [c for c in sys_.r if c != sys_.base_col]
        a, b = cols[0], cols[1]
        if corruption == "swap_inverses":
            r, r_inv = dict(sys_.r), {**sys_.r_inv, a: sys_.r_inv[b], b: sys_.r_inv[a]}
            violation = "does not invert"
        else:
            i = next(i for i in range(len(grid.rows)) if (i, a) not in grid.group_cells)
            r, r_inv = {**sys_.r, a: ((i, a),)}, dict(sys_.r_inv)
            violation = "is not a group cell"
        violations = verify_schreier(grid, SchreierSystem(sys_.base_col, r, r_inv))
        assert violations and all(violation in v for v in violations), violations

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
