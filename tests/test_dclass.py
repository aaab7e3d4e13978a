import pytest

from igmax import dclass
from igmax.cli import CORPUS_RUNS
from igmax.dclass import (
    ANCHOR_RULES,
    anchors,
    build_grid,
    default_base,
    enumerate_idempotents,
    sandwich_matrix,
)
from igmax.errors import StructuralError
from igmax.groupid import perm_identity, verified_schreier
from igmax.ptrans import Monoid, PartialMap, compose, compose_entries
from igmax.schreier import TIE_BREAKS, SchreierSystem
from helpers import (
    MONOIDS,
    all_maps,
    brute_idempotents,
    is_transversal,
    pipeline,
    reference_build_grid,
    reference_sandwich_matrix,
)

PT = Monoid.PARTIAL
T = Monoid.TOTAL


class TestBuildGrid:
    @pytest.mark.parametrize(
        "n,k,monoid,rows,cols,cells",
        [
            (3, 2, PT, 6, 3, 9),
            (3, 2, T, 3, 3, 6),
            (4, 2, PT, 25, 6, 54),
        ],
    )
    def test_known_shapes(self, n, k, monoid, rows, cols, cells):
        grid = build_grid(n, k, monoid)
        assert (len(grid.rows), len(grid.cols), len(grid.group_cells)) == (rows, cols, cells)

    def test_cells_are_idempotents_in_place(self):
        grid = build_grid(4, 2, PT)
        for (i, c), entries in grid.group_cells.items():
            m = PartialMap(entries)  # in range
            assert m.is_idempotent()
            assert m.kernel() == grid.rows[i]
            assert m.image() == grid.cols[c]

    def test_group_cell_count_equals_idempotent_count(self):
        for n in range(1, 5):
            for monoid in (T, PT):
                lo = 1 if monoid is T else 0
                for k in range(lo, n + 1):
                    grid = build_grid(n, k, monoid)
                    assert len(grid.group_cells) == len(brute_idempotents(n, k, monoid))

    def test_group_cell_iff_h_class_has_idempotent(self):
        # scan every element of every H-class of the rank-k class for n <= 3
        for monoid in (T, PT):
            n = 3
            for k in (1, 2):
                grid = build_grid(n, k, monoid)
                members: dict[tuple[int, int], list[PartialMap]] = {}
                for m in all_maps(n, monoid):
                    if m.rank() != k:
                        continue
                    cell = (grid.row_of[m.kernel()], grid.cols.index(m.image()))
                    members.setdefault(cell, []).append(m)
                for cell, ms in members.items():
                    has_idem = any(x.is_idempotent() for x in ms)
                    assert has_idem == (cell in grid.group_cells)
                    assert is_transversal(grid.rows[cell[0]], grid.cols[cell[1]]) == has_idem

    def test_total_grid_embeds_in_partial(self):
        for n in range(2, 6):
            for k in range(1, n):
                gt = build_grid(n, k, T)
                gp = build_grid(n, k, PT)
                assert gt.cols == gp.cols
                row_map = {i: gp.row_of[kp] for i, kp in enumerate(gt.rows)}
                total_rows = set(gp.total_rows())
                assert set(row_map.values()) == total_rows
                mapped = {(row_map[i], c): m for (i, c), m in gt.group_cells.items()}
                partial_in_total = {
                    cell: m for cell, m in gp.group_cells.items() if cell[0] in total_rows
                }
                assert mapped == partial_in_total

    @pytest.mark.parametrize(
        "key,n,k", [("t", 5, 2), ("pt", 5, 3), ("pt", 4, 0), ("t", 4, 4)]
    )
    def test_builds_one_partial_map_the_default_base(self, monkeypatch, key, n, k):
        # the cells are entry tuples, in range by construction, so no cell is wrapped
        made = []
        init = PartialMap.__init__

        def counted(self, entries):
            made.append(entries)
            init(self, entries)

        monkeypatch.setattr(PartialMap, "__init__", counted)
        grid = build_grid(n, k, MONOIDS[key])
        assert made == [grid.base_idempotent]
        assert all(type(m) is tuple for m in grid.group_cells.values())

    def test_default_base_is_total_retraction(self):
        e = default_base(5, 3)
        assert e.is_total and e.is_idempotent() and e.rank() == 3
        assert e == PartialMap.from_text("[1,2,3,3,3]")
        grid = build_grid(5, 3, PT)
        assert grid.base_idempotent == e.entries

    def test_degenerate_grids(self):
        g0 = build_grid(3, 0, PT)
        assert (len(g0.rows), len(g0.cols), len(g0.group_cells)) == (1, 1, 1)
        assert g0.base_idempotent == PartialMap.empty(3).entries
        gn = build_grid(3, 3, PT)
        assert gn.base_idempotent == PartialMap.identity(3).entries
        with pytest.raises(ValueError):
            build_grid(3, 0, T)

    @pytest.mark.parametrize("monoid", ["t", "pt", None])
    def test_rejects_a_monoid_that_is_not_a_member(self, monoid):
        # the CLI maps "t" and "pt" to members; the library takes members only
        with pytest.raises(ValueError):
            build_grid(4, 2, monoid)
        with pytest.raises(ValueError):
            enumerate_idempotents(4, 2, monoid)


# every class with n <= 6, both monoids, every k; three n = 7 classes under slow
GRID_CLASSES = [
    (key, n, k) for n in range(1, 7) for key in ("t", "pt")
    for k in range(1 if key == "t" else 0, n + 1)
] + [pytest.param(key, 7, k, marks=pytest.mark.slow) for key in ("t", "pt") for k in (2, 3, 4)]


class TestGridDifferential:
    """Per-row transversals against the row x column transversal test."""

    @staticmethod
    def assert_same(grid, ref):
        assert grid == ref
        assert list(grid.group_cells) == list(ref.group_cells)
        assert grid.cells_in_row == ref.cells_in_row
        assert grid.cells_in_col == ref.cells_in_col

    @pytest.mark.parametrize("key,n,k", GRID_CLASSES)
    def test_matches_row_by_column_oracle(self, key, n, k):
        self.assert_same(build_grid(n, k, MONOIDS[key]), reference_build_grid(n, k, MONOIDS[key]))


class TestAnchors:
    def test_lex_least_transversal_examples(self):
        grid = build_grid(3, 2, PT)
        am = anchors(grid)
        row_singletons = grid.row_of[PartialMap.from_text("[1,2,-]").kernel()]
        assert grid.cols[am[row_singletons]] == (0, 1)
        row_merged = grid.row_of[PartialMap.from_text("[1,1,3]").kernel()]
        assert grid.cols[am[row_merged]] == (0, 2)

    def test_every_anchor_is_a_group_cell(self):
        for n in range(2, 6):
            for monoid in (T, PT):
                for k in range(1, n):
                    grid = build_grid(n, k, monoid)
                    for rule in ("lex", "lexmax", "two-step"):
                        am = anchors(grid, rule)
                        assert set(am) == set(range(len(grid.rows)))
                        for i, c in am.items():
                            assert (i, c) in grid.group_cells

    def test_base_row_pinned_to_base_column(self):
        grid = build_grid(4, 2, PT)
        for rule in ("lex", "lexmax", "two-step"):
            assert anchors(grid, rule)[grid.base[0]] == grid.base[1]

    def test_two_step_picks_what_lex_picks(self):
        for n in range(1, 6):
            for monoid in (T, PT):
                for k in range(1 if monoid is T else 0, n + 1):
                    grid = build_grid(n, k, monoid)
                    assert anchors(grid, "two-step") == anchors(grid, "lex"), (monoid, n, k)

    def test_unknown_rule_rejected(self):
        grid = build_grid(3, 2, PT)
        with pytest.raises(ValueError):
            anchors(grid, "alphabetical")


class TestSandwich:
    def test_zero_pattern_matches_group_cells(self):
        grid, am, sys_, _, _ = pipeline("pt", 3, 2)
        mat = sandwich_matrix(grid, sys_, am)
        assert set(mat) == {(c, i) for i, c in grid.group_cells}

    def test_anchor_entries_never_zero(self):
        grid, am, sys_, _, _ = pipeline("pt", 4, 2)
        mat = sandwich_matrix(grid, sys_, am)
        for i in range(len(grid.rows)):
            assert mat[(am[i], i)] is not None

    def test_base_entry_is_identity(self):
        for key, n, k in [("pt", 3, 2), ("pt", 4, 2), ("t", 4, 2)]:
            grid, am, sys_, _, _ = pipeline(key, n, k)
            mat = sandwich_matrix(grid, sys_, am)
            assert mat[(grid.base[1], grid.base[0])] == perm_identity(k)

    def test_matches_longhand_products(self):
        # recompute every entry by plain composition of the chosen representatives
        grid, am, sys_, _, _ = pipeline("pt", 3, 2)
        base_im = grid.cols[grid.base[1]]
        pos = {x: idx for idx, x in enumerate(base_im)}
        e = PartialMap(grid.base_idempotent)
        mat = sandwich_matrix(grid, sys_, am)
        for c in range(len(grid.cols)):
            q = e
            for cell in sys_.r[c]:
                q = compose(q, PartialMap(grid.group_cells[cell]))
            for i in range(len(grid.rows)):
                t = PartialMap(grid.cell(i, am[i]))
                for cell in sys_.r_inv[am[i]]:
                    t = compose(t, PartialMap(grid.group_cells[cell]))
                prod = compose(q, t)
                if prod.rank() == grid.k:
                    assert mat[(c, i)] == tuple(pos[prod.entries[x]] for x in base_im)
                else:
                    assert (c, i) not in mat

    def test_composes_only_group_cells(self, monkeypatch):
        # one product per column and per row, each checked to lie in its
        # H-class by one more; the group cells read them
        grid, am, sys_, _, _ = pipeline("pt", 4, 2)
        calls = []

        def counted(a, b):
            calls.append(None)
            return compose_entries(a, b)

        monkeypatch.setattr(dclass, "compose_entries", counted)
        sandwich_matrix(grid, sys_, am)
        assert len(calls) == 2 * (len(grid.cols) + len(grid.rows))

    @pytest.mark.parametrize("key,n,k", [("pt", 4, 2), ("t", 4, 2), ("t", 5, 3)])
    def test_non_group_cell_raises(self, key, n, k):
        # a column that is no transversal of the row's kernel gives q*t rank
        # below k, so its restriction to the base image is no bijection
        grid, am, sys_, _, _ = pipeline(key, n, k)
        cell = next((i, c) for i in range(len(grid.rows)) for c in range(len(grid.cols))
                    if (i, c) not in grid.group_cells)
        widened = grid._replace(group_cells={**grid.group_cells, cell: grid.base_idempotent})
        with pytest.raises(StructuralError, match="not a bijection"):
            sandwich_matrix(widened, sys_, am)

    @pytest.mark.parametrize("key,n,k", [("pt", 4, 2), ("t", 4, 2), ("t", 5, 3)])
    def test_misplaced_representatives_raise(self, key, n, k):
        grid, am, sys_, _, _ = pipeline(key, n, k)
        a, b = [c for c in sorted(sys_.r) if c != sys_.base_col][:2]
        swapped = SchreierSystem(sys_.base_col, {**sys_.r, a: sys_.r[b], b: sys_.r[a]}, sys_.r_inv)
        with pytest.raises(StructuralError, match="column representative"):
            sandwich_matrix(grid, swapped, am)
        lam = next(c for c in am.values() if c != sys_.base_col)
        emptied = SchreierSystem(sys_.base_col, sys_.r, {**sys_.r_inv, lam: ()})
        with pytest.raises(StructuralError, match="row representative"):
            sandwich_matrix(grid, emptied, am)


SANDWICH_CLASSES = [(key, n, k) for key, n, k, _ in CORPUS_RUNS if n <= 5] + [
    pytest.param(key, 6, 4, marks=pytest.mark.slow) for key in ("t", "pt")
]


class TestSandwichDifferential:
    """Group-cell entries against the full row x column oracle."""

    @pytest.mark.parametrize("tie", TIE_BREAKS)
    @pytest.mark.parametrize("rule", ANCHOR_RULES)
    @pytest.mark.parametrize("key,n,k", SANDWICH_CLASSES)
    def test_matches_full_matrix(self, key, n, k, rule, tie):
        grid = build_grid(n, k, MONOIDS[key])
        am = anchors(grid, rule)
        sys_ = verified_schreier(grid, tie)
        full = reference_sandwich_matrix(grid, sys_, am)
        nonzero = {cell: p for cell, p in full.items() if p is not None}
        assert sandwich_matrix(grid, sys_, am) == nonzero
        assert {(i, c) for c, i in nonzero} == set(grid.group_cells)
