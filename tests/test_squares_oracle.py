"""The row/column-bucket square scan against the per-cell one it replaced.

`_SquareScan` keeps one left bucket per row and one right bucket per column
and decides each candidate witness bit-parallel over the pool; the oracle
`ReferenceSquareScan` keeps both buckets per cell and evaluates the full
singularity conditions for every survivor.  Both must return the same first
witness, orientation and case for every candidate square.
"""

import random

import pytest

from igmax.dclass import build_grid
from igmax.ptrans import compose_entries
from igmax.squares import group_square_candidates, witness_pool

from helpers import MONOIDS, ReferenceSquareScan, _SquareScan

SMALL_CLASSES = [(n, k) for n in range(2, 6) for k in range(1, n)]
# every class with n <= 4, the degenerate ranks included (T_n has no rank 0)
LEMMA_CLASSES = [
    (key, n, k)
    for key in sorted(MONOIDS)
    for n in range(1, 5)
    for k in range(0 if key == "pt" else 1, n + 1)
]


def assert_scans_agree(grid) -> None:
    scan = _SquareScan(grid)
    oracle = ReferenceSquareScan(grid)
    assert scan.pool == oracle.pool
    for cand in group_square_candidates(grid):
        assert scan.scan(cand) == oracle.scan(cand), cand


class TestScanDifferential:
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    @pytest.mark.parametrize("n,k", SMALL_CLASSES)
    def test_matches_per_cell_oracle(self, n, k, key):
        assert_scans_agree(build_grid(n, k, MONOIDS[key]))

    @pytest.mark.slow
    @pytest.mark.parametrize("key,n,k", [("t", 6, 3), ("pt", 6, 4)])
    def test_matches_per_cell_oracle_n6(self, key, n, k):
        assert_scans_agree(build_grid(n, k, MONOIDS[key]))

    def test_scan_order_does_not_matter(self):
        # the row-pair memo must not leak between candidates visited out of order
        grid = build_grid(5, 2, MONOIDS["pt"])
        cands = group_square_candidates(grid)
        oracle = ReferenceSquareScan(grid)
        scan = _SquareScan(grid)
        for cand in reversed(cands):
            assert scan.scan(cand) == oracle.scan(cand), cand


class TestBitParallelProducts:
    @pytest.mark.parametrize("key,n,k", [("pt", 4, 2), ("pt", 4, 1), ("t", 4, 2), ("pt", 3, 1)])
    def test_masks_match_direct_composition(self, key, n, k):
        # arbitrary pairs of pool maps, including pairs with different domains
        grid = build_grid(n, k, MONOIDS[key])
        scan = _SquareScan(grid)
        pool = scan.pool
        everything = (1 << len(pool)) - 1
        rng = random.Random(f"{key}-{n}-{k}")
        for _ in range(200):
            a, b = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.3:
                b = a
            want_left = {idx for idx, eps in enumerate(pool) if compose_entries(eps, a) == b}
            want_right = {idx for idx, eps in enumerate(pool) if compose_entries(a, eps) == b}
            assert set(_bits(scan._left(a, b, everything))) == want_left, (a, b)
            assert set(_bits(scan._right(a, b, everything))) == want_right, (a, b)


class TestBucketLemma:
    """Left fixing depends only on the row of a cell, right fixing only on its
    column, so one bucket per row and one per column suffice."""

    @pytest.mark.parametrize("key,n,k", LEMMA_CLASSES)
    def test_fixing_sets_are_constant_on_rows_and_columns(self, key, n, k):
        grid = build_grid(n, k, MONOIDS[key])
        pool = [m.entries for m in witness_pool(grid)]

        def left_fixing(c):
            return {idx for idx, eps in enumerate(pool) if compose_entries(eps, c) == c}

        def right_fixing(c):
            return {idx for idx, eps in enumerate(pool) if compose_entries(c, eps) == c}

        scan = _SquareScan(grid)
        for i, cols in enumerate(grid.cells_in_row):
            sets = {frozenset(left_fixing(grid.cell(i, lam))) for lam in cols}
            assert len(sets) == 1, i
            assert sets == {frozenset(_bits(scan.lefts[i]))}
        for lam, rows in enumerate(grid.cells_in_col):
            sets = {frozenset(right_fixing(grid.cell(i, lam))) for i in rows}
            assert len(sets) == 1, lam
            assert sets == {frozenset(_bits(scan.rights[lam]))}


def _bits(mask: int) -> list[int]:
    return [idx for idx in range(mask.bit_length()) if mask >> idx & 1]
