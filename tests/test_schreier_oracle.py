"""The Green's-lemma Schreier check against the exhaustive L-class walk.

`verify_schreier` decides each column with two products; the oracle
`reference_verify_schreier` multiplies every element of the base L-class by
every column word of the star spelled out as words.  On seeded corruptions
of built systems, and of the grid cells they read, both must call the same
systems valid.
"""

import random

import pytest

from igmax.dclass import build_grid
from igmax.ptrans import Monoid
from igmax.schreier import (
    TIE_BREAKS,
    SchreierSystem,
    build_schreier,
    verify_schreier,
)

from helpers import MONOIDS, reference_verify_schreier, star_words, swap_cells

SMALL_CLASSES = [(n, k) for n in range(2, 6) for k in range(1, n)]
CORRUPTIONS_PER_SYSTEM = 24
GREEN_VIOLATIONS = ("does not land", "does not invert")


def corrupt_star(grid, sys_: SchreierSystem, rng: random.Random) -> SchreierSystem:
    """One seeded corruption of the star: swap two columns' rows, put in a row
    that has no cell in its column, or give the base column a row."""
    rows = list(sys_.rows)
    foreign = [(mu, i) for mu in range(len(rows)) for i in range(len(grid.rows))
               if mu != sys_.base_col and (i, mu) not in grid.group_cells]
    move = rng.choice(("swap", "foreign", "base") if foreign else ("swap", "base"))
    if move == "swap":
        a, b = rng.sample(range(len(rows)), 2)
        rows[a], rows[b] = rows[b], rows[a]
    elif move == "foreign":
        mu, i = rng.choice(foreign)
        rows[mu] = i
    else:
        rows[sys_.base_col] = rng.choice(grid.cells_in_col[sys_.base_col])
    return sys_._replace(rows=tuple(rows))


def corrupt_grid(grid, sys_: SchreierSystem, rng: random.Random):
    """One seeded grid whose row rows[mu] has its cell in column mu, or in the
    base column, swapped with another of its cells; the base cell stays put,
    so the base idempotent is the one the Green products start from."""
    mu = rng.choice([c for c, i in enumerate(sys_.rows) if i is not None])
    i = sys_.rows[mu]
    a = (i, rng.choice((mu, sys_.base_col)))
    b = rng.choice([(i, c) for c in grid.cells_in_row[i] if (i, c) != a])
    if grid.base in (a, b):
        return None
    return swap_cells(grid, a, b)


def assert_agrees_on_corruptions(grid, sys_: SchreierSystem, seed: str) -> None:
    assert verify_schreier(grid, sys_) == reference_verify_schreier(grid, star_words(sys_)) == []
    rng = random.Random(seed)
    for _ in range(CORRUPTIONS_PER_SYSTEM):
        broken = corrupt_star(grid, sys_, rng)
        want = reference_verify_schreier(grid, star_words(broken))
        got = verify_schreier(grid, broken)
        assert (got == []) == (want == []), (broken.rows, got, want)
        if len(grid.cols) > 1:
            changed = corrupt_grid(grid, sys_, rng)
            if changed is not None:
                want = reference_verify_schreier(changed, star_words(sys_))
                got = verify_schreier(changed, sys_)
                assert (got == []) == (want == []), (got, want)


class TestVerifyDifferential:
    @pytest.mark.parametrize("tie", TIE_BREAKS)
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    @pytest.mark.parametrize("n,k", SMALL_CLASSES)
    def test_built_systems(self, n, k, key, tie):
        grid = build_grid(n, k, MONOIDS[key])
        assert_agrees_on_corruptions(grid, build_schreier(grid, tie), f"{key}-{n}-{k}-{tie}")

    def test_grid_corruptions_reach_the_green_check(self):
        """A grid whose cells hold each other's idempotents passes every shape
        check and is caught only by the products, both of them."""
        grid = build_grid(4, 2, Monoid.PARTIAL)
        sys_ = build_schreier(grid)
        rng = random.Random("reach")
        caught = set()
        for _ in range(CORRUPTIONS_PER_SYSTEM):
            changed = corrupt_grid(grid, sys_, rng)
            if changed is None:
                continue
            got = verify_schreier(changed, sys_)
            assert got and reference_verify_schreier(changed, star_words(sys_))
            assert all(any(what in v for what in GREEN_VIOLATIONS) for v in got), got
            caught.update(what for v in got for what in GREEN_VIOLATIONS if what in v)
        assert caught == set(GREEN_VIOLATIONS)

    @pytest.mark.slow
    @pytest.mark.parametrize("tie", TIE_BREAKS)
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    def test_n6_k4_systems_verify(self, key, tie):
        grid = build_grid(6, 4, MONOIDS[key])
        sys_ = build_schreier(grid, tie)
        assert verify_schreier(grid, sys_) == reference_verify_schreier(grid, star_words(sys_)) == []
