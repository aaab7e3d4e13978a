"""The Green's-lemma Schreier check against the exhaustive L-class walk.

`verify_schreier` decides each column with two products; the oracle
`reference_verify_schreier` multiplies every element of the base L-class by
every column word.  On seeded corruptions of built and lifted systems both
must call the same systems valid.
"""

import random

import pytest

from igmax.dclass import build_grid
from igmax.ptrans import Monoid
from igmax.schreier import (
    TIE_BREAKS,
    SchreierSystem,
    build_schreier,
    lift_total_schreier,
    verify_schreier,
)

from helpers import MONOIDS, reference_verify_schreier

SMALL_CLASSES = [(n, k) for n in range(2, 6) for k in range(1, n)]
CORRUPTIONS_PER_SYSTEM = 24
MOVES = ("swap", "replace", "insert", "drop")


def corrupt(grid, sys_: SchreierSystem, rng: random.Random) -> SchreierSystem:
    """One seeded corruption of r or r_inv: swap two columns' words, or
    replace, insert or drop one letter of a word."""
    field = rng.choice(("r", "r_inv"))
    words = dict(getattr(sys_, field))
    cols = sorted(words)
    cells = sorted(grid.group_cells)
    move = rng.choice(MOVES)
    if move == "swap":
        a, b = rng.sample(cols, 2)
        words[a], words[b] = words[b], words[a]
    elif move == "insert":
        col = rng.choice(cols)
        w = words[col]
        pos = rng.randrange(len(w) + 1)
        words[col] = w[:pos] + (rng.choice(cells),) + w[pos:]
    else:
        col = rng.choice([c for c in cols if words[c]])
        w = words[col]
        pos = rng.randrange(len(w))
        if move == "replace":
            words[col] = w[:pos] + (rng.choice(cells),) + w[pos + 1 :]
        else:
            words[col] = w[:pos] + w[pos + 1 :]
    return SchreierSystem(
        base_col=sys_.base_col,
        r=words if field == "r" else dict(sys_.r),
        r_inv=words if field == "r_inv" else dict(sys_.r_inv),
        parent=dict(sys_.parent),
    )


def assert_agrees_on_corruptions(grid, sys_: SchreierSystem, seed: str) -> None:
    assert verify_schreier(grid, sys_) == reference_verify_schreier(grid, sys_) == []
    rng = random.Random(seed)
    for _ in range(CORRUPTIONS_PER_SYSTEM):
        broken = corrupt(grid, sys_, rng)
        want = reference_verify_schreier(grid, broken)
        got = verify_schreier(grid, broken)
        assert (got == []) == (want == []), (broken.r, broken.r_inv, got, want)


class TestVerifyDifferential:
    @pytest.mark.parametrize("tie", TIE_BREAKS)
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    @pytest.mark.parametrize("n,k", SMALL_CLASSES)
    def test_built_systems(self, n, k, key, tie):
        grid = build_grid(n, k, MONOIDS[key])
        assert_agrees_on_corruptions(grid, build_schreier(grid, tie), f"{key}-{n}-{k}-{tie}")

    @pytest.mark.parametrize("n,k", SMALL_CLASSES)
    def test_lifted_systems(self, n, k):
        grid = build_grid(n, k, Monoid.PARTIAL)
        lifted = lift_total_schreier(build_grid(n, k, Monoid.TOTAL), grid)
        assert_agrees_on_corruptions(grid, lifted, f"lift-{n}-{k}")

    def test_corruptions_reach_the_green_check(self):
        """Some corrupted systems pass every structural check and are caught
        only by the products, so the differential above exercises them."""
        grid = build_grid(4, 2, Monoid.PARTIAL)
        sys_ = build_schreier(grid)
        rng = random.Random("reach")
        caught = set()
        for _ in range(CORRUPTIONS_PER_SYSTEM):
            broken = corrupt(grid, sys_, rng)
            got = verify_schreier(grid, broken)
            if got and all(v.startswith("column ") for v in got):
                caught.add(broken.r_inv == sys_.r_inv)
        assert caught == {True, False}

    @pytest.mark.slow
    @pytest.mark.parametrize("tie", TIE_BREAKS)
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    def test_n6_k4_systems_verify(self, key, tie):
        grid = build_grid(6, 4, MONOIDS[key])
        sys_ = build_schreier(grid, tie)
        assert verify_schreier(grid, sys_) == reference_verify_schreier(grid, sys_) == []
