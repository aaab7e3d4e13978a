"""Schreier systems of column representatives over the idempotent alphabet.

A word is a tuple of grid cells (row, col); its value is the left-to-right
product of the cell idempotents, an entry tuple like each cell.  Each column's
word r[col] must move the base L-class onto that column's L-class by right
multiplication, with r_inv[col] undoing it, both preserving R-classes; by
Green's lemma two products check it.  The built words have one letter each,
read off a row the column shares with the base column; `verify_schreier`
checks words of any length.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import StructuralError
from .ptrans import UNDEF, compose_entries

if TYPE_CHECKING:
    from .dclass import DClassGrid

Cell = tuple[int, int]
EWord = tuple[Cell, ...]

TIE_BREAKS = ("least", "greatest")


class SchreierSystem(NamedTuple):
    base_col: int
    r: dict[int, EWord]
    r_inv: dict[int, EWord]


def word_value(grid: "DClassGrid", word: EWord) -> tuple[int, ...]:
    """Product of the letter idempotents; the empty word is the identity map."""
    val = tuple(range(grid.n))
    for cell in word:
        val = compose_entries(val, grid.group_cells[cell])
    return val


def build_schreier(grid: "DClassGrid", tie_break: str = "least") -> SchreierSystem:
    """The star Schreier system: every column is one letter from the base.

    Any two k-subsets A and B with 1 <= k <= n-1 are transversals of one total
    kernel: put each point of A & B in a block of its own, pair A - B with
    B - A one pair per block, and let every other point join the first block.
    So every column mu shares a row i with the base column, and r[mu] = e_{i,mu}
    and r_inv[mu] = e_{i,base} are mutually inverse, because the two are
    R-related idempotents.  A degenerate grid (k in {0, n}) has one column,
    whose words are empty.

    Tie-break "least" picks the least shared row, "greatest" the greatest.
    With "least" the PT_n system is the T_n system, so the paper's reduction
    to T_n needs no separate lift: the shared row built above is total, the
    total rows sort first (domain size descending) at T_n's row indices, and
    the columns and the total base are the same.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    pick = max if tie_break == "greatest" else min
    base = grid.base[1]
    base_rows = set(grid.cells_in_col[base])
    r: dict[int, EWord] = {base: ()}
    r_inv: dict[int, EWord] = {base: ()}
    for mu, rows in enumerate(grid.cells_in_col):
        if mu == base:
            continue
        shared = base_rows.intersection(rows)
        if not shared:
            raise StructuralError(f"column {mu} shares no row with the base column {base}")
        i = pick(shared)
        r[mu] = ((i, mu),)
        r_inv[mu] = ((i, base),)
    return SchreierSystem(base, r, r_inv)


def verify_schreier(grid: "DClassGrid", sys: SchreierSystem) -> list[str]:
    """Check the Schreier system; returns violations (empty = valid).

    Past the structural checks two products per column decide: if q = e*r[col]
    is in L_col and q*r_inv[col] = e, for e an idempotent of the base L-class,
    then by Green's lemma (Howie 1995, Lemma 2.2.1) right multiplication by
    r[col] is an R-preserving bijection L_e -> L_col inverted by r_inv[col].
    """
    bad: list[str] = []
    ncols = len(grid.cols)
    if set(sys.r) != set(range(ncols)) or set(sys.r_inv) != set(range(ncols)):
        return ["words do not cover every column"]
    if sys.r[sys.base_col] != ():
        bad.append(f"root word r[{sys.base_col}] is not the empty word")

    word_cols = {w: c for c, w in sys.r.items()}
    if len(word_cols) != ncols:
        bad.append("column words are not pairwise distinct")
    for col in range(ncols):
        w = sys.r[col]
        for cut in range(len(w)):
            if w[:cut] not in word_cols:
                bad.append(f"prefix of r[{col}] of length {cut} is no column word")
        for cell in w + sys.r_inv[col]:
            if cell not in grid.group_cells:
                bad.append(f"letter {cell} in the words of column {col} is not a group cell")

    if bad:
        return bad

    e = grid.cell(grid.cells_in_col[sys.base_col][0], sys.base_col)
    for col in range(ncols):
        q = compose_entries(e, word_value(grid, sys.r[col]))
        if tuple(sorted(set(q) - {UNDEF})) != grid.cols[col]:
            bad.append(f"column {col}: e * r[{col}] does not land in L_{col}")
        elif compose_entries(q, word_value(grid, sys.r_inv[col])) != e:
            bad.append(f"column {col}: r_inv[{col}] does not invert r[{col}] on the base L-class")
    return bad
