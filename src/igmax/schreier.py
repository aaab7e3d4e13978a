"""Schreier systems of column representatives over the idempotent alphabet.

A word is a tuple of grid cells (row, col); its value is the left-to-right
product of the cell idempotents.  Each column's word r[col] must move the base
L-class onto that column's L-class by right multiplication, with r_inv[col]
undoing it, both preserving R-classes; by Green's lemma two products check it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import StructuralError
from .ptrans import Monoid, PartialMap, UNDEF, compose

if TYPE_CHECKING:
    from .dclass import DClassGrid

Cell = tuple[int, int]
EWord = tuple[Cell, ...]

TIE_BREAKS = ("least", "greatest")


@dataclass
class SchreierSystem:
    base_col: int
    r: dict[int, EWord]
    r_inv: dict[int, EWord]
    # col -> (parent col, appended letter); absent for the base column
    parent: dict[int, tuple[int, Cell]]


def word_value(grid: "DClassGrid", word: EWord) -> PartialMap:
    """Product of the letter idempotents; the empty word is the identity map."""
    val = PartialMap.identity(grid.n)
    for cell in word:
        val = compose(val, grid.group_cells[cell])
    return val


def build_schreier(grid: "DClassGrid", tie_break: str = "least") -> SchreierSystem:
    """Breadth-first Schreier system over the column graph.

    Columns lam, mu are adjacent when some row has group cells at both; the
    words r[mu] = r[lam] + e_{i,mu} and r_inv[mu] = e_{i,lam} + r_inv[lam] are
    mutually inverse because e_{i,mu} and e_{i,lam} are R-related idempotents.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    if grid.degenerate:
        raise ValueError("degenerate grid (k in {0, n}) has no Schreier system to build")
    reverse = tie_break == "greatest"
    ncols = len(grid.cols)
    base = grid.base[1]
    r: dict[int, EWord] = {base: ()}
    r_inv: dict[int, EWord] = {base: ()}
    parent: dict[int, tuple[int, Cell]] = {}
    queue = deque([base])
    col_order = range(ncols - 1, -1, -1) if reverse else range(ncols)
    while queue:
        lam = queue.popleft()
        rows_lam = set(grid.cells_in_col[lam])
        for mu in col_order:
            if mu in r:
                continue
            shared = rows_lam.intersection(grid.cells_in_col[mu])
            if not shared:
                continue
            i = max(shared) if reverse else min(shared)
            r[mu] = r[lam] + ((i, mu),)
            r_inv[mu] = ((i, lam),) + r_inv[lam]
            parent[mu] = (lam, (i, mu))
            queue.append(mu)
    if len(r) != ncols:
        missing = sorted(set(range(ncols)) - set(r))
        raise StructuralError(f"column graph disconnected; unreachable columns {missing}")
    return SchreierSystem(base, r, r_inv, parent)


def l_class_elements(grid: "DClassGrid", col: int) -> list[PartialMap]:
    """Every element of the L-class of column `col` inside the D-class."""
    im = grid.cols[col]
    out = []
    for kp in grid.rows:
        for assign in itertools.permutations(im):
            entries = [UNDEF] * grid.n
            for bi, b in enumerate(kp.blocks):
                for x in b:
                    entries[x] = assign[bi]
            out.append(PartialMap(tuple(entries)))
    return out


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
        q = compose(e, word_value(grid, sys.r[col]))
        if q.image() != grid.cols[col]:
            bad.append(f"column {col}: e * r[{col}] does not land in L_{col}")
        elif compose(q, word_value(grid, sys.r_inv[col])) != e:
            bad.append(f"column {col}: r_inv[{col}] does not invert r[{col}] on the base L-class")
    return bad


def lift_total_schreier(grid_t: "DClassGrid", grid_pt: "DClassGrid") -> SchreierSystem:
    """Reuse the total grid's Schreier system for the partial grid.

    All letters come from total rows; the lifted system is re-verified against
    the partial grid before it is returned.
    """
    if (grid_t.n, grid_t.k) != (grid_pt.n, grid_pt.k):
        raise ValueError("grids must share n and k")
    if grid_t.monoid is not Monoid.TOTAL or grid_pt.monoid is not Monoid.PARTIAL:
        raise ValueError("expected a total grid and a partial grid")
    if grid_t.cols != grid_pt.cols:
        raise StructuralError("column index sets of the two grids disagree")

    sys_t = build_schreier(grid_t)
    row_map = {i: grid_pt.row_of[kp] for i, kp in enumerate(grid_t.rows)}

    def conv(word: EWord) -> EWord:
        return tuple((row_map[i], c) for i, c in word)

    lifted = SchreierSystem(
        base_col=sys_t.base_col,
        r={c: conv(w) for c, w in sys_t.r.items()},
        r_inv={c: conv(w) for c, w in sys_t.r_inv.items()},
        parent={c: (p, (row_map[cell[0]], cell[1])) for c, (p, cell) in sys_t.parent.items()},
    )
    violations = verify_schreier(grid_pt, lifted)
    if violations:
        raise StructuralError(
            "lifted Schreier system failed verification: " + "; ".join(violations[:5])
        )
    return lifted
