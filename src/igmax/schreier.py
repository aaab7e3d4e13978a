"""Schreier systems of column representatives over the idempotent alphabet.

Each column mu needs a representative r[mu] that moves the base L-class onto
that column's L-class by right multiplication, with r_inv[mu] undoing it, both
preserving R-classes.  Every column shares a row i with the base column, so the
system is a star: r[mu] = e_{i,mu} and r_inv[mu] = e_{i,base}, and it is stored
as that row alone.  By Green's lemma two products per column check it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import StructuralError
from .ptrans import UNDEF, compose_entries

if TYPE_CHECKING:
    from .dclass import DClassGrid

TIE_BREAKS = ("least", "greatest")


class SchreierSystem(NamedTuple):
    """rows[mu]: the row column mu shares with the base column; None at the base."""

    base_col: int
    rows: tuple[int | None, ...]


def build_schreier(grid: "DClassGrid", tie_break: str = "least") -> SchreierSystem:
    """The star Schreier system: every column is one letter from the base.

    Any two k-subsets A and B with 1 <= k <= n-1 are transversals of one total
    kernel: put each point of A & B in a block of its own, pair A - B with
    B - A one pair per block, and let every other point join the first block.
    So every column mu shares a row i with the base column, and r[mu] = e_{i,mu}
    and r_inv[mu] = e_{i,base} are mutually inverse, because the two are
    R-related idempotents.  A degenerate grid (k in {0, n}) has one column,
    the base, which has no row.

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
    rows: list[int | None] = []
    for mu, col_rows in enumerate(grid.cells_in_col):
        if mu == base:
            rows.append(None)
            continue
        shared = base_rows.intersection(col_rows)
        if not shared:
            raise StructuralError(f"column {mu} shares no row with the base column {base}")
        rows.append(pick(shared))
    return SchreierSystem(base, tuple(rows))


def verify_schreier(grid: "DClassGrid", sys: SchreierSystem) -> list[str]:
    """Check the Schreier system; returns violations (empty = valid).

    Past the shape checks two products per column decide: if q = e*e_{i,mu}
    is in L_mu and q*e_{i,base} = e, for e the base idempotent and i = rows[mu],
    then by Green's lemma (Howie 1995, Lemma 2.2.1) right multiplication by
    e_{i,mu} is an R-preserving bijection L_e -> L_mu inverted by e_{i,base}.
    """
    base = grid.base[1]
    if sys.base_col != base or len(sys.rows) != len(grid.cols):
        return ["rows do not cover the grid's columns from its base column"]
    bad = [] if sys.rows[base] is None else [f"base column {base} has a row"]
    e = grid.base_idempotent
    for mu, i in enumerate(sys.rows):
        if mu == base:
            continue
        if (i, mu) not in grid.group_cells or (i, base) not in grid.group_cells:
            bad.append(f"column {mu}: ({i}, {mu}) or ({i}, {base}) is not a group cell")
            continue
        q = compose_entries(e, grid.cell(i, mu))
        if tuple(sorted(set(q) - {UNDEF})) != grid.cols[mu]:
            bad.append(f"column {mu}: e * r[{mu}] does not land in L_{mu}")
        elif compose_entries(q, grid.cell(i, base)) != e:
            bad.append(f"column {mu}: r_inv[{mu}] does not invert r[{mu}] on the base L-class")
    return bad
