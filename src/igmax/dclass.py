"""The rank-k D-class of T_n or PT_n as a grid of H-classes.

Rows are kernel partitions (R-classes), columns are image sets (L-classes),
and a cell is a group exactly when the column is a transversal of the row.
Each group cell holds its unique idempotent as an entry tuple, in range by
construction; the base cell plays the role of the distinguished corner whose
idempotent generates everything downstream.  `PartialMap`, the checked value,
remains where maps enter or leave: `default_base`, `enumerate_idempotents`,
the singular classes' witnesses and text output.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple

from .errors import StructuralError
from .ptrans import (
    UNDEF,
    KernelPartition,
    Monoid,
    PartialMap,
    compose_entries,
    kernels_of_rank,
)

if TYPE_CHECKING:
    from .schreier import SchreierSystem

ANCHOR_RULES = ("lex", "lexmax", "two-step")

Permutation = tuple[int, ...]
Entries = tuple[int, ...]


class DClassGrid(NamedTuple):
    """The grid as an immutable record; `_replace` makes a changed copy."""

    n: int
    k: int
    monoid: Monoid
    rows: tuple[KernelPartition, ...]
    cols: tuple[tuple[int, ...], ...]
    group_cells: dict[tuple[int, int], Entries]
    base: tuple[int, int]
    row_of: dict[KernelPartition, int]
    cells_in_row: tuple[tuple[int, ...], ...]
    cells_in_col: tuple[tuple[int, ...], ...]

    @property
    def base_idempotent(self) -> Entries:
        return self.group_cells[self.base]

    def cell(self, row: int, col: int) -> Entries:
        return self.group_cells[(row, col)]

    def total_rows(self) -> tuple[int, ...]:
        return tuple(i for i, kp in enumerate(self.rows) if len(kp.domain) == self.n)


def default_base(n: int, k: int) -> PartialMap:
    """Total idempotent fixing 1..k and sending everything above k to k."""
    if k == 0:
        return PartialMap.empty(n)
    return PartialMap(tuple(x if x < k else k - 1 for x in range(n)))


def build_grid(n: int, k: int, monoid: Monoid) -> DClassGrid:
    """The rank-k grid, based at the cell of `default_base(n, k)`."""
    if not isinstance(monoid, Monoid):
        raise ValueError(f"monoid must be a Monoid, not {monoid!r}")
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range for n={n}")
    if monoid is Monoid.TOTAL and k == 0:
        raise ValueError("T_n has no rank-0 class")

    rows = tuple(kernels_of_rank(n, k, monoid))
    cols = tuple(itertools.combinations(range(n), k))
    row_of = {kp: i for i, kp in enumerate(rows)}
    col_of = {im: c for c, im in enumerate(cols)}

    # a row's group columns are its transversals: one point per block, and
    # every block member maps to its block's point, so every entry is in range
    cells: dict[tuple[int, int], Entries] = {}
    in_row: list[list[int]] = [[] for _ in rows]
    in_col: list[list[int]] = [[] for _ in cols]
    for i, kp in enumerate(rows):
        row_cells = []
        for points in itertools.product(*kp.blocks):
            entries = [UNDEF] * n
            for block, p in zip(kp.blocks, points):
                for x in block:
                    entries[x] = p
            row_cells.append((col_of[tuple(sorted(points))], tuple(entries)))
        row_cells.sort()
        for c, entries in row_cells:
            cells[(i, c)] = entries
            in_row[i].append(c)
            in_col[c].append(i)

    base = default_base(n, k)
    base_cell = (row_of[base.kernel()], col_of[base.image()])
    if base_cell not in cells:
        raise StructuralError("base cell of an idempotent must be a group cell")

    return DClassGrid(
        n=n,
        k=k,
        monoid=monoid,
        rows=rows,
        cols=cols,
        group_cells=cells,
        base=base_cell,
        row_of=row_of,
        cells_in_row=tuple(tuple(cs) for cs in in_row),
        cells_in_col=tuple(tuple(rs) for rs in in_col),
    )


def enumerate_idempotents(n: int, k: int, monoid: Monoid) -> list[PartialMap]:
    """All rank-k idempotents of T_n or PT_n in (kernel, image) order: the
    grid's group cells, row by row, as checked maps."""
    return [PartialMap(e) for e in build_grid(n, k, monoid).group_cells.values()]


def anchors(grid: DClassGrid, rule: str = "lex") -> dict[int, int]:
    """Pick one group column per row; the base row is pinned to the base column.

    "lex" takes each row's least group column and "lexmax" its greatest;
    "two-step" is accepted as a name for "lex".
    """
    if rule not in ANCHOR_RULES:
        raise ValueError(f"anchor rule must be one of {ANCHOR_RULES}")
    pick = -1 if rule == "lexmax" else 0
    out: dict[int, int] = {}
    for i, cells in enumerate(grid.cells_in_row):
        if not cells:
            raise StructuralError(f"row {i} has no group cell")
        out[i] = cells[pick]
    out[grid.base[0]] = grid.base[1]
    return out


def _member_of_cell(
    grid: DClassGrid, x: tuple[int, ...], f: tuple[int, ...], col: int, what: str
) -> None:
    # x lies in the H-class of f's row and column col exactly when f*x = x and
    # im x = cols[col]: f*x = x makes dom x and every kernel block of x unions
    # of kernel blocks of f, and k blocks of x out of k of f forces ker x = ker f
    if compose_entries(f, x) != x or tuple(sorted(set(x) - {UNDEF})) != grid.cols[col]:
        raise StructuralError(f"{what} fell out of its H-class")


def column_representatives(grid: DClassGrid, sys: SchreierSystem) -> list[tuple[int, ...]]:
    """q[col] = e * e_{i,col} for every column, e the base idempotent and i the
    row col shares with the base column (q = e at the base), each checked to
    lie in the H-class of the base row and column col."""
    e = grid.base_idempotent
    qs = []
    for c, i in enumerate(sys.rows):
        q = e if i is None else compose_entries(e, grid.cell(i, c))
        _member_of_cell(grid, q, e, c, f"column representative q[{c}]")
        qs.append(q)
    return qs


def sandwich_matrix(
    grid: DClassGrid, sys: SchreierSystem, anchors_map: dict[int, int]
) -> dict[tuple[int, int], Permutation]:
    """Rees sandwich entries p_{col,row} at the group cells, keyed by (col, row).

    q[col] is the base idempotent pushed along e_{j,col}, in L_col of the base
    row, for j the row col shares with the base column; t[row] is the anchor
    cell f pulled back to the base column as f * e_{j,base}, for j the row the
    anchor column shares with it, in R_row of the base column.  Every other
    entry is zero: q*t has rank k exactly when the image of col is a
    transversal of the kernel of row (the rank of q*t counts the kernel blocks
    that im q meets), and that is the test build_grid picked the group cells
    by (Clifford-Miller; Howie 1995, Prop. 2.3.7).  So only group cells get an
    entry.  Every map is an entry tuple.

    A product x lies in the base H-class when e*x = x = x*e, for e the base
    idempotent, and x restricts to a bijection of im e: x*e = x puts im x
    inside im e, the bijection makes the rank k, and in one D-class e*x = x
    and x*e = x then force x R e and x L e.  For x = q*t the first two hold
    already: e*q = q gives e*(q*t) = q*t, and im t = im e, which e fixes,
    gives (q*t)*e = q*t.  So q*t is never composed; each entry reads it on
    im e as t[q[b]] (im e lies in dom e = dom q), and the bijection is the
    one check left per cell.

    `identify` no longer calls this: `groupid.rees_hom` reads the
    homomorphism off the column representatives alone, as t[row] cancels
    from every quotient p_{anchor,row} * p_{col,row}^-1.  The matrix stays
    the textbook object that `rees_hom` is tested against, and `groupid`
    still imports it, so the traced benchmark's span over
    `groupid.sandwich_matrix` keeps resolving.
    """
    e = grid.base_idempotent
    qs = column_representatives(grid, sys)
    ts = []
    for i in range(len(grid.rows)):
        a = anchors_map[i]
        f, j = grid.cell(i, a), sys.rows[a]
        t = f if j is None else compose_entries(f, grid.cell(j, sys.base_col))
        _member_of_cell(grid, t, f, grid.base[1], f"row representative t[{i}]")
        ts.append(t)
    base_im = grid.cols[grid.base[1]]
    pos = {x: idx for idx, x in enumerate(base_im)}
    full = set(range(grid.k))
    out: dict[tuple[int, int], Permutation] = {}
    for i, c in grid.group_cells:
        q, t = qs[c], ts[i]
        perm = tuple(pos.get(t[q[b]], -1) for b in base_im)
        if set(perm) != full:
            raise StructuralError("restriction to the base image is not a bijection")
        out[(c, i)] = perm
    return out
