"""2x2 squares of group-cell idempotents and their singularization.

A square (e, f, g, h) has e R f, g R h, e L g, f L h.  An idempotent eps
singularizes it when either

  (a) eps*e = e, eps*g = g and f*eps = e   (left-right), or
  (b) eps*g = e, e*eps = e and f*eps = f   (up-down).

Case (a) further forces eps*f = f, eps*h = h, e*eps = e and g*eps = h*eps = g;
those consequences are asserted whenever (a) fires.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import StructuralError
from .ptrans import (
    KernelPartition,
    PartialMap,
    UNDEF,
    compose,
    compose_entries,
    enumerate_idempotents,
)

if TYPE_CHECKING:
    from .dclass import DClassGrid

CASE_A = "left_right_a"
CASE_B = "up_down_b"

Entries = tuple[int, ...]


@dataclass(frozen=True)
class Square:
    rows: tuple[int, int]
    cols: tuple[int, int]
    cells: tuple[PartialMap, PartialMap, PartialMap, PartialMap]  # e, f, g, h

    def __post_init__(self) -> None:
        if self.rows[0] == self.rows[1] or self.cols[0] == self.cols[1]:
            raise ValueError("degenerate square (repeated row or column)")

    @classmethod
    def from_grid(cls, grid: "DClassGrid", i: int, j: int, lam: int, mu: int) -> Square:
        c = grid.group_cells
        return cls((i, j), (lam, mu), (c[(i, lam)], c[(i, mu)], c[(j, lam)], c[(j, mu)]))


@dataclass(frozen=True)
class SingularityWitness:
    epsilon: PartialMap
    case: str

    def __post_init__(self) -> None:
        if self.case not in (CASE_A, CASE_B):
            raise ValueError(f"unknown singularity case {self.case!r}")
        if not self.epsilon.is_idempotent():
            raise ValueError("witness must be idempotent")


def singularizes(eps: PartialMap, sq: Square) -> str | None:
    """CASE_A / CASE_B if eps singularizes the square as oriented, else None."""
    if not eps.is_idempotent():
        raise ValueError("candidate witness must be idempotent")
    return _singular_case(eps.entries, tuple(c.entries for c in sq.cells))


def _singular_case(eps: Entries, cells: tuple[Entries, Entries, Entries, Entries]) -> str | None:
    e, f, g, h = cells
    if (
        compose_entries(eps, e) == e
        and compose_entries(eps, g) == g
        and compose_entries(f, eps) == e
    ):
        _assert_case_a_consequences(eps, cells)
        return CASE_A
    if (
        compose_entries(eps, g) == e
        and compose_entries(e, eps) == e
        and compose_entries(f, eps) == f
    ):
        return CASE_B
    return None


def _assert_case_a_consequences(eps: Entries, cells) -> None:
    e, f, g, h = cells
    ok = (
        compose_entries(eps, f) == f
        and compose_entries(eps, h) == h
        and compose_entries(e, eps) == e
        and compose_entries(g, eps) == g
        and compose_entries(h, eps) == g
    )
    if not ok:
        raise StructuralError("case (a) held but its consequences failed")


def group_square_candidates(grid: "DClassGrid") -> list[tuple[int, int, int, int]]:
    """Nondegenerate all-group squares as (i, j, lam, mu) with i<j, lam<mu."""
    out = []
    for lam, mu in itertools.combinations(range(len(grid.cols)), 2):
        shared = sorted(set(grid.cells_in_col[lam]) & set(grid.cells_in_col[mu]))
        for i, j in itertools.combinations(shared, 2):
            out.append((i, j, lam, mu))
    out.sort()
    return out


def witness_pool(grid: "DClassGrid") -> list[PartialMap]:
    """Witness candidates: every idempotent of rank >= k in the ambient monoid."""
    pool: list[PartialMap] = []
    for r in range(grid.k, grid.n + 1):
        pool.extend(enumerate_idempotents(grid.n, r, grid.monoid))
    return pool


def _mask(pool: list[Entries], keep) -> int:
    """Bitmask over pool indices of the witnesses that `keep` accepts."""
    bits = "".join("1" if keep(eps) else "0" for eps in reversed(pool))
    return int(bits, 2) if bits else 0


class _SquareScan:
    """Witness search state: the pool plus one left bucket per row and one
    right bucket per column, each an int bitmask over pool indices.

    Whether eps*e = e depends only on the row (kernel) of e: eps must send each
    point of dom e into its own kernel block and no other point into dom e.
    Whether e*eps = e depends only on the column (image) of e: eps must fix
    every image point.  So each bucket is computed once, against the first
    group cell of its row or column.

    For a candidate (i, j, lam, mu), lp = L[i] & L[j] (memoised by row pair)
    holds the witnesses that fix both rows from the left, rp = R[lam] & R[mu]
    (memoised by column pair) those that fix both columns from the right, and
    lp | rp is the same in all four orientations.  Membership settles two of
    the three equations of each case, so one product decides each witness:
    f*eps = e for case (a) in lp, eps*g = e for case (b) in rp.  Each product
    is evaluated for all witnesses at once, point by point, from the masks
    takes[x][v] of the witnesses sending x to v; the lowest surviving index is
    confirmed by the full conditions.  This is the hot loop of the package.
    """

    def __init__(self, grid: "DClassGrid"):
        self.maps = witness_pool(grid)
        self.pool = pool = [m.entries for m in self.maps]
        self.cellmaps = cm = {cell: m.entries for cell, m in grid.group_cells.items()}
        # takes[x][v]: witnesses eps with x.eps = v; v = UNDEF indexes the last
        # entry, so takes[x][-1] is the witnesses undefined at x
        self.takes = [
            [_mask(pool, lambda eps: eps[x] == v) for v in (*range(grid.n), UNDEF)]
            for x in range(grid.n)
        ]
        everything = (1 << len(pool)) - 1
        self.lefts = [
            self._left(c, c, everything)
            for c in (cm[(i, cols[0])] for i, cols in enumerate(grid.cells_in_row))
        ]
        self.rights = [
            self._right(c, c, everything)
            for c in (cm[(rows[0], lam)] for lam, rows in enumerate(grid.cells_in_col))
        ]
        # candidates arrive sorted by row pair, so one row pair is memoised at
        # a time; column pairs are few and all kept
        self._row_pair: tuple[int, int] | None = None
        self._lp = 0
        self._rp: dict[tuple[int, int], int] = {}

    def _left(self, a: Entries, b: Entries, within: int) -> int:
        """The witnesses in `within` with eps*a = b."""
        # x.(eps*a) = (x.eps).a, so x.eps must lie in the preimage of x.b under a
        fibres: dict[int, list[int]] = {}
        for v, av in enumerate((*a, UNDEF)):
            fibres.setdefault(av, []).append(v)
        for x, bx in enumerate(b):
            row = self.takes[x]
            allowed = 0
            for v in fibres.get(bx, ()):
                allowed |= row[v]
            within &= allowed
            if not within:
                break
        return within

    def _right(self, a: Entries, b: Entries, within: int) -> int:
        """The witnesses in `within` with a*eps = b."""
        # x.(a*eps) = (x.a).eps, so eps must send x.a to x.b wherever a is defined
        for ax, bx in zip(a, b):
            if ax == UNDEF:
                if bx != UNDEF:
                    return 0
                continue
            within &= self.takes[ax][bx]
            if not within:
                break
        return within

    def scan(self, cand: tuple[int, int, int, int]):
        """First witness over (orientation, pool index); None if not singular."""
        i, j, lam, mu = cand
        if self._row_pair != (i, j):
            self._row_pair = (i, j)
            self._lp = self.lefts[i] & self.lefts[j]
        lp = self._lp
        rp = self._rp.get((lam, mu))
        if rp is None:
            rp = self._rp[(lam, mu)] = self.rights[lam] & self.rights[mu]
        cm = self.cellmaps
        e = cm[(i, lam)]
        f = cm[(i, mu)]
        g = cm[(j, lam)]
        h = cm[(j, mu)]
        orientations = (
            ((i, j), (lam, mu), (e, f, g, h)),
            ((i, j), (mu, lam), (f, e, h, g)),
            ((j, i), (lam, mu), (g, h, e, f)),
            ((j, i), (mu, lam), (h, g, f, e)),
        )
        for rows, cols, cells in orientations:
            ee, ff, gg, _ = cells
            hits = self._right(ff, ee, lp) | self._left(gg, ee, rp)
            if hits:
                pidx = (hits & -hits).bit_length() - 1
                case = _singular_case(self.pool[pidx], cells)
                if case is None:
                    raise StructuralError(
                        f"witness {pidx} passed the bucket test but not the "
                        f"singularity conditions on square {cand}"
                    )
                return rows, cols, pidx, case
        return None


# Fork-shared scan state; only candidate tuples and compact hits cross the
# process boundary.
_SCAN: _SquareScan | None = None


def _scan_chunk(chunk):
    return [_SCAN.scan(c) for c in chunk]


def _scan_all(scan: _SquareScan, cands, workers: int):
    if workers <= 1 or len(cands) < 256:
        return [scan.scan(c) for c in cands]
    try:
        ctx = mp.get_context("fork")
    except ValueError:
        return [scan.scan(c) for c in cands]
    global _SCAN
    _SCAN = scan
    try:
        size = max(32, len(cands) // (workers * 8))
        chunks = [cands[a : a + size] for a in range(0, len(cands), size)]
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as ex:
            return [hit for part in ex.map(_scan_chunk, chunks) for hit in part]
    finally:
        _SCAN = None


def enumerate_singular_squares(
    grid: "DClassGrid", workers: int = 1
) -> tuple[tuple[Square, SingularityWitness], ...]:
    """Every singular nondegenerate all-group square, once, with its first witness.

    Output order follows the canonical (i, j, lam, mu) order of the underlying
    unordered squares; the emitted Square carries the orientation under which
    the witness satisfies the singularity conditions.
    """
    cands = group_square_candidates(grid)
    scan = _SquareScan(grid)
    hits = _scan_all(scan, cands, workers)
    # a few hundred distinct witnesses serve thousands of squares; each is
    # validated once, on the pool's own PartialMap
    witnesses: dict[tuple[int, str], SingularityWitness] = {}
    out = []
    for hit in hits:
        if hit is None:
            continue
        rows, cols, pidx, case = hit
        w = witnesses.get((pidx, case))
        if w is None:
            w = witnesses[(pidx, case)] = SingularityWitness(scan.maps[pidx], case)
        sq = Square.from_grid(grid, rows[0], rows[1], cols[0], cols[1])
        out.append((sq, w))
    return tuple(out)


def complete_to_singular_square(
    alpha: PartialMap, beta: PartialMap
) -> tuple[PartialMap, PartialMap, PartialMap]:
    """Complete an R-related pair of partial-domain idempotents to a singular square.

    Both maps are extended to total maps by sending the missing points to the
    image of the least domain element; the returned witness eps sends each
    image point of beta to the corresponding image point of alpha and fixes
    everything else, which singularizes (alpha, beta, alpha', beta') via case
    (a).  alpha == beta is allowed and degenerates gracefully.
    """
    if alpha.n != beta.n:
        raise ValueError("dimension mismatch")
    if not alpha.is_idempotent() or not beta.is_idempotent():
        raise ValueError("inputs must be idempotent")
    if alpha.kernel() != beta.kernel():
        raise ValueError("inputs must be R-related (equal kernels on equal domains)")
    dom = alpha.domain()
    n = alpha.n
    if len(dom) == n:
        raise ValueError("inputs must have a proper partial domain")

    a0 = dom[0]
    av = alpha.entries[a0]
    bv = beta.entries[a0]
    alpha_t = PartialMap(tuple(v if v != UNDEF else av for v in alpha.entries))
    beta_t = PartialMap(tuple(v if v != UNDEF else bv for v in beta.entries))

    eps_entries = list(range(n))
    for x in dom:
        eps_entries[beta.entries[x]] = alpha.entries[x]
    eps = PartialMap(tuple(eps_entries))

    _check_completion(alpha, beta, alpha_t, beta_t, eps, a0)
    return alpha_t, beta_t, eps


def _check_completion(alpha, beta, alpha_t, beta_t, eps, a0) -> None:
    # mathematically forced postconditions; any failure is a bug
    if not (alpha_t.is_total and beta_t.is_total):
        raise StructuralError("completed maps are not total")
    if not (alpha_t.is_idempotent() and beta_t.is_idempotent() and eps.is_idempotent()):
        raise StructuralError("completion lost idempotency")
    merged = _merged_kernel(alpha, a0)
    if alpha_t.kernel() != merged or beta_t.kernel() != merged:
        raise StructuralError("completed maps do not share the merged kernel")
    if alpha_t.image() != alpha.image() or beta_t.image() != beta.image():
        raise StructuralError("completion changed an image")
    if eps.rank() < alpha.rank():
        raise StructuralError("witness rank fell below the class rank")
    if not _is_rectangular_band((alpha, beta, alpha_t, beta_t)):
        raise StructuralError("the four maps do not form a rectangular band")
    cells = (alpha.entries, beta.entries, alpha_t.entries, beta_t.entries)
    if _singular_case(eps.entries, cells) != CASE_A:
        raise StructuralError("completion witness does not satisfy case (a)")


def _merged_kernel(alpha: PartialMap, a0: int) -> KernelPartition:
    comp = [x for x in range(alpha.n) if alpha.entries[x] == UNDEF]
    blocks = []
    for b in alpha.kernel().blocks:
        blocks.append(tuple(sorted(b + tuple(comp))) if a0 in b else b)
    return KernelPartition(tuple(sorted(blocks, key=lambda b: b[0])))


def _is_rectangular_band(maps) -> bool:
    coords = {(m.kernel(), m.image()): m for m in maps}
    for x in maps:
        for y in maps:
            if compose(x, y) != coords[(x.kernel(), y.image())]:
                return False
    return True
