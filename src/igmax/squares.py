"""2x2 squares of group-cell idempotents and their singularization.

A square (e, f, g, h) has e R f, g R h, e L g, f L h.  An idempotent eps
singularizes it when either

  (a) eps*e = e, eps*g = g and f*eps = e   (left-right), or
  (b) eps*g = e, e*eps = e and f*eps = f   (up-down).

Case (a) further forces eps*f = f, eps*h = h, e*eps = e and g*eps = h*eps = g;
`singularizes` asserts those consequences whenever (a) fires, and serves the
completion squares and the tests as the full check.

`enumerate_singular_squares` decides each candidate square pointwise: the
orientation e = (i, lam), f = (i, mu), g = (j, lam), h = (j, mu) is singular
exactly when x.g = (x.e).g for every x in im f, which is k lookups and needs
no search over idempotents.  It returns one `SingularSquare(rows, cols,
witness, case)` per singular square, oriented that way, with the explicit
witness eps = e on im f, the identity elsewhere, and case (a).  All eight
case-(a) facts are still confirmed for every record, without a full
composition per hit: the facts about e, f and column lam depend only on
(i, lam, mu) and are checked once per triple, and the facts about g and h
reduce to k lookups each, in the test's own loop (proofs in its docstring).
The rows and columns are all the presentation needs: one type-3 relator per
record.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple

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


class SingularSquare(NamedTuple):
    """A singular square, oriented so that `witness` satisfies `case`."""

    rows: tuple[int, int]  # (i, j)
    cols: tuple[int, int]  # (lam, mu)
    witness: PartialMap  # e on im f, the identity elsewhere; equal witnesses share one map
    case: str


def singularizes(
    eps: PartialMap, cells: tuple[PartialMap, PartialMap, PartialMap, PartialMap]
) -> str | None:
    """CASE_A / CASE_B if eps singularizes the cells (e, f, g, h) as oriented, else None."""
    if not eps.is_idempotent():
        raise ValueError("candidate witness must be idempotent")
    return _singular_case(eps.entries, tuple(c.entries for c in cells))


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
    """Every idempotent of rank >= k in the ambient monoid.

    The search space of a singularizing witness; the test oracles search it,
    and `enumerate_singular_squares` does not need it.
    """
    pool: list[PartialMap] = []
    for r in range(grid.k, grid.n + 1):
        pool.extend(enumerate_idempotents(grid.n, r, grid.monoid))
    return pool


def _explicit_witness(e: Entries, im_f: tuple[int, ...]) -> Entries:
    """e on im f, the identity elsewhere: the case-(a) witness of a square
    whose pointwise test passed (see `enumerate_singular_squares`)."""
    eps = list(range(len(e)))
    for x in im_f:
        eps[x] = e[x]
    return tuple(eps)


class _PointwiseTest:
    """The pointwise test of one grid's oriented squares, confirming case (a).

    Every orientation with top row r and column pair (a, b) has the same
    witness and the same top-row facts, so those are checked once per
    (r, a, b) and memoised; each hit then checks its bottom-row facts in k
    lookups.  See `enumerate_singular_squares` for the proofs.
    """

    def __init__(self, grid: "DClassGrid") -> None:
        self.cells = {cell: m.entries for cell, m in grid.group_cells.items()}
        self.cols = grid.cols
        self.witnesses: dict[Entries, PartialMap] = {}  # equal witnesses share one map
        self.tops: dict[tuple[int, int, int], PartialMap] = {}

    def witness(self, rows: tuple[int, int], cols: tuple[int, int]) -> PartialMap | None:
        """The case-(a) witness of the oriented square, or None if it is not singular."""
        (i, j), (a, b) = rows, cols
        top = self.tops.get((i, a, b))
        if top is None:
            top = self._top_row(i, a, b)
        eps = top.entries
        e = self.cells[(i, a)]
        g = self.cells[(j, a)]
        h = self.cells[(j, b)]
        bottom_ok = True
        for x in self.cols[b]:
            ex = e[x]
            gx = g[x]
            if g[ex] != gx:  # eps*g = g fails at x: not singular
                return None
            hx = h[x]
            if h[ex] != hx or eps[hx] != gx:  # eps*h = h and h*eps = g
                bottom_ok = False
        if not bottom_ok:
            raise StructuralError(
                f"witness {top.to_text()} passed the pointwise test but fails the "
                f"bottom-row case-(a) facts on rows {rows}, columns {cols}"
            )
        return top

    def _top_row(self, i: int, a: int, b: int) -> PartialMap:
        e = self.cells[(i, a)]
        f = self.cells[(i, b)]
        eps = _explicit_witness(e, self.cols[b])
        witness = self.witnesses.get(eps)
        if witness is None:
            witness = self.witnesses[eps] = PartialMap(eps)
            if not witness.is_idempotent():
                raise StructuralError(f"witness {witness.to_text()} is not idempotent")
        if not (
            compose_entries(eps, e) == e
            and compose_entries(f, eps) == e
            and compose_entries(eps, f) == f
            and compose_entries(e, eps) == e
            and all(eps[x] == x for x in self.cols[a])  # g*eps = g for all g in column a
        ):
            raise StructuralError(
                f"witness {witness.to_text()} fails the top-row case-(a) facts "
                f"on row {i}, columns {(a, b)}"
            )
        self.tops[(i, a, b)] = witness
        return witness


def enumerate_singular_squares(grid: "DClassGrid") -> tuple[SingularSquare, ...]:
    """Every singular nondegenerate all-group square, once, with an explicit witness.

    Output order follows the canonical (i, j, lam, mu) order of the underlying
    unordered squares.  Each is oriented by the first of (e, f, g, h),
    (f, e, h, g), (g, h, e, f), (h, g, f, e) in which it is singular, and an
    orientation e = (i, lam), f = (i, mu), g = (j, lam), h = (j, mu) is
    singular exactly when x.g = (x.e).g for every x in im f:

      necessity: a case-(a) witness has x.eps = x.f.eps = x.e on im f, and
        eps*g = g; a case-(b) witness fixes im f and has eps*g = e, so
        x.g = x.e = (x.e).g, because g fixes im g = im e;
      sufficiency: eps = e on im f and the identity elsewhere is total (im f
        lies in dom f = dom e), idempotent, of rank >= k (e maps the
        transversal im f onto im e) and satisfies case (a).

    That eps is the witness of every record, and every record is confirmed
    by all eight case-(a) facts, in two parts:

      top row, once per (i, lam, mu): eps depends only on e = (i, lam) and
        im f = cols[mu], so its idempotency and eps*e = e, f*eps = e,
        eps*f = f and e*eps = e are facts about the triple.  So is
        g*eps = g for every g in column lam: im g = cols[lam], so
        g*eps = g exactly when eps fixes each point of cols[lam];
      bottom row, on each hit, over the k points x of im f: eps moves only
        points of im f, so eps*g = g is g[e[x]] == g[x] (the test itself)
        and eps*h = h is h[e[x]] == h[x]; g and h share a kernel of which
        im f is a transversal, so h*eps = g holds everywhere once
        eps[h[x]] == g[x] on im f.
    """
    test = _PointwiseTest(grid)
    out = []
    for i, j, lam, mu in group_square_candidates(grid):
        for rows, cols in (
            ((i, j), (lam, mu)),
            ((i, j), (mu, lam)),
            ((j, i), (lam, mu)),
            ((j, i), (mu, lam)),
        ):
            witness = test.witness(rows, cols)
            if witness is not None:
                out.append(SingularSquare(rows, cols, witness, CASE_A))
                break
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
