"""2x2 squares of group-cell idempotents and their singularization.

A square (e, f, g, h) has e R f, g R h, e L g, f L h.  It is singular, with
witness an idempotent eps, when either

  (a) eps*e = e, eps*g = g and f*eps = e   (left-right), or
  (b) eps*g = e, e*eps = e and f*eps = f   (up-down).

Case (a) further forces eps*f = f, eps*h = h, e*eps = e and g*eps = h*eps = g.

`enumerate_singular_squares` finds the singular squares per column pair
(lam, mu), with no search over idempotents and no visit to a non-singular
square.  Each row r with cells in both columns matches cols[mu] to cols[lam]
along its kernel; the square on rows i and j is singular exactly when rows i
and j match the columns alike, in every orientation at once (proofs in its
docstring).  So the rows are bucketed by their matching, and every pair of
rows in one bucket is a singular square.  Each bucket of two or more rows is
a `SingularClass(cols, rows, witness)`, lam < mu and rows ascending, with one
explicit case-(a) witness for all its squares: eps = e on im f and the
identity elsewhere.  All eight case-(a) facts are confirmed by lookups, not
full compositions: those about e, f and column lam once per class, on its
least row r0, and those about g and h in k lookups per other row.  The
presentation turns each class into type-3 relators.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from .dclass import DClassGrid, enumerate_idempotents
from .errors import StructuralError
from .ptrans import PartialMap, UNDEF

Entries = tuple[int, ...]


class SingularClass(NamedTuple):
    """Rows any two of which, i < j, bound a singular square on the columns,
    oriented e = (i, lam), f = (i, mu), g = (j, lam), h = (j, mu)."""

    cols: tuple[int, int]  # (lam, mu), lam < mu
    rows: tuple[int, ...]  # ascending, at least two; rows[0] is the root r0
    witness: PartialMap  # e_{r0,lam} on cols[mu], the identity elsewhere; shared when equal


def group_square_candidates(grid: DClassGrid) -> list[tuple[int, int, int, int]]:
    """Nondegenerate all-group squares as (i, j, lam, mu) with i<j, lam<mu."""
    out = []
    for lam, mu in itertools.combinations(range(len(grid.cols)), 2):
        shared = sorted(set(grid.cells_in_col[lam]) & set(grid.cells_in_col[mu]))
        for i, j in itertools.combinations(shared, 2):
            out.append((i, j, lam, mu))
    out.sort()
    return out


def witness_pool(grid: DClassGrid) -> list[PartialMap]:
    """Every idempotent of rank >= k in the ambient monoid.

    The search space of a singularizing witness; the test oracles search it,
    and `enumerate_singular_squares` does not need it.
    """
    pool: list[PartialMap] = []
    for r in range(grid.k, grid.n + 1):
        pool.extend(enumerate_idempotents(grid.n, r, grid.monoid))
    return pool


def _explicit_witness(e: Entries, im_f: tuple[int, ...]) -> Entries:
    """e on im f, the identity elsewhere: the case-(a) witness of every
    singular square with top-left cell e and right column im f (see
    `enumerate_singular_squares`)."""
    eps = list(range(len(e)))
    for x in im_f:
        eps[x] = e[x]
    return tuple(eps)


def _top_row_holds(eps: Entries, e: Entries, f: Entries, im_e: tuple[int, ...],
                   im_f: tuple[int, ...]) -> bool:
    """Whether eps is e on im f and the identity elsewhere, and satisfies
    eps*e = e, eps*f = f, e*eps = e and f*eps = e.

    e and f are the idempotents of one row (one kernel, so one domain), with
    images im e and im f.  One pass over the n points reads f*eps = e, x.f.eps
    = x.e, and that eps fixes every x off im f (f is idempotent, so x lies in
    im f exactly when x.f = x).  On im f, where x.f = x, the first makes
    x.eps = x.e, so eps has the shape above.  Given the shape, x.(eps*a) =
    x.a off im f for any a, and x.(eps*a) = (x.e).a on im f, so

      eps*e = e  exactly when e[e[x]] == e[x] for every x in im f,
      eps*f = f  exactly when f[e[x]] == f[x] for every x in im f;

    and x.(e*eps) = (x.e).eps, so e*eps = e exactly when eps fixes im e.
    """
    for x, fx in enumerate(f):
        if (UNDEF if fx == UNDEF else eps[fx]) != e[x] or (fx != x and eps[x] != x):
            return False
    return all(eps[y] == y for y in im_e) and all(
        e[e[x]] == e[x] and f[e[x]] == f[x] for x in im_f
    )


def enumerate_singular_squares(grid: DClassGrid) -> tuple[SingularClass, ...]:
    """The singular nondegenerate all-group squares as classes of rows, sorted.

    Squares are oriented with e = (i, lam), f = (i, mu), g = (j, lam) and
    h = (j, mu), i < j and lam < mu.  For a row r with cells in both columns,
    let sigma_r be the tuple of x.e_{r,lam} over x in cols[mu]: both columns
    are transversals of ker r, so sigma_r is the bijection cols[mu] -> cols[lam]
    along ker r.

    The orientation above is singular exactly when sigma_i == sigma_j:

      necessity: a case-(a) witness has x.eps = x.f.eps = x.e on im f and
        eps*g = g, so x.g = (x.e).g = x.e, because g fixes im g = im e; a
        case-(b) witness fixes im f and has eps*g = e, so x.g = x.e again;
      sufficiency: eps = e on im f and the identity elsewhere is total (im f
        lies in dom f = dom e), idempotent (it sends im f into im e, which it
        fixes), of rank >= k (e maps the transversal im f onto im e) and
        satisfies case (a), as the confirmation below checks.

    The condition is symmetric in i and j.  Swapping the columns replaces
    each sigma_r by its inverse, the bijection cols[lam] -> cols[mu] along
    ker r, and two bijections agree exactly when their inverses do.  So all
    four orientations of a square agree, and every singular square is
    singular in the orientation above.  Hence, per column pair, the rows
    bucketed by sigma_r give the singular squares as the pairs i < j of one
    bucket, and no other candidate square is visited.  The witness is e on
    cols[mu], which is sigma_r there, so one witness serves the whole bucket.

    Each class, least row r0, is confirmed by all eight case-(a) facts on
    its squares (r0, j), whose relators the presentation builds (the other
    pairs are singular by sufficiency, with the same witness), in two parts:

      top row, once per class: eps depends only on e and im f = cols[mu], so
        its idempotency (once per distinct witness) and eps*e = e,
        f*eps = e, eps*f = f and e*eps = e are facts about the root
        (`_top_row_holds`, with its proofs).  So is g*eps = g for every g in
        column lam: im g = cols[lam], so g*eps = g exactly when eps fixes
        each point of cols[lam];
      bottom row, once per other row j, over the k points x of im f: eps
        moves only points of im f, so eps*g = g is g[e[x]] == g[x] and
        eps*h = h is h[e[x]] == h[x]; g and h share a kernel of which im f is
        a transversal, so h*eps = g holds everywhere once eps[h[x]] == g[x]
        on im f.
    """
    if grid.k == 0:
        return ()  # one column, the empty image: no square
    cells = {cell: m.entries for cell, m in grid.group_cells.items()}
    cols = grid.cols
    sigma = [operator.itemgetter(*im) for im in cols]
    # (lam, mu, sigma_r) -> rows r, ascending
    buckets: dict[tuple, list[int]] = {}
    for r, row_cols in enumerate(grid.cells_in_row):
        for lam, mu in itertools.combinations(row_cols, 2):
            buckets.setdefault((lam, mu, sigma[mu](cells[(r, lam)])), []).append(r)

    witnesses: dict[Entries, PartialMap] = {}  # equal witnesses share one map
    out = []
    for (lam, mu, _), rows in buckets.items():
        if len(rows) < 2:
            continue
        i = rows[0]
        pair = (lam, mu)
        e = cells[(i, lam)]
        eps = _explicit_witness(e, cols[mu])
        top = witnesses.get(eps)
        if top is None:
            top = witnesses[eps] = PartialMap(eps)
            if not top.is_idempotent():
                raise StructuralError(f"witness {top.to_text()} is not idempotent")
        if not _top_row_holds(eps, e, cells[(i, mu)], cols[lam], cols[mu]):
            raise StructuralError(
                f"witness {top.to_text()} fails the top-row case-(a) facts "
                f"on row {i}, columns {pair}"
            )
        for j in rows[1:]:
            g = cells[(j, lam)]
            h = cells[(j, mu)]
            for x in cols[mu]:
                ex = e[x]
                gx = g[x]
                hx = h[x]
                if g[ex] != gx or h[ex] != hx or eps[hx] != gx:
                    raise StructuralError(
                        f"witness {top.to_text()} fails the bottom-row case-(a) facts "
                        f"on rows {(i, j)}, columns {pair}"
                    )
        out.append(SingularClass(pair, tuple(rows), top))
    out.sort(key=operator.itemgetter(0, 1))  # (cols, rows); no two classes tie
    return tuple(out)
