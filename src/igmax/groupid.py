"""Identify the presented group: coset enumeration, abelian invariants, and
the sandwich homomorphism onto the symmetric group of the base image.

The verdict logic mirrors a two-surjection squeeze: a finite presentation of
order k! together with a verified surjection onto S_k pins the group to S_k.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from contextlib import contextmanager
from typing import NamedTuple

from .dclass import (
    ANCHOR_RULES,
    DClassGrid,
    Permutation,
    anchors,
    build_grid,
    sandwich_matrix,  # unused here: kept so the traced benchmark can wrap groupid.sandwich_matrix
)
from .errors import StructuralError
from .presentation import (
    TIETZE,
    TYPE1,
    TYPE2,
    TYPE3,
    GroupPresentation,
    Relator,
    build_presentation,
    collapse_short_relators,
    free_rank,
    gh_graph,
    tietze_simplify,
)
from .ptrans import Monoid
from .schreier import TIE_BREAKS, SchreierSystem, build_schreier, verify_schreier
# group_square_candidates is unused here: kept so the traced benchmark can wrap it
from .squares import SingularClass, enumerate_singular_squares, group_square_candidates

COMPLETE = "complete"
OVERFLOW = "overflow"
DEFAULT_MAX_COSETS = 10**6
# each level of `_subgroup_chain` may define this many cosets per element of S_k
CHAIN_CAP_PER_ORDER = 50

VERDICT_SYMMETRIC = "symmetric_k"
VERDICT_FREE = "free_of_rank"
VERDICT_TRIVIAL = "trivial"
VERDICT_UNDECIDED = "undecided"


# ---------------------------------------------------------------------------
# permutations of {0,..,k-1}, composed left to right like everything else


def perm_identity(k: int) -> Permutation:
    return tuple(range(k))


def perm_compose(p: Permutation, q: Permutation) -> Permutation:
    return tuple(q[v] for v in p)


def perm_inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_group_order(gens) -> int:
    """Order of the permutation group generated by `gens` (direct closure).

    A generator already in the group closed so far is skipped, as it leaves
    the group unchanged; each new one re-closes every element found so far
    over the generators kept, which then span the group generated so far.
    The closure stops as soon as it holds all d! permutations of degree d.
    """
    gens = list(dict.fromkeys(gens))  # one per generator cell, mostly repeats
    if not gens:
        raise ValueError("need at least one permutation (group degree unknown)")
    full = math.factorial(len(gens[0]))
    seen = {perm_identity(len(gens[0]))}
    kept: list[Permutation] = []
    for g in gens:
        if len(seen) == full:
            break
        if g in seen:
            continue
        kept.append(g)
        queue = deque(seen)
        while queue:
            p = queue.popleft()
            for q in kept:
                nxt = perm_compose(p, q)
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) == full:
                        return full
                    queue.append(nxt)
    return len(seen)


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (HLT with coincidence handling)


class CosetTable(NamedTuple):
    """Compacted coset table; column x is relator letter x (see Relator).

    The rows are the cosets of the subgroup H generated by the first
    generators; `subgroup_order` is an upper bound on |H|, 1 for the
    trivial subgroup.
    """

    ngens: int
    table: list[list[int | None]]
    status: str
    subgroup_order: int = 1

    @property
    def order(self) -> int | None:
        """Upper bound on the group order, exact over the trivial subgroup.

        By Lagrange |G| = [G : H] * |H|, and a complete table has one row per
        coset of H, so live cosets times the bound on |H| bounds |G|.
        """
        return len(self.table) * self.subgroup_order if self.status == COMPLETE else None

    def trace(self, coset: int, word) -> int | None:
        """Follow the letters of a word from a coset; None on an undefined entry."""
        for x in word:
            nxt = self.table[coset][x]
            if nxt is None:
                return None
            coset = nxt
        return coset


class _Overflow(Exception):
    pass


def todd_coxeter(
    p: GroupPresentation,
    max_cosets: int = DEFAULT_MAX_COSETS,
    subgroup: CosetTable | None = None,
) -> CosetTable:
    """Enumerate the cosets of a subgroup H; order = live cosets * |H| bound.

    Without `subgroup`, H is trivial and the order is exact when complete.
    With it, `subgroup` is a complete table of K = <Y | R_Y>, where Y is p's
    first subgroup.ngens generators and R_Y some relators of p on Y alone,
    and H = <Y> in G = <p>.  Every relator of K holds in G, so H is a
    quotient of K and |H| <= |K| <= subgroup.order; a complete table of H's
    [G : H] cosets then gives |G| <= [G : H] * subgroup.order, which is
    the reported order: an upper bound, not the exact order.  H enters as
    a loop at coset 0 on each of its generators, made before any scan.

    HLT strategy: scan every relator at every live coset, filling gaps, with a
    queue-based coincidence routine merging colliding cosets.  Hitting the
    coset cap is reported as status OVERFLOW, not an error; the cap counts
    every coset ever defined, coincided ones included.  p is enumerated as
    given, on its own 2 * ngens columns.

    Each row is a dict {column: coset} holding only the defined entries, as a
    row may stay mostly undefined; a dead coset's row is visited over its
    keys, in ascending column order.  The table keeps c.x = d exactly when
    d.x^-1 = c, so that visit, which deletes the inverse of every entry of
    the dead row, deletes every entry pointing into it.  New entries join
    live cosets only, so nothing reaches the row again, and it is dropped
    once visited.  Outside a coincidence every entry joins two live cosets: a
    coset is live exactly when it is its own union-find parent, and the
    result is compacted to dense rows without following parents.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    ngens = len(p.generators)
    # letters are in range: the public constructor checks them, and each
    # `_trusted` builder writes them so by construction
    rel_words = [rel for rel in p.relators if rel]
    ncols = 2 * ngens

    table: list[dict[int, int] | None] = [{}]
    parent = [0]
    subgroup_order = 1
    if subgroup is not None:
        if subgroup.status != COMPLETE or subgroup.ngens > ngens:
            raise ValueError("subgroup must be a complete table on a prefix of the generators")
        table[0] = {x: 0 for x in range(2 * subgroup.ngens)}
        subgroup_order = subgroup.order

    def rep(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def coincidence(a: int, b: int) -> None:
        """Merge the live cosets a and b, then every pair the merge forces equal."""
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        pending = deque((b,))
        while pending:
            dead = pending.popleft()
            row = table[dead]
            for x in sorted(row):
                # a self-loop at dead deletes its inverse entry during the visit
                if x not in row:
                    continue
                target = row[x]
                del table[target][x ^ 1]
                mu, nu = rep(dead), rep(target)
                mrow, nrow = table[mu], table[nu]
                if x in mrow:
                    a, b = nu, rep(mrow[x])
                elif x ^ 1 in nrow:
                    a, b = mu, rep(nrow[x ^ 1])
                else:
                    mrow[x] = nu
                    nrow[x ^ 1] = mu
                    continue
                if a != b:
                    if a > b:
                        a, b = b, a
                    parent[b] = a
                    pending.append(b)
            table[dead] = None

    status = COMPLETE
    try:
        alpha = 0
        while alpha < len(table):
            if parent[alpha] != alpha:
                alpha += 1
                continue
            for word in rel_words:
                # scan word at alpha from both ends, defining a coset at the
                # forward gap until the scan closes or one letter is left
                f, i = alpha, 0
                b, j = alpha, len(word) - 1
                while True:
                    while i <= j:
                        row = table[f]
                        w = word[i]
                        if w not in row:
                            break
                        f = row[w]
                        i += 1
                    if i > j:
                        coincidence(f, b)
                        break
                    while j >= i:
                        row = table[b]
                        w = word[j] ^ 1
                        if w not in row:
                            break
                        b = row[w]
                        j -= 1
                    if j < i:
                        coincidence(f, b)
                        break
                    w = word[i]
                    if i == j:
                        table[f][w] = b
                        table[b][w ^ 1] = f
                        break
                    d = len(table)
                    if d >= max_cosets:
                        raise _Overflow
                    table.append({w ^ 1: f})
                    parent.append(d)
                    table[f][w] = d
                if parent[alpha] != alpha:
                    break
            else:
                row = table[alpha]
                for x in range(ncols):
                    if x not in row:
                        d = len(table)
                        if d >= max_cosets:
                            raise _Overflow
                        table.append({x ^ 1: alpha})
                        parent.append(d)
                        row[x] = d
            alpha += 1
    except _Overflow:
        status = OVERFLOW

    live = [c for c in range(len(table)) if parent[c] == c]
    index = {c: i for i, c in enumerate(live)}
    compact = []
    for c in live:
        dense: list[int | None] = [None] * ncols
        for x, d in table[c].items():
            dense[x] = index[d]
        compact.append(dense)
    return CosetTable(ngens, compact, status, subgroup_order)


def _subgroup_chain(p: GroupPresentation, max_cosets: int) -> CosetTable | None:
    """Bound |G| level by level along a chain of generator sets; None if it fails.

    The generators are ordered greedily: next comes the one that completes
    the most relators with those already chosen, ties to the least index.
    The prefix Y_j of the first j presents K_j = <Y_j | R_j>, R_j being the
    relators of p on Y_j alone, and level j enumerates the cosets of <Y_i>
    in K_j over the last complete level's table of K_i.  So each complete
    level bounds |K_j| by Lagrange (see `todd_coxeter`), and the top one,
    on every generator and relator, bounds |G| = |K_t|.  A level that
    overflows at `max_cosets` is extended by the next generator.  Below the
    top, a level whose last generator g completes no relator is skipped, as
    K_j is then the free product of K_{j-1} with Z, and so is a level whose
    new relators all lie on g alone while the last complete table has order
    > 1: K_j is then K_{j-1} * <g | R_g>, infinite unless a factor is
    trivial, so it could only overflow.  No table precedes level 0, so the
    second rule never skips it.  A skipped level keeps the bound sound, as
    the next level runs over the last complete table, as after an overflow.
    Returns the top table, complete, or None when the top level overflows.

    A level skips the constructor's letter pass: its relators are relators
    of p, already checked, with each generator renumbered to its place in
    the chain.  Level j takes only the relators completed by its first
    j + 1 generators, so every letter lands below 2(j + 1), and the
    renumbering maps a letter's inverse to its image's inverse, so each
    relator stays freely reduced.
    """
    ngens = len(p.generators)
    if not ngens:
        return todd_coxeter(p, max_cosets)
    # an empty relator imposes nothing, and todd_coxeter drops it anyway
    missing = [set(x >> 1 for x in rel) for rel in p.relators]
    pending = [r for r, rel in enumerate(p.relators) if rel]
    chain: list[int] = []
    completed_at: list[list[int]] = []  # entry j: the relators chain[j] completes
    while len(chain) < ngens:
        gains = [0] * ngens
        for r in pending:
            if len(missing[r]) == 1:
                gains[next(iter(missing[r]))] += 1
        chosen = set(chain)
        g = max((g for g in range(ngens) if g not in chosen), key=lambda g: (gains[g], -g))
        chain.append(g)
        done = []
        for r in pending:
            missing[r].discard(g)
            if not missing[r]:
                done.append(r)
        completed_at.append(done)
        pending = [r for r in pending if missing[r]]

    position = {g: j for j, g in enumerate(chain)}
    rels: list[Relator] = []
    tags: list[str] = []
    names = tuple(p.generators[g] for g in chain)
    sub = None
    for j, done in enumerate(completed_at):
        for r in done:
            rels.append(tuple(2 * position[x >> 1] | x & 1 for x in p.relators[r]))
            tags.append(p.provenance[r])
        alone = all(x >> 1 == chain[j] for r in done for x in p.relators[r])
        if j < ngens - 1 and (not done or alone and sub is not None and sub.order > 1):
            continue
        level = GroupPresentation._trusted(names[: j + 1], tuple(rels), tuple(tags))
        table = todd_coxeter(level, max_cosets, subgroup=sub)
        if table.status == COMPLETE:
            sub = table
    return sub if sub is not None and sub.ngens == ngens else None


# ---------------------------------------------------------------------------
# abelian invariants via Smith normal form (exact integers)


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Nonzero diagonal invariant factors d1 | d2 | ... of an integer matrix.

    Relation matrices are sparse and reduce mostly by unit pivots, so rows are
    kept sparse and each +-1 entry is eliminated as soon as some row holds
    one: it splits off a direct summand [1].  Only when no row holds a unit
    does a step pivot on an entry p of least absolute value.  Row operations
    r2 -= (r2[c] // p) * row leave each other entry of column c a remainder
    of absolute value below |p|.  Once the column holds the pivot row alone,
    the column operations col_j -= (row[j] // p) * col_c change that one row
    only, since every other row is zero in column c, and reduce it modulo p.
    A row left with a remainder is queued again.  So the step ends either with
    p split off as a summand [|p|] or with a nonzero remainder below |p|,
    which lowers the least absolute value of the matrix.  Every split, unit or
    not, removes a nonzero row and no step adds one, so the pair (nonzero
    rows, least absolute value) falls lexicographically and the elimination
    ends.  The split summands form a diagonal matrix, and (d_a, d_b) <-
    (gcd, lcm) for a < b, which keeps it equivalent, orders it into
    d1 | d2 | ...  The invariant factors are unique, so any pivot order gives
    the same result.
    """
    return _sparse_smith_normal_form([{j: v for j, v in enumerate(r) if v} for r in rows])


def _sparse_smith_normal_form(sparse: list[dict[int, int]]) -> list[int]:
    """smith_normal_form on rows given as {column: nonzero entry}; consumes them."""
    rows_of: dict[int, set[int]] = {}
    for i, r in enumerate(sparse):
        for j in r:
            rows_of.setdefault(j, set()).add(i)
    units = 0
    diag: list[int] = []
    # rows that may hold a unit entry, shortest first, as (length, row); an
    # entry whose length is no longer its row's is stale, since every change
    # to a row pushes it again
    pending = [(len(r), i) for i, r in enumerate(sparse)]
    heapq.heapify(pending)
    while True:
        c = None
        while pending:
            size, i = heapq.heappop(pending)
            piv = sparse[i]
            if len(piv) != size:
                continue
            unit_cols = [j for j, v in piv.items() if v in (1, -1)]
            if unit_cols:
                # the unit whose column meets the fewest other rows fills in least
                c = min(unit_cols, key=lambda j: (len(rows_of[j]), j))
                break
        if c is None:
            # no row holds a unit: pivot on an entry of least absolute value
            entries = [(abs(sparse[i][j]), i, j) for j, rs in rows_of.items() for i in rs]
            if not entries:
                break
            _, i, c = min(entries)
            piv = sparse[i]
        p = piv[c]
        unit = p in (1, -1)
        if unit:
            del piv[c]
            sparse[i] = {}
            for j in piv:
                rows_of[j].discard(i)
        for i2 in (rows_of.pop(c) if unit else rows_of[c]) - {i}:
            r2 = sparse[i2]
            # r2 -= q * (row i) clears column c when p * p = 1, and otherwise
            # leaves there a remainder of absolute value below |p|
            q = r2.pop(c) * p if unit else r2[c] // p
            for j, v in piv.items():
                w = r2.get(j, 0) - q * v
                if w:
                    r2[j] = w
                    rows_of[j].add(i2)
                elif j in r2:
                    del r2[j]
                    rows_of[j].discard(i2)
            heapq.heappush(pending, (len(r2), i2))
        if unit:
            units += 1
            continue
        if rows_of[c] != {i}:
            continue
        # column c holds row i alone, so column operations reduce row i mod p
        for j in [j for j in piv if j != c]:
            w = piv[j] % p
            if w:
                piv[j] = w
            else:
                del piv[j]
                rows_of[j].discard(i)
        if len(piv) > 1:
            heapq.heappush(pending, (len(piv), i))
            continue
        sparse[i] = {}
        del rows_of[c]
        diag.append(abs(p))
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            g = math.gcd(diag[a], diag[b])
            diag[a], diag[b] = g, diag[a] // g * diag[b]
    return [1] * units + diag


class AbelianInvariants(NamedTuple):
    torsion: tuple[int, ...]
    free_rank: int

    def as_list(self) -> list[int]:
        return list(self.torsion) + [0] * self.free_rank


def abelian_invariants(p: GroupPresentation) -> AbelianInvariants:
    """Invariant factors > 1 plus the free rank of the abelianization.

    Isomorphic groups have isomorphic abelianizations, so every presentation
    of the group gives the same result, such as the class presentation that
    `identify` enumerates on its raw route.
    """
    ngens = len(p.generators)
    matrix = []
    for rel in p.relators:
        row: dict[int, int] = {}
        for x in rel:
            row[x >> 1] = row.get(x >> 1, 0) + (-1 if x & 1 else 1)
        matrix.append({g: v for g, v in row.items() if v})
    diag = _sparse_smith_normal_form(matrix) if matrix and ngens else []
    return AbelianInvariants(
        torsion=tuple(d for d in diag if d > 1),
        free_rank=ngens - len(diag),
    )


# ---------------------------------------------------------------------------
# the sandwich homomorphism onto permutations of the base image


def rees_hom(
    grid: DClassGrid, sys: SchreierSystem, anchors_map: dict[int, int]
) -> dict[tuple[int, int], Permutation]:
    """Generator cell -> permutation of the base image.

    The cell generator represents the loop that leaves the base corner along
    the anchor column, crosses the cell idempotent, and returns along its own
    column; in sandwich coordinates that loop is p_{a,i} * p_{col,i}^-1 for
    the anchor a of row i, where p_{c,i}(b) = t_i(q_c(b)) on the base image
    (see `sandwich_matrix`).  Anchors map to the identity by construction.

    The row representative t_i cancels.  It lies in R_i, so it is constant
    on each block of ker i and injective on each transversal of it, such as
    cols[a] and cols[col].  So p_{col,i}(j) = p_{a,i}(b) exactly when
    q_col(base_im[j]) is the point of cols[col] in the block of
    q_a(base_im[b]), and the cell idempotent f = e_{i,col} sends each point
    of cols[a] to that point of its block.  The loop therefore sends
    position b to the position of f(q_a(base_im[b])) in q_col's base-image
    tuple: k lookups per cell, no t_i, no sandwich entry and no composition.

    q_c = e * e_{rows[c],c} is its letter read on the base image, which e
    fixes (q_c = e at the base); `sys` must be verified, as `build_stages`
    gives it, so q_c lies in L_c.  Each distinct value is checked to be a
    bijection: not so when f is not injective on cols[a] or leaves cols[col].
    """
    base_im = grid.cols[grid.base[1]]
    qs = [base_im if i is None else tuple(map(grid.cell(i, c).__getitem__, base_im))
          for c, i in enumerate(sys.rows)]
    # where[c][y]: the position of y in qs[c]; one entry past n answers UNDEF (-1)
    where = []
    for qc in qs:
        w = [-1] * (grid.n + 1)
        for b, y in enumerate(qc):
            w[y] = b
        where.append(w)
    full = set(range(grid.k))
    checked: set[Permutation] = set()
    out: dict[tuple[int, int], Permutation] = {}
    for (i, lam), f in grid.group_cells.items():  # in (row, column) order
        w = where[lam]
        perm = tuple(w[f[y]] for y in qs[anchors_map[i]])
        if perm not in checked:
            if set(perm) != full:
                raise StructuralError("restriction to the base image is not a bijection")
            checked.add(perm)
        out[(i, lam)] = perm
    return out


def verify_hom(p: GroupPresentation, hom: dict[tuple[int, int], Permutation]) -> bool:
    """Every relator must map to the identity permutation.

    Permutations are interned as ints (the identity is 0), each distinct
    letter image is inverted once, and the product of an interned prefix with
    a letter's image is composed the first time it is met and looked up after
    that, so each distinct product is composed once.
    Only the products the relators reach are built, never the k! x k! table.
    """
    if p.cells is None:
        raise ValueError("presentation is not grid-derived")
    if not hom:
        return True
    k = len(next(iter(hom.values())))
    perms: list[Permutation] = []
    index: dict[Permutation, int] = {}
    products: list[dict[int, int]] = []  # products[a][b]: the index of perms[a] * perms[b]

    def intern(q: Permutation) -> int:
        at = index.get(q)
        if at is None:
            at = index[q] = len(perms)
            perms.append(q)
            products.append({})
        return at

    intern(perm_identity(k))
    pairs: dict[Permutation, tuple[int, int]] = {}  # image -> (its index, its inverse's)
    images: list[int] = []  # by letter
    for cell in p.cells:
        q = hom[cell]
        pair = pairs.get(q)
        if pair is None:
            pair = pairs[q] = (intern(q), intern(perm_inverse(q)))
        images += pair
    for rel in p.relators:
        acc = 0
        for x in rel:
            b = images[x]
            row = products[acc]
            nxt = row.get(b)
            if nxt is None:
                nxt = row[b] = intern(perm_compose(perms[acc], perms[b]))
            acc = nxt
        if acc:
            return False
    return True


# ---------------------------------------------------------------------------
# the stages every caller shares: grid, verified Schreier system, singular
# classes, raw presentation; each is looked up in this module's globals


@contextmanager
def _timed(timings: dict[str, float], stage: str):
    start = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - start


def verified_schreier(grid: DClassGrid, tie_break: str = "least") -> SchreierSystem:
    """Build and verify; a degenerate grid's one column has no row."""
    sys = build_schreier(grid, tie_break)
    violations = verify_schreier(grid, sys)
    if violations:
        raise StructuralError(
            "Schreier system failed verification: " + "; ".join(violations[:10])
        )
    return sys


class Stages(NamedTuple):
    grid: DClassGrid
    anchors: dict[int, int]
    sys: SchreierSystem
    classes: tuple[SingularClass, ...]
    presentation: GroupPresentation


def build_stages(
    n: int,
    k: int,
    monoid: Monoid,
    *,
    anchor_rule: str = "lex",
    tie_break: str = "least",
    timings: dict[str, float] | None = None,
) -> Stages:
    """Run the four shared stages, recording each one's seconds in `timings`."""
    timings = {} if timings is None else timings
    with _timed(timings, "grid"):
        grid = build_grid(n, k, monoid)
    with _timed(timings, "schreier"):
        anchors_map = anchors(grid, anchor_rule)
        sys = verified_schreier(grid, tie_break)
    with _timed(timings, "squares"):
        classes = enumerate_singular_squares(grid)
    with _timed(timings, "presentation"):
        pres = build_presentation(grid, sys, anchors_map, classes)
    return Stages(grid, anchors_map, sys, classes, pres)


class IdentificationReport(NamedTuple):
    """What identify found; `_replace` makes a changed copy."""

    n: int
    k: int
    monoid: Monoid
    verdict: str
    order: int | None
    order_kind: str  # finite | infinite_free | overflow
    free_rank: int | None
    abelian_invariants: list[int]
    hom_valid: bool | None
    image_order: int | None
    generators: int
    relator_counts: dict[str, int]
    simplified_generators: int | None
    simplified_relators: int | None
    diagnostics: list[str]
    timings: dict[str, float]

    def to_json(self, include_timings: bool = False) -> dict:
        out = self._asdict()
        out["monoid"] = self.monoid.value
        out["relators"] = out.pop("relator_counts")
        if not include_timings:
            del out["timings"]
        return out


def identify(
    n: int,
    k: int,
    monoid: Monoid,
    *,
    max_cosets: int = DEFAULT_MAX_COSETS,
    anchor_rule: str = "lex",
    tie_break: str = "least",
    workers: int = 1,
    simplify: bool = True,
) -> IdentificationReport:
    """Run the whole pipeline for the rank-k class and name the group.

    Edge ranks k in {0, n} short-circuit to the trivial verdict, k = n-1 is
    certified free of the Graham-Houghton cycle rank, and 1 <= k <= n-2 is
    certified symmetric via order k! plus a verified surjection onto S_k.
    `workers` must be positive and has no effect.  The options are checked
    on every rank, the edge ranks included.

    At k = n-1 no square has four group cells, so no type-3 relator: two
    columns lam != mu cover all n points, so a row with both as transversals
    is total, and its one two-point block is lam's and mu's symmetric
    difference; a partial row has one transversal, its domain.  So one row
    at most holds both columns.  The free verdict rests on its certificate
    alone: Tietze must leave exactly the cycle rank of generators and no
    relators, or StructuralError.

    The surjection is checked first, as it gives |G| >= k!.  Then the upper
    bound comes from `_subgroup_chain` on the simplified presentation: for
    generator sets Y_1 < ... < Y_t, each level's table bounds |G| by
    Lagrange, as <Y_{j-1}> in K_j is a quotient of K_{j-1}, so
    |G| <= prod_j [K_j : <Y_{j-1}>].  Every level is capped at
    min(max_cosets, 50 * k!) cosets.  The top table is taken only when the
    surjection holds and the bound is k!; then |G| = k! and the order is
    exact.  In every other case one HLT enumeration over the trivial
    subgroup, capped at max_cosets, gives the exact order, or overflows.

    Without `simplify` (CLI --raw-coset-table) only Tietze's first phase,
    `collapse_short_relators`, runs, timed as "tietze", and its one class
    presentation feeds both `todd_coxeter` and `abelian_invariants`.  Every
    kill and merge is read off a relator of length 1 or 2, so that
    presentation comes from the raw one by Tietze moves: the groups are
    isomorphic, and so are their abelianizations, so neither the order nor
    the printed invariants can change.  The report keeps the raw sizes.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    if anchor_rule not in ANCHOR_RULES:
        raise ValueError(f"anchor rule must be one of {ANCHOR_RULES}")
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    timings: dict[str, float] = {}

    if k in (0, n):
        with _timed(timings, "grid"):
            build_grid(n, k, monoid)
        return IdentificationReport(
            n, k, monoid, verdict=VERDICT_TRIVIAL, order=1, order_kind="finite", free_rank=None,
            abelian_invariants=[], hom_valid=None, image_order=None, generators=1,
            relator_counts={TYPE1: 1, TYPE2: 0, TYPE3: 0, TIETZE: 0},
            simplified_generators=None, simplified_relators=None, diagnostics=[],
            timings=timings,
        )

    grid, anchors_map, sys, _, raw = build_stages(
        n, k, monoid, anchor_rule=anchor_rule, tie_break=tie_break, timings=timings,
    )
    counts = raw.counts_by_type()

    if k == n - 1:
        with _timed(timings, "free_rank"):
            rank = free_rank(gh_graph(grid), grid.base)
        with _timed(timings, "tietze"):
            simp = tietze_simplify(raw)
        if simp.relators or len(simp.generators) != rank:
            raise StructuralError(
                f"free of cycle rank {rank} needs {rank} generators and no relators after "
                f"simplification, not {len(simp.generators)} and {len(simp.relators)}"
            )
        outcome = dict(
            verdict=VERDICT_FREE,
            order=1 if rank == 0 else None,
            order_kind="finite" if rank == 0 else "infinite_free",
            free_rank=rank,
            abelian_invariants=[0] * rank,
            hom_valid=None,
            image_order=None,
            diagnostics=[],
        )
    else:
        with _timed(timings, "tietze"):
            simp = tietze_simplify(raw) if simplify else raw
            pres = simp if simplify else collapse_short_relators(raw)
        with _timed(timings, "hom"):
            hom = rees_hom(grid, sys, anchors_map)
            hom_ok = verify_hom(raw, hom)
            image_order = perm_group_order(hom.values())
        expected = math.factorial(k)
        with _timed(timings, "coset_enumeration"):
            table = None
            if simplify and hom_ok and image_order == expected:
                table = _subgroup_chain(pres, min(max_cosets, CHAIN_CAP_PER_ORDER * expected))
            if table is None or table.order != expected:
                table = todd_coxeter(pres, max_cosets=max_cosets)
        with _timed(timings, "abelian_invariants"):
            inv = abelian_invariants(pres)

        diagnostics = []
        if table.status == OVERFLOW:
            diagnostics.append(f"coset enumeration overflowed at {max_cosets} cosets")
        elif table.order != expected:
            diagnostics.append(f"order {table.order} differs from k! = {expected}")
        if not hom_ok:
            diagnostics.append("sandwich homomorphism does not kill every relator")
        if image_order != expected:
            diagnostics.append(f"homomorphic image has order {image_order}, expected {expected}")
        outcome = dict(
            verdict=VERDICT_SYMMETRIC if not diagnostics else VERDICT_UNDECIDED,
            order=table.order,
            order_kind="finite" if table.status == COMPLETE else "overflow",
            free_rank=None,
            hom_valid=hom_ok,
            image_order=image_order,
            abelian_invariants=inv.as_list(),
            diagnostics=diagnostics,
        )

    return IdentificationReport(
        n,
        k,
        monoid,
        generators=len(raw.generators),
        relator_counts=counts,
        simplified_generators=len(simp.generators),
        simplified_relators=len(simp.relators),
        timings=timings,
        **outcome,
    )
