"""Shared brute-force oracles and cached pipeline builders for the tests.

Oracles here recompute expectations from first principles (exhaustive
enumeration, ideal closures, determinantal divisors) and never reuse the
code paths they are checking.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from functools import lru_cache

from igmax.dclass import DClassGrid, anchors, build_grid
from igmax.groupid import COMPLETE, OVERFLOW, CosetTable, _Overflow, identify
from igmax.presentation import (
    TIETZE,
    GroupPresentation,
    Relator,
    _rebuild,
    build_presentation,
    canonical_form,
    cyclically_reduce,
    invert,
)
from igmax.ptrans import Monoid, PartialMap, compose, compose_entries
from igmax.schreier import (
    SchreierSystem,
    build_schreier,
    l_class_elements,
    verify_schreier,
    word_value,
)
from igmax.squares import (
    Entries,
    _singular_case,
    enumerate_singular_squares,
    witness_pool,
)

MONOIDS = {"pt": Monoid.PARTIAL, "t": Monoid.TOTAL}


# ---------------------------------------------------------------------------
# brute enumeration of the monoids


@lru_cache(maxsize=None)
def all_partial_maps(n: int) -> tuple[PartialMap, ...]:
    vals = range(-1, n)
    return tuple(PartialMap(t) for t in itertools.product(vals, repeat=n))


@lru_cache(maxsize=None)
def all_total_maps(n: int) -> tuple[PartialMap, ...]:
    return tuple(PartialMap(t) for t in itertools.product(range(n), repeat=n))


def all_maps(n: int, monoid: Monoid) -> tuple[PartialMap, ...]:
    return all_total_maps(n) if monoid is Monoid.TOTAL else all_partial_maps(n)


def brute_idempotents(n: int, k: int, monoid: Monoid) -> set[PartialMap]:
    return {
        m
        for m in all_maps(n, monoid)
        if m.rank() == k and compose(m, m) == m
    }


# ---------------------------------------------------------------------------
# Green's relations via one-sided ideal closures (independent of rank/kernel
# characterizations)


@lru_cache(maxsize=None)
def green_ideals(n: int, monoid_key: str):
    monoid = MONOIDS[monoid_key]
    elems = all_maps(n, monoid)
    rights = {}
    lefts = {}
    twosided = {}
    for a in elems:
        right = {a} | {compose(a, s) for s in elems}
        left = {a} | {compose(s, a) for s in elems}
        two = set(right)
        for x in list(right):
            two.update(compose(s, x) for s in elems)
        rights[a] = frozenset(right)
        lefts[a] = frozenset(left)
        twosided[a] = frozenset(two)
    return elems, rights, lefts, twosided


# ---------------------------------------------------------------------------
# determinantal divisors: an independent oracle for Smith normal form


def minor_gcd_invariants(matrix: list[list[int]]) -> list[int]:
    """Invariant factors d_i = D_i / D_{i-1} with D_i = gcd of all i x i minors."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    divisors = [1]
    for size in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(n), size):
                g = math.gcd(g, _det([[matrix[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        divisors.append(g)
    return [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]


def _det(matrix: list[list[int]]) -> int:
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = 0
    for j in range(size):
        if matrix[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            total += (-1) ** j * matrix[0][j] * _det(minor)
    return total


# ---------------------------------------------------------------------------
# cached pipelines shared across test modules


@lru_cache(maxsize=None)
def pipeline(monoid_key: str, n: int, k: int, anchor_rule: str = "lex", tie_break: str = "least"):
    monoid = MONOIDS[monoid_key]
    grid = build_grid(n, k, monoid)
    anchors_map = anchors(grid, anchor_rule)
    sys_ = build_schreier(grid, tie_break)
    assert verify_schreier(grid, sys_) == []
    singulars = enumerate_singular_squares(grid)
    pres = build_presentation(grid, sys_, anchors_map, singulars)
    return grid, anchors_map, sys_, singulars, pres


@lru_cache(maxsize=None)
def cached_identify(monoid_key: str, n: int, k: int, anchor_rule: str = "lex",
                    tie_break: str = "least"):
    return identify(n, k, MONOIDS[monoid_key], anchor_rule=anchor_rule, tie_break=tie_break)


# ---------------------------------------------------------------------------
# Tietze oracle: the full-rescan simplification the indexed one replaced.  It
# recounts every live relator on every elimination, so it is slow but plainly
# follows the priority (length, least once-occurring generator, relator id).


def reference_tietze_simplify(p: GroupPresentation) -> GroupPresentation:
    """Kill trivial relators and eliminate once-occurring generators to a fixpoint.

    Deterministic priority: shortest relator first, then least generator, then
    oldest relator.  The isomorphism class of the presented group is preserved.
    """
    rels: list[Relator | None] = []
    tags: list[str] = []
    canon_of: dict[Relator, int] = {}
    for rel, tag in zip(p.relators, p.provenance):
        rel = cyclically_reduce(rel)
        if not rel:
            continue
        canon = canonical_form(rel)
        if canon in canon_of:
            continue
        canon_of[canon] = len(rels)
        rels.append(rel)
        tags.append(tag)

    alive = [True] * len(p.generators)

    while True:
        best = None
        for rid, rel in enumerate(rels):
            if rel is None:
                continue
            counts = Counter(g for g, _ in rel)
            once = [g for g, cnt in counts.items() if cnt == 1]
            if not once:
                continue
            key = (len(rel), min(once), rid)
            if best is None or key < best:
                best = key
        if best is None:
            break
        _, x, rid = best
        rel = rels[rid]
        idx = next(pos for pos, (g, _) in enumerate(rel) if g == x)
        sign = rel[idx][1]
        rest = rel[idx + 1 :] + rel[:idx]
        sub = invert(rest) if sign == 1 else rest  # now x = sub holds
        rels[rid] = None
        alive[x] = False
        for rid2, rel2 in enumerate(rels):
            if rel2 is None or all(g != x for g, _ in rel2):
                continue
            new: list[tuple[int, int]] = []
            for g, e in rel2:
                if g == x:
                    new.extend(sub if e == 1 else invert(sub))
                else:
                    new.append((g, e))
            reduced = cyclically_reduce(tuple(new))
            if not reduced:
                rels[rid2] = None
                continue
            canon = canonical_form(reduced)
            other = canon_of.get(canon)
            if (
                other is not None
                and other != rid2
                and rels[other] is not None
                and canonical_form(rels[other]) == canon
            ):
                rels[rid2] = None
                continue
            canon_of[canon] = rid2
            rels[rid2] = reduced
            tags[rid2] = TIETZE

    return _rebuild(p, alive, rels, tags)


# ---------------------------------------------------------------------------
# Schreier oracle: the exhaustive check the Green's-lemma one replaced.  It
# multiplies every element of the base L-class by every column word, so it is
# slow but checks the bijection L_e -> L_col element by element.


def reference_verify_schreier(grid: DClassGrid, sys: SchreierSystem) -> list[str]:
    """Exhaustively check the Schreier system; returns violations (empty = valid)."""
    bad: list[str] = []
    ncols = len(grid.cols)
    if set(sys.r) != set(range(ncols)) or set(sys.r_inv) != set(range(ncols)):
        bad.append("words do not cover every column")
        return bad
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

    base_elems = l_class_elements(grid, sys.base_col)
    for col in range(ncols):
        fwd = word_value(grid, sys.r[col])
        back = word_value(grid, sys.r_inv[col])
        target = grid.cols[col]
        for x in base_elems:
            y = compose(x, fwd)
            if y.image() != target:
                bad.append(f"column {col}: {x.to_text()} * r does not land in L_{col}")
                continue
            if y.kernel() != x.kernel():
                bad.append(f"column {col}: right multiplication by r moved the R-class of {x.to_text()}")
            if compose(y, back) != x:
                bad.append(f"column {col}: r_inv does not invert r on {x.to_text()}")
    return bad


# ---------------------------------------------------------------------------
# Square-scan oracle: the per-cell buckets the row/column buckets replaced.  It
# composes every distinct cell idempotent with the whole pool on both sides and
# evaluates the full singularity conditions for every bucket survivor.


class ReferenceSquareScan:
    """Witness search state: the pool plus left/right fixing buckets per cell.

    For case (a) the witness must fix both left-column cells under left
    multiplication, for case (b) it must fix both top-row cells under right
    multiplication, so intersecting precomputed buckets prunes the pool before
    any full condition is evaluated.  This is the hot loop of the package.
    """

    def __init__(self, grid: "DClassGrid"):
        self.grid = grid
        self.pool = [m.entries for m in witness_pool(grid)]
        self.cellmaps = {cell: m.entries for cell, m in grid.group_cells.items()}
        lefts: dict[Entries, frozenset[int]] = {}
        rights: dict[Entries, frozenset[int]] = {}
        for c in set(self.cellmaps.values()):
            ls = []
            rs = []
            for idx, eps in enumerate(self.pool):
                if compose_entries(eps, c) == c:
                    ls.append(idx)
                if compose_entries(c, eps) == c:
                    rs.append(idx)
            lefts[c] = frozenset(ls)
            rights[c] = frozenset(rs)
        self.lefts = lefts
        self.rights = rights

    def scan(self, cand: tuple[int, int, int, int]):
        """First witness over (orientation, pool index); None if not singular."""
        i, j, lam, mu = cand
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
            candidates = (self.lefts[ee] & self.lefts[gg]) | (self.rights[ee] & self.rights[ff])
            for pidx in sorted(candidates):
                case = _singular_case(self.pool[pidx], cells)
                if case is not None:
                    return rows, cols, pidx, case
        return None


# ---------------------------------------------------------------------------
# coset enumeration oracle: the dense-row HLT enumeration the sparse one
# replaced.  Every row is a list of 2 * ngens entries, and a dead coset's row
# is walked over every column.


def reference_todd_coxeter(p: GroupPresentation, max_cosets: int = 10**6) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; order = live cosets when complete.

    HLT strategy: scan every relator at every live coset, filling gaps, with a
    queue-based coincidence routine merging colliding cosets.  Hitting the
    coset cap is reported as status OVERFLOW, not an error.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    ngens = len(p.generators)
    rel_words = []
    for rel in p.relators:
        word = []
        for g, e in rel:
            if not 0 <= g < ngens or e not in (1, -1):
                raise ValueError(f"malformed relator letter ({g},{e})")
            word.append(2 * g if e == 1 else 2 * g + 1)
        if word:
            rel_words.append(tuple(word))
    ncols = 2 * ngens
    if ngens == 0:
        return CosetTable(0, [[]], COMPLETE)

    table: list[list[int | None]] = [[None] * ncols]
    parent = [0]
    pending: deque[int] = deque()

    def rep(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def merge(a: int, b: int) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            pending.append(b)

    def coincidence(a: int, b: int) -> None:
        merge(a, b)
        while pending:
            dead = pending.popleft()
            row = table[dead]
            for x in range(ncols):
                target = row[x]
                if target is None:
                    continue
                table[target][x ^ 1] = None
                mu, nu = rep(dead), rep(target)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def define(c: int, x: int) -> None:
        if len(table) >= max_cosets:
            raise _Overflow
        d = len(table)
        table.append([None] * ncols)
        parent.append(d)
        table[c][x] = d
        table[d][x ^ 1] = c

    def scan_and_fill(c: int, word: tuple[int, ...]) -> None:
        f, i = c, 0
        b, j = c, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    status = COMPLETE
    try:
        alpha = 0
        while alpha < len(table):
            if rep(alpha) != alpha:
                alpha += 1
                continue
            for word in rel_words:
                scan_and_fill(alpha, word)
                if rep(alpha) != alpha:
                    break
            if rep(alpha) == alpha:
                for x in range(ncols):
                    if table[alpha][x] is None:
                        define(alpha, x)
            alpha += 1
    except _Overflow:
        status = OVERFLOW

    live = [c for c in range(len(table)) if rep(c) == c]
    index = {c: i for i, c in enumerate(live)}
    compact = [
        [None if v is None else index[rep(v)] for v in table[c]]
        for c in live
    ]
    return CosetTable(ngens, compact, status)


# ---------------------------------------------------------------------------
# fixed small presentations with verified permutation realizations


def _make_presentation(gens, rels):
    return GroupPresentation(tuple(gens), tuple(rels), tuple("type3" for _ in rels))


def _power(g: int, n: int):
    e = 1 if n > 0 else -1
    return tuple((g, e) for _ in range(abs(n)))


def oracle_presentations():
    """(name, presentation, generator permutations or None, order, abelianization).

    The permutations realize the presented group faithfully; the realization
    is re-verified against the relators wherever it is used, so the closure
    order is an independent oracle for coset enumeration.
    """
    x = _power
    return [
        ("trivial", _make_presentation(["a"], [x(0, 1)]), [(0,)], 1, []),
        ("c2", _make_presentation(["a"], [x(0, 2)]), [(1, 0)], 2, [2]),
        ("c3", _make_presentation(["a"], [x(0, 3)]), [(1, 2, 0)], 3, [3]),
        ("c5", _make_presentation(["a"], [x(0, 5)]), [(1, 2, 3, 4, 0)], 5, [5]),
        ("c6_two_gen",
         _make_presentation(["a", "b"], [x(0, 2), x(1, 3), ((0, 1), (1, 1), (0, -1), (1, -1))]),
         [(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)], 6, [6]),
        ("klein4",
         _make_presentation(["a", "b"], [x(0, 2), x(1, 2), (x(0, 1) + x(1, 1)) * 2]),
         [(1, 0, 2, 3), (0, 1, 3, 2)], 4, [2, 2]),
        ("s3_coxeter",
         _make_presentation(["a", "b"], [x(0, 2), x(1, 2), (x(0, 1) + x(1, 1)) * 3]),
         [(1, 0, 2), (0, 2, 1)], 6, [2]),
        ("s3_cyclic",
         _make_presentation(["r", "s"], [x(0, 3), x(1, 2), ((1, 1), (0, 1), (1, 1), (0, 1))]),
         [(1, 2, 0), (1, 0, 2)], 6, [2]),
        ("d4",
         _make_presentation(["a", "b"], [x(0, 2), x(1, 2), (x(0, 1) + x(1, 1)) * 4]),
         [(1, 0, 3, 2), (0, 3, 2, 1)], 8, [2, 2]),
        ("d5",
         _make_presentation(["a", "b"], [x(0, 2), x(1, 2), (x(0, 1) + x(1, 1)) * 5]),
         [(0, 4, 3, 2, 1), (2, 1, 0, 4, 3)], 10, [2]),
        ("q8",
         _make_presentation(["a", "b"],
                            [x(0, 4), x(0, 2) + x(1, -2), ((1, -1), (0, 1), (1, 1), (0, 1))]),
         None, 8, [2, 2]),
    ]
