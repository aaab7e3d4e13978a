"""Identify the presented group: coset enumeration, abelian invariants, and
the sandwich homomorphism onto the symmetric group of the base image.

The verdict logic mirrors a two-surjection squeeze: a finite presentation of
order k! together with a verified surjection onto S_k pins the group to S_k.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

from .dclass import (
    DClassGrid,
    Permutation,
    anchors,
    build_grid,
    sandwich_matrix,
)
from .errors import StructuralError
from .presentation import (
    TIETZE,
    TYPE1,
    TYPE2,
    TYPE3,
    GroupPresentation,
    build_presentation,
    free_rank,
    gh_graph,
    tietze_simplify,
)
from .ptrans import Monoid, compose_entries, enumerate_idempotents
from .schreier import build_schreier, verify_schreier
from .squares import enumerate_singular_squares, group_square_candidates

COMPLETE = "complete"
OVERFLOW = "overflow"

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
    """Order of the permutation group generated by `gens` (direct closure)."""
    gens = list(dict.fromkeys(gens))  # one per generator cell, mostly repeats
    if not gens:
        raise ValueError("need at least one permutation (group degree unknown)")
    k = len(gens[0])
    seen = {perm_identity(k)}
    queue = deque(seen)
    while queue:
        p = queue.popleft()
        for q in gens:
            nxt = perm_compose(p, q)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (HLT with coincidence handling)


@dataclass
class CosetTable:
    """Compacted coset table over the generator letters and their inverses."""

    ngens: int
    table: list[list[int | None]]
    status: str

    @property
    def order(self) -> int | None:
        return len(self.table) if self.status == COMPLETE else None

    def trace(self, coset: int, word) -> int | None:
        """Follow (gen, exp) letters from a coset; None on an undefined entry."""
        for g, e in word:
            col = 2 * g if e == 1 else 2 * g + 1
            nxt = self.table[coset][col]
            if nxt is None:
                return None
            coset = nxt
        return coset


class _Overflow(Exception):
    pass


def todd_coxeter(p: GroupPresentation, max_cosets: int = 10**6) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; order = live cosets when complete.

    HLT strategy: scan every relator at every live coset, filling gaps, with a
    queue-based coincidence routine merging colliding cosets.  Hitting the
    coset cap is reported as status OVERFLOW, not an error.

    Each row is a dict {column: coset} holding only the defined entries, as a
    raw presentation has hundreds of generators and most of a row stays
    undefined; a dead coset's row is visited over its keys, in ascending
    column order.  The result is compacted to dense rows.
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

    table: list[dict[int, int]] = [{}]
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
            for x in sorted(row):
                # a self-loop at dead clears its inverse entry during the visit
                if x not in row:
                    continue
                target = row[x]
                table[target].pop(x ^ 1, None)
                mu, nu = rep(dead), rep(target)
                mrow, nrow = table[mu], table[nu]
                if x in mrow:
                    merge(nu, mrow[x])
                elif x ^ 1 in nrow:
                    merge(mu, nrow[x ^ 1])
                else:
                    mrow[x] = nu
                    nrow[x ^ 1] = mu

    def define(c: int, x: int) -> None:
        if len(table) >= max_cosets:
            raise _Overflow
        d = len(table)
        table.append({x ^ 1: c})
        parent.append(d)
        table[c][x] = d

    def scan_and_fill(c: int, word: tuple[int, ...]) -> None:
        f, i = c, 0
        b, j = c, len(word) - 1
        while True:
            while i <= j:
                row = table[f]
                w = word[i]
                if w not in row:
                    break
                f = row[w]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                row = table[b]
                w = word[j] ^ 1
                if w not in row:
                    break
                b = row[w]
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
                row = table[alpha]
                for x in range(ncols):
                    if x not in row:
                        define(alpha, x)
            alpha += 1
    except _Overflow:
        status = OVERFLOW

    live = [c for c in range(len(table)) if rep(c) == c]
    index = {c: i for i, c in enumerate(live)}
    compact = []
    for c in live:
        row = table[c]
        compact.append([index[rep(row[x])] if x in row else None for x in range(ncols)])
    return CosetTable(ngens, compact, status)


# ---------------------------------------------------------------------------
# abelian invariants via Smith normal form (exact integers)


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Nonzero diagonal invariant factors d1 | d2 | ... of an integer matrix.

    Relation matrices are sparse and reduce mostly by unit pivots.  Each unit
    (+-1) entry is eliminated over sparse rows, splitting off a direct summand
    [1], so it contributes one invariant factor 1; the dense routine finishes
    the residual matrix.  The invariant factors are unique, so the result is
    the dense routine's on the whole matrix.
    """
    return _sparse_smith_normal_form([{j: v for j, v in enumerate(r) if v} for r in rows])


def _sparse_smith_normal_form(sparse: list[dict[int, int]]) -> list[int]:
    """smith_normal_form on rows given as {column: nonzero entry}; consumes them."""
    rows_of: dict[int, set[int]] = {}
    for i, r in enumerate(sparse):
        for j in r:
            rows_of.setdefault(j, set()).add(i)
    units = 0
    pending = list(range(len(sparse)))  # rows that may hold a unit entry
    while pending:
        i = pending.pop()
        piv = sparse[i]
        unit_cols = [j for j, v in piv.items() if v in (1, -1)]
        if not unit_cols:
            continue
        # the unit whose column meets the fewest other rows fills in least
        c = min(unit_cols, key=lambda j: (len(rows_of[j]), j))
        p = piv.pop(c)
        sparse[i] = {}
        for j in piv:
            rows_of[j].discard(i)
        for i2 in rows_of.pop(c) - {i}:
            r2 = sparse[i2]
            q = r2.pop(c) * p  # r2 -= q * (row i) clears column c, as p * p = 1
            for j, v in piv.items():
                w = r2.get(j, 0) - q * v
                if w:
                    r2[j] = w
                    rows_of[j].add(i2)
                elif j in r2:
                    del r2[j]
                    rows_of[j].discard(i2)
            pending.append(i2)
        units += 1
    residual = [r for r in sparse if r]
    cols = sorted({j for r in residual for j in r})
    dense = [[r.get(j, 0) for j in cols] for r in residual]
    return [1] * units + dense_smith_normal_form(dense)


def dense_smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Invariant factors by repeated least-pivot elimination on a dense matrix."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    diag: list[int] = []
    t = 0
    while True:
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (piv is None or abs(v) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-v for v in a[t]]
        while True:
            # clear the pivot column, shrinking the pivot by gcd steps
            moved = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        if a[t][t] < 0:
                            a[t] = [-v for v in a[t]]
                        moved = True
                        break
            if moved:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        if a[t][t] < 0:
                            a[t] = [-v for v in a[t]]
                        moved = True
                        break
            if moved:
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        diag.append(a[t][t])
        t += 1
    return diag


@dataclass(frozen=True)
class AbelianInvariants:
    torsion: tuple[int, ...]
    free_rank: int

    def as_list(self) -> list[int]:
        return list(self.torsion) + [0] * self.free_rank


def abelian_invariants(p: GroupPresentation) -> AbelianInvariants:
    """Invariant factors > 1 plus the free rank of the abelianization."""
    ngens = len(p.generators)
    matrix = []
    for rel in p.relators:
        row: dict[int, int] = {}
        for g, e in rel:
            row[g] = row.get(g, 0) + e
        matrix.append({g: v for g, v in row.items() if v})
    diag = _sparse_smith_normal_form(matrix) if matrix and ngens else []
    return AbelianInvariants(
        torsion=tuple(d for d in diag if d > 1),
        free_rank=ngens - len(diag),
    )


# ---------------------------------------------------------------------------
# the sandwich homomorphism onto permutations of the base image


def rees_hom(
    grid: DClassGrid, sys, anchors_map: dict[int, int]
) -> dict[tuple[int, int], Permutation]:
    """Generator cell -> permutation of the base image.

    The cell generator represents the loop that leaves the base corner along
    the anchor column, crosses the cell idempotent, and returns along its own
    column; in sandwich coordinates that loop is p_{anchor,i} * p_{col,i}^-1.
    Anchors therefore map to the identity permutation by construction.
    """
    matrix = sandwich_matrix(grid, sys, anchors_map)
    out: dict[tuple[int, int], Permutation] = {}
    for i, lam in sorted(grid.group_cells):
        p_anchor = matrix[(anchors_map[i], i)]
        p_cell = matrix[(lam, i)]
        if p_anchor is None or p_cell is None:
            raise StructuralError(f"zero sandwich entry on generator cell ({i},{lam})")
        out[(i, lam)] = perm_compose(p_anchor, perm_inverse(p_cell))
    return out


def verify_hom(p: GroupPresentation, hom: dict[tuple[int, int], Permutation]) -> bool:
    """Every relator must map to the identity permutation."""
    if p.cells is None:
        raise ValueError("presentation is not grid-derived")
    if not hom:
        return True
    k = len(next(iter(hom.values())))
    ident = perm_identity(k)
    for rel in p.relators:
        acc = ident
        for g, e in rel:
            q = hom[p.cells[g]]
            acc = perm_compose(acc, q if e == 1 else perm_inverse(q))
        if acc != ident:
            return False
    return True


# ---------------------------------------------------------------------------
# idempotent-generated subsemigroup (generation sanity)


def idempotent_closure(n: int, monoid: Monoid) -> frozenset[tuple[int, ...]]:
    """Closure of all idempotents under composition, as raw entry tuples."""
    gens = set()
    lo = 1 if monoid is Monoid.TOTAL else 0
    for k in range(lo, n + 1):
        gens.update(m.entries for m in enumerate_idempotents(n, k, monoid))
    closed = set(gens)
    queue = deque(closed)
    while queue:
        a = queue.popleft()
        for b in list(closed):
            for prod in (compose_entries(a, b), compose_entries(b, a)):
                if prod not in closed:
                    closed.add(prod)
                    queue.append(prod)
    return frozenset(closed)


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class IdentificationReport:
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
    diagnostics: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def to_json(self, include_timings: bool = False) -> dict:
        out = {
            "monoid": self.monoid.value,
            "n": self.n,
            "k": self.k,
            "verdict": self.verdict,
            "order": self.order,
            "order_kind": self.order_kind,
            "free_rank": self.free_rank,
            "abelian_invariants": self.abelian_invariants,
            "hom_valid": self.hom_valid,
            "image_order": self.image_order,
            "generators": self.generators,
            "relators": self.relator_counts,
            "simplified_generators": self.simplified_generators,
            "simplified_relators": self.simplified_relators,
            "diagnostics": self.diagnostics,
        }
        if include_timings:
            out["timings"] = self.timings
        return out


def identify(
    n: int,
    k: int,
    monoid: Monoid,
    *,
    max_cosets: int = 10**6,
    anchor_rule: str = "lex",
    tie_break: str = "least",
    workers: int = 1,
    simplify: bool = True,
) -> IdentificationReport:
    """Run the whole pipeline for the rank-k class and name the group.

    Edge ranks k in {0, n} short-circuit to the trivial verdict, k = n-1 is
    certified free of the Graham-Houghton cycle rank, and 1 <= k <= n-2 is
    certified symmetric via order k! plus a verified surjection onto S_k.
    """
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range for n={n}")
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    timings: dict[str, float] = {}
    clock = time.perf_counter
    t0 = clock()

    if k in (0, n):
        grid = build_grid(n, k, monoid)
        timings["grid"] = clock() - t0
        return IdentificationReport(
            n=n,
            k=k,
            monoid=monoid,
            verdict=VERDICT_TRIVIAL,
            order=1,
            order_kind="finite",
            free_rank=None,
            abelian_invariants=[],
            hom_valid=None,
            image_order=None,
            generators=1,
            relator_counts={TYPE1: 1, TYPE2: 0, TYPE3: 0, TIETZE: 0},
            simplified_generators=None,
            simplified_relators=None,
            timings=timings,
        )

    grid = build_grid(n, k, monoid)
    timings["grid"] = clock() - t0

    t1 = clock()
    anchors_map = anchors(grid, anchor_rule)
    sys = build_schreier(grid, tie_break)
    violations = verify_schreier(grid, sys)
    if violations:
        raise StructuralError("Schreier system failed verification: " + violations[0])
    timings["schreier"] = clock() - t1

    t2 = clock()
    singulars = enumerate_singular_squares(grid, workers=workers)
    timings["squares"] = clock() - t2

    t3 = clock()
    raw = build_presentation(grid, sys, anchors_map, singulars)
    timings["presentation"] = clock() - t3
    counts = raw.counts_by_type()

    if k == n - 1:
        if group_square_candidates(grid):
            raise StructuralError("unexpected all-group square in the k = n-1 class")
        if counts["type3"]:
            raise StructuralError("unexpected type-3 relator in the k = n-1 class")
        t4 = clock()
        rank = free_rank(gh_graph(grid), grid.base)
        simp = tietze_simplify(raw)
        inv = abelian_invariants(simp)
        timings["free_rank"] = clock() - t4
        if inv.torsion or inv.free_rank != rank:
            raise StructuralError(
                f"cycle rank {rank} disagrees with abelianization {inv.as_list()}"
            )
        return IdentificationReport(
            n=n,
            k=k,
            monoid=monoid,
            verdict=VERDICT_FREE,
            order=1 if rank == 0 else None,
            order_kind="finite" if rank == 0 else "infinite_free",
            free_rank=rank,
            abelian_invariants=inv.as_list(),
            hom_valid=None,
            image_order=None,
            generators=len(raw.generators),
            relator_counts=counts,
            simplified_generators=len(simp.generators),
            simplified_relators=len(simp.relators),
            timings=timings,
        )

    t4 = clock()
    simp = tietze_simplify(raw) if simplify else raw
    timings["tietze"] = clock() - t4

    t5 = clock()
    table = todd_coxeter(simp, max_cosets=max_cosets)
    order = table.order
    timings["coset_enumeration"] = clock() - t5

    t6 = clock()
    inv = abelian_invariants(simp)
    timings["abelian_invariants"] = clock() - t6

    t7 = clock()
    hom = rees_hom(grid, sys, anchors_map)
    hom_ok = verify_hom(raw, hom)
    image_order = perm_group_order(hom.values())
    timings["hom"] = clock() - t7

    expected = math.factorial(k)
    diagnostics = []
    if table.status == OVERFLOW:
        diagnostics.append(f"coset enumeration overflowed at {max_cosets} cosets")
    elif order != expected:
        diagnostics.append(f"order {order} differs from k! = {expected}")
    if not hom_ok:
        diagnostics.append("sandwich homomorphism does not kill every relator")
    if image_order != expected:
        diagnostics.append(f"homomorphic image has order {image_order}, expected {expected}")

    verdict = VERDICT_SYMMETRIC if not diagnostics else VERDICT_UNDECIDED
    return IdentificationReport(
        n=n,
        k=k,
        monoid=monoid,
        verdict=verdict,
        order=order,
        order_kind="finite" if table.status == COMPLETE else "overflow",
        free_rank=None,
        abelian_invariants=inv.as_list(),
        hom_valid=hom_ok,
        image_order=image_order,
        generators=len(raw.generators),
        relator_counts=counts,
        simplified_generators=len(simp.generators),
        simplified_relators=len(simp.relators),
        diagnostics=diagnostics,
        timings=timings,
    )
