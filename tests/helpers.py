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
from typing import NamedTuple

from igmax.dclass import DClassGrid, Permutation, default_base, sandwich_matrix
from igmax.errors import StructuralError
from igmax.groupid import (
    COMPLETE,
    DEFAULT_MAX_COSETS,
    OVERFLOW,
    CosetTable,
    _Overflow,
    build_stages,
    identify,
    perm_compose,
    perm_identity,
    perm_inverse,
)
from igmax.presentation import (
    TIETZE,
    TYPE1,
    TYPE3,
    GroupPresentation,
    Relator,
    _eliminate,
    _rebuild,
    build_presentation,
    canonical_form,
    cyclically_reduce,
    free_reduce,
    invert,
)
from igmax.ptrans import (
    UNDEF,
    KernelPartition,
    Monoid,
    PartialMap,
    compose,
    compose_entries,
    kernels_of_rank,
)
from igmax.schreier import SchreierSystem, build_schreier
from igmax.squares import (
    Entries,
    SingularClass,
    group_square_candidates,
    witness_pool,
)

MONOIDS = {"pt": Monoid.PARTIAL, "t": Monoid.TOTAL}


def letters(pairs) -> Relator:
    """Relator letters from (generator, +-1) pairs: 2g for g, 2g+1 for g^-1."""
    return tuple(2 * g if e == 1 else 2 * g + 1 for g, e in pairs)


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
# idempotent-generated subsemigroup (generation sanity)


def idempotent_closure(n: int, monoid: Monoid) -> frozenset[tuple[int, ...]]:
    """Closure of all idempotents under composition, as raw entry tuples."""
    gens = set()
    lo = 1 if monoid is Monoid.TOTAL else 0
    for k in range(lo, n + 1):
        gens.update(m.entries for m in reference_enumerate_idempotents(n, k, monoid))
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
# Smith normal form oracle: dense least-pivot elimination with its own
# divisibility repair, sharing no code with the sparse elimination.


def reference_smith_normal_form(rows: list[list[int]]) -> list[int]:
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
    """(grid, anchors, sys, classes, presentation) of the shared stages."""
    return build_stages(n, k, MONOIDS[monoid_key], anchor_rule=anchor_rule, tie_break=tie_break)


def square_cells(grid: DClassGrid, rows: tuple[int, int], cols: tuple[int, int]):
    """The cells (e, f, g, h) of the square on rows (i, j) and cols (lam, mu), as
    oriented, each wrapped as a checked map."""
    (i, j), (lam, mu) = rows, cols
    return tuple(PartialMap(grid.cell(*c)) for c in ((i, lam), (i, mu), (j, lam), (j, mu)))


class Enumeration(NamedTuple):
    presentation: GroupPresentation
    max_cosets: int
    subgroup: CosetTable | None
    table: CosetTable


def record_enumerations(monkeypatch) -> list[Enumeration]:
    """Wrap `groupid.todd_coxeter` by module attribute, as the traced
    benchmark does, and list every call made through it."""
    from igmax import groupid

    calls: list[Enumeration] = []
    real = groupid.todd_coxeter

    def recording(p, max_cosets=DEFAULT_MAX_COSETS, subgroup=None):
        table = real(p, max_cosets, subgroup)
        calls.append(Enumeration(p, max_cosets, subgroup, table))
        return table

    monkeypatch.setattr(groupid, "todd_coxeter", recording)
    return calls


@lru_cache(maxsize=None)
def cached_identify(monoid_key: str, n: int, k: int, anchor_rule: str = "lex",
                    tie_break: str = "least"):
    return identify(n, k, MONOIDS[monoid_key], anchor_rule=anchor_rule, tie_break=tie_break)


# ---------------------------------------------------------------------------
# Idempotents by kernel and transversal image, without the grid


def block_of(kp: KernelPartition) -> dict[int, int]:
    """Element -> index of its block."""
    out: dict[int, int] = {}
    for bi, b in enumerate(kp.blocks):
        for x in b:
            out[x] = bi
    return out


def is_transversal(kp: KernelPartition, image: tuple[int, ...]) -> bool:
    """True iff `image` meets every block of `kp` exactly once."""
    if len(image) != len(kp.blocks):
        return False
    lookup = block_of(kp)
    hit: set[int] = set()
    for x in image:
        bi = lookup.get(x)
        if bi is None or bi in hit:
            return False
        hit.add(bi)
    return True


def idempotent_from_cell(n: int, kp: KernelPartition, image) -> PartialMap:
    """The unique idempotent with kernel `kp` and image `image`.

    `image` must be a transversal of `kp`: it then holds one retraction point
    per block, and every block member maps to that point.
    """
    image = tuple(image)
    if not is_transversal(kp, image):
        raise ValueError(f"image {image} is not a transversal of {kp.blocks}")
    entries = [UNDEF] * n
    lookup = block_of(kp)
    rep = {}
    for x in image:
        rep[lookup[x]] = x
    for bi, b in enumerate(kp.blocks):
        for x in b:
            if x >= n:
                raise ValueError("partition exceeds the ground set")
            entries[x] = rep[bi]
    return PartialMap(tuple(entries))


# ---------------------------------------------------------------------------
# Kernel oracle: the domain-by-domain enumeration the sink-point partition of
# n + 1 points replaced.  It partitions every m-element domain into k blocks,
# m from n down to k (only m = n for T_n), with its own set-partition generator.


def reference_set_partitions(elems: tuple[int, ...], k: int):
    """Partitions of `elems` into k blocks, each element placed in turn."""
    n = len(elems)
    if k == 0:
        if n == 0:
            yield ()
        return
    if n < k:
        return
    blocks: list[list[int]] = []

    def rec(idx: int):
        if idx == n:
            if len(blocks) == k:
                yield tuple(tuple(b) for b in blocks)
            return
        if len(blocks) + (n - idx) < k:
            return
        x = elems[idx]
        for b in blocks:
            b.append(x)
            yield from rec(idx + 1)
            b.pop()
        if len(blocks) < k:
            blocks.append([x])
            yield from rec(idx + 1)
            blocks.pop()

    yield from rec(0)


def reference_kernels_of_rank(n: int, k: int, monoid: Monoid) -> list[KernelPartition]:
    sizes = [n] if monoid is Monoid.TOTAL else range(n, k - 1, -1)
    out = []
    for m in sizes:
        for dom in itertools.combinations(range(n), m):
            for blocks in reference_set_partitions(dom, k):
                out.append(KernelPartition(blocks))
    # the row order spelled out, so that it does not rest on KernelPartition.sort_key
    out.sort(key=lambda kp: (-len(kp.domain), kp.blocks))
    return out


def reference_enumerate_idempotents(n: int, k: int, monoid: Monoid) -> list[PartialMap]:
    """All rank-k idempotents, kernel by kernel, each kernel's transversals in
    lexicographic order."""
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range for n={n}")
    if monoid is Monoid.TOTAL and k == 0:
        raise ValueError("T_n has no rank-0 elements")
    out = []
    for kp in kernels_of_rank(n, k, monoid):
        for image in sorted(tuple(sorted(c)) for c in itertools.product(*kp.blocks)):
            out.append(idempotent_from_cell(n, kp, image))
    return out


# ---------------------------------------------------------------------------
# Grid oracle: the row x column transversal test the per-row enumeration of
# transversals replaced.  It tests every column against every row and builds
# each idempotent through `idempotent_from_cell`.


def reference_build_grid(n: int, k: int, monoid: Monoid) -> DClassGrid:
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range for n={n}")
    if monoid is Monoid.TOTAL and k == 0:
        raise ValueError("T_n has no rank-0 class")

    rows = tuple(kernels_of_rank(n, k, monoid))
    cols = tuple(itertools.combinations(range(n), k))
    row_of = {kp: i for i, kp in enumerate(rows)}

    cells: dict[tuple[int, int], Entries] = {}
    in_row: list[list[int]] = [[] for _ in rows]
    in_col: list[list[int]] = [[] for _ in cols]
    for i, kp in enumerate(rows):
        for c, im in enumerate(cols):
            if is_transversal(kp, im):
                cells[(i, c)] = idempotent_from_cell(n, kp, im).entries
                in_row[i].append(c)
                in_col[c].append(i)

    base = default_base(n, k)
    base_cell = (row_of[base.kernel()], cols.index(base.image()))
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


# ---------------------------------------------------------------------------
# Group-order oracle: the closure the incremental one replaced.  It closes the
# identity over every distinct generator at once.


def reference_perm_group_order(gens) -> int:
    """Order of the permutation group generated by `gens` (direct closure)."""
    gens = list(dict.fromkeys(gens))
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
# The second phase of `tietze_simplify` on its own (the first is
# `collapse_short_relators`): the indexed elimination on a presentation's own
# relators.


def tietze_alone(p: GroupPresentation) -> GroupPresentation:
    """The indexed elimination without the union-find phase, on the relators
    cyclically reduced, nonempty and deduplicated by canonical form, in order."""
    rels, canons, tags = [], [], []
    seen = set()
    for rel, tag in zip(p.relators, p.provenance):
        rel = cyclically_reduce(rel)
        canon = canonical_form(rel)
        if rel and canon not in seen:
            seen.add(canon)
            rels.append(rel)
            canons.append(canon)
            tags.append(tag)
    alive = [True] * len(p.generators)
    _eliminate(alive, rels, canons, tags)
    return _rebuild(p, alive, rels, tags)


# ---------------------------------------------------------------------------
# Union-find oracle: the round loop of `_collapse_short_relators` written on
# whole words, filtering the killed letters out and then calling
# `cyclically_reduce`, where the library reduces each word in one pass.


def reference_collapse_short_relators(
    p: GroupPresentation,
) -> tuple[list[bool], list[Relator | None], list[Relator | None], list[str]]:
    """`_collapse_short_relators`'s (alive, rels, canons, tags), word by word."""
    ngen = len(p.generators)
    image = list(range(2 * ngen))
    members = [[g] for g in range(ngen)]

    def consume(rel: Relator) -> bool:
        if len(rel) == 1:
            for g in members[rel[0] >> 1]:
                image[2 * g] = image[2 * g + 1] = -1
            members[rel[0] >> 1] = []
            return True
        if len(rel) != 2 or rel[0] >> 1 == rel[1] >> 1:
            return False
        x, y = rel
        if len(members[x >> 1]) > len(members[y >> 1]):
            x, y = y, x
        base = y ^ 1 ^ (x & 1)
        for g in members[x >> 1]:
            image[2 * g] = base ^ (image[2 * g] & 1)
            image[2 * g + 1] = image[2 * g] ^ 1
        members[y >> 1] += members[x >> 1]
        members[x >> 1] = []
        return True

    pending = [(rel, tag, cyclically_reduce(rel)) for rel, tag in zip(p.relators, p.provenance)]
    consumed = True
    while consumed:
        consumed = False
        kept = []
        for rel, tag, cur in pending:
            word = tuple(map(image.__getitem__, cur))
            if word != cur:
                word = cyclically_reduce(tuple(y for y in word if y >= 0))
            if len(word) <= 2 and consume(word):
                consumed = True
            elif word:
                kept.append((rel, tag, word))
        pending = kept

    rename = list(range(2 * ngen))
    alive = [False] * ngen
    for rep, group in enumerate(members):
        if group:
            g = max(group)
            alive[g] = True
            t = image[2 * g] & 1
            rename[2 * rep] = 2 * g | t
            rename[2 * rep + 1] = 2 * g | (t ^ 1)

    rels: list[Relator | None] = []
    canons: list[Relator | None] = []
    tags: list[str] = []
    seen: set[Relator] = set()
    for rel, tag, cur in pending:
        word = tuple(map(rename.__getitem__, cur))
        canon = reference_canonical_form(word)
        if canon not in seen:
            seen.add(canon)
            rels.append(word)
            canons.append(canon)
            tags.append(tag if word == rel else TIETZE)
    return alive, rels, canons, tags


# ---------------------------------------------------------------------------
# Tietze oracle: the full-rescan elimination the indexed one replaced.  It
# recounts every live relator on every elimination, so it is slow but plainly
# follows the priority (length, least once-occurring generator, relator id).


def reference_canonical_form(rel: Relator) -> Relator:
    """Least of every rotation of the relator and of its inverse."""
    if not rel:
        return ()
    return min(w[s:] + w[:s] for w in (rel, invert(rel)) for s in range(len(w)))


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
        canon = reference_canonical_form(rel)
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
            counts = Counter(y >> 1 for y in rel)
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
        idx = next(pos for pos, y in enumerate(rel) if y >> 1 == x)
        rest = rel[idx + 1 :] + rel[:idx]
        sub = rest if rel[idx] & 1 else invert(rest)  # now x = sub holds
        rels[rid] = None
        alive[x] = False
        for rid2, rel2 in enumerate(rels):
            if rel2 is None or all(y >> 1 != x for y in rel2):
                continue
            new: list[int] = []
            for y in rel2:
                if y >> 1 == x:
                    new.extend(invert(sub) if y & 1 else sub)
                else:
                    new.append(y)
            reduced = cyclically_reduce(tuple(new))
            if not reduced:
                rels[rid2] = None
                continue
            canon = reference_canonical_form(reduced)
            other = canon_of.get(canon)
            if (
                other is not None
                and other != rid2
                and rels[other] is not None
                and reference_canonical_form(rels[other]) == canon
            ):
                rels[rid2] = None
                continue
            canon_of[canon] = rid2
            rels[rid2] = reduced
            tags[rid2] = TIETZE

    return _rebuild(p, alive, rels, tags)


# ---------------------------------------------------------------------------
# Singular-square case checks and the completion lemma (Gray and Ruskuc):
# the full per-square check that `enumerate_singular_squares` confirms by
# lookups, and the completion of an R-related pair of partial-domain
# idempotents to a singular square whose bottom row is total, with every
# postcondition checked.

CASE_A = "left_right_a"
CASE_B = "up_down_b"


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


# ---------------------------------------------------------------------------
# Partial-row elimination oracle: the completion lemma run for every
# non-anchor generator of a partial row, on the pair (anchor cell, cell), in
# place of the completion row read off the row's kernel once per row.


def reference_eliminate_partial_rows(
    p: GroupPresentation,
    grid: DClassGrid,
    classes: tuple[SingularClass, ...],
) -> GroupPresentation:
    """`eliminate_partial_rows` with the completion lemma run for every generator."""
    if grid.monoid is not Monoid.PARTIAL:
        raise ValueError("only partial grids carry partial rows")
    if p.cells is None:
        raise ValueError("presentation is not grid-derived")
    gid = {cell: i for i, cell in enumerate(p.cells)}
    total = set(grid.total_rows())

    anchors_map: dict[int, int] = {}
    for rel, tag in zip(p.relators, p.provenance):
        if tag == TYPE1 and len(rel) == 1:
            i, lam = p.cells[rel[0] >> 1]
            anchors_map[i] = lam
    for i in range(len(grid.rows)):
        if i not in anchors_map:
            raise ValueError(f"presentation has no type-1 anchor relator for row {i}")

    class_of = {(r, c.cols): idx for idx, c in enumerate(classes) for r in c.rows}

    sub: dict[int, Relator] = {}
    for g, (i, lam) in enumerate(p.cells):
        if i in total:
            continue
        lam_i = anchors_map[i]
        if lam == lam_i:
            sub[g] = ()
            continue
        alpha = PartialMap(grid.cell(i, lam_i))
        beta = PartialMap(grid.cell(i, lam))
        alpha_t, beta_t, _ = complete_to_singular_square(alpha, beta)
        j = grid.row_of[alpha_t.kernel()]
        if j not in total:
            raise StructuralError("completion row is not total")
        cols = (min(lam_i, lam), max(lam_i, lam))
        idx = class_of.get((i, cols))
        if idx is None or idx != class_of.get((j, cols)):
            raise StructuralError(
                f"no singular square eliminates generator {p.generators[g]}"
            )
        try:
            sub[g] = (2 * gid[(j, lam_i)] + 1, 2 * gid[(j, lam)])
        except KeyError as exc:
            raise StructuralError(f"completion cell missing from the grid: {exc}") from exc

    rels: list[Relator] = []
    tags: list[str] = []
    seen: set[Relator] = set()
    for rel, tag in zip(p.relators, p.provenance):
        out: list[int] = []
        changed = False
        for x in rel:
            if x >> 1 in sub:
                changed = True
                out.extend(invert(sub[x >> 1]) if x & 1 else sub[x >> 1])
            else:
                out.append(x)
        reduced = free_reduce(tuple(out))
        if not reduced:
            continue
        canon = canonical_form(reduced)
        if canon in seen:
            continue
        seen.add(canon)
        rels.append(reduced)
        tags.append(TIETZE if changed else tag)

    alive = [cell[0] in total for cell in p.cells]
    return _rebuild(p, alive, rels, tags)


# ---------------------------------------------------------------------------
# Schreier oracles: the breadth-first build the one-letter star replaced, and
# the exhaustive check the Green's-lemma one replaced.  The check multiplies
# every element of the base L-class by every column word, so it is slow but
# checks the bijection L_e -> L_col element by element.  Both work on words
# of any length; `star_words` spells a star system out as words for them.


class WordSystem(NamedTuple):
    """A Schreier system as words: r[col] and r_inv[col] are tuples of cells."""

    base_col: int
    r: dict[int, tuple]
    r_inv: dict[int, tuple]


def star_words(sys: SchreierSystem) -> WordSystem:
    """r[mu] = e_{i,mu} and r_inv[mu] = e_{i,base} for i = rows[mu]; a column
    without a row gets empty words."""
    base = sys.base_col
    r = {mu: () if i is None else ((i, mu),) for mu, i in enumerate(sys.rows)}
    r_inv = {mu: () if i is None else ((i, base),) for mu, i in enumerate(sys.rows)}
    return WordSystem(base, r, r_inv)


def swap_cells(grid: DClassGrid, a: tuple[int, int], b: tuple[int, int]) -> DClassGrid:
    """The grid with the entry tuples of group cells a and b swapped: every
    entry stays in range, but each cell holds the other's idempotent."""
    cells = dict(grid.group_cells)
    cells[a], cells[b] = cells[b], cells[a]
    return grid._replace(group_cells=cells)


def reference_build_schreier(grid: DClassGrid, tie_break: str = "least") -> WordSystem:
    """Breadth-first Schreier system over the column graph.

    Columns lam, mu are adjacent when some row has group cells at both; the
    words r[mu] = r[lam] + e_{i,mu} and r_inv[mu] = e_{i,lam} + r_inv[lam] are
    mutually inverse because e_{i,mu} and e_{i,lam} are R-related idempotents.
    It makes no assumption that the graph is complete, so it checks the star.
    """
    reverse = tie_break == "greatest"
    ncols = len(grid.cols)
    base = grid.base[1]
    r: dict[int, tuple] = {base: ()}
    r_inv: dict[int, tuple] = {base: ()}
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
            queue.append(mu)
    if len(r) != ncols:
        missing = sorted(set(range(ncols)) - set(r))
        raise StructuralError(f"column graph disconnected; unreachable columns {missing}")
    return WordSystem(base, r, r_inv)


def l_class_elements(grid: DClassGrid, col: int) -> list[PartialMap]:
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


def reference_word_value(grid: DClassGrid, word) -> PartialMap:
    """Product of the letter idempotents as checked maps; the empty word is the
    identity map."""
    val = PartialMap.identity(grid.n)
    for cell in word:
        val = compose(val, PartialMap(grid.group_cells[cell]))
    return val


def reference_verify_schreier(grid: DClassGrid, sys: WordSystem) -> list[str]:
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
        fwd = reference_word_value(grid, sys.r[col])
        back = reference_word_value(grid, sys.r_inv[col])
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


def reference_lift(grid_t: DClassGrid, grid_pt: DClassGrid) -> SchreierSystem:
    """The T_n grid's least Schreier system, its rows renamed to PT_n rows.

    This is the paper's reduction to T_n done by hand: every letter lies in a
    total row, looked up by kernel in the partial grid.
    """
    assert (grid_t.monoid, grid_pt.monoid) == (Monoid.TOTAL, Monoid.PARTIAL)
    assert (grid_t.n, grid_t.k, grid_t.cols) == (grid_pt.n, grid_pt.k, grid_pt.cols)
    sys_t = build_schreier(grid_t)
    rows = tuple(None if i is None else grid_pt.row_of[grid_t.rows[i]] for i in sys_t.rows)
    return SchreierSystem(sys_t.base_col, rows)


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
        self.cellmaps = grid.group_cells
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
# Bucket-scan oracle: the bit-parallel pool search the pointwise square test
# replaced.  It finds the first witness of the pool, over orientations and
# pool indices, so its orientations are an independent check of the test.


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
        self.cellmaps = cm = grid.group_cells
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



# ---------------------------------------------------------------------------
# Pointwise-test oracle: the per-orientation test the column-pair buckets
# replaced.  It tries the four orientations of every candidate in a fixed
# order and confirms the top-row facts of each hit by full compositions.


def reference_witness(e: Entries, im_f: tuple[int, ...]) -> Entries:
    """e on im f, the identity elsewhere."""
    return tuple(e[x] if x in im_f else x for x in range(len(e)))


def reference_top_row_holds(eps: Entries, e: Entries, f: Entries, im_e: tuple[int, ...]) -> bool:
    """eps*e = e, f*eps = e, eps*f = f and e*eps = e by full compositions,
    and eps fixing im e, which is g*eps = g for every g of e's column."""
    return (
        compose_entries(eps, e) == e
        and compose_entries(f, eps) == e
        and compose_entries(eps, f) == f
        and compose_entries(e, eps) == e
        and all(eps[x] == x for x in im_e)
    )


class _PointwiseTest:
    """The pointwise test of one grid's oriented squares, confirming case (a).

    The orientation e = (i, a), f = (i, b), g = (j, a), h = (j, b) is
    singular exactly when x.g = (x.e).g for every x in im f.  Every
    orientation with top row r and column pair (a, b) has the same witness
    and the same top-row facts, so those are checked once per (r, a, b) and
    memoised; each hit then checks its bottom-row facts in k lookups.
    """

    def __init__(self, grid: "DClassGrid") -> None:
        self.cells = grid.group_cells
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
        eps = reference_witness(e, self.cols[b])
        witness = self.witnesses.get(eps)
        if witness is None:
            witness = self.witnesses[eps] = PartialMap(eps)
            if not witness.is_idempotent():
                raise StructuralError(f"witness {witness.to_text()} is not idempotent")
        if not reference_top_row_holds(eps, e, f, self.cols[a]):
            raise StructuralError(
                f"witness {witness.to_text()} fails the top-row case-(a) facts "
                f"on row {i}, columns {(a, b)}"
            )
        self.tops[(i, a, b)] = witness
        return witness


class SquareRecord(NamedTuple):
    """One singular square, oriented so that `witness` satisfies case (a)."""

    rows: tuple[int, int]  # (i, j)
    cols: tuple[int, int]  # (lam, mu)
    witness: PartialMap


def reference_enumerate_singular_squares(grid: "DClassGrid") -> tuple[SquareRecord, ...]:
    """Every singular square, one record per pair of rows: every candidate
    square in canonical order, oriented by the first of (e, f, g, h),
    (f, e, h, g), (g, h, e, f), (h, g, f, e) that passes."""
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
                out.append(SquareRecord(rows, cols, witness))
                break
    return tuple(out)


def class_squares(classes: tuple[SingularClass, ...]) -> list[SquareRecord]:
    """Every square the classes hold, one per pair i < j of rows of a class,
    with the class's witness, in canonical (i, j, lam, mu) order."""
    out = [
        SquareRecord(rows, c.cols, c.witness)
        for c in classes
        for rows in itertools.combinations(c.rows, 2)
    ]
    out.sort(key=lambda sq: (sq.rows, sq.cols))
    return out


def all_pairs_presentation(grid, sys, anchors_map, classes=None) -> GroupPresentation:
    """`build_presentation` with a type-3 relator for every singular square
    the oracle finds, in its order, not only for the star of each class.
    `classes` is ignored, so this can stand in for `build_presentation`."""
    p = build_presentation(grid, sys, anchors_map, ())
    letter = {cell: 2 * g for g, cell in enumerate(p.cells)}
    type3 = tuple(
        (letter[(i, lam)] ^ 1, letter[(i, mu)], letter[(j, mu)] ^ 1, letter[(j, lam)])
        for (i, j), (lam, mu), _ in reference_enumerate_singular_squares(grid)
    )
    return GroupPresentation(
        p.generators, p.relators + type3, p.provenance + (TYPE3,) * len(type3), p.cells
    )


@lru_cache(maxsize=None)
def all_pairs_pipeline(monoid_key: str, n: int, k: int, anchor_rule: str = "lex",
                       tie_break: str = "least"):
    """`pipeline` with a record and a relator for every singular square, not
    only for the star of each class."""
    grid, anchors_map, sys, _, _ = pipeline(monoid_key, n, k, anchor_rule, tie_break)
    squares = reference_enumerate_singular_squares(grid)
    return grid, anchors_map, sys, squares, all_pairs_presentation(grid, sys, anchors_map)


# ---------------------------------------------------------------------------
# Sandwich oracle: the full row x column matrix the group-cell-only one
# replaced.  It composes every column representative with every row
# representative and reads the zero pattern off the rank of the product.


def reference_sandwich_matrix(
    grid: DClassGrid, sys: SchreierSystem, anchors_map: dict[int, int]
) -> dict[tuple[int, int], tuple[int, ...] | None]:
    """Every sandwich entry keyed by (col, row): a permutation of the base image, or None (zero)."""
    base_row, base_col = grid.base
    base_im = grid.cols[base_col]
    pos = {x: idx for idx, x in enumerate(base_im)}
    words = star_words(sys)
    qs = []
    for c in range(len(grid.cols)):
        q = compose(PartialMap(grid.base_idempotent), reference_word_value(grid, words.r[c]))
        assert (q.kernel(), q.image()) == (grid.rows[base_row], grid.cols[c]), c
        qs.append(q)
    ts = []
    for i in range(len(grid.rows)):
        a = anchors_map[i]
        t = compose(PartialMap(grid.cell(i, a)), reference_word_value(grid, words.r_inv[a]))
        assert (t.kernel(), t.image()) == (grid.rows[i], base_im), i
        ts.append(t)
    out: dict[tuple[int, int], tuple[int, ...] | None] = {}
    for c, q in enumerate(qs):
        for i, t in enumerate(ts):
            prod = compose(q, t)
            if prod.rank() == grid.k:
                assert (prod.kernel(), prod.image()) == (grid.rows[base_row], base_im)
                out[(c, i)] = tuple(pos[prod.entries[x]] for x in base_im)
            else:
                out[(c, i)] = None
    return out


# ---------------------------------------------------------------------------
# Sandwich homomorphism oracle: the quotient of sandwich entries the read-off
# from the column representatives replaced.  It builds every row
# representative t[row] through `sandwich_matrix` and composes per cell.


def reference_rees_hom(
    grid: DClassGrid, sys: SchreierSystem, anchors_map: dict[int, int]
) -> dict[tuple[int, int], Permutation]:
    """Generator cell -> p_{anchor,row} * p_{col,row}^-1 from the sandwich matrix."""
    matrix = sandwich_matrix(grid, sys, anchors_map)
    inverse = {q: perm_inverse(q) for q in set(matrix.values())}
    return {
        (i, lam): perm_compose(matrix[(anchors_map[i], i)], inverse[matrix[(lam, i)]])
        for i, lam in sorted(grid.group_cells)
    }


# ---------------------------------------------------------------------------
# Homomorphism oracle: the tuple loop the interned, memoised check replaced.
# It composes the image tuples of every relator's letters from the identity.


def reference_verify_hom(p: GroupPresentation, hom: dict[tuple[int, int], Permutation]) -> bool:
    """Every relator must map to the identity permutation."""
    if p.cells is None:
        raise ValueError("presentation is not grid-derived")
    if not hom:
        return True
    k = len(next(iter(hom.values())))
    ident = perm_identity(k)
    images = [q for cell in p.cells for q in (hom[cell], perm_inverse(hom[cell]))]  # by letter
    for rel in p.relators:
        acc = ident
        for x in rel:
            acc = perm_compose(acc, images[x])
        if acc != ident:
            return False
    return True


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
        for x in rel:
            if x not in range(2 * ngens):
                raise ValueError(f"malformed relator letter {x!r}")
        if rel:
            rel_words.append(rel)
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
    return letters((g, e) for _ in range(abs(n)))


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
         _make_presentation(["a", "b"],
                            [x(0, 2), x(1, 3), letters(((0, 1), (1, 1), (0, -1), (1, -1)))]),
         [(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)], 6, [6]),
        ("klein4",
         _make_presentation(["a", "b"], [x(0, 2), x(1, 2), (x(0, 1) + x(1, 1)) * 2]),
         [(1, 0, 2, 3), (0, 1, 3, 2)], 4, [2, 2]),
        ("s3_coxeter",
         _make_presentation(["a", "b"], [x(0, 2), x(1, 2), (x(0, 1) + x(1, 1)) * 3]),
         [(1, 0, 2), (0, 2, 1)], 6, [2]),
        ("s3_cyclic",
         _make_presentation(["r", "s"],
                            [x(0, 3), x(1, 2), letters(((1, 1), (0, 1), (1, 1), (0, 1)))]),
         [(1, 2, 0), (1, 0, 2)], 6, [2]),
        ("d4",
         _make_presentation(["a", "b"], [x(0, 2), x(1, 2), (x(0, 1) + x(1, 1)) * 4]),
         [(1, 0, 3, 2), (0, 3, 2, 1)], 8, [2, 2]),
        ("d5",
         _make_presentation(["a", "b"], [x(0, 2), x(1, 2), (x(0, 1) + x(1, 1)) * 5]),
         [(0, 4, 3, 2, 1), (2, 1, 0, 4, 3)], 10, [2]),
        ("q8",
         _make_presentation(["a", "b"],
                            [x(0, 4), x(0, 2) + x(1, -2),
                             letters(((1, -1), (0, 1), (1, 1), (0, 1)))]),
         None, 8, [2, 2]),
    ]
