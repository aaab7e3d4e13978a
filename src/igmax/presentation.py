"""Presentations of the maximal subgroup attached to a D-class grid.

One generator X_<row>_<col> per group cell, relators in three flavors:
anchors equal 1 (type 1), Schreier parent edges identify generators (type 2),
singular squares equate column transitions across rows (type 3).  Includes
the Graham-Houghton graph, cycle rank, Tietze simplification (a short-relator
union-find, then indexed elimination), and the elimination of all generators
sitting in partial-domain rows.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from typing import TYPE_CHECKING, NamedTuple

from .errors import StructuralError
from .ptrans import Frozen, KernelPartition, Monoid
from .squares import SingularClass

if TYPE_CHECKING:
    from .dclass import DClassGrid
    from .schreier import SchreierSystem

# Letter 2g is generator g and 2g+1 its inverse, so x ^ 1 inverts a letter and
# x >> 1 is its generator; the letters are the columns of a coset table.
Relator = tuple[int, ...]

TYPE1 = "type1"
TYPE2 = "type2"
TYPE3 = "type3"
TIETZE = "tietze"


class GroupPresentation(Frozen):
    __slots__ = _fields = ("generators", "relators", "provenance", "cells")
    generators: tuple[str, ...]
    relators: tuple[Relator, ...]
    provenance: tuple[str, ...]
    # grid cell per generator when the presentation came from a grid
    cells: tuple[tuple[int, int], ...] | None

    def __init__(
        self,
        generators: tuple[str, ...],
        relators: tuple[Relator, ...],
        provenance: tuple[str, ...],
        cells: tuple[tuple[int, int], ...] | None = None,
    ) -> None:
        for name, value in zip(self._fields, (generators, relators, provenance, cells)):
            object.__setattr__(self, name, value)
        if len(self.relators) != len(self.provenance):
            raise ValueError("one provenance tag per relator required")
        if self.cells is not None and len(self.cells) != len(self.generators):
            raise ValueError("one cell per generator required")
        top = 2 * len(self.generators)
        for rel in self.relators:
            for x in rel:
                # type(x) is int: 1.0 and True compare equal to letters
                if type(x) is not int or not 0 <= x < top:
                    raise ValueError(f"malformed relator letter {x!r}")
            for a, b in zip(rel, rel[1:]):
                if a ^ 1 == b:
                    raise ValueError("relator is not freely reduced")

    def counts_by_type(self) -> dict[str, int]:
        counts = Counter(self.provenance)
        return {t: counts.get(t, 0) for t in (TYPE1, TYPE2, TYPE3, TIETZE)}


def free_reduce(rel: Relator) -> Relator:
    out: list[int] = []
    for x in rel:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclically_reduce(rel: Relator) -> Relator:
    rel = free_reduce(rel)
    while len(rel) >= 2 and rel[0] == rel[-1] ^ 1:
        rel = free_reduce(rel[1:-1])
    return rel


def invert(rel: Relator) -> Relator:
    return tuple(x ^ 1 for x in reversed(rel))


def canonical_form(rel: Relator) -> Relator:
    """Least rotation of the relator or its inverse; the dedup key.

    The least rotation starts with the least letter of the two words, so
    only the rotations that start at an occurrence of it are compared.
    """
    if not rel:
        return ()
    inv = invert(rel)
    least = min(min(rel), min(inv))
    best = None
    for w in (rel, inv):
        for s, x in enumerate(w):
            if x == least:
                rot = w[s:] + w[:s]
                if best is None or rot < best:
                    best = rot
    return best


def generator_name(cell: tuple[int, int]) -> str:
    return f"X_{cell[0] + 1}_{cell[1] + 1}"


def build_presentation(
    grid: "DClassGrid",
    sys: "SchreierSystem",
    anchors_map: dict[int, int],
    classes: tuple[SingularClass, ...],
) -> GroupPresentation:
    """Type 1, 2 and 3 relators, reduced and pairwise distinct as built.

    Type 1 is one letter per row, type 2 two cells of a row in distinct
    columns, type 3 the four distinct cells of a square; the three lengths
    differ, so no relator needs a dedup pass.

    Type 3 is the star of each singular class: with r0 its least row, the
    squares (r0, j) on its other rows j, in the canonical (i, j, lam, mu)
    order.  The relator of the square on rows i and j is
    R(i, j) = X_{i,lam}^-1 X_{i,mu} X_{j,mu}^-1 X_{j,lam}, which is Q_i Q_j^-1
    with Q_r = X_{r,lam}^-1 X_{r,mu}.  So R(r0, i)^-1 R(r0, j) =
    Q_i Q_r0^-1 Q_r0 Q_j^-1 freely reduces to R(i, j) letter for letter, and
    the m - 1 star relators of a class of m rows present the same group as
    its m(m-1)/2 pair relators, by a Tietze removal of consequences.  Both
    halves of the squeeze survive: the coset bound, since the group is the
    same, and the surjection, since a homomorphism that kills the star kills
    every consequence of it.
    """
    cells = tuple(sorted(grid.group_cells))
    letter = {cell: 2 * idx for idx, cell in enumerate(cells)}
    names = tuple(generator_name(cell) for cell in cells)

    rels: list[Relator] = [(letter[(i, anchors_map[i])],) for i in range(len(grid.rows))]
    tags = [TYPE1] * len(rels)

    # type 2: literal word equality r[lam] + e_{i,mu} == r[mu], lam by its distinct word
    col_of = {w: lam for lam, w in sys.r.items()}
    for mu in range(len(grid.cols)):
        w = sys.r[mu]
        if not w:
            continue
        i, target = w[-1]
        if target != mu or (i, mu) not in grid.group_cells:
            continue
        lam = col_of.get(w[:-1])
        if lam is not None and (i, lam) in grid.group_cells:
            rels.append((letter[(i, lam)], letter[(i, mu)] ^ 1))
            tags.append(TYPE2)

    star = sorted((c.rows[0], j, *c.cols) for c in classes for j in c.rows[1:])
    for i, j, lam, mu in star:
        rels.append((letter[(i, lam)] ^ 1, letter[(i, mu)], letter[(j, mu)] ^ 1, letter[(j, lam)]))
    tags += [TYPE3] * len(star)

    return GroupPresentation(names, tuple(rels), tuple(tags), cells)


class GHGraph(NamedTuple):
    """Bipartite 1-skeleton: row and column vertices, one edge per group cell."""

    n_rows: int
    n_cols: int
    edges: tuple[tuple[int, int], ...]


def gh_graph(grid: "DClassGrid") -> GHGraph:
    return GHGraph(len(grid.rows), len(grid.cols), tuple(sorted(grid.group_cells)))


def free_rank(g: GHGraph, root_cell: tuple[int, int]) -> int:
    """Cycle rank E - V + 1 of the connected component containing root_cell."""
    if root_cell not in set(g.edges):
        raise ValueError(f"{root_cell} is not an edge of the graph")
    adj: dict[int, list[int]] = {}
    for i, c in g.edges:
        u, v = i, g.n_rows + c
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    comp = {root_cell[0]}
    queue = deque([root_cell[0]])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in comp:
                comp.add(v)
                queue.append(v)
    e_c = sum(1 for i, c in g.edges if i in comp)
    return e_c - len(comp) + 1


def tietze_simplify(p: GroupPresentation) -> GroupPresentation:
    """Simplify by Tietze moves, so the presented group is unchanged.

    A signed union-find first consumes every relator of length 1 or 2, then
    the indexed elimination removes once-occurring generators to a fixpoint.
    """
    alive, rels, canons, tags = _collapse_short_relators(p)
    _eliminate(alive, rels, canons, tags)
    return _rebuild(p, alive, rels, tags)


def collapse_short_relators(p: GroupPresentation) -> GroupPresentation:
    """The first phase of `tietze_simplify` alone: the class presentation.

    Every kill and merge of the union-find is read off a relator of length 1
    or 2, so the result comes from p by Tietze moves: the same group.
    """
    alive, rels, _, tags = _collapse_short_relators(p)
    return _rebuild(p, alive, rels, tags)


def _collapse_short_relators(
    p: GroupPresentation,
) -> tuple[list[bool], list[Relator | None], list[Relator | None], list[str]]:
    """Consume every relator of length 1 or 2 by a signed union-find, to a fixpoint.

    A relator g kills g's class; a relator on two distinct classes links them.
    Each round rewrites every remaining relator once through the classes and
    cyclically reduces it, consuming it at once if it became short; rounds
    repeat until one consumes nothing.  A relator on one class, such as x^2,
    is kept.  Each class is renamed to its largest generator, the one the
    elimination would keep, and the survivors are deduplicated by canonical
    form, in order.  Returns the alive mask, the surviving relators, their
    canonical forms and tags, in the original generator numbering.
    """
    ngen = len(p.generators)
    # image[x] is the letter that letter x equals, a letter of its class's
    # representative, or -1 once the class is killed.  The smaller class moves
    # under the larger, so a generator is moved O(log ngen) times.
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
        x, y = rel  # x y = 1 and y x = 1, so either one may move
        if len(members[x >> 1]) > len(members[y >> 1]):
            x, y = y, x
        base = y ^ 1 ^ (x & 1)  # the representative of x's class equals y^-1
        for g in members[x >> 1]:
            image[2 * g] = base ^ (image[2 * g] & 1)
            image[2 * g + 1] = image[2 * g] ^ 1
        members[y >> 1] += members[x >> 1]
        members[x >> 1] = []
        return True

    # relators are freely reduced, so only a pair of ends can cancel
    pending = [
        (rel, tag, cyclically_reduce(rel) if len(rel) > 1 and rel[0] == rel[-1] ^ 1 else rel)
        for rel, tag in zip(p.relators, p.provenance)
    ]
    consumed = True
    while consumed:
        consumed = False
        kept = []
        for rel, tag, cur in pending:
            word = tuple(map(image.__getitem__, cur))
            if word != cur:
                if -1 in word:
                    word = tuple(y for y in word if y >= 0)
                word = cyclically_reduce(word)
            if len(word) <= 2 and consume(word):
                consumed = True
            elif word:
                kept.append((rel, tag, word))
        pending = kept

    # rename each class to its largest generator g, which equals rep^t
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
        canon = canonical_form(word)
        if canon not in seen:
            seen.add(canon)
            rels.append(word)
            canons.append(canon)
            tags.append(tag if word == rel else TIETZE)
    return alive, rels, canons, tags


def _eliminate(
    alive: list[bool], rels: list[Relator | None], canons: list[Relator | None], tags: list[str]
) -> None:
    """Eliminate once-occurring generators to a fixpoint, in place.

    The relators come cyclically reduced, nonempty and distinct up to
    canonical form; a retired one becomes None.  Deterministic priority:
    shortest relator first, then least generator, then oldest relator.

    Cost: an index from each generator to the live relators containing it and a
    lazy min-heap of (length, least once-occurring generator, relator id,
    version) replace a rescan of every relator per elimination.  A relator's
    key changes only when it is rewritten, so the heap minimum is the
    priority's minimum at every step and the elimination order does not depend
    on the index.  Eliminating x rewrites only the relators containing x, in
    ascending id, so a rewrite that duplicates another keeps the same survivor.
    """
    canon_of = {canon: rid for rid, canon in enumerate(canons)}
    occ: list[set[int]] = [set() for _ in alive]
    version = [0] * len(rels)
    heap: list[tuple[int, int, int, int]] = []

    def index(rid: int, rel: Relator) -> None:
        counts: dict[int, int] = {}
        for y in rel:
            g = y >> 1
            counts[g] = counts.get(g, 0) + 1
        once = [g for g, cnt in counts.items() if cnt == 1]
        for g in counts:
            occ[g].add(rid)
        if once:
            heapq.heappush(heap, (len(rel), min(once), rid, version[rid]))

    def retire(rid: int) -> None:
        for y in rels[rid]:
            occ[y >> 1].discard(rid)
        version[rid] += 1
        rels[rid] = None
        canons[rid] = None

    for rid, rel in enumerate(rels):
        index(rid, rel)

    while heap:
        _, x, rid, ver = heapq.heappop(heap)
        if ver != version[rid]:
            continue
        rel = rels[rid]
        idx = next(pos for pos, y in enumerate(rel) if y >> 1 == x)
        rest = rel[idx + 1 :] + rel[:idx]
        sub = rest if rel[idx] & 1 else invert(rest)  # now x = sub holds
        sub_inv = invert(sub)
        retire(rid)
        alive[x] = False
        for rid2 in sorted(occ[x]):
            new: list[int] = []
            for y in rels[rid2]:
                if y >> 1 == x:
                    new.extend(sub_inv if y & 1 else sub)
                else:
                    new.append(y)
            retire(rid2)
            reduced = cyclically_reduce(tuple(new))
            if not reduced:
                continue
            canon = canonical_form(reduced)
            other = canon_of.get(canon)
            # canon_of may name a relator since rewritten or retired; canons
            # holds the live form, so this is a duplicate of a live relator
            if other is not None and canons[other] == canon:
                continue
            canon_of[canon] = rid2
            rels[rid2] = reduced
            canons[rid2] = canon
            tags[rid2] = TIETZE
            index(rid2, reduced)


def _rebuild(
    p: GroupPresentation, alive: list[bool], rels: list[Relator | None], tags: list[str]
) -> GroupPresentation:
    keep = [g for g in range(len(p.generators)) if alive[g]]
    shift = {g: 2 * (g - i) for i, g in enumerate(keep)}  # letter 2g+b becomes 2i+b
    out_rels = []
    out_tags = []
    for rel, tag in zip(rels, tags):
        if rel is None:
            continue
        out_rels.append(tuple(x - shift[x >> 1] for x in rel))
        out_tags.append(tag)
    return GroupPresentation(
        generators=tuple(p.generators[g] for g in keep),
        relators=tuple(out_rels),
        provenance=tuple(out_tags),
        cells=None if p.cells is None else tuple(p.cells[g] for g in keep),
    )


def _completion_row(grid: "DClassGrid", i: int) -> int:
    """The total row whose kernel is row i's with the undefined points joined
    to blocks[0]; that block holds the least domain point, so it stays first."""
    kp = grid.rows[i]
    dom = set(kp.domain)
    first = tuple(sorted(kp.blocks[0] + tuple(x for x in range(grid.n) if x not in dom)))
    j = grid.row_of.get(KernelPartition((first,) + kp.blocks[1:]))
    if j is None:
        raise StructuralError(f"completion kernel of row {i} is missing from the grid")
    return j


def eliminate_partial_rows(
    p: GroupPresentation,
    grid: "DClassGrid",
    classes: tuple[SingularClass, ...],
) -> GroupPresentation:
    """Rewrite every generator in a partial-domain row through a total row.

    For a partial row i with anchor column lam_i, the completion row j of
    `_completion_row` bounds a singular square with row i on the columns
    (lam_i, lam), which gives the substitution
    X_{i,lam} = X_{j,lam_i}^-1 * X_{j,lam}; anchor generators of partial rows
    become empty.  j depends on i alone, so it is found once per row.  The
    certificate of each rewrite is that rows i and j lie in one singular
    class of its column pair, since two rows of one class bound a singular
    square: R(i, j) follows from the star relators R(r0, i) and R(r0, j),
    already in p.  Otherwise the grid data is inconsistent.

    j is total: the completed kernel's domain is all n points.
    The cells (j, lam_i) and (j, lam) have generators: rows i and j share a
    class of (lam_i, lam), so both are group cells, and each has one.
    A completed kernel missing from `grid.row_of` is the one grid
    inconsistency left, a StructuralError.
    """
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

    completion: dict[int, int] = {}  # partial row -> its total completion row
    sub: dict[int, Relator] = {}
    for g, (i, lam) in enumerate(p.cells):
        if i in total:
            continue
        lam_i = anchors_map[i]
        if lam == lam_i:
            sub[g] = ()
            continue
        j = completion.get(i)
        if j is None:
            j = completion[i] = _completion_row(grid, i)
        cols = (min(lam_i, lam), max(lam_i, lam))
        idx = class_of.get((i, cols))
        if idx is None or idx != class_of.get((j, cols)):
            raise StructuralError(
                f"no singular square eliminates generator {p.generators[g]}"
            )
        sub[g] = (2 * gid[(j, lam_i)] + 1, 2 * gid[(j, lam)])

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


def to_gap(p: GroupPresentation) -> str:
    """GAP input: a free group, the relator list, and the quotient."""
    names = ", ".join(f'"{name}"' for name in p.generators)
    lines = [f"F := FreeGroup({names});"]
    terms = []
    for rel in p.relators:
        terms.append("*".join(f"F.{(x >> 1) + 1}" + ("^-1" if x & 1 else "") for x in rel))
    lines.append("rels := [ " + ", ".join(terms) + " ];")
    lines.append("G := F / rels;")
    return "\n".join(lines) + "\n"


def to_dot(g: GHGraph) -> str:
    """Graham-Houghton graph in DOT: rows as boxes, columns as circles."""
    lines = ["graph gh {"]
    lines.append("  node [shape=box];")
    for i in range(g.n_rows):
        lines.append(f'  r{i + 1} [label="R{i + 1}"];')
    lines.append("  node [shape=circle];")
    for c in range(g.n_cols):
        lines.append(f'  c{c + 1} [label="L{c + 1}"];')
    for i, c in g.edges:
        lines.append(f"  r{i + 1} -- c{c + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def presentation_to_json(p: GroupPresentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [
            [[p.generators[x >> 1], -1 if x & 1 else 1] for x in rel] for rel in p.relators
        ],
        "provenance": list(p.provenance),
        "counts": p.counts_by_type(),
    }
