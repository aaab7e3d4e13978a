"""Partial transformations of {1,..,n}: composition, kernels, idempotents.

Maps compose left to right, x(a*b) = (xa)b, and act on the right of their
arguments.  Points are 0-based internally; all text and JSON I/O is 1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

UNDEF = -1


class Monoid(Enum):
    """Ambient monoid: all total maps (T_n) or all partial maps (PT_n)."""

    TOTAL = "t"
    PARTIAL = "pt"


@dataclass(frozen=True, slots=True)
class PartialMap:
    """A partial self-map of an n-element set; UNDEF marks an undefined point."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise ValueError("ground set must be nonempty")
        for v in self.entries:
            if v != UNDEF and not 0 <= v < n:
                raise ValueError(f"entry {v} out of range for n={n}")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_total(self) -> bool:
        return UNDEF not in self.entries

    def domain(self) -> tuple[int, ...]:
        return tuple(x for x, v in enumerate(self.entries) if v != UNDEF)

    def image(self) -> tuple[int, ...]:
        return tuple(sorted({v for v in self.entries if v != UNDEF}))

    def rank(self) -> int:
        return len({v for v in self.entries if v != UNDEF})

    def fixpoints(self) -> tuple[int, ...]:
        return tuple(x for x, v in enumerate(self.entries) if v == x)

    def kernel(self) -> KernelPartition:
        groups: dict[int, list[int]] = {}
        for x, v in enumerate(self.entries):
            if v != UNDEF:
                groups.setdefault(v, []).append(x)
        blocks = sorted((tuple(b) for b in groups.values()), key=lambda b: b[0])
        return KernelPartition(tuple(blocks))

    def is_idempotent(self) -> bool:
        # image == fixpoints characterizes a*a == a (tested against that oracle)
        return self.image() == self.fixpoints()

    @classmethod
    def identity(cls, n: int) -> PartialMap:
        return cls(tuple(range(n)))

    @classmethod
    def empty(cls, n: int) -> PartialMap:
        return cls((UNDEF,) * n)

    @classmethod
    def from_text(cls, text: str) -> PartialMap:
        """Parse a 1-based literal like '[2,2,-]' ('-' marks an undefined point)."""
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"bad map literal: {text!r}")
        body = s[1:-1].strip()
        if not body:
            raise ValueError(f"bad map literal: {text!r}")
        entries = []
        for part in body.split(","):
            part = part.strip()
            entries.append(UNDEF if part == "-" else int(part) - 1)
        return cls(tuple(entries))

    def to_text(self) -> str:
        return "[" + ",".join("-" if v == UNDEF else str(v + 1) for v in self.entries) + "]"


@dataclass(frozen=True, slots=True)
class KernelPartition:
    """A partition of a subset of the ground set.

    Blocks are sorted tuples, listed in order of their minimum element, which
    makes equality and ordering structural.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        prev_min = -1
        for b in self.blocks:
            if not b or list(b) != sorted(b):
                raise ValueError("blocks must be nonempty and sorted")
            if b[0] <= prev_min:
                raise ValueError("blocks must be listed by minimum element")
            prev_min = b[0]
            for x in b:
                if x in seen:
                    raise ValueError("blocks must be disjoint")
                seen.add(x)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(sorted(x for b in self.blocks for x in b))

    def block_of(self) -> dict[int, int]:
        """Element -> index of its block."""
        out: dict[int, int] = {}
        for bi, b in enumerate(self.blocks):
            for x in b:
                out[x] = bi
        return out

    def is_transversal(self, image: tuple[int, ...]) -> bool:
        """True iff `image` meets every block exactly once."""
        if len(image) != len(self.blocks):
            return False
        lookup = self.block_of()
        hit: set[int] = set()
        for x in image:
            bi = lookup.get(x)
            if bi is None or bi in hit:
                return False
            hit.add(bi)
        return True

    def sort_key(self) -> tuple:
        # domain size descending, then block list; fixes row enumeration order
        return (-len(self.domain), self.blocks)


def compose(a: PartialMap, b: PartialMap) -> PartialMap:
    """a then b; defined at x iff x is in dom(a) and xa is in dom(b)."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} != {b.n}")
    return PartialMap(compose_entries(a.entries, b.entries))


def compose_entries(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # raw-tuple composition for hot loops; UNDEF propagates through b[v] == -1
    return tuple(b[v] if v >= 0 else UNDEF for v in a)


def idempotent_from_cell(n: int, kp: KernelPartition, image) -> PartialMap:
    """The unique idempotent with kernel `kp` and image `image`.

    `image` must be a transversal of `kp`: it then holds one retraction point
    per block, and every block member maps to that point.
    """
    image = tuple(image)
    if not kp.is_transversal(image):
        raise ValueError(f"image {image} is not a transversal of {kp.blocks}")
    entries = [UNDEF] * n
    lookup = kp.block_of()
    rep = {}
    for x in image:
        rep[lookup[x]] = x
    for bi, b in enumerate(kp.blocks):
        for x in b:
            if x >= n:
                raise ValueError("partition exceeds the ground set")
            entries[x] = rep[bi]
    return PartialMap(tuple(entries))


def iter_set_partitions(elems: tuple[int, ...], k: int):
    """All partitions of `elems` into exactly k blocks, canonical block order."""
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


def kernels_of_rank(n: int, k: int, monoid: Monoid) -> list[KernelPartition]:
    """Kernels of the rank-k class, domain size descending then block-list order."""
    sizes = [n] if monoid is Monoid.TOTAL else range(n, k - 1, -1)
    out = []
    for m in sizes:
        for dom in itertools.combinations(range(n), m):
            for blocks in iter_set_partitions(dom, k):
                out.append(KernelPartition(blocks))
    out.sort(key=KernelPartition.sort_key)
    return out


def transversal_images(kp: KernelPartition) -> list[tuple[int, ...]]:
    """All transversals of `kp`, as sorted tuples in lexicographic order."""
    return sorted(tuple(sorted(choice)) for choice in itertools.product(*kp.blocks))


def enumerate_idempotents(n: int, k: int, monoid: Monoid) -> list[PartialMap]:
    """All rank-k idempotents of T_n or PT_n in (kernel, image) order."""
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range for n={n}")
    if monoid is Monoid.TOTAL and k == 0:
        raise ValueError("T_n has no rank-0 elements")
    out = []
    for kp in kernels_of_rank(n, k, monoid):
        for image in transversal_images(kp):
            out.append(idempotent_from_cell(n, kp, image))
    return out
