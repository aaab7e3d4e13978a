"""Partial transformations of {1,..,n}: composition, kernels, idempotents.

Maps compose left to right, x(a*b) = (xa)b, and act on the right of their
arguments.  Points are 0-based internally; all text and JSON I/O is 1-based.
"""

from __future__ import annotations

from enum import Enum

UNDEF = -1

# bound once, not looked up on every construction of a validated value
_set_field = object.__setattr__


class Frozen:
    """Base of the validated values, in place of frozen dataclasses, whose
    import costs more than the rest of `import igmax`.

    `_fields` names the slots, which `__init__` sets once through
    `object.__setattr__`.  Two values are equal when their classes are the
    same and their fields are equal, and a value hashes as its field tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, so the checks run again
        return type(self), self._key()


class Monoid(Enum):
    """Ambient monoid: all total maps (T_n) or all partial maps (PT_n)."""

    TOTAL = "t"
    PARTIAL = "pt"


class PartialMap(Frozen):
    """A partial self-map of an n-element set; UNDEF marks an undefined point."""

    __slots__ = _fields = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        _set_field(self, "entries", entries)
        n = len(entries)
        if n == 0:
            raise ValueError("ground set must be nonempty")
        for v in entries:
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
        values = [None if part.strip() == "-" else int(part) for part in body.split(",")]
        # checked before the shift to 0-based, where 0 would become UNDEF
        if any(v is not None and v < 1 for v in values):
            raise ValueError(f"bad map literal: {text!r} (entries are '-' or 1..n)")
        return cls(tuple(UNDEF if v is None else v - 1 for v in values))

    def to_text(self) -> str:
        return "[" + ",".join("-" if v == UNDEF else str(v + 1) for v in self.entries) + "]"


class KernelPartition(Frozen):
    """A partition of a subset of the ground set.

    Blocks are sorted tuples, listed in order of their minimum element, which
    makes equality and ordering structural.
    """

    __slots__ = _fields = ("blocks",)
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: tuple[tuple[int, ...], ...]) -> None:
        _set_field(self, "blocks", blocks)
        seen: set[int] = set()
        prev_min = -1
        for b in blocks:
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

    def sort_key(self) -> tuple:
        # domain size descending, then block list; fixes row enumeration order
        return (-sum(map(len, self.blocks)), self.blocks)


def compose(a: PartialMap, b: PartialMap) -> PartialMap:
    """a then b; defined at x iff x is in dom(a) and xa is in dom(b)."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} != {b.n}")
    return PartialMap(compose_entries(a.entries, b.entries))


def compose_entries(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # behind `compose` and the sandwich oracle; UNDEF propagates through b[v] == -1
    return tuple(b[v] if v >= 0 else UNDEF for v in a)


def iter_set_partitions(elems: tuple[int, ...], k: int):
    """All partitions of the ascending `elems` into exactly k blocks, each block
    sorted and the blocks listed by least element."""
    if len(elems) == k:
        yield tuple((x,) for x in elems)
        return
    if not 0 < k < len(elems):
        return
    x, rest = elems[0], elems[1:]
    # the least element starts a block of its own or joins one of the others
    for blocks in iter_set_partitions(rest, k - 1):
        yield ((x,),) + blocks
    for blocks in iter_set_partitions(rest, k):
        for i, b in enumerate(blocks):
            yield ((x,) + b,) + blocks[:i] + blocks[i + 1:]


def kernels_of_rank(n: int, k: int, monoid: Monoid) -> list[KernelPartition]:
    """Kernels of the rank-k class, domain size descending then block-list order."""
    if not isinstance(monoid, Monoid):
        raise ValueError(f"monoid must be a Monoid, not {monoid!r}")
    # a partial map acts as a total map on n + 1 points that sends its undefined
    # points to the sink n: partition n + 1 points into k + 1 blocks, drop the sink's block
    sink = int(monoid is not Monoid.TOTAL)
    out = [
        KernelPartition(tuple(b for b in blocks if b[-1] < n))
        for blocks in iter_set_partitions(tuple(range(n + sink)), k + sink)
    ]
    out.sort(key=KernelPartition.sort_key)
    return out
