"""Value semantics of the library's record types, and what importing igmax loads.

PartialMap, KernelPartition and GroupPresentation validate their fields and
are immutable, hashable values whose equality depends on the class: two
objects are equal when their classes and fields are, and never equal a bare
tuple.  Reports never share a mutable container.
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from igmax.groupid import identify
from igmax.presentation import GroupPresentation
from igmax.ptrans import KernelPartition, Monoid, PartialMap

SRC = Path(__file__).resolve().parent.parent / "src"


def presentation(cells=((0, 0), (0, 1))):
    return GroupPresentation(("a", "b"), ((0, 3), (2,)), ("type2", "type1"), cells)


# (make one, make an equal one, make a different one, the fields as a bare tuple)
VALUES = {
    "PartialMap": (
        lambda: PartialMap((0, 0, -1)),
        lambda: PartialMap(tuple([0, 0, -1])),
        lambda: PartialMap((0, 1, -1)),
        ((0, 0, -1),),
    ),
    "KernelPartition": (
        lambda: KernelPartition(((0, 2), (1,))),
        lambda: KernelPartition(tuple([(0, 2), (1,)])),
        lambda: KernelPartition(((0,), (1, 2))),
        (((0, 2), (1,)),),
    ),
    "GroupPresentation": (
        presentation,
        lambda: presentation(cells=tuple([(0, 0), (0, 1)])),
        lambda: presentation(cells=None),
        (("a", "b"), ((0, 3), (2,)), ("type2", "type1"), ((0, 0), (0, 1))),
    ),
}


FIELDS = {
    "PartialMap": ("entries",),
    "KernelPartition": ("blocks",),
    "GroupPresentation": ("generators", "relators", "provenance", "cells"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
class TestValueSemantics:
    def test_equal_fields_give_equal_objects_and_hashes(self, name):
        make, make_equal, make_other, _ = VALUES[name]
        a, b = make(), make_equal()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != make_other()

    def test_other_class_or_bare_tuple_is_not_equal(self, name):
        make, _, _, fields = VALUES[name]
        a = make()
        assert a != fields and fields != a
        assert a != fields[0] and fields[0] != a
        subclass = type("Sub" + name, (type(a),), {"__slots__": ()})
        same_fields = subclass(*fields)
        assert a != same_fields and same_fields != a
        for other in VALUES.values():
            if other[0] is not make:
                assert a != other[0]()

    def test_fields_cannot_be_assigned(self, name):
        a = VALUES[name][0]()
        for field in FIELDS[name]:
            with pytest.raises(AttributeError):
                setattr(a, field, getattr(a, field))
            with pytest.raises(AttributeError):
                delattr(a, field)
        assert a == VALUES[name][1]()

    def test_copy_and_pickle_give_an_equal_value(self, name):
        a = VALUES[name][0]()
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is type(a) and b == a and repr(b) == repr(a)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PartialMap(()),  # ground set must be nonempty
        lambda: PartialMap((0, 3, 1)),  # entry out of range
        lambda: PartialMap((0, -2, 1)),
        lambda: KernelPartition(((),)),  # blocks must be nonempty and sorted
        lambda: KernelPartition(((2, 0),)),
        lambda: KernelPartition(((1, 2), (0,))),  # listed by minimum element
        lambda: KernelPartition(((0,), (0, 1))),
        lambda: KernelPartition(((0, 1), (1, 2))),  # disjoint
        lambda: GroupPresentation(("a",), ((0,),), ()),  # one provenance tag per relator
        lambda: GroupPresentation(("a",), (), (), ((0, 0), (0, 1))),  # one cell per generator
        lambda: GroupPresentation(("a",), ((2,),), ("type1",)),  # malformed letter
        lambda: GroupPresentation(("a",), ((1.0,),), ("type1",)),
        lambda: GroupPresentation(("a",), ((0, 1),), ("type2",)),  # not freely reduced
    ],
)
def test_validation_raises_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_trivial_reports_share_no_list_or_dict():
    made = [identify(3, 0, Monoid.PARTIAL), identify(3, 0, Monoid.PARTIAL),
            identify(3, 3, Monoid.PARTIAL), identify(3, 3, Monoid.TOTAL)]
    for name in ("abelian_invariants", "relator_counts", "diagnostics", "timings"):
        values = [getattr(r, name) for r in made]
        assert all(isinstance(v, (list, dict)) for v in values)
        assert len({id(v) for v in values}) == len(values), name
    made[0].relator_counts["type1"] = 5
    made[0].diagnostics.append("changed")
    assert identify(3, 0, Monoid.PARTIAL).to_json() == made[1].to_json()


def test_importing_igmax_loads_no_dataclasses_or_inspect():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import igmax, igmax.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
