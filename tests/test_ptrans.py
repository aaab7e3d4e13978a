import random

import pytest

from igmax.dclass import enumerate_idempotents
from igmax.ptrans import (
    Monoid,
    PartialMap,
    KernelPartition,
    compose,
    iter_set_partitions,
    kernels_of_rank,
)

from helpers import (
    all_maps,
    all_partial_maps,
    brute_idempotents,
    green_ideals,
    idempotent_from_cell,
    is_transversal,
    reference_enumerate_idempotents,
    reference_kernels_of_rank,
)

PT = Monoid.PARTIAL
T = Monoid.TOTAL


def pm(text):
    return PartialMap.from_text(text)


class TestCompose:
    def test_identity_absorbs(self):
        for a in all_partial_maps(3):
            assert compose(PartialMap.identity(3), a) == a
            assert compose(a, PartialMap.identity(3)) == a

    def test_hand_evaluated(self):
        a = pm("[2,2,-]")
        b = pm("[1,3,3]")
        assert compose(a, b) == pm("[3,3,-]")

    def test_value_falls_out_of_domain(self):
        a = pm("[3,-,-]")
        b = pm("[1,2,-]")
        assert compose(a, b) == PartialMap.empty(3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(PartialMap.identity(2), PartialMap.identity(3))

    def test_associative_exhaustive_small(self):
        for n in (1, 2, 3):
            maps = all_partial_maps(n)
            for a in maps:
                for b in maps:
                    ab = compose(a, b)
                    for c in maps:
                        assert compose(ab, c) == compose(a, compose(b, c))

    def test_associative_randomized_n8(self):
        rng = random.Random(20240811)
        n = 8
        def rand_map():
            return PartialMap(tuple(rng.randrange(-1, n) for _ in range(n)))
        for _ in range(300):
            a, b, c = rand_map(), rand_map(), rand_map()
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestStructure:
    def test_empty_map(self):
        e = PartialMap.empty(3)
        assert e.kernel() == KernelPartition(())
        assert e.rank() == 0
        assert e.image() == ()
        assert e.is_idempotent()

    def test_retraction_example(self):
        a = pm("[1,1,3]")
        assert a.kernel().blocks == ((0, 1), (2,))
        assert a.image() == (0, 2)
        assert a.rank() == 2
        assert a.fixpoints() == (0, 2)
        assert a.is_idempotent()

    def test_identity(self):
        i4 = PartialMap.identity(4)
        assert i4.kernel().blocks == ((0,), (1,), (2,), (3,))
        assert i4.rank() == 4
        assert i4.is_idempotent()

    def test_transposition_not_idempotent(self):
        assert not pm("[2,1]").is_idempotent()

    def test_idempotent_matches_square_oracle(self):
        for n in (1, 2, 3, 4):
            for a in all_partial_maps(n):
                assert a.is_idempotent() == (compose(a, a) == a)

    def test_text_round_trip(self):
        for a in all_partial_maps(3):
            assert PartialMap.from_text(a.to_text()) == a
        with pytest.raises(ValueError):
            PartialMap.from_text("2,2,-")

    @pytest.mark.parametrize("text", ["[0,1]", "[1,0]", "[-0,1]", "[1,-1]", "[1,3]", "[1,x]"])
    def test_text_accepts_only_dash_or_one_to_n(self, text):
        # '0' must not read as undefined: only '-' marks an undefined point
        with pytest.raises(ValueError):
            PartialMap.from_text(text)

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            PartialMap((0, 5, 1))
        with pytest.raises(ValueError):
            PartialMap(())


class TestKernelPartition:
    def test_canonical_ordering_enforced(self):
        with pytest.raises(ValueError):
            KernelPartition(((1, 2), (0,)))
        with pytest.raises(ValueError):
            KernelPartition(((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            KernelPartition(((2, 0),))

    def test_transversal(self):
        kp = KernelPartition(((0, 1), (2,)))
        assert is_transversal(kp, (0, 2))
        assert is_transversal(kp, (1, 2))
        assert not is_transversal(kp, (0, 1))
        assert not is_transversal(kp, (2,))


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k blocks: S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    if n == 0 or k == 0:
        return int(n == k)
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def assert_set_partition(blocks, elems):
    """Nonempty sorted blocks, listed by least element, disjoint, covering `elems`."""
    assert all(b and list(b) == sorted(b) for b in blocks)
    firsts = [b[0] for b in blocks]
    assert firsts == sorted(set(firsts))
    assert sorted(x for b in blocks for x in b) == list(elems)


class TestSetPartitions:
    @pytest.mark.parametrize("n", range(9))
    def test_counts_and_shape(self, n):
        elems = tuple(range(n))
        for k in range(n + 2):
            found = list(iter_set_partitions(elems, k))
            assert len(found) == len(set(found)) == stirling2(n, k)
            for blocks in found:
                assert len(blocks) == k
                assert_set_partition(blocks, elems)

    def test_non_contiguous_input(self):
        elems = (0, 2, 5)
        assert sorted(iter_set_partitions(elems, 2)) == [
            ((0,), (2, 5)), ((0, 2), (5,)), ((0, 5), (2,)),
        ]
        for k in range(5):
            found = list(iter_set_partitions(elems, k))
            assert len(found) == len(set(found)) == stirling2(3, k)
            for blocks in found:
                assert_set_partition(blocks, elems)


# every rank of both monoids for n <= 5; n = 6 under slow
KERNEL_CLASSES = [(n, k) for n in range(1, 6) for k in range(n + 1)] + [
    pytest.param(6, k, marks=pytest.mark.slow) for k in range(7)
]


class TestKernelsOfRank:
    @pytest.mark.parametrize("n,k", KERNEL_CLASSES)
    @pytest.mark.parametrize("monoid", [T, PT])
    def test_matches_kernels_of_all_maps(self, n, k, monoid):
        brute = {m.kernel() for m in all_maps(n, monoid) if m.rank() == k}
        found = kernels_of_rank(n, k, monoid)
        assert found == sorted(brute, key=KernelPartition.sort_key)
        # a partial map is a total map onto a sink for its undefined points
        expected = stirling2(n, k) if monoid is T else stirling2(n + 1, k + 1)
        assert len(found) == expected

    @pytest.mark.parametrize(
        "n", [*range(7), *(pytest.param(n, marks=pytest.mark.slow) for n in (7, 8))]
    )
    @pytest.mark.parametrize("monoid", [T, PT])
    def test_matches_domain_by_domain_oracle(self, n, monoid):
        for k in range(n + 1):
            assert kernels_of_rank(n, k, monoid) == reference_kernels_of_rank(n, k, monoid)

    @pytest.mark.parametrize("monoid", ["t", "pt", None])
    def test_monoid_must_be_a_member(self, monoid):
        with pytest.raises(ValueError, match="monoid must be a Monoid"):
            kernels_of_rank(4, 2, monoid)


class TestIdempotentFromCell:
    def test_unique_retraction(self):
        kp = KernelPartition(((0, 1), (2,)))
        assert idempotent_from_cell(3, kp, (0, 2)) == pm("[1,1,3]")

    def test_identity_cell(self):
        kp = KernelPartition(tuple((x,) for x in range(4)))
        assert idempotent_from_cell(4, kp, tuple(range(4))) == PartialMap.identity(4)

    def test_transversal_violation(self):
        kp = KernelPartition(((0, 1), (2,)))
        with pytest.raises(ValueError):
            idempotent_from_cell(3, kp, (0, 1))


class TestEnumerateIdempotents:
    @pytest.mark.parametrize(
        "n,k,monoid,count",
        [(3, 2, T, 6), (3, 2, PT, 9), (3, 3, T, 1), (3, 3, PT, 1)],
    )
    def test_known_counts(self, n, k, monoid, count):
        found = enumerate_idempotents(n, k, monoid)
        assert len(found) == count
        if k == n:
            assert found == [PartialMap.identity(n)]

    def test_matches_brute_force(self):
        for n in (1, 2, 3, 4):
            for monoid in (T, PT):
                lo = 1 if monoid is T else 0
                for k in range(lo, n + 1):
                    found = enumerate_idempotents(n, k, monoid)
                    assert len(found) == len(set(found))
                    assert all(m.is_idempotent() and m.rank() == k for m in found)
                    assert set(found) == brute_idempotents(n, k, monoid)

    def test_matches_reference_order(self):
        for n in range(1, 8):
            for monoid in (T, PT):
                lo = 1 if monoid is T else 0
                for k in range(lo, n + 1):
                    assert enumerate_idempotents(n, k, monoid) == reference_enumerate_idempotents(
                        n, k, monoid
                    )

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            enumerate_idempotents(3, 4, PT)
        with pytest.raises(ValueError):
            enumerate_idempotents(3, 0, T)


class TestGreenRelations:
    @pytest.mark.parametrize("monoid_key", ["pt", "t"])
    def test_characterizations_against_ideal_oracle(self, monoid_key):
        n = 3
        elems, rights, lefts, twosided = green_ideals(n, monoid_key)
        for a in elems:
            for b in elems:
                assert (rights[a] == rights[b]) == (a.kernel() == b.kernel())
                assert (lefts[a] == lefts[b]) == (a.image() == b.image())
                assert (twosided[a] == twosided[b]) == (a.rank() == b.rank())

    @pytest.mark.parametrize("monoid_key,chain_len", [("pt", 4), ("t", 3)])
    def test_d_classes_form_a_chain(self, monoid_key, chain_len):
        n = 3
        elems, _, _, twosided = green_ideals(n, monoid_key)
        classes = {}
        for a in elems:
            classes.setdefault(twosided[a], []).append(a)
        assert len(classes) == chain_len
        # principal ideals are totally ordered by rank
        reps = sorted((min(v, key=lambda m: m.rank()) for v in classes.values()),
                      key=lambda m: m.rank())
        for lo, hi in zip(reps, reps[1:]):
            assert twosided[lo] < twosided[hi]
            assert lo.rank() < hi.rank()
