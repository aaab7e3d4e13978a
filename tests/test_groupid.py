import math
import random

import pytest

from igmax.groupid import (
    COMPLETE,
    DEFAULT_MAX_COSETS,
    OVERFLOW,
    VERDICT_FREE,
    VERDICT_SYMMETRIC,
    VERDICT_TRIVIAL,
    VERDICT_UNDECIDED,
    AbelianInvariants,
    _subgroup_chain,
    abelian_invariants,
    build_stages,
    identify,
    perm_compose,
    perm_group_order,
    perm_identity,
    perm_inverse,
    rees_hom,
    smith_normal_form,
    todd_coxeter,
    verified_schreier,
    verify_hom,
)
from igmax.cli import CORPUS_RUNS
from igmax.dclass import ANCHOR_RULES, anchors, build_grid
from igmax.errors import StructuralError
from igmax.presentation import GroupPresentation, free_rank, gh_graph, tietze_simplify
from igmax.ptrans import Monoid, PartialMap, compose
from igmax.schreier import TIE_BREAKS

from helpers import (
    MONOIDS,
    _power,
    all_maps,
    all_pairs_presentation,
    cached_identify,
    idempotent_closure,
    letters,
    minor_gcd_invariants,
    oracle_presentations,
    pipeline,
    record_enumerations,
    reference_perm_group_order,
    reference_rees_hom,
    reference_smith_normal_form,
    reference_verify_hom,
    reference_word_value,
    star_words,
    swap_cells,
)

PT = Monoid.PARTIAL
T = Monoid.TOTAL

ORACLE_PRESENTATIONS = [(name, pres, perms) for name, pres, perms, _, _ in oracle_presentations()]
ORACLE_EXPECTED_ORDERS = {name: order for name, _, _, order, _ in oracle_presentations()}


def make(gens, rels):
    return GroupPresentation(tuple(gens), tuple(rels), tuple("type3" for _ in rels))


def eval_perm_word(rel, gens):
    k = len(gens[0])
    acc = perm_identity(k)
    for x in rel:
        g = x >> 1
        acc = perm_compose(acc, perm_inverse(gens[g]) if x & 1 else gens[g])
    return acc


class TestPerms:
    def test_identity_and_inverse(self):
        assert perm_group_order([perm_identity(4)]) == 1
        p = (1, 2, 0)
        assert perm_compose(p, perm_inverse(p)) == perm_identity(3)

    def test_transposition_and_cycle_generate_s3(self):
        assert perm_group_order([(1, 0, 2), (1, 2, 0)]) == 6

    def test_empty_generator_set_rejected(self):
        with pytest.raises(ValueError):
            perm_group_order([])


class TestToddCoxeter:
    @pytest.mark.parametrize("name,pres,perms", ORACLE_PRESENTATIONS)
    def test_micro_suite_against_permutation_closure(self, name, pres, perms):
        expected = ORACLE_EXPECTED_ORDERS[name]
        if perms is not None:
            # the realization must satisfy the relators, making closure a lower bound
            for rel in pres.relators:
                assert eval_perm_word(rel, perms) == perm_identity(len(perms[0])), name
            assert perm_group_order(perms) == expected
        table = todd_coxeter(pres)
        assert table.status == COMPLETE
        assert table.order == expected, name

    def test_free_groups_overflow(self):
        for ngens in (1, 2, 3):
            p = make([f"g{i}" for i in range(ngens)], [])
            table = todd_coxeter(p, max_cosets=500)
            assert table.status == OVERFLOW
            assert table.order is None

    def test_no_generators_is_trivial(self):
        table = todd_coxeter(make([], []))
        assert table.status == COMPLETE and table.order == 1

    @pytest.mark.parametrize(
        "case",
        ["d4"] + [(key, n, k) for key, n, k, verdict in CORPUS_RUNS
                  if n <= 5 and verdict != VERDICT_FREE],
    )
    def test_complete_table_action_is_consistent_and_transitive(self, case):
        # the raw corpus presentations are enumerated as given, on every column
        if case == "d4":
            name, pres, _ = ORACLE_PRESENTATIONS[8]
            assert name == case
        else:
            pres = pipeline(*case)[-1]
        table = todd_coxeter(pres)
        assert table.status == COMPLETE
        assert table.ngens == len(pres.generators)
        for row in table.table:
            assert len(row) == 2 * table.ngens
            assert all(v is not None for v in row)
        for rel in pres.relators:
            for c in range(table.order):
                assert table.trace(c, rel) == c, (case, rel, c)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for c in frontier:
                for v in table.table[c]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        assert len(seen) == table.order

    def test_pipeline_presentation_order(self):
        from igmax.presentation import tietze_simplify

        _, _, _, _, pres = pipeline("pt", 4, 2)
        assert todd_coxeter(tietze_simplify(pres)).order == 2

    def test_malformed_relator_rejected(self):
        with pytest.raises(ValueError):
            todd_coxeter(GroupPresentation(("a",), (letters(((3, 1),)),), ("type1",)))

    def test_deterministic(self):
        _, pres, _ = ORACLE_PRESENTATIONS[6]
        a = todd_coxeter(pres)
        b = todd_coxeter(pres)
        assert a.table == b.table and a.status == b.status


# (name, relators on a, b; relators of K = <a | ...>, [G : <a>], |G|)
SUBGROUP_CASES = [
    ("s3", [_power(0, 2), _power(1, 3), (_power(0, 1) + _power(1, 1)) * 2], [_power(0, 2)], 3, 6),
    ("d5", [_power(0, 2), _power(1, 2), (_power(0, 1) + _power(1, 1)) * 5], [_power(0, 2)], 5, 10),
    ("q8", [_power(0, 4), _power(0, 2) + _power(1, -2), letters(((1, -1), (0, 1), (1, 1), (0, 1)))],
     [_power(0, 4)], 2, 8),
]
# <a, b | a^4, b a^-2, b> has order 2, but K = <a | a^4> has order 4 and
# <a> is all of G: the bound is 1 * 4, strict
STRICT = make("ab", [_power(0, 4), _power(1, 1) + _power(0, -2), _power(1, 1)])


class TestSubgroupEnumeration:
    """todd_coxeter over the subgroup H generated by the first generators,
    given a complete table of a group K that H is a quotient of: one row per
    coset of H, and the order [G : H] * |K| bounds |G|."""

    @pytest.mark.parametrize("name,rels,sub_rels,index,order", SUBGROUP_CASES)
    def test_index_times_subgroup_order(self, name, rels, sub_rels, index, order):
        pres = make("ab", rels)
        sub = todd_coxeter(make("a", sub_rels))
        table = todd_coxeter(pres, subgroup=sub)
        assert table.status == COMPLETE
        assert (len(table.table), table.subgroup_order) == (index, sub.order)
        assert table.order == order == todd_coxeter(pres).order
        # H fixes coset 0, and the table is G's action on the cosets of H
        assert table.table[0][:2] == [0, 0]
        for rel in pres.relators:
            for c in range(index):
                assert table.trace(c, rel) == c, (name, rel, c)

    def test_strict_bound_is_not_the_order(self):
        sub = todd_coxeter(make("a", [_power(0, 4)]))
        table = todd_coxeter(STRICT, subgroup=sub)
        assert (table.status, len(table.table), table.order) == (COMPLETE, 1, 4)
        assert todd_coxeter(STRICT).order == 2
        # the chain reaches the same bound: only the surjection can make it exact
        assert _subgroup_chain(STRICT, 100).order == 4

    def test_subgroup_must_be_a_complete_prefix_table(self):
        pres = make("ab", SUBGROUP_CASES[0][1])
        with pytest.raises(ValueError):
            todd_coxeter(make("a", [_power(0, 2)]), subgroup=todd_coxeter(pres))
        with pytest.raises(ValueError):
            todd_coxeter(pres, subgroup=todd_coxeter(make("a", []), max_cosets=10))

    def test_overflow_has_no_order(self):
        sub = todd_coxeter(make("a", [_power(0, 2)]))
        table = todd_coxeter(make("ab", [_power(0, 2)]), max_cosets=50, subgroup=sub)
        assert (table.status, table.order) == (OVERFLOW, None)


class TestSubgroupChain:
    """_subgroup_chain orders the generators greedily and bounds the order
    level by level; on the micro suite each level's subgroup embeds, so the
    bound is the order."""

    @pytest.mark.parametrize("name,pres,perms", ORACLE_PRESENTATIONS)
    def test_micro_suite(self, name, pres, perms):
        table = _subgroup_chain(pres, 1000)
        assert table.ngens == len(pres.generators)
        assert table.order == ORACLE_EXPECTED_ORDERS[name], name

    @pytest.mark.parametrize("name,rels,sub_rels,index,order", SUBGROUP_CASES)
    def test_two_generator_groups(self, monkeypatch, name, rels, sub_rels, index, order):
        # b completes no relator alone and a does, so a comes first: K_1 = <a | sub_rels>
        calls = record_enumerations(monkeypatch)
        table = _subgroup_chain(make("ab", rels), 1000)
        assert calls[0].presentation.relators == tuple(sub_rels)
        assert (len(calls), len(table.table), table.order) == (2, index, order)

    def test_greedy_order_and_skipped_levels(self, monkeypatch):
        # c and d each complete one relator alone, and the tie goes to c; then
        # a completes two, d one; d's level adds only its relator on d alone
        # over a table of order 6, and is skipped; b and e complete nothing
        # apart, so b comes next on the tie, and its level, which adds no
        # relator, is skipped.  G = S_3: <c, a> is S_3, and b e = b e^2 = d = 1.
        pres = make("abcde", [
            _power(1, 1) + _power(4, 1), _power(2, 2), (_power(2, 1) + _power(0, 1)) * 2,
            _power(0, 3) + _power(2, 2), _power(3, 1), _power(1, 1) + _power(4, 2),
        ])
        calls = record_enumerations(monkeypatch)
        table = _subgroup_chain(pres, 1000)
        assert [(c.presentation.generators, len(c.presentation.relators), c.table.order)
                for c in calls] == [(("c",), 1, 2), (("c", "a"), 3, 6),
                                    (("c", "a", "d", "b", "e"), 6, 6)]
        assert table.order == 6 == todd_coxeter(pres).order

    @pytest.mark.parametrize("a_order, orders", [(3, [3, 6]), (1, [1, 2, 2])])
    def test_free_product_level(self, monkeypatch, a_order, orders):
        # G = <a, b, c | a^m, b^2, c = ab, c^2>: S_3 for m = 3, C_2 for m = 1.
        # a, b and c each complete one relator alone, so a comes first and b
        # next, on the ties; b completes only b^2, so K_1 = <a | a^m> * <b | b^2>.
        # For m = 3 that is infinite over a table of order 3 and is skipped;
        # for m = 1 it is C_2 over a table of order 1 and is enumerated.
        pres = make("abc", [_power(0, a_order), _power(1, 2),
                            _power(2, -1) + _power(0, 1) + _power(1, 1), _power(2, 2)])
        calls = record_enumerations(monkeypatch)
        table = _subgroup_chain(pres, 1000)
        assert [c.table.order for c in calls] == orders
        assert calls[0].presentation.generators == ("a",)
        assert table.order == orders[-1] == todd_coxeter(pres).order

    def test_top_overflow_fails(self):
        assert _subgroup_chain(make("ab", [_power(0, 2)]), 100) is None

    def test_no_generators(self):
        assert _subgroup_chain(make("", []), 1).order == 1


def _unit_free_matrices():
    """Matrices with no +-1 entry: smith_normal_form pivots on a least entry,
    reduces the pivot row modulo it, and orders the diagonal by gcd and lcm."""
    mats = [
        [[4, 0, 0], [0, 6, 0], [0, 0, 10]],
        [[2, 3]],
        [[6, 10, 15]],
        [[4, 6], [6, 9]],
        [[-6, 4], [4, -2]],
        [[0, 12, 0], [18, 0, 0], [0, 0, 8]],
    ]
    rng = random.Random(1201)
    entries = (0, 0, 2, -2, 3, -3, 4, 6, -9, 12)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mats.append([[rng.choice(entries) for _ in range(n)] for _ in range(m)])
    return mats


UNIT_FREE_MATRICES = _unit_free_matrices()


class TestSmithNormalForm:
    def test_known_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
        assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
        assert smith_normal_form([[0, 0], [0, 0]]) == []
        assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]]) == [2, 2, 60]

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(99)
        mats = []
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            mats.append([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        for mat in mats + UNIT_FREE_MATRICES:
            got = smith_normal_form(mat)
            assert got == minor_gcd_invariants(mat), mat

    def test_divisibility_chain(self):
        rng = random.Random(4)
        mats = [[[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)] for _ in range(40)]
        for mat in mats + UNIT_FREE_MATRICES:
            diag = smith_normal_form(mat)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0


def relation_matrix(pres):
    matrix = []
    for rel in pres.relators:
        row = [0] * len(pres.generators)
        for x in rel:
            row[x >> 1] += -1 if x & 1 else 1
        matrix.append(row)
    return matrix


class TestSparseUnitElimination:
    """smith_normal_form eliminates over sparse rows, unit pivots first; on
    any matrix it must equal the dense reference elimination."""

    def test_matches_dense_on_random_matrices(self):
        rng = random.Random(2011)
        entries = (1, -1, 1, -1, 2, -2, 3, -4, 0)
        for _ in range(600):
            m = rng.randint(0, 9)
            n = rng.randint(1, 9)
            density = rng.random()
            mat = [
                [rng.choice(entries) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)
            ]
            assert smith_normal_form(mat) == reference_smith_normal_form(mat), mat

    def test_input_is_not_modified(self):
        mat = [[1, 2, 0], [3, 1, -1], [0, 0, 2]]
        copy = [list(r) for r in mat]
        smith_normal_form(mat)
        assert mat == copy

    @pytest.mark.parametrize("key", sorted(MONOIDS))
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6) for k in range(1, n)])
    def test_matches_dense_on_raw_relation_matrices(self, n, k, key):
        mat = relation_matrix(pipeline(key, n, k)[4])
        assert smith_normal_form(mat) == reference_smith_normal_form(mat)


class TestAbelianInvariants:
    def test_symmetric_groups_abelianize_to_c2(self):
        _, pres, _ = ORACLE_PRESENTATIONS[6]  # s3 coxeter
        assert abelian_invariants(pres) == AbelianInvariants((2,), 0)
        for key, n, k in [("pt", 4, 2), ("pt", 5, 3), ("t", 5, 3)]:
            report = cached_identify(key, n, k)
            assert report.abelian_invariants == [2]

    def test_free_presentation(self):
        p = make(["a", "b", "c"], [])
        assert abelian_invariants(p) == AbelianInvariants((), 3)

    def test_boundary_pipeline_free_rank_one(self):
        _, _, _, _, pres = pipeline("pt", 3, 2)
        inv = abelian_invariants(pres)
        assert inv.torsion == () and inv.free_rank == 1
        assert inv.as_list() == [0]


# every corpus class with a sandwich homomorphism (1 <= k <= n-1)
HOM_CLASSES = [(key, n, k) for key, n, k, _ in CORPUS_RUNS if 1 <= k < n]


def _transposed(hom, anchors_map):
    """hom with its first non-anchor cell sent to a transposition it was not sent to."""
    k = len(next(iter(hom.values())))
    swap = (1, 0, *range(2, k))
    cell = next(
        (i, lam) for (i, lam), q in sorted(hom.items()) if lam != anchors_map[i] and q != swap
    )
    return {**hom, cell: swap}


class TestReesHom:
    def test_anchors_map_to_identity(self):
        grid, am, sys_, _, _ = pipeline("pt", 4, 2)
        hom = rees_hom(grid, sys_, am)
        for i in range(len(grid.rows)):
            assert hom[(i, am[i])] == perm_identity(2)

    @pytest.mark.parametrize("key,n,k,order", [("pt", 4, 2, 2), ("t", 5, 3, 6)])
    def test_image_group_order(self, key, n, k, order):
        grid, am, sys_, _, _ = pipeline(key, n, k)
        hom = rees_hom(grid, sys_, am)
        assert perm_group_order(hom.values()) == order

    @pytest.mark.parametrize("key,n,k", [("pt", 3, 2), ("pt", 4, 2), ("t", 4, 2), ("t", 4, 3)])
    def test_verify_hom_on_pipelines(self, key, n, k):
        grid, am, sys_, _, pres = pipeline(key, n, k)
        hom = rees_hom(grid, sys_, am)
        assert verify_hom(pres, hom)

    def test_transposed_cell_is_rejected(self):
        grid, am, sys_, _, pres = pipeline("pt", 4, 2)
        broken = _transposed(rees_hom(grid, sys_, am), am)
        assert not verify_hom(pres, broken)
        assert not reference_verify_hom(pres, broken)

    @pytest.mark.parametrize("rule", ANCHOR_RULES)
    @pytest.mark.parametrize("key,n,k", HOM_CLASSES)
    def test_matches_reference(self, key, n, k, rule):
        grid, am, sys_, _, pres = pipeline(key, n, k, anchor_rule=rule)
        hom = rees_hom(grid, sys_, am)
        assert verify_hom(pres, hom) == reference_verify_hom(pres, hom) is True
        broken = _transposed(hom, am)
        assert verify_hom(pres, broken) == reference_verify_hom(pres, broken)

    def test_matches_direct_loop_realization(self):
        # independent route: evaluate e * r[anchor] * cell * r_inv[col] directly
        grid, am, sys_, _, _ = pipeline("pt", 4, 2)
        hom = rees_hom(grid, sys_, am)
        words = star_words(sys_)
        base_im = grid.cols[grid.base[1]]
        pos = {v: idx for idx, v in enumerate(base_im)}
        for (i, lam), perm in hom.items():
            loop = compose(
                compose(
                    compose(PartialMap(grid.base_idempotent), reference_word_value(grid, words.r[am[i]])),
                    PartialMap(grid.cell(i, lam)),
                ),
                reference_word_value(grid, words.r_inv[lam]),
            )
            assert perm == tuple(pos[loop.entries[v]] for v in base_im)


# every class with 2 <= n <= 7 and 1 <= k <= n-2 of both monoids; n = 8 under slow
REES_HOM_CLASSES = [
    (key, n, k) for n in range(2, 8) for key in sorted(MONOIDS) for k in range(1, n - 1)
] + [
    pytest.param(key, 8, k, marks=pytest.mark.slow) for key in sorted(MONOIDS) for k in range(1, 7)
]


def _refuse(*args):
    raise AssertionError("called")


def _unused_cell(grid, anchors_map, sys_):
    """A group cell off its row's anchor that no Schreier word uses as a letter."""
    words = star_words(sys_)
    used = {cell for ws in (words.r, words.r_inv) for w in ws.values() for cell in w}
    return next(
        (i, lam) for i, lam in sorted(grid.group_cells)
        if lam != anchors_map[i] and (i, lam) not in used
    )


class TestReesHomReadOff:
    """The read-off from the column representatives against the quotient of
    sandwich entries, and the checks it keeps."""

    @pytest.mark.parametrize("key,n,k", REES_HOM_CLASSES)
    def test_matches_sandwich_quotient(self, key, n, k):
        grid = build_grid(n, k, MONOIDS[key])
        for tie in TIE_BREAKS:
            sys_ = verified_schreier(grid, tie)
            for rule in ANCHOR_RULES:
                am = anchors(grid, rule)
                assert rees_hom(grid, sys_, am) == reference_rees_hom(grid, sys_, am), (tie, rule)

    @pytest.mark.parametrize("key,n,k", [("pt", 4, 2), ("t", 5, 3), ("pt", 5, 3), ("t", 6, 4)])
    def test_cell_not_injective_on_the_anchor_image_raises(self, key, n, k):
        grid, am, sys_, _, _ = pipeline(key, n, k)
        i, lam = _unused_cell(grid, am, sys_)
        f = grid.cell(i, lam)
        x, y = grid.cols[am[i]][:2]
        # y's kernel block now goes where x's does
        merged = tuple(f[x] if v == f[y] else v for v in f)
        broken = grid._replace(group_cells={**grid.group_cells, (i, lam): merged})
        with pytest.raises(StructuralError, match="base image is not a bijection"):
            rees_hom(broken, sys_, am)

    @pytest.mark.parametrize("key,n,k", [("pt", 4, 2), ("t", 4, 2), ("t", 5, 3)])
    def test_cell_of_another_column_trips_the_q_check(self, key, n, k):
        # the first column's letter holds the idempotent of a later column's
        # cell: the Schreier check, which rees_hom relies on, catches it, and
        # rees_hom's bijection check still fails on the crossed grid
        grid, am, sys_, _, _ = pipeline(key, n, k)
        a = next(c for c, i in enumerate(sys_.rows) if i is not None)
        i = sys_.rows[a]
        b = next(c for c in grid.cells_in_row[i] if c > a and (i, c) != grid.base)
        crossed = swap_cells(grid, (i, a), (i, b))
        landing = rf"column {a}: e \* r\[{a}\] does not land in L_{a}"
        with pytest.raises(StructuralError, match=landing):
            verified_schreier(crossed)
        with pytest.raises(StructuralError, match="not a bijection"):
            rees_hom(crossed, sys_, am)

    def test_composes_nothing(self, monkeypatch):
        # no column or row representative, no sandwich entry, no permutation
        # product: every q_c is read off its Schreier letter
        from igmax import dclass, groupid, ptrans

        grid, am, sys_, _, _ = pipeline("pt", 5, 3)
        expected = rees_hom(grid, sys_, am)
        for module in (ptrans, dclass):
            monkeypatch.setattr(module, "compose_entries", _refuse)
        monkeypatch.setattr(groupid, "perm_compose", _refuse)
        monkeypatch.setattr(groupid, "sandwich_matrix", _refuse)
        monkeypatch.setattr(dclass, "sandwich_matrix", _refuse)
        assert rees_hom(grid, sys_, am) == expected

    def test_identify_certifies_without_the_sandwich_matrix(self, monkeypatch):
        from igmax import dclass, groupid

        monkeypatch.setattr(groupid, "sandwich_matrix", _refuse)
        monkeypatch.setattr(dclass, "sandwich_matrix", _refuse)
        report = identify(6, 3, T)
        assert (report.verdict, report.order, report.hom_valid, report.image_order) == (
            VERDICT_SYMMETRIC, 6, True, 6)


class TestIdentify:
    def test_main_case(self):
        report = cached_identify("pt", 4, 2)
        assert report.verdict == VERDICT_SYMMETRIC
        assert report.order == 2 and report.hom_valid and report.image_order == 2

    def test_boundary_case(self):
        report = cached_identify("pt", 3, 2)
        assert report.verdict == VERDICT_FREE
        assert report.free_rank == 1
        assert report.order is None and report.order_kind == "infinite_free"

    def test_boundary_rank_zero_is_finite(self):
        # the k = n-1 component of PT_2 is a tree: free of rank 0
        report = identify(2, 1, PT)
        assert report.verdict == VERDICT_FREE
        assert report.free_rank == 0 and report.order == 1

    def test_total_monoid(self):
        report = cached_identify("t", 4, 2)
        assert report.verdict == VERDICT_SYMMETRIC and report.order == 2

    @pytest.mark.parametrize("n,k", [(3, 0), (3, 3), (5, 0), (5, 5)])
    def test_edge_ranks_trivial(self, n, k):
        report = identify(n, k, PT)
        assert report.verdict == VERDICT_TRIVIAL and report.order == 1

    @pytest.mark.parametrize("k", [2, 4])
    def test_rejects_a_monoid_that_is_not_a_member(self, k):
        # a bare "t" must not pass as either monoid, at k = n (trivial) or below
        with pytest.raises(ValueError):
            identify(4, k, "t")

    def test_rank_one_is_trivial_symmetric(self):
        report = cached_identify("pt", 4, 1)
        assert report.verdict == VERDICT_SYMMETRIC
        assert report.order == 1 and report.abelian_invariants == []

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            identify(3, 4, PT)
        with pytest.raises(ValueError):
            identify(3, 0, T)

    @pytest.mark.parametrize("k", [0, 2, 4])
    @pytest.mark.parametrize(
        "option,message",
        [({"anchor_rule": "bogus"}, "anchor rule must be one of"),
         ({"tie_break": "bogus"}, "tie_break must be one of"),
         ({"workers": 0}, "workers must be positive")],
        ids=["anchor_rule", "tie_break", "workers"],
    )
    def test_bad_option_rejected_on_every_rank(self, k, option, message):
        # the edge ranks short-circuit to trivial, but not past the checks
        with pytest.raises(ValueError, match=message):
            identify(4, k, PT, **option)

    @pytest.mark.parametrize(
        "key,n,k",
        [(key, n, k) for n in range(3, 6) for key in sorted(MONOIDS) for k in range(1, n - 1)]
        + [pytest.param(key, 6, k, marks=pytest.mark.slow)
           for key in sorted(MONOIDS) for k in range(1, 5)],
    )
    def test_raw_presentation_route_agrees(self, key, n, k):
        # the class presentation of the short-relator collapse presents the
        # raw group, so the raw route names it as the Tietze route does
        raw = identify(n, k, MONOIDS[key], simplify=False)
        simplified = cached_identify(key, n, k)
        for field in ("verdict", "order", "order_kind", "abelian_invariants", "hom_valid",
                      "image_order"):
            assert getattr(raw, field) == getattr(simplified, field), field
        assert raw.verdict == VERDICT_SYMMETRIC
        assert (raw.simplified_generators, raw.simplified_relators) == (
            raw.generators, sum(raw.relator_counts.values()))

    @pytest.mark.parametrize(
        "broken,hom_valid,diagnostic",
        [
            ("transposed", False, "sandwich homomorphism does not kill every relator"),
            ("trivial", True, "homomorphic image has order 1, expected 2"),
        ],
    )
    def test_broken_hom_is_undecided(self, monkeypatch, capsys, broken, hom_valid, diagnostic):
        from igmax import groupid
        from igmax.cli import main

        real_rees_hom = groupid.rees_hom

        def broken_rees_hom(grid, sys_, anchors_map):
            hom = real_rees_hom(grid, sys_, anchors_map)
            if broken == "transposed":
                return _transposed(hom, anchors_map)
            return {cell: perm_identity(grid.k) for cell in hom}

        monkeypatch.setattr(groupid, "rees_hom", broken_rees_hom)
        report = identify(4, 2, PT)
        assert report.verdict == VERDICT_UNDECIDED
        assert report.order == 2  # the coset enumeration alone cannot decide
        assert report.hom_valid is hom_valid
        assert report.diagnostics == [diagnostic]
        assert main(["identify", "--monoid", "pt", "--n", "4", "--k", "2"]) == 1
        assert capsys.readouterr().out == f"monoid=pt n=4 k=2: undecided: {diagnostic}\n"

    def test_false_simplified_relator_is_undecided(self, monkeypatch, capsys):
        # a Tietze result with a relator the group does not satisfy never certifies
        from igmax import groupid
        from igmax.cli import main

        real_tietze_simplify = groupid.tietze_simplify

        def with_false_relator(p):
            simp = real_tietze_simplify(p)
            return GroupPresentation(
                simp.generators, simp.relators + ((0,),), simp.provenance + ("tietze",)
            )

        monkeypatch.setattr(groupid, "tietze_simplify", with_false_relator)
        report = identify(4, 2, PT)
        assert (report.verdict, report.order, report.hom_valid) == (VERDICT_UNDECIDED, 1, True)
        assert report.diagnostics == ["order 1 differs from k! = 2"]
        assert main(["identify", "--monoid", "pt", "--n", "4", "--k", "2"]) == 1
        assert capsys.readouterr().out == (
            "monoid=pt n=4 k=2: undecided: order 1 differs from k! = 2\n"
        )

    @pytest.mark.parametrize("max_cosets", (DEFAULT_MAX_COSETS, 200))
    def test_chain_levels_are_capped(self, monkeypatch, max_cosets):
        # PT_6 k=4 simplifies to 3 generators: three levels, none overflowing
        calls = record_enumerations(monkeypatch)
        report = identify(6, 4, PT, max_cosets=max_cosets)
        assert (report.verdict, report.order) == (VERDICT_SYMMETRIC, 24)
        assert [c.max_cosets for c in calls] == [min(max_cosets, 50 * 24)] * 3
        assert [c.subgroup is None for c in calls] == [True, False, False]
        assert calls[-1].table.order == 24

    def test_chain_certifies_below_the_full_enumeration_cap(self):
        # HLT on T_5 k=3's simplified presentation defines 8 cosets, the chain
        # at most 3 per level; the raw route still runs HLT alone
        simplified = tietze_simplify(pipeline("t", 5, 3)[-1])
        assert todd_coxeter(simplified, max_cosets=5).status == OVERFLOW
        report = identify(5, 3, T, max_cosets=5)
        assert (report.verdict, report.order, report.diagnostics) == (VERDICT_SYMMETRIC, 6, [])
        assert identify(5, 3, T, max_cosets=5, simplify=False).verdict == VERDICT_UNDECIDED

    @pytest.mark.parametrize("factor", (2, 0))
    def test_chain_bound_other_than_k_factorial_is_not_taken(self, monkeypatch, factor):
        # a chain bound above k! (as on `STRICT`) or, impossibly, below it is
        # not the order: full HLT over the trivial subgroup runs last
        from igmax import groupid

        real_chain = groupid._subgroup_chain

        def scaled_chain(p, cap):
            table = real_chain(p, cap)
            return table._replace(subgroup_order=table.subgroup_order * factor)

        monkeypatch.setattr(groupid, "_subgroup_chain", scaled_chain)
        calls = record_enumerations(monkeypatch)
        report = identify(5, 3, T)
        assert (report.verdict, report.order) == (VERDICT_SYMMETRIC, 6)
        assert (calls[-1].max_cosets, calls[-1].subgroup) == (DEFAULT_MAX_COSETS, None)

    def test_no_chain_without_a_surjection(self, monkeypatch):
        from igmax import groupid

        monkeypatch.setattr(groupid, "verify_hom", lambda p, hom: False)
        calls = record_enumerations(monkeypatch)
        report = identify(6, 4, PT)
        assert (report.verdict, report.order) == (VERDICT_UNDECIDED, 24)
        assert [(c.max_cosets, c.subgroup) for c in calls] == [(DEFAULT_MAX_COSETS, None)]

    @pytest.mark.slow
    def test_t8_k6_chain_skips_its_free_product_level(self, monkeypatch):
        # the simplified presentation has 4 generators; level 0 presents C_3,
        # and the next generator completes only its own square, so the level
        # on two generators would be C_3 * C_2 and is skipped
        calls = record_enumerations(monkeypatch)
        report = identify(8, 6, T)
        assert (report.verdict, report.order) == (VERDICT_SYMMETRIC, 720)
        assert [(len(c.presentation.generators), len(c.presentation.relators),
                 c.table.status, c.table.order) for c in calls] == [
            (1, 1, COMPLETE, 3), (3, 5, OVERFLOW, None), (4, 114, COMPLETE, 720)]

    STAGES = {"grid", "schreier", "squares", "presentation"}

    @pytest.mark.parametrize(
        "n, k, simplify, stages",
        [
            (3, 0, True, {"grid"}),
            (4, 4, True, {"grid"}),
            (4, 3, True, STAGES | {"free_rank", "tietze"}),
            (4, 2, True, STAGES | {"tietze", "coset_enumeration", "abelian_invariants", "hom"}),
            (4, 2, False, STAGES | {"tietze", "coset_enumeration", "abelian_invariants", "hom"}),
        ],
    )
    def test_timing_keys(self, n, k, simplify, stages):
        assert identify(n, k, PT, simplify=simplify).timings.keys() == stages

    def test_simplification_runs_inside_the_traced_call(self, monkeypatch):
        # wrapped by module attribute, as the traced benchmark wraps it: the
        # call receives the raw presentation, so no simplification runs outside
        from igmax import groupid

        calls = {}

        def recording(name, fn):
            def wrapped(*args):
                out = fn(*args)
                calls.setdefault(name, []).append((args, out))
                return out

            return wrapped

        for name in ("build_presentation", "tietze_simplify"):
            monkeypatch.setattr(groupid, name, recording(name, getattr(groupid, name)))
        identify(6, 3, T)
        [(_, raw)] = calls["build_presentation"]
        [((received,), _)] = calls["tietze_simplify"]
        assert len(received.relators) == len(raw.relators)
        assert received is raw

    def test_raw_route_feeds_one_class_presentation_to_both_checks(self, monkeypatch):
        # wrapped by module attribute, as the traced benchmark wraps it; its
        # cross-check reads the simplified sizes off the build span when no
        # Tietze span exists, and the order off the enumeration span
        from igmax import groupid

        calls = {}

        def recording(name, fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls.setdefault(name, []).append((args, out))
                return out

            return wrapped

        for name in ("build_presentation", "tietze_simplify", "todd_coxeter",
                     "abelian_invariants"):
            monkeypatch.setattr(groupid, name, recording(name, getattr(groupid, name)))
        report = identify(6, 4, PT, simplify=False)
        [(_, raw)] = calls["build_presentation"]
        [((enumerated,), table)] = calls["todd_coxeter"]
        [((abelianized,), _)] = calls["abelian_invariants"]
        assert abelianized is enumerated
        assert "tietze_simplify" not in calls
        assert report.simplified_generators == len(raw.generators)
        assert report.simplified_relators == len(raw.relators)
        assert report.order == table.order == 24
        # the collapse leaves fewer generators than the raw presentation has
        assert len(enumerated.generators) < len(raw.generators)

    def test_full_matrix_up_to_n5(self):
        import math

        for key in ("pt", "t"):
            for n in range(3, 6):
                for k in range(1, n - 1):
                    report = cached_identify(key, n, k)
                    assert report.verdict == VERDICT_SYMMETRIC, (key, n, k)
                    assert report.order == math.factorial(k)
                    assert report.hom_valid is True
                    assert report.image_order == math.factorial(k)
                    expected_inv = [2] if k >= 2 else []
                    assert report.abelian_invariants == expected_inv


class TestFreeVerdictShape:
    """k = n-1: simplification leaves no relators on exactly the cycle-rank
    many generators, so the group is free of that rank."""

    @pytest.mark.parametrize(
        "key,n",
        [(key, n) for n in range(2, 7) for key in MONOIDS]
        + [pytest.param(key, 7, marks=pytest.mark.slow) for key in MONOIDS],
    )
    def test_rank_generators_and_no_relators(self, key, n):
        grid, _, _, _, raw = pipeline(key, n, n - 1)
        rank = free_rank(gh_graph(grid), grid.base)
        simp = tietze_simplify(raw)
        assert simp.relators == () and len(simp.generators) == rank
        report = cached_identify(key, n, n - 1)
        assert report.verdict == VERDICT_FREE and report.free_rank == rank
        assert report.abelian_invariants == [0] * rank
        assert (report.simplified_generators, report.simplified_relators) == (rank, 0)

    @pytest.mark.parametrize(
        "extra,counts", [("relator", "not 1 and 1"), ("generator", "not 2 and 0")]
    )
    def test_any_other_shape_is_structural_error(self, monkeypatch, extra, counts):
        from igmax import groupid

        real_tietze_simplify = groupid.tietze_simplify

        def padded(p):
            simp = real_tietze_simplify(p)
            if extra == "relator":
                return GroupPresentation(
                    simp.generators, simp.relators + ((0, 0),), simp.provenance + ("tietze",)
                )
            return GroupPresentation(simp.generators + ("Y",), simp.relators, simp.provenance)

        monkeypatch.setattr(groupid, "tietze_simplify", padded)
        with pytest.raises(StructuralError, match=f"cycle rank 1 .*{counts}"):
            identify(3, 2, PT)  # the cycle rank is 1


STAR_DIFFERENTIAL_CLASSES = (
    [(key, n, k) for key in sorted(MONOIDS) for n in range(3, 6) for k in range(1, n - 1)]
    + [(key, n, k) for key, n, k, _ in CORPUS_RUNS if n == 6]
    + [pytest.param(key, 7, k, marks=pytest.mark.slow)
       for key, k in (("t", 3), ("t", 4), ("t", 5), ("pt", 3), ("pt", 4), ("pt", 5))]
)


class TestStarDifferential:
    """identify on the star presentation against identify on the all-pairs
    one, which has a relator for every singular square: the star relators
    imply the others, so both decide alike."""

    @pytest.mark.parametrize("key,n,k", STAR_DIFFERENTIAL_CLASSES)
    def test_full_and_star_agree(self, monkeypatch, key, n, k):
        from igmax import groupid

        star = cached_identify(key, n, k)
        monkeypatch.setattr(groupid, "build_presentation", all_pairs_presentation)
        full = identify(n, k, MONOIDS[key])
        assert full.verdict == star.verdict == VERDICT_SYMMETRIC
        assert full.order == star.order == math.factorial(k)
        assert full.image_order == star.image_order
        assert full.hom_valid is star.hom_valid is True
        assert full.abelian_invariants == star.abelian_invariants
        assert full.generators == star.generators
        assert star.relator_counts["type3"] <= full.relator_counts["type3"]


class TestIdempotentClosure:
    def test_pt3_closure_is_everything_but_nonidentity_permutations(self):
        closed = idempotent_closure(3, PT)
        expected = {
            m.entries
            for m in all_maps(3, PT)
            if not (m.is_total and m.rank() == 3 and m != PartialMap.identity(3))
        }
        assert set(closed) == expected

    def test_t3_closure_is_singulars_plus_identity(self):
        closed = idempotent_closure(3, T)
        expected = {
            m.entries
            for m in all_maps(3, T)
            if m.rank() < 3 or m == PartialMap.identity(3)
        }
        assert set(closed) == expected


class TestPermGroupOrderRepeats:
    def test_repeated_and_identity_generators(self):
        s3 = [(1, 0, 2), (1, 2, 0)]
        gens = [perm_identity(3)] + s3 * 20 + [perm_identity(3)] * 5
        assert perm_group_order(gens) == 6
        assert perm_group_order(iter(gens)) == 6
        assert perm_group_order([perm_identity(5)] * 7) == 1
        assert perm_group_order([(1, 0, 2, 3)] * 3 + [(0, 1, 3, 2)] * 2) == 4

    @pytest.mark.parametrize("key,n,k", [("pt", 4, 2), ("t", 5, 3), ("pt", 5, 3)])
    def test_sandwich_images_with_and_without_repeats(self, key, n, k):
        grid, anchors_map, sys_, _, _ = pipeline(key, n, k)
        images = list(rees_hom(grid, sys_, anchors_map).values())
        assert len(set(images)) < len(images)
        assert perm_group_order(images) == perm_group_order(sorted(set(images)))


def _random_generator_lists(count: int = 200, seed: int = 1101):
    """Seeded generator lists in S_k, k <= 5, with repeats; most open with
    generators of a proper subgroup (a point stabiliser or a cyclic group)."""
    rng = random.Random(seed)

    def shuffled(points):
        points = list(points)
        rng.shuffle(points)
        return tuple(points)

    for _ in range(count):
        k = rng.randint(1, 5)
        style = rng.randrange(3)
        gens = []
        if style == 0 and k >= 2:
            gens += [shuffled(range(k - 1)) + (k - 1,) for _ in range(rng.randint(1, 3))]
        elif style == 1:
            g = shuffled(range(k))
            gens.append(g)
            for _ in range(rng.randint(0, 2)):
                gens.append(perm_compose(gens[-1], g))
        gens += [shuffled(range(k)) for _ in range(rng.randint(0 if gens else 1, 3))]
        for _ in range(rng.randint(0, 4)):
            gens.insert(rng.randint(0, len(gens)), rng.choice(gens))
        yield gens


RANDOM_GENERATOR_LISTS = list(_random_generator_lists())


class TestPermGroupOrderDifferential:
    """The incremental closure against closing over every generator at once."""

    @pytest.mark.parametrize("key,n,k", HOM_CLASSES)
    def test_hom_images_of_corpus_classes(self, key, n, k):
        grid, anchors_map, sys_, _, _ = pipeline(key, n, k)
        images = list(rees_hom(grid, sys_, anchors_map).values())
        assert perm_group_order(images) == reference_perm_group_order(images)

    def test_random_generator_lists(self):
        for gens in RANDOM_GENERATOR_LISTS:
            assert perm_group_order(gens) == reference_perm_group_order(gens), gens

    def test_random_lists_grow_past_their_first_generators(self):
        # re-closing runs: the first generator spans a proper subgroup
        grows = [
            gens for gens in RANDOM_GENERATOR_LISTS
            if reference_perm_group_order(gens[:1]) < reference_perm_group_order(gens)
        ]
        assert len(grows) >= 50
        assert sum(len(set(gens)) < len(gens) for gens in RANDOM_GENERATOR_LISTS) >= 100


def _cycle(k: int, points) -> tuple[int, ...]:
    """The permutation of degree k cycling `points` in order, fixing the rest."""
    perm = list(range(k))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a] = b
    return tuple(perm)


def _named_groups():
    """(name, generators, order) for the groups the early exit is checked on."""
    for k in range(2, 7):
        yield f"S_{k}", [_cycle(k, [0, 1]), _cycle(k, list(range(k)))], math.factorial(k)
    for k in range(3, 7):
        yield f"A_{k}", [_cycle(k, [0, 1, j]) for j in range(2, k)], math.factorial(k) // 2
    # the symmetries of a hexagon: a rotation and a reflection
    yield "D_6", [_cycle(6, list(range(6))), tuple(-x % 6 for x in range(6))], 12
    yield "C_6", [perm_compose(_cycle(5, [0, 1]), _cycle(5, [2, 3, 4]))], 6
    yield "identity", [perm_identity(4)], 1
    yield "degree 1", [(0,)], 1
    yield "degree 1, repeated", [(0,)] * 3, 1
    rng = random.Random(4099)
    more = [tuple(rng.sample(range(5), 5)) for _ in range(50)]
    yield "S_5 then 50 more", [_cycle(5, [0, 1]), _cycle(5, list(range(5)))] + more, 120


NAMED_GROUPS = list(_named_groups())


class TestPermGroupOrderEarlyExit:
    """The closure that stops at d! elements against closing to the end."""

    @pytest.mark.parametrize("name,gens,order", NAMED_GROUPS, ids=[g[0] for g in NAMED_GROUPS])
    def test_matches_reference(self, name, gens, order):
        assert perm_group_order(gens) == reference_perm_group_order(gens) == order

    def test_stops_once_the_symmetric_group_is_full(self, monkeypatch):
        # closing S_5 to the end composes each of its 120 elements with both
        # generators; the early exit leaves the last elements found unvisited
        from igmax import groupid

        calls = []

        def counted(p, q):
            calls.append(None)
            return perm_compose(p, q)

        monkeypatch.setattr(groupid, "perm_compose", counted)
        name, gens, order = NAMED_GROUPS[-1]
        assert perm_group_order(gens) == order
        assert len(calls) < 2 + 120 * 2


class TestSparseSmithNormalFormDifferential:
    """The sparse elimination against the dense reference on larger matrices.
    TestSparseUnitElimination covers the raw relation matrices for n <= 5."""

    @pytest.mark.slow
    @pytest.mark.parametrize("key,n,k", [(key, n, k) for key, n, k in HOM_CLASSES if n == 6])
    def test_raw_relation_matrices_of_corpus_classes(self, key, n, k):
        mat = relation_matrix(pipeline(key, n, k)[4])
        assert smith_normal_form(mat) == reference_smith_normal_form(mat)

    def test_random_sparse_matrices(self):
        rng = random.Random(3057)
        entries = (1, -1, 1, -1, 2, -2, 3)
        for _ in range(150):
            m = rng.randint(1, 30)
            n = rng.randint(1, 20)
            mat = [[0] * n for _ in range(m)]
            for row in mat:
                for j in rng.sample(range(n), rng.randint(0, min(n, 4))):
                    row[j] = rng.choice(entries)
            assert smith_normal_form(mat) == reference_smith_normal_form(mat), mat


class TestAbelianInvariantsOfRawPresentations:
    """abelian_invariants builds sparse rows itself; the dense reference
    elimination on the dense relation matrix must agree.  Every raw matrix
    of n <= 5 fits the dense reference."""

    @pytest.mark.parametrize("key", sorted(MONOIDS))
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6) for k in range(1, n)])
    def test_matches_dense_relation_matrix(self, key, n, k):
        pres = pipeline(key, n, k)[-1]
        diag = reference_smith_normal_form(relation_matrix(pres))
        inv = abelian_invariants(pres)
        assert inv.torsion == tuple(d for d in diag if d > 1)
        assert inv.free_rank == len(pres.generators) - len(diag)


def _all_classes(ns):
    return [(key, n, k) for n in ns for key in sorted(MONOIDS)
            for k in range(0 if key == "pt" else 1, n + 1)]


class TestAbelianInvariantsAgainstReference:
    """abelian_invariants of every raw presentation and of its Tietze
    simplification against the dense reference on the simplified relation
    matrix.  Tietze moves keep the group, so both abelianizations equal that
    one; the raw matrices of n = 6 (PT_6, k=2 is 2 595 x 1 215) are too large
    for the dense reference itself."""

    @pytest.mark.parametrize(
        "key,n,k",
        _all_classes(range(1, 7))
        + [pytest.param(*c, marks=pytest.mark.slow) for c in _all_classes([7])],
    )
    def test_raw_and_simplified_presentations(self, key, n, k):
        raw = build_stages(n, k, MONOIDS[key]).presentation
        simplified = tietze_simplify(raw)
        diag = reference_smith_normal_form(relation_matrix(simplified))
        expected = AbelianInvariants(
            torsion=tuple(d for d in diag if d > 1),
            free_rank=len(simplified.generators) - len(diag),
        )
        assert abelian_invariants(raw) == expected
        assert abelian_invariants(simplified) == expected
