"""The sparse-row coset enumeration against the dense-row one it replaced.

`todd_coxeter` keeps each coset row as a dict of its defined entries;
`reference_todd_coxeter` keeps every row as a list over all 2 * ngens
columns.  Both run the same HLT enumeration on the presentation they are
given, so they must define the same cosets in the same order: the
compacted tables and the statuses are equal, also when the coset cap stops
the enumeration part way.  The raw `identify` route enumerates the class
presentation of `collapse_short_relators`, so that one is checked as well.
"""

import math
import random

import pytest

from igmax.dclass import ANCHOR_RULES
from igmax.groupid import DEFAULT_MAX_COSETS, VERDICT_SYMMETRIC, identify, todd_coxeter
from igmax.presentation import (
    GroupPresentation,
    collapse_short_relators,
    free_reduce,
    tietze_simplify,
)
from igmax.schreier import TIE_BREAKS

from helpers import (
    MONOIDS,
    letters,
    oracle_presentations,
    pipeline,
    record_enumerations,
    reference_todd_coxeter,
)

CAPS = (1, 10, 100, 1000, 10**6)
SQUEEZE_CLASSES = [(n, k) for n in range(2, 6) for k in range(1, n - 1)]


def assert_consistent(table) -> None:
    """Every defined entry names a row, and c.x = d implies d.x^-1 = c."""
    rows = table.table
    for c, row in enumerate(rows):
        assert len(row) == 2 * table.ngens
        for x, d in enumerate(row):
            if d is not None:
                assert 0 <= d < len(rows), (c, x, d)
                assert rows[d][x ^ 1] == c, (c, x, d)


def assert_tables_agree(pres, caps=CAPS) -> None:
    for cap in caps:
        got = todd_coxeter(pres, max_cosets=cap)
        want = reference_todd_coxeter(pres, max_cosets=cap)
        assert got.status == want.status, cap
        assert got.ngens == want.ngens
        assert got.table == want.table, cap
        # overflowed tables are partial: the compaction must still renumber
        # every entry onto a live row
        assert_consistent(got)


class TestGridPresentations:
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("anchor_rule", ANCHOR_RULES)
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    @pytest.mark.parametrize("n,k", SQUEEZE_CLASSES)
    def test_raw_and_simplified(self, n, k, key, anchor_rule, tie_break):
        raw = pipeline(key, n, k, anchor_rule, tie_break)[-1]
        assert_tables_agree(raw)
        assert_tables_agree(collapse_short_relators(raw))
        assert_tables_agree(tietze_simplify(raw))

    # raw n = 6 presentations coincide almost every coset they define, up to
    # 1 280 generators at PT_6 k=3
    @pytest.mark.parametrize("anchor_rule", ("lex", "lexmax"))
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_raw_n6(self, k, key, anchor_rule):
        raw = pipeline(key, 6, k, anchor_rule)[-1]
        assert_tables_agree(raw)
        assert_tables_agree(collapse_short_relators(raw))

    @pytest.mark.slow
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    def test_raw_n6_k4(self, key):
        assert_tables_agree(pipeline(key, 6, 4)[-1])


class TestSmallPresentations:
    @pytest.mark.parametrize(
        "name,pres", [(name, pres) for name, pres, _, _, _ in oracle_presentations()]
    )
    def test_micro_suite(self, name, pres):
        assert_tables_agree(pres)

    @pytest.mark.parametrize(
        "name,rels,order",
        [
            # a = 1 kills a; then b a^-1 and c b become b and c, and kill them
            ("all_killed", [[(0, 1)], [(1, 1), (0, -1)], [(2, 1), (1, 1)]], 1),
            # a sign alias: a b = 1 makes a = b^-1
            ("sign_alias", [[(0, 1), (1, 1)], [(0, 1)] * 3], 3),
            # a a is on one generator, so it is kept while c b^-1 merges b and c
            ("kept_involution", [[(0, 1)] * 2, [(2, 1), (1, -1)], [(1, 1)] * 2,
                                 [(0, 1), (1, 1), (0, 1), (1, 1)]], 4),
            # a c b^-1 comes first and shortens to c only once the later a b^-1
            # has merged a and b, so c dies in the second round
            ("second_round", [[(0, 1), (2, 1), (1, -1)], [(0, 1), (1, -1)], [(0, 1)] * 5], 5),
        ],
    )
    def test_short_relator_edge_cases(self, name, rels, order):
        # the raw identify route: collapse, then enumerate the class presentation
        ngens = 1 + max(g for rel in rels for g, _ in rel)
        pres = GroupPresentation(
            tuple("abc"[:ngens]), tuple(letters(r) for r in rels), tuple("type3" for _ in rels)
        )
        collapsed = collapse_short_relators(pres)
        assert_tables_agree(pres)
        assert_tables_agree(collapsed)
        table = todd_coxeter(collapsed)
        assert table.order == todd_coxeter(pres).order == order
        if name == "all_killed":
            assert collapsed.generators == () and table.table == [[]]
            # the cap counts cosets on the class columns: none is defined
            assert todd_coxeter(collapsed, max_cosets=1) == table
        elif name == "sign_alias":
            # a = b^-1 leaves b alone, with a^3 rewritten to b^-3
            assert collapsed.generators == ("b",)
            assert collapsed.relators == ((1, 1, 1),)
        elif name == "kept_involution":
            assert collapsed.generators == ("a", "c")
            assert letters([(0, 1)] * 2) in collapsed.relators
        else:
            assert collapsed.generators == ("b",)
            assert collapsed.relators == ((0,) * 5,)

    def test_random_presentations(self):
        # short random relators on two or three generators: many coincidences,
        # self-loops from relators such as a*b*a^-1, and overflow for the
        # infinite groups among them
        rng = random.Random(20261018)
        for _ in range(300):
            ngens = rng.choice((2, 3))
            rels = tuple(
                free_reduce(
                    letters(
                        (rng.randrange(ngens), rng.choice((1, -1)))
                        for _ in range(rng.randint(1, 7))
                    )
                )
                for _ in range(rng.randint(1, 4))
            )
            pres = GroupPresentation(
                tuple(f"x{g}" for g in range(ngens)), rels, tuple("type3" for _ in rels)
            )
            assert_tables_agree(pres, caps=(1, 7, 60, 400))


# every symmetric class with n <= 7 under both anchor rules and tie-breaks;
# n = 8 under slow, with the defaults
CHAIN_CLASSES = [
    (key, n, k, anchor_rule, tie_break)
    for n in range(3, 8) for k in range(1, n - 1) for key in sorted(MONOIDS)
    for anchor_rule in ("lex", "lexmax") for tie_break in TIE_BREAKS
] + [pytest.param(key, 8, k, "lex", "least", marks=pytest.mark.slow)
     for k in range(1, 7) for key in sorted(MONOIDS)]


class TestSubgroupChain:
    """identify bounds the order along `_subgroup_chain` and runs the full
    HLT enumeration only when the chain fails.  On every symmetric class the
    chain must close, at exactly the full enumeration's order: a fallback
    would keep identify's output, so only the enumerations it made show it."""

    @pytest.mark.parametrize("key,n,k,anchor_rule,tie_break", CHAIN_CLASSES)
    def test_chain_closes_at_the_full_order(self, monkeypatch, key, n, k, anchor_rule, tie_break):
        from igmax import groupid

        simplified = []
        real_tietze = groupid.tietze_simplify

        def recording_tietze(p):
            simplified.append(real_tietze(p))
            return simplified[-1]

        monkeypatch.setattr(groupid, "tietze_simplify", recording_tietze)
        calls = record_enumerations(monkeypatch)
        report = identify(n, k, MONOIDS[key], anchor_rule=anchor_rule, tie_break=tie_break)
        order = math.factorial(k)
        assert (report.verdict, report.order) == (VERDICT_SYMMETRIC, order)
        assert [c.max_cosets for c in calls] == [min(DEFAULT_MAX_COSETS, 50 * order)] * len(calls)
        top = calls[-1].table
        assert (top.ngens, top.order) == (len(simplified[0].generators), order)
        assert reference_todd_coxeter(simplified[0]).order == order
