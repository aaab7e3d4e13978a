"""The sparse-row coset enumeration against the dense-row one it replaced.

`todd_coxeter` keeps each coset row as a dict of its defined entries;
`reference_todd_coxeter` keeps every row as a list over all 2 * ngens
columns and enumerates the presentation as given, by plain HLT.  When some
relator has length 1, or 2 on two generators, `todd_coxeter` first collapses
the columns by the short-relator union-find and runs HLT on the collapsed
presentation, so its coset numbering may differ from the reference's on the
raw one.  Three checks, each as strong as the literal one it replaced:

- at every cap, the class columns of `todd_coxeter`'s table equal the
  reference's table on the presentation HLT scans, the collapsed one or,
  when no relator is short, such as every Tietze-simplified one, the
  presentation itself, with equal statuses;
- where the reference completes on the presentation itself, the two
  BFS-standardized tables are equal: a complete coset table of the trivial
  subgroup has exactly one standard form;
- every table is consistent: c.x = d exactly when d.x^-1 = c.
"""

import random

import pytest

from igmax.dclass import ANCHOR_RULES
from igmax.groupid import COMPLETE, todd_coxeter
from igmax.presentation import GroupPresentation, free_reduce, tietze_simplify
from igmax.schreier import TIE_BREAKS

from helpers import (
    MONOIDS,
    collapse_phase,
    letters,
    oracle_presentations,
    pipeline,
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


def standardized(table) -> list[list[int | None]]:
    """The rows renumbered in the order a BFS from coset 0 over the columns
    meets them; a complete table reaches every coset."""
    order = [0]
    number = {0: 0}
    for c in order:
        for d in table.table[c]:
            if d is not None and d not in number:
                number[d] = len(order)
                order.append(d)
    return [[None if d is None else number[d] for d in table.table[c]] for c in order]


def scanned(pres):
    """The presentation HLT enumerates, and the columns of pres it gives: the
    collapsed one when some relator has length 1, or 2 on two generators."""
    if not any(len(rel) == 1 or len(rel) == 2 and rel[0] >> 1 != rel[1] >> 1
               for rel in pres.relators):
        return pres, list(range(2 * len(pres.generators)))
    collapsed = collapse_phase(pres)
    index = {name: g for g, name in enumerate(pres.generators)}
    assert len(index) == len(pres.generators)
    return collapsed, [2 * index[name] + b for name in collapsed.generators for b in (0, 1)]


def assert_tables_agree(pres, caps=CAPS) -> None:
    scan, columns = scanned(pres)
    for cap in caps:
        got = todd_coxeter(pres, max_cosets=cap)
        want = reference_todd_coxeter(scan, max_cosets=cap)
        assert got.status == want.status, cap
        assert got.ngens == len(pres.generators)
        assert [[row[x] for x in columns] for row in got.table] == want.table, cap
        # overflowed tables are partial: the compaction and the write-back
        # must still renumber every entry onto a live row
        assert_consistent(got)
    want = reference_todd_coxeter(pres, max_cosets=caps[-1])
    if want.status == COMPLETE:
        assert got.status == COMPLETE
        assert standardized(got) == standardized(want)


class TestGridPresentations:
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("anchor_rule", ANCHOR_RULES)
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    @pytest.mark.parametrize("n,k", SQUEEZE_CLASSES)
    def test_raw_and_simplified(self, n, k, key, anchor_rule, tie_break):
        raw = pipeline(key, n, k, anchor_rule, tie_break)[-1]
        assert_tables_agree(raw)
        simp = tietze_simplify(raw)
        # HLT enumerates a simplified presentation as given, cap for cap
        assert scanned(simp)[0] is simp
        assert_tables_agree(simp)

    # raw n = 6 presentations, up to 1 280 generators at PT_6 k=3, which the
    # reference enumerates on every column
    @pytest.mark.parametrize("anchor_rule", ("lex", "lexmax"))
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_raw_n6(self, k, key, anchor_rule):
        assert_tables_agree(pipeline(key, 6, k, anchor_rule)[-1])

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
        ngens = 1 + max(g for rel in rels for g, _ in rel)
        pres = GroupPresentation(
            tuple("abc"[:ngens]), tuple(letters(r) for r in rels), tuple("type3" for _ in rels)
        )
        assert_tables_agree(pres)
        table = todd_coxeter(pres)
        assert table.order == order
        collapsed = collapse_phase(pres)
        cols = [list(col) for col in zip(*table.table)]
        if name == "all_killed":
            assert table.table == [[0] * 6]
            # the cap counts cosets on the class columns: none is defined
            assert todd_coxeter(pres, max_cosets=1) == table
        elif name == "sign_alias":
            assert cols[0] == cols[3] and cols[1] == cols[2]
        elif name == "kept_involution":
            assert letters([(0, 1)] * 2) in collapsed.relators
            assert cols[2] == cols[4]
        else:
            assert "c" not in collapsed.generators
            assert cols[4] == cols[5] == list(range(order))

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
