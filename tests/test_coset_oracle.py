"""The sparse-row coset enumeration against the dense-row one it replaced.

`todd_coxeter` keeps each coset row as a dict of its defined entries;
`reference_todd_coxeter` keeps every row as a list over all 2 * ngens
columns.  Both run the same HLT enumeration, so they must define the same
cosets in the same order: the compacted tables and the statuses are equal,
also when the coset cap stops the enumeration part way.
"""

import random

import pytest

from igmax.dclass import ANCHOR_RULES
from igmax.groupid import todd_coxeter
from igmax.presentation import GroupPresentation, free_reduce, tietze_simplify
from igmax.schreier import TIE_BREAKS

from helpers import MONOIDS, oracle_presentations, pipeline, reference_todd_coxeter

CAPS = (1, 10, 100, 1000, 10**6)
SQUEEZE_CLASSES = [(n, k) for n in range(2, 6) for k in range(1, n - 1)]


def assert_tables_agree(pres, caps=CAPS) -> None:
    for cap in caps:
        got = todd_coxeter(pres, max_cosets=cap)
        want = reference_todd_coxeter(pres, max_cosets=cap)
        assert got.status == want.status, cap
        assert got.ngens == want.ngens
        assert got.table == want.table, cap


class TestGridPresentations:
    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("anchor_rule", ANCHOR_RULES)
    @pytest.mark.parametrize("key", sorted(MONOIDS))
    @pytest.mark.parametrize("n,k", SQUEEZE_CLASSES)
    def test_raw_and_simplified(self, n, k, key, anchor_rule, tie_break):
        raw = pipeline(key, n, k, anchor_rule, tie_break)[-1]
        assert_tables_agree(raw)
        assert_tables_agree(tietze_simplify(raw))

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

    def test_random_presentations(self):
        # short random relators on two or three generators: many coincidences,
        # self-loops from relators such as a*b*a^-1, and overflow for the
        # infinite groups among them
        rng = random.Random(20261018)
        for _ in range(300):
            ngens = rng.choice((2, 3))
            rels = tuple(
                free_reduce(
                    tuple(
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
