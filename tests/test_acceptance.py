"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add -rA to see the PASS lines
of passing criteria).
"""

import math
import time

import pytest

from igmax.dclass import build_grid, enumerate_idempotents
from igmax.groupid import (
    COMPLETE,
    OVERFLOW,
    VERDICT_FREE,
    VERDICT_SYMMETRIC,
    VERDICT_TRIVIAL,
    abelian_invariants,
    identify,
    perm_compose,
    perm_group_order,
    perm_identity,
    perm_inverse,
    todd_coxeter,
)
from igmax.presentation import TYPE3, free_rank, gh_graph
from igmax.ptrans import Monoid, PartialMap, compose
from igmax.schreier import build_schreier, verify_schreier
from igmax.squares import enumerate_singular_squares, group_square_candidates

from helpers import (
    CASE_A,
    all_maps,
    cached_identify,
    complete_to_singular_square,
    idempotent_closure,
    minor_gcd_invariants,
    oracle_presentations,
    pipeline,
    singularizes,
    square_cells,
)

PT = Monoid.PARTIAL
T = Monoid.TOTAL

MAIN_RUNS = [(4, 2), (5, 2), (5, 3), (6, 4)]
BUDGET_SECONDS = {(5, 3): 60.0, (6, 4): 600.0}


def report_line(num, text):
    print(f"PASS criterion {num}: {text}")


@pytest.mark.slow
def test_criterion_01_symmetric_verdicts_partial():
    for n, k in MAIN_RUNS:
        start = time.perf_counter()
        report = cached_identify("pt", n, k)
        elapsed = time.perf_counter() - start
        assert report.verdict == VERDICT_SYMMETRIC, (n, k, report.diagnostics)
        assert report.order == math.factorial(k), (n, k)
        budget = BUDGET_SECONDS.get((n, k))
        if budget is not None:
            assert elapsed < budget, f"(pt,{n},{k}) took {elapsed:.1f}s, budget {budget}s"
    report_line(1, "identify(PT) returns symmetric_k with order k! on all four runs")


@pytest.mark.slow
def test_criterion_02_symmetric_verdicts_total():
    for n, k in MAIN_RUNS:
        report = cached_identify("t", n, k)
        assert report.verdict == VERDICT_SYMMETRIC, (n, k, report.diagnostics)
        assert report.order == math.factorial(k), (n, k)
    report_line(2, "identify(T) returns symmetric_k with order k! on all four runs")


def test_criterion_03_boundary_free():
    for n, k in [(3, 2), (4, 3)]:
        grid = build_grid(n, k, PT)
        assert group_square_candidates(grid) == [], (n, k)
        _, _, _, classes, pres = pipeline("pt", n, k)
        assert classes == ()
        assert pres.counts_by_type()[TYPE3] == 0
        report = cached_identify("pt", n, k)
        assert report.verdict == VERDICT_FREE
        assert report.free_rank == free_rank(gh_graph(grid), grid.base)
    r32 = cached_identify("pt", 3, 2)
    assert r32.free_rank == 1
    inv = abelian_invariants(pipeline("pt", 3, 2)[4])
    assert inv.torsion == () and inv.free_rank == 1
    report_line(3, "k = n-1 classes are square-free and certify free_of_rank "
                   "(rank 1 for PT_3, abelianization cross-checked)")


def test_criterion_04_edge_ranks_trivial():
    for n in range(1, 6):
        for k in (0, n):
            report = identify(n, k, PT)
            assert report.verdict == VERDICT_TRIVIAL, (n, k)
            assert report.order == 1
    report_line(4, "(PT,n,0) and (PT,n,n) are trivial for n <= 5")


def _rectangular_band_law(maps):
    coords = {(m.kernel(), m.image()): m for m in maps}
    return all(
        compose(a, b) == coords[(a.kernel(), b.image())] for a in maps for b in maps
    )


def _case_a_holds(eps, e, f, g, h):
    return (
        compose(eps, e) == e and compose(eps, g) == g and compose(f, eps) == e
    )


def test_criterion_05_completion_suite():
    checked = 0
    for n, k in [(4, 2), (5, 2), (5, 3)]:
        by_kernel = {}
        for m in enumerate_idempotents(n, k, PT):
            if not m.is_total:
                by_kernel.setdefault(m.kernel(), []).append(m)
        for group in by_kernel.values():
            for alpha in group:
                for beta in group:
                    alpha_t, beta_t, eps = complete_to_singular_square(alpha, beta)
                    assert eps.is_idempotent() and eps.rank() >= k
                    assert _case_a_holds(eps, alpha, beta, alpha_t, beta_t)
                    assert _rectangular_band_law((alpha, beta, alpha_t, beta_t))
                    checked += 1
    # ordered pair counts: 54 for (4,2), 550 for (5,2), 130 for (5,3)
    assert checked == 54 + 550 + 130
    report_line(5, f"all {checked} R-related partial-domain pairs complete via case (a) "
                   "with the rectangular band law")


def test_criterion_06_total_squares_stay_singular():
    revalidated = 0
    for n in range(2, 6):
        for k in range(1, n):
            grid_t = build_grid(n, k, T)
            grid_pt = build_grid(n, k, PT)
            row_map = {i: grid_pt.row_of[kp] for i, kp in enumerate(grid_t.rows)}
            for c in enumerate_singular_squares(grid_t):
                for j in c.rows[1:]:
                    mapped = square_cells(grid_pt, (row_map[c.rows[0]], row_map[j]), c.cols)
                    assert singularizes(c.witness, mapped) == CASE_A
                    revalidated += 1
    assert revalidated > 0
    report_line(6, f"{revalidated} total-grid singular squares revalidate in the "
                   "partial grid with the same witness")


def test_criterion_07_lifted_schreier_systems():
    for n in range(2, 6):
        for k in range(1, n):
            grid_pt = build_grid(n, k, PT)
            sys_ = build_schreier(grid_pt)
            assert sys_ == build_schreier(build_grid(n, k, T)), (n, k)
            assert verify_schreier(grid_pt, sys_) == [], (n, k)
    report_line(7, "each partial grid's Schreier system is the total grid's and "
                   "verifies, n <= 5")


@pytest.mark.slow
def test_criterion_08_surjection_suite():
    for key in ("pt", "t"):
        for n, k in MAIN_RUNS:
            report = cached_identify(key, n, k)
            assert report.hom_valid is True, (key, n, k)
            assert report.image_order == math.factorial(k), (key, n, k)
    report_line(8, "the sandwich homomorphism kills every relator and surjects "
                   "onto S_k on all main runs")


def test_criterion_09_invariance_suite():
    for n, k in [(4, 2), (5, 2), (5, 3)]:
        base = cached_identify("pt", n, k)
        for anchor_rule, tie in [("two-step", "least"), ("lex", "greatest"),
                                 ("lexmax", "greatest")]:
            other = cached_identify("pt", n, k, anchor_rule, tie)
            assert other.order == base.order, (n, k, anchor_rule, tie)
            assert other.abelian_invariants == base.abelian_invariants
            assert other.verdict == base.verdict == VERDICT_SYMMETRIC
    report_line(9, "order and abelian invariants survive anchor-rule swaps and "
                   "reversed Schreier tie-breaking")


def test_criterion_10_generation_sanity():
    for n in range(1, 5):
        closed = idempotent_closure(n, PT)
        ident = PartialMap.identity(n)
        expected = {
            m.entries
            for m in all_maps(n, PT)
            if not (m.is_total and m.rank() == n and m != ident)
        }
        assert set(closed) == expected, n
    report_line(10, "idempotents of PT_n generate everything except the "
                    "non-identity permutations, n <= 4")


def _eval_perm_word(rel, gens):
    acc = perm_identity(len(gens[0]))
    for x in rel:
        g = x >> 1
        acc = perm_compose(acc, perm_inverse(gens[g]) if x & 1 else gens[g])
    return acc


def test_criterion_11_oracle_micro_suite():
    suite = oracle_presentations()
    assert len(suite) >= 10
    for name, pres, perms, order, invariants in suite:
        if perms is not None:
            for rel in pres.relators:
                assert _eval_perm_word(rel, perms) == perm_identity(len(perms[0])), name
            assert perm_group_order(perms) == order, name
        table = todd_coxeter(pres)
        assert table.status == COMPLETE and table.order == order, name
        inv = abelian_invariants(pres)
        assert inv.as_list() == invariants, name
        matrix = []
        for rel in pres.relators:
            row = [0] * len(pres.generators)
            for x in rel:
                row[x >> 1] += -1 if x & 1 else 1
            matrix.append(row)
        oracle = [d for d in minor_gcd_invariants(matrix) if d > 1]
        assert list(inv.torsion) == oracle, name
    # free presentations: enumeration cannot close, abelianization sees the rank
    for rank in (1, 2, 3):
        free = oracle_presentations()[0][1].__class__(
            tuple(f"g{i}" for i in range(rank)), (), ()
        )
        assert todd_coxeter(free, max_cosets=512).status == OVERFLOW
        inv = abelian_invariants(free)
        assert inv.torsion == () and inv.free_rank == rank
    report_line(11, "coset enumeration and abelian invariants match the "
                    "independent oracles on the fixed micro-suite")
