import random

import pytest

from igmax.cli import CORPUS_RUNS
from igmax.dclass import ANCHOR_RULES, anchors, build_grid
from igmax.errors import StructuralError
from igmax.groupid import (
    abelian_invariants,
    rees_hom,
    todd_coxeter,
    verified_schreier,
    verify_hom,
)
from igmax.presentation import (
    TYPE1,
    TYPE2,
    TYPE3,
    GHGraph,
    GroupPresentation,
    build_presentation,
    canonical_form,
    collapse_short_relators,
    cyclically_reduce,
    eliminate_partial_rows,
    free_rank,
    free_reduce,
    gh_graph,
    invert,
    presentation_to_json,
    tietze_simplify,
    to_dot,
    to_gap,
)
from igmax.ptrans import Monoid
from igmax.schreier import TIE_BREAKS, build_schreier
from igmax.squares import complete_to_singular_square, enumerate_singular_squares

from helpers import (
    all_pairs_pipeline,
    all_pairs_presentation,
    brute_idempotents,
    cached_identify,
    class_squares,
    letters,
    pipeline,
    reference_canonical_form,
    reference_eliminate_partial_rows,
    reference_tietze_simplify,
    square_cells,
    tietze_alone,
)

PT = Monoid.PARTIAL
T = Monoid.TOTAL


def make(gens, rels, tags=None, cells=None):
    tags = tags or tuple("type3" for _ in rels)
    return GroupPresentation(tuple(gens), tuple(rels), tuple(tags), cells)


class TestWordOps:
    def test_free_reduce(self):
        assert free_reduce(letters(((0, 1), (0, -1), (1, 1)))) == letters(((1, 1),))
        assert free_reduce(letters(((0, 1), (1, 1), (1, -1), (0, -1)))) == ()

    def test_cyclic_reduce(self):
        assert cyclically_reduce(letters(((0, -1), (1, 1), (0, 1)))) == letters(((1, 1),))

    def test_canonical_form_identifies_rotations_and_inverse(self):
        rel = letters(((0, -1), (1, 1), (2, -1), (3, 1)))
        forms = {canonical_form(rel[s:] + rel[:s]) for s in range(4)}
        forms.add(canonical_form(invert(rel)))
        assert len(forms) == 1

    def test_canonical_form_matches_all_rotations_on_random_words(self):
        # few generators repeat the least letter often; powers of a word tie
        # several rotations at the least one
        rng = random.Random(20261019)
        for _ in range(400):
            ngens = rng.randint(2, 5)
            word: list[int] = []
            for _ in range(rng.randint(1, 400)):
                x = rng.randrange(2 * ngens)
                while word and x == word[-1] ^ 1:
                    x = rng.randrange(2 * ngens)
                word.append(x)
            rel = tuple(word)
            for w in (rel, free_reduce(rel[: rng.randint(1, 20)] * rng.randint(2, 6))):
                assert canonical_form(w) == reference_canonical_form(w), w


CORPUS_CLASSES = [(mon, n, k) for mon, n, k, _ in CORPUS_RUNS if n <= 5]


class TestCanonicalFormOnEmittedRelators:
    """The keys Tietze and the partial-row rewrite dedup by, and the relators
    they emit, against the all-rotations form."""

    @pytest.fixture
    def keyed(self, monkeypatch):
        words = []

        def checked(rel):
            got = canonical_form(rel)
            assert got == reference_canonical_form(rel), rel
            words.append(rel)
            return got

        monkeypatch.setattr("igmax.presentation.canonical_form", checked)
        return words

    @pytest.mark.parametrize("key,n,k", [(key, n, k) for key, n, k, _ in CORPUS_RUNS])
    def test_tietze_simplify(self, keyed, key, n, k):
        raw = pipeline(key, n, k)[-1]
        out = tietze_simplify(raw)
        assert len(keyed) >= len(out.relators)
        for rel in out.relators:
            assert canonical_form(rel) == reference_canonical_form(rel), rel

    @pytest.mark.parametrize("key,n,k", [(key, n, k) for key, n, k, _ in CORPUS_RUNS
                                         if key == "pt" and 1 <= k < n])
    def test_eliminate_partial_rows(self, keyed, key, n, k):
        grid, _, _, classes, pres = pipeline(key, n, k)
        out = eliminate_partial_rows(pres, grid, classes)
        assert len(keyed) >= len(out.relators) > 0
        for rel in out.relators:
            assert canonical_form(rel) == reference_canonical_form(rel), rel


class TestBuildPresentation:
    def test_pt4_k2_counts(self):
        grid, _, _, _, pres = pipeline("pt", 4, 2)
        counts = pres.counts_by_type()
        assert len(pres.generators) == 54 == len(brute_idempotents(4, 2, PT))
        assert counts[TYPE1] == 25 == len(grid.rows)
        assert counts[TYPE2] == 5 == len(grid.cols) - 1
        assert counts[TYPE3] > 0

    def test_generator_names_match_cells(self):
        _, _, _, _, pres = pipeline("pt", 3, 2)
        for name, (i, c) in zip(pres.generators, pres.cells):
            assert name == f"X_{i + 1}_{c + 1}"

    def test_boundary_class_has_no_type3(self):
        _, _, _, _, pres = pipeline("pt", 3, 2)
        assert pres.counts_by_type()[TYPE3] == 0

    def test_type3_squares_revalidate(self):
        from igmax.squares import CASE_A, singularizes

        grid, _, _, classes, pres = pipeline("pt", 4, 2)
        assert pres.counts_by_type()[TYPE3] == sum(len(c.rows) - 1 for c in classes)
        for sq in class_squares(classes):
            cells = square_cells(grid, sq.rows, sq.cols)
            assert singularizes(sq.witness, cells) == CASE_A

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("anchor_rule", ANCHOR_RULES)
    @pytest.mark.parametrize("key,n,k", CORPUS_CLASSES)
    def test_relators_reduced_and_distinct(self, key, n, k, anchor_rule, tie_break):
        # build_presentation runs no dedup pass: this is the invariant it rests on
        grid, _, _, classes, pres = pipeline(key, n, k, anchor_rule, tie_break)
        seen = set()
        for rel in pres.relators:
            assert free_reduce(rel) == rel
            canon = canonical_form(rel)
            assert canon not in seen
            seen.add(canon)
        counts = pres.counts_by_type()
        assert counts[TYPE1] == len(grid.rows)
        assert counts[TYPE2] == len(grid.cols) - 1
        assert counts[TYPE3] == sum(len(c.rows) - 1 for c in classes)

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("key,n,k", CORPUS_CLASSES)
    def test_type2_relators_match_the_column_scan(self, key, n, k, tie_break):
        # the parent column is looked up by its word; the scan tries every column
        grid, _, sys_, _, pres = pipeline(key, n, k, tie_break=tie_break)
        letter = {cell: 2 * g for g, cell in enumerate(pres.cells)}
        want = []
        for mu in range(len(grid.cols)):
            w = sys_.r[mu]
            if not w or w[-1][1] != mu or w[-1] not in grid.group_cells:
                continue
            i = w[-1][0]
            for lam in range(len(grid.cols)):
                if lam != mu and sys_.r[lam] == w[:-1] and (i, lam) in grid.group_cells:
                    want.append((letter[(i, lam)], letter[(i, mu)] ^ 1))
        got = [rel for rel, tag in zip(pres.relators, pres.provenance) if tag == TYPE2]
        assert got == want

    def test_validation(self):
        with pytest.raises(ValueError):
            make(["a"], [letters(((0, 1), (0, -1)))])  # not freely reduced
        with pytest.raises(ValueError):
            make(["a"], [letters(((1, 1),))])  # unknown generator
        with pytest.raises(ValueError):
            GroupPresentation(("a",), (letters(((0, 1),)),), ())  # missing provenance
        with pytest.raises(ValueError):
            make(["a"], [((0, 1),)])  # a (generator, exponent) pair is no letter
        with pytest.raises(ValueError):
            make(["a"], [(-1,)])  # negative letter
        with pytest.raises(ValueError):
            make(["a", "b"], [(4,)])  # letter 2 * ngens
        # equal to a letter but no int: 1.0 == 1, True == 1, and 1.0 ^ 1 raises
        for rel in [(1.0,), (True,), (1.0, 0)]:
            with pytest.raises(ValueError):
                make(["a"], [rel])


class TestGHGraph:
    def test_tree_has_rank_zero(self):
        g = GHGraph(2, 2, ((0, 0), (0, 1), (1, 1)))
        assert free_rank(g, (0, 0)) == 0

    def test_pt3_k2_rank_one(self):
        grid, _, _, _, _ = pipeline("pt", 3, 2)
        g = gh_graph(grid)
        assert (g.n_rows, g.n_cols, len(g.edges)) == (6, 3, 9)
        assert free_rank(g, grid.base) == 1

    def test_disconnected_component_counted_alone(self):
        g = GHGraph(3, 3, ((0, 0), (1, 0), (0, 1), (1, 1), (2, 2)))
        assert free_rank(g, (0, 0)) == 1  # 4 edges, 4 vertices
        assert free_rank(g, (2, 2)) == 0

    def test_root_must_be_edge(self):
        g = GHGraph(2, 2, ((0, 0),))
        with pytest.raises(ValueError):
            free_rank(g, (1, 1))

    def test_rank_matches_type12_abelianization(self):
        for key, n, k in [("pt", 4, 3), ("pt", 4, 2), ("t", 5, 3)]:
            grid, _, _, _, pres = pipeline(key, n, k)
            rels = tuple(
                r for r, t in zip(pres.relators, pres.provenance) if t in (TYPE1, TYPE2)
            )
            tags = tuple(t for t in pres.provenance if t in (TYPE1, TYPE2))
            p12 = GroupPresentation(pres.generators, rels, tags, pres.cells)
            inv = abelian_invariants(p12)
            assert inv.torsion == ()
            assert inv.free_rank == free_rank(gh_graph(grid), grid.base)


class TestTietze:
    def test_single_generator_killed(self):
        p = make(["x"], [letters(((0, 1),))], ("type1",))
        simp = tietze_simplify(p)
        assert simp.generators == () and simp.relators == ()

    def test_forced_eliminations_pt4_k2(self):
        _, _, _, _, pres = pipeline("pt", 4, 2)
        rels = tuple(
            r for r, t in zip(pres.relators, pres.provenance) if t in (TYPE1, TYPE2)
        )
        tags = tuple(t for t in pres.provenance if t in (TYPE1, TYPE2))
        p12 = GroupPresentation(pres.generators, rels, tags, pres.cells)
        simp = tietze_simplify(p12)
        assert len(simp.generators) == 54 - (25 + 6 - 1) == 24
        assert simp.relators == ()

    def test_invariants_preserved_on_random_presentations(self):
        rng = random.Random(13)
        for _ in range(50):
            ngens = rng.randint(1, 5)
            rels = []
            for _ in range(rng.randint(0, 6)):
                length = rng.randint(1, 6)
                rel = letters(
                    (rng.randrange(ngens), rng.choice((1, -1))) for _ in range(length)
                )
                rel = free_reduce(rel)
                if rel:
                    rels.append(rel)
            p = make([f"g{i}" for i in range(ngens)], rels)
            assert abelian_invariants(p) == abelian_invariants(tietze_simplify(p))
            assert tietze_simplify(p) == reference_tietze_simplify(collapse_short_relators(p))
            assert tietze_alone(p) == reference_tietze_simplify(p)

    def test_simplified_group_order_unchanged(self):
        _, _, _, _, pres = pipeline("t", 4, 2)
        simp = tietze_simplify(pres)
        assert todd_coxeter(simp).order == todd_coxeter(pres).order == 2


SMALL_CLASSES = [
    (key, n, k) for n in range(2, 6) for k in range(1, n) for key in ("pt", "t")
]


class TestTietzeDifferential:
    @pytest.mark.parametrize(
        "key,n,k",
        SMALL_CLASSES + [pytest.param(key, 6, k, marks=pytest.mark.slow)
                         for key, k in [("t", 3), ("pt", 4)]],
    )
    def test_matches_full_rescan_oracle(self, key, n, k):
        grid, _, _, classes, _ = pipeline(key, n, k)
        seen = set()  # on total grids "two-step" picks the same anchors as "lex"
        for rule in ANCHOR_RULES:
            anchors_map = anchors(grid, rule)
            for tie in TIE_BREAKS:
                pres = build_presentation(grid, build_schreier(grid, tie), anchors_map, classes)
                if pres in seen:
                    continue
                seen.add(pres)
                # the elimination runs on the union-find phase's survivors
                got = tietze_simplify(pres)
                want = reference_tietze_simplify(collapse_short_relators(pres))
                assert got == want, (rule, tie)
                assert to_gap(got) == to_gap(want), (rule, tie)
                # and, on its own, on the raw relators
                assert tietze_alone(pres) == reference_tietze_simplify(pres), (rule, tie)


def assert_collapsed(p: GroupPresentation) -> None:
    """No relator of length 1, none of length 2 on two generators, no duplicate."""
    canons = set()
    for rel in p.relators:
        assert len(rel) > 2 or (len(rel) == 2 and rel[0] >> 1 == rel[1] >> 1), rel
        canons.add(canonical_form(rel))
    assert len(canons) == len(p.relators)


class TestCollapseShortRelators:
    def test_empty_presentation(self):
        assert collapse_short_relators(make([], [])) == make([], [])

    def test_nothing_short_is_only_deduplicated(self):
        abc = letters(((0, 1), (1, 1), (2, 1)))
        bca = letters(((1, 1), (2, 1), (0, 1)))
        a3 = (0, 0, 0)
        cells = ((0, 0), (0, 1), (1, 1))
        p = make("abc", [abc, a3, bca, invert(abc)], ("type3", "type2", "type1", "type3"), cells)
        assert collapse_short_relators(p) == make("abc", [abc, a3], ("type3", "type2"), cells)

    def test_square_is_kept(self):
        p = make("x", [(0, 0)], ("type1",))
        assert collapse_short_relators(p) == p

    def test_both_signs_leave_a_square(self):
        # a = b and a = b^-1: b is the root, and the second relator becomes b^2
        p = make("ab", [letters(((0, 1), (1, -1))), letters(((0, 1), (1, 1)))])
        assert collapse_short_relators(p) == make("b", [(0, 0)], ("tietze",))

    def test_chain_keeps_the_sign(self):
        # a = b and b = c^-1, so a^3 = c^-3 with c renumbered to generator 0
        rels = [letters(((0, 1), (1, -1))), letters(((1, 1), (2, 1))), (0, 0, 0)]
        p = make("abc", rels, cells=((0, 0), (0, 1), (0, 2)))
        assert collapse_short_relators(p) == make("c", [(1, 1, 1)], ("tietze",), ((0, 2),))

    def test_kill_propagates_through_a_linked_class(self):
        # a = b = c, and killing a kills the class after a d^3 was rewritten
        rels = [
            letters(((0, 1), (1, -1))),
            letters(((0, 1), (3, 1), (3, 1), (3, 1))),
            letters(((1, 1), (2, -1))),
            letters(((0, -1),)),
        ]
        p = make("abcd", rels, cells=((0, 0), (0, 1), (0, 2), (1, 0)))
        assert collapse_short_relators(p) == make("d", [(0, 0, 0)], ("tietze",), ((1, 0),))

    def test_invariants_preserved_on_random_presentations(self):
        rng = random.Random(29)
        for _ in range(200):
            ngens = rng.randint(1, 6)
            rels = []
            for _ in range(rng.randint(0, 8)):
                rel = free_reduce(letters(
                    (rng.randrange(ngens), rng.choice((1, -1)))
                    for _ in range(rng.randint(1, 4))
                ))
                if rel:
                    rels.append(rel)
            p = make([f"g{i}" for i in range(ngens)], rels)
            out = collapse_short_relators(p)
            assert_collapsed(out)
            assert abelian_invariants(out) == abelian_invariants(p)

    @pytest.mark.parametrize(
        "key,n,k",
        SMALL_CLASSES + [pytest.param(key, n, k, marks=pytest.mark.slow)
                         for key, n, k, _ in CORPUS_RUNS if n == 6],
    )
    def test_matches_tietze_on_every_pair(self, key, n, k):
        # n <= 5 runs every anchor rule and tie-break; n = 6 only the default.
        # Each runs on the all-pairs presentation and on the star one.  Tietze
        # keeps the same generators on every n <= 5 run.  At T_6 k=4 it keeps
        # others, which depend on which of two duplicate relators Tietze's own
        # dedup happened to keep: as many on the all-pairs presentation, fewer
        # on the star one (2 against 3 on the default run).
        grid, _, _, classes, _ = pipeline(key, n, k)
        pairs = [(r, t) for r in ANCHOR_RULES for t in TIE_BREAKS]
        if n > 5:
            pairs = [("lex", "least")]
        for rule, tie in pairs:
            anchors_map = anchors(grid, rule)
            sys_ = build_schreier(grid, tie)
            for name, raw in (
                ("all_pairs", all_pairs_presentation(grid, sys_, anchors_map)),
                ("star", build_presentation(grid, sys_, anchors_map, classes)),
            ):
                where = (rule, tie, name)
                out = collapse_short_relators(raw)
                assert_collapsed(out)
                simp = tietze_simplify(raw)
                # the phases in one call equal the elimination run on the phase's output
                assert simp == tietze_alone(out), where
                got, want = simp.cells, tietze_alone(raw).cells
                if name == "all_pairs" or (key, n, k) != ("t", 6, 4):
                    assert len(got) == len(want), where
                if (key, n, k) != ("t", 6, 4):
                    assert got == want, where
                assert abelian_invariants(out) == abelian_invariants(raw), where
                if k <= n - 2:
                    assert todd_coxeter(out).order == todd_coxeter(raw).order, where
                    assert verify_hom(out, rees_hom(grid, sys_, anchors_map)), where


STAR_CLASSES = [(key, n, k) for key, n, k, _ in CORPUS_RUNS if n <= 5 and 1 <= k <= n - 2] + [
    pytest.param(key, n, k, marks=pytest.mark.slow) for key, n, k, _ in CORPUS_RUNS if n == 6
]


class TestStarRelators:
    """With Q_r = X_{r,lam}^-1 X_{r,mu}, the square on rows i and j has the
    relator R(i, j) = Q_i Q_j^-1, so every pair the star drops follows from
    two star relators: R(r0, i)^-1 R(r0, j) freely reduces to R(i, j)."""

    @pytest.mark.parametrize("key,n,k", STAR_CLASSES)
    def test_dropped_pairs_follow_from_the_star(self, key, n, k):
        _, _, _, classes, pres = pipeline(key, n, k)
        every = all_pairs_pipeline(key, n, k)[3]
        letter = {cell: 2 * g for g, cell in enumerate(pres.cells)}

        def relator(i, j, cols):
            lam, mu = cols
            return (letter[(i, lam)] ^ 1, letter[(i, mu)], letter[(j, mu)] ^ 1, letter[(j, lam)])

        star = sorted(((c.rows[0], j), c.cols) for c in classes for j in c.rows[1:])
        type3 = [rel for rel, tag in zip(pres.relators, pres.provenance) if tag == TYPE3]
        assert type3 == [relator(*rows, cols) for rows, cols in star]
        root = {(j, c.cols): c.rows[0] for c in classes for j in c.rows}
        kept = set(star)
        dropped = 0
        for (i, j), cols, _ in every:
            if ((i, j), cols) in kept:
                continue
            r0 = root[(i, cols)]
            assert root[(j, cols)] == r0 < i
            got = free_reduce(invert(relator(r0, i, cols)) + relator(r0, j, cols))
            assert got == relator(i, j, cols), ((i, j), cols)
            dropped += 1
        assert dropped == len(every) - len(star)


class TestEliminatePartialRows:
    def test_pt4_k2_survivors(self):
        grid, _, _, classes, pres = pipeline("pt", 4, 2)
        out = eliminate_partial_rows(pres, grid, classes)
        assert len(out.generators) == 24
        total = set(grid.total_rows())
        assert all(cell[0] in total for cell in out.cells)

    def test_pt5_k3_survivors(self):
        grid, _, _, classes, pres = pipeline("pt", 5, 3)
        out = eliminate_partial_rows(pres, grid, classes)
        assert len(out.generators) == 90  # C(5,3) * 3^2 total idempotents
        assert len(out.generators) == len(brute_idempotents(5, 3, T))

    def test_group_order_preserved(self):
        grid, _, _, classes, pres = pipeline("pt", 4, 2)
        out = eliminate_partial_rows(pres, grid, classes)
        assert todd_coxeter(pres).order == todd_coxeter(out).order == 2

    def test_missing_square_is_structural_error(self):
        grid, _, _, classes, pres = pipeline("pt", 4, 2)
        with pytest.raises(StructuralError):
            eliminate_partial_rows(pres, grid, ())

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3)])
    def test_split_bucket_is_structural_error(self, n, k):
        # dropping a partial row of a completion square from its class splits
        # the class, so that square is no longer known
        grid, anchors_map, _, classes, pres = pipeline("pt", n, k)
        total = set(grid.total_rows())
        dropped = set()
        for i, lam_i in anchors_map.items():
            if i in total:
                continue
            for lam in grid.cells_in_row[i]:
                if lam == lam_i:
                    continue
                alpha_t, _, _ = complete_to_singular_square(grid.cell(i, lam_i), grid.cell(i, lam))
                j = grid.row_of[alpha_t.kernel()]
                cols = (min(lam_i, lam), max(lam_i, lam))
                idx = next(idx for idx, c in enumerate(classes) if c.cols == cols and i in c.rows)
                assert j in classes[idx].rows
                if (idx, i) in dropped:
                    continue
                dropped.add((idx, i))
                split = classes[idx]._replace(rows=tuple(r for r in classes[idx].rows if r != i))
                with pytest.raises(StructuralError, match="no singular square eliminates generator"):
                    eliminate_partial_rows(pres, grid, classes[:idx] + (split,) + classes[idx + 1 :])
        assert dropped

    def test_requires_partial_grid(self):
        grid, _, _, classes, pres = pipeline("t", 4, 2)
        with pytest.raises(ValueError):
            eliminate_partial_rows(pres, grid, classes)


# every PT_n class with 3 <= n <= 6 and 1 <= k <= n-2; PT_7 k=3..5 under slow
ELIMINATION_CLASSES = [(n, k) for n in range(3, 7) for k in range(1, n - 1)] + [
    pytest.param(7, k, marks=pytest.mark.slow) for k in (3, 4, 5)
]


class TestEliminatePartialRowsDifferential:
    """One completion per partial row against one per generator."""

    @pytest.mark.parametrize("n,k", ELIMINATION_CLASSES)
    def test_matches_per_generator_oracle(self, n, k):
        grid = build_grid(n, k, PT)
        classes = enumerate_singular_squares(grid)
        checked = set()  # "two-step" builds what "lex" builds; check each once
        for tie_break in TIE_BREAKS:
            sys_ = verified_schreier(grid, tie_break)
            for rule in ANCHOR_RULES:
                pres = build_presentation(grid, sys_, anchors(grid, rule), classes)
                if pres in checked:
                    continue
                checked.add(pres)
                got = eliminate_partial_rows(pres, grid, classes)
                assert got == reference_eliminate_partial_rows(pres, grid, classes), (rule, tie_break)


class TestInvariance:
    @pytest.mark.parametrize("key,n,k", [("pt", 4, 2), ("t", 4, 2), ("pt", 4, 1)])
    def test_anchor_and_tie_break_choices_do_not_change_group(self, key, n, k):
        base = cached_identify(key, n, k)
        for anchor_rule, tie in [("lexmax", "least"), ("lex", "greatest"),
                                 ("two-step", "least"), ("lexmax", "greatest")]:
            other = cached_identify(key, n, k, anchor_rule, tie)
            assert other.order == base.order
            assert other.abelian_invariants == base.abelian_invariants
            assert other.verdict == base.verdict


CONTAINMENT_CLASSES = [
    pytest.param(n, k, marks=pytest.mark.slow if n == 7 else ())
    for n in range(2, 8)
    for k in range(1, n)
]


class TestTotalPartialContainment:
    """The paper's containment: T_n's raw presentation is a literal
    sub-presentation of PT_n's, since the total rows come first."""

    @pytest.mark.parametrize("anchor_rule", ["lex", "lexmax"])
    @pytest.mark.parametrize("n,k", CONTAINMENT_CLASSES)
    def test_total_presentation_is_a_sub_presentation(self, n, k, anchor_rule):
        pres_t = pipeline("t", n, k, anchor_rule).presentation
        pres_pt = pipeline("pt", n, k, anchor_rule).presentation
        m = len(pres_t.generators)
        assert (pres_pt.generators[:m], pres_pt.cells[:m]) == (pres_t.generators, pres_t.cells)
        pt_rels = set(zip(pres_pt.relators, pres_pt.provenance))
        assert [r for r in zip(pres_t.relators, pres_t.provenance) if r not in pt_rels] == []


class TestExports:
    def test_gap_export_shape(self):
        _, _, _, _, pres = pipeline("pt", 3, 2)
        text = to_gap(pres)
        assert text.startswith("F := FreeGroup(")
        assert "G := F / rels;" in text
        assert text.count("F.") >= len(pres.relators)

    def test_dot_export_shape(self):
        grid, _, _, _, _ = pipeline("pt", 3, 2)
        text = to_dot(gh_graph(grid))
        assert text.startswith("graph gh {")
        assert text.count(" -- ") == 9

    def test_json_export_round_trips_names(self):
        _, _, _, _, pres = pipeline("pt", 3, 2)
        data = presentation_to_json(pres)
        assert data["generators"] == list(pres.generators)
        assert data["counts"][TYPE1] == 6
        for rel in data["relators"]:
            for name, exp in rel:
                assert name in data["generators"]
                assert exp in (1, -1)
