import itertools
import random

import pytest

from igmax.cli import CORPUS_RUNS
from igmax.dclass import build_grid, enumerate_idempotents
from igmax.errors import StructuralError
from igmax.ptrans import Monoid, PartialMap, compose
from igmax.squares import (
    _explicit_witness,
    _top_row_holds,
    enumerate_singular_squares,
    group_square_candidates,
    witness_pool,
)

from helpers import (
    CASE_A,
    CASE_B,
    MONOIDS,
    _PointwiseTest,
    _SquareScan,
    _singular_case,
    class_squares,
    complete_to_singular_square,
    pipeline,
    reference_enumerate_singular_squares,
    reference_top_row_holds,
    reference_witness,
    singularizes,
    square_cells,
)

PT = Monoid.PARTIAL
T = Monoid.TOTAL


def pm(text):
    return PartialMap.from_text(text)


def raw_case(eps, e, f, g, h):
    # direct evaluation of the defining equalities, independent of singularizes
    if compose(eps, e) == e and compose(eps, g) == g and compose(f, eps) == e:
        return CASE_A
    if compose(eps, g) == e and compose(e, eps) == e and compose(f, eps) == f:
        return CASE_B
    return None


# every class of the corpus with n <= 5 that has singular squares
SQUARE_CLASSES = [(mon, n, k) for mon, n, k, _ in CORPUS_RUNS if n <= 5 and 1 <= k <= n - 2]


class TestCompleteToSingularSquare:
    def test_worked_example(self):
        alpha = pm("[1,1,-]")
        beta = pm("[2,2,-]")
        alpha_t, beta_t, eps = complete_to_singular_square(alpha, beta)
        assert alpha_t == pm("[1,1,1]")
        assert beta_t == pm("[2,2,2]")
        assert eps == pm("[1,1,3]")
        assert singularizes(eps, (alpha, beta, alpha_t, beta_t)) == CASE_A

    def test_equal_inputs_degenerate_gracefully(self):
        alpha = pm("[1,1,-]")
        alpha_t, beta_t, eps = complete_to_singular_square(alpha, alpha)
        assert alpha_t == beta_t
        assert eps.is_idempotent()
        assert raw_case(eps, alpha, alpha, alpha_t, alpha_t) == CASE_A

    def test_exhaustive_n4_k2(self):
        partials = [
            m for m in enumerate_idempotents(4, 2, PT) if not m.is_total
        ]
        by_kernel = {}
        for m in partials:
            by_kernel.setdefault(m.kernel(), []).append(m)
        checked = 0
        for group in by_kernel.values():
            for alpha in group:
                for beta in group:
                    alpha_t, beta_t, eps = complete_to_singular_square(alpha, beta)
                    assert raw_case(eps, alpha, beta, alpha_t, beta_t) == CASE_A
                    checked += 1
        assert checked > 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            complete_to_singular_square(pm("[1,1,3]"), pm("[1,1,3]"))  # total domain
        with pytest.raises(ValueError):
            complete_to_singular_square(pm("[1,1,-]"), pm("[3,3,-]"))  # not idempotent
        with pytest.raises(ValueError):
            complete_to_singular_square(pm("[1,-,-]"), pm("[-,2,-]"))  # different kernels

    def test_coverage_bottoms_out_in_total_rows(self):
        # completing any two group cells of a partial row lands in a total row
        for n in range(3, 6):
            for k in range(1, n - 1):
                grid = build_grid(n, k, PT)
                total = set(grid.total_rows())
                for i in range(len(grid.rows)):
                    if i in total:
                        continue
                    cells = grid.cells_in_row[i]
                    for lam, mu in itertools.combinations(cells, 2):
                        a_t, b_t, eps = complete_to_singular_square(
                            PartialMap(grid.cell(i, lam)), PartialMap(grid.cell(i, mu)))
                        j = grid.row_of[a_t.kernel()]
                        assert j in total
                        assert (j, lam) in grid.group_cells
                        assert (j, mu) in grid.group_cells


class TestSingularizes:
    def test_case_a_consequences_hold_on_completion_output(self):
        grid = build_grid(4, 2, PT)
        total = set(grid.total_rows())
        i = next(i for i in range(len(grid.rows))
                 if i not in total and len(grid.cells_in_row[i]) >= 2)
        lam, mu = grid.cells_in_row[i][:2]
        alpha, beta = PartialMap(grid.cell(i, lam)), PartialMap(grid.cell(i, mu))
        alpha_t, beta_t, eps = complete_to_singular_square(alpha, beta)
        assert singularizes(eps, (alpha, beta, alpha_t, beta_t)) == CASE_A

    def test_random_candidates_agree_with_direct_evaluation(self):
        rng = random.Random(77)
        grid = build_grid(4, 2, PT)
        pool = witness_pool(grid)
        cands = group_square_candidates(grid)
        nones = 0
        for _ in range(400):
            i, j, lam, mu = cands[rng.randrange(len(cands))]
            eps = pool[rng.randrange(len(pool))]
            cells = square_cells(grid, (i, j), (lam, mu))
            got = singularizes(eps, cells)
            assert got == raw_case(eps, *cells)
            nones += got is None
        assert nones > 200  # misses dominate for random picks

    def test_non_idempotent_candidate_rejected(self):
        grid = build_grid(4, 2, PT)
        i, j, lam, mu = group_square_candidates(grid)[0]
        with pytest.raises(ValueError):
            singularizes(pm("[2,1,3,4]"), square_cells(grid, (i, j), (lam, mu)))


class TestEnumerate:
    def test_boundary_class_has_no_squares(self):
        grid = build_grid(3, 2, PT)
        assert group_square_candidates(grid) == []
        assert enumerate_singular_squares(grid) == ()

    @pytest.mark.parametrize("key,n,k", SQUARE_CLASSES)
    def test_records_revalidate(self, key, n, k):
        # every pair of rows of a class, not only the star, with the class's witness
        grid, _, _, classes, _ = pipeline(key, n, k)
        assert classes
        squares = class_squares(classes)
        keys = set()
        for rows, cols, witness in squares:
            assert rows[0] < rows[1] and cols[0] < cols[1]
            keys.add((frozenset(rows), frozenset(cols)))
            cells = square_cells(grid, rows, cols)
            assert singularizes(witness, cells) == CASE_A
            assert raw_case(witness, *cells) == CASE_A
            assert witness.rank() >= k
        assert len(keys) == len(squares)  # once per unordered square

    def test_pt4_k2_nonempty_and_sound(self):
        grid, _, _, classes, _ = pipeline("pt", 4, 2)
        assert classes
        for sq in class_squares(classes):
            assert singularizes(sq.witness, square_cells(grid, sq.rows, sq.cols)) == CASE_A
            assert sq.witness.rank() >= 4 - 2

    def test_emitted_once_per_unordered_square(self):
        _, _, _, classes, _ = pipeline("pt", 4, 2)
        keys = [(frozenset(sq.rows), frozenset(sq.cols)) for sq in class_squares(classes)]
        assert len(keys) == len(set(keys))

    def test_non_idempotent_witness_is_a_structural_error(self, monkeypatch, capsys):
        from igmax import squares
        from igmax.cli import main

        def broken_witness(e, im_f):
            # the pointwise test still decides, but every hit gets a witness
            # that is not idempotent
            return tuple((x + 1) % len(e) for x in range(len(e)))

        monkeypatch.setattr(squares, "_explicit_witness", broken_witness)
        with pytest.raises(StructuralError, match="not idempotent"):
            enumerate_singular_squares(build_grid(4, 2, PT))
        assert main(["squares", "--monoid", "pt", "--n", "4", "--k", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not idempotent" in captured.err

    def test_total_singulars_also_singular_in_partial(self):
        # same witness revalidates after reindexing the rows into the larger grid
        for n in (4, 5):
            for k in range(1, n - 1):
                grid_t = build_grid(n, k, T)
                grid_pt = build_grid(n, k, PT)
                row_map = {i: grid_pt.row_of[kp] for i, kp in enumerate(grid_t.rows)}
                for sq in class_squares(enumerate_singular_squares(grid_t)):
                    cells = square_cells(grid_pt, tuple(row_map[r] for r in sq.rows), sq.cols)
                    assert cells == square_cells(grid_t, sq.rows, sq.cols)
                    assert singularizes(sq.witness, cells) == CASE_A

    def test_deterministic(self):
        grid = build_grid(4, 2, PT)
        assert enumerate_singular_squares(grid) == enumerate_singular_squares(grid)


SMALL_CLASSES = [
    (key, n, k) for key in sorted(MONOIDS) for n in range(2, 6) for k in range(1, n)
]
DIFFERENTIAL_CLASSES = SMALL_CLASSES + [pytest.param("t", 6, 3, marks=pytest.mark.slow),
                                        pytest.param("pt", 6, 2, marks=pytest.mark.slow)]


class TestPointwiseDifferential:
    """The pointwise test against the pool search it replaced: the same
    squares in the same orientations, each with the explicit witness."""

    @pytest.mark.parametrize("key,n,k", DIFFERENTIAL_CLASSES)
    def test_matches_pool_scan(self, key, n, k):
        # the pairs inside the classes are exactly the squares the pool scan
        # finds, in the scan's orientation and order
        grid = build_grid(n, k, MONOIDS[key])
        scan = _SquareScan(grid)
        hits = [scan.scan(cand) for cand in group_square_candidates(grid)]
        want = [(hit[0], hit[1]) for hit in hits if hit is not None]
        got = enumerate_singular_squares(grid)
        assert [(sq.rows, sq.cols) for sq in class_squares(got)] == want
        assert list(got) == sorted(got, key=lambda c: (c.cols, c.rows))
        for c in got:
            assert len(c.rows) >= 2 and list(c.rows) == sorted(c.rows)
            e, im_f = grid.cell(c.rows[0], c.cols[0]), grid.cols[c.cols[1]]
            eps = tuple(e[x] if x in im_f else x for x in range(n))
            assert c.witness.entries == eps
        for sq in class_squares(got):
            assert singularizes(sq.witness, square_cells(grid, sq.rows, sq.cols)) == CASE_A
        # equal witnesses are one shared map
        assert len({id(c.witness) for c in got}) == len({c.witness for c in got})

    @pytest.mark.parametrize("key,n,k", DIFFERENTIAL_CLASSES)
    def test_every_orientation_matches_singular_case(self, key, n, k):
        # the fast path accepts exactly the orientations in which the explicit
        # witness satisfies the full case-(a) check, and returns that witness
        grid = build_grid(n, k, MONOIDS[key])
        test = _PointwiseTest(grid)
        accepted = 0
        for i, j, lam, mu in group_square_candidates(grid):
            for rows, cols in itertools.product(((i, j), (j, i)), ((lam, mu), (mu, lam))):
                e, im_f = grid.cell(rows[0], cols[0]), grid.cols[cols[1]]
                eps = tuple(e[x] if x in im_f else x for x in range(n))
                cells = tuple(c.entries for c in square_cells(grid, rows, cols))
                want = _singular_case(eps, cells) == CASE_A
                got = test.witness(rows, cols)
                assert (got is not None) == want, (rows, cols)
                if got is not None:
                    assert got.entries == eps
                    accepted += 1
        assert accepted >= len(class_squares(enumerate_singular_squares(grid)))


ORIENTATION_CLASSES = DIFFERENTIAL_CLASSES + [pytest.param("pt", 7, 3, marks=pytest.mark.slow)]


def sigma(grid, r, lam, mu):
    """x.e_{r,lam} over x in cols[mu]: row r's matching of cols[mu] to cols[lam]."""
    e = grid.cell(r, lam)
    return tuple(e[x] for x in grid.cols[mu])


def witness_labels(squares):
    """The records' witnesses numbered by first occurrence of their id."""
    labels = {}
    return [labels.setdefault(id(sq.witness), len(labels)) for sq in squares]


class TestOrientationsAgree:
    """A square is singular in all four orientations or in none, exactly when
    its rows match the columns alike, so the column-pair buckets find every
    singular square in its first orientation."""

    @pytest.mark.parametrize("key,n,k", ORIENTATION_CLASSES)
    def test_four_orientations_agree_with_matchings(self, key, n, k):
        grid = build_grid(n, k, MONOIDS[key])
        test = _PointwiseTest(grid)
        for i, j, lam, mu in group_square_candidates(grid):
            verdicts = {
                test.witness(rows, cols) is not None
                for rows, cols in itertools.product(((i, j), (j, i)), ((lam, mu), (mu, lam)))
            }
            assert verdicts == {sigma(grid, i, lam, mu) == sigma(grid, j, lam, mu)}, (i, j, lam, mu)

    @pytest.mark.parametrize("key,n,k", ORIENTATION_CLASSES)
    def test_matches_four_orientation_loop(self, key, n, k):
        # the loop finds every pair of rows; the pairs inside the classes are
        # exactly those, each with the loop's witness, shared alike
        grid = build_grid(n, k, MONOIDS[key])
        every = reference_enumerate_singular_squares(grid)
        got = class_squares(enumerate_singular_squares(grid))
        assert got == list(every)
        assert witness_labels(got) == witness_labels(every)

    @pytest.mark.parametrize("key,n,k", ORIENTATION_CLASSES)
    def test_star_roots_are_least_rows(self, key, n, k):
        # each class lists its rows ascending from its root, and no row lies
        # in two classes of one column pair
        got = enumerate_singular_squares(build_grid(n, k, MONOIDS[key]))
        assert all(len(c.rows) >= 2 and c.rows[0] == min(c.rows) for c in got)
        assert all(list(c.rows) == sorted(set(c.rows)) for c in got)
        tied = {(r, c.cols) for c in got for r in c.rows}
        assert len(tied) == sum(len(c.rows) for c in got)


class TestTopRowLookups:
    """The top-row facts by lookups against full compositions, per triple
    (row, column pair) of every class with n <= 5.  The lookups also pin the
    witness's shape, so any other idempotent fails them."""

    @staticmethod
    def triples(grid):
        for i, row_cols in enumerate(grid.cells_in_row):
            for a, b in itertools.permutations(row_cols, 2):
                yield grid.cell(i, a), grid.cell(i, b), grid.cols[a], grid.cols[b]

    @pytest.mark.parametrize("key,n,k", SMALL_CLASSES)
    def test_explicit_witness(self, key, n, k):
        grid = build_grid(n, k, MONOIDS[key])
        for e, f, im_e, im_f in self.triples(grid):
            eps = _explicit_witness(e, im_f)
            assert eps == reference_witness(e, im_f)
            assert _top_row_holds(eps, e, f, im_e, im_f)
            assert reference_top_row_holds(eps, e, f, im_e)

    @pytest.mark.parametrize("key,n,k", [("pt", 4, 2), ("t", 4, 2), ("pt", 4, 1), ("pt", 3, 1)])
    def test_every_idempotent_of_the_pool(self, key, n, k):
        grid = build_grid(n, k, MONOIDS[key])
        pool = [m.entries for m in witness_pool(grid)]
        agree = 0
        for e, f, im_e, im_f in self.triples(grid):
            explicit = _explicit_witness(e, im_f)
            for eps in pool:
                want = eps == explicit and reference_top_row_holds(eps, e, f, im_e)
                assert _top_row_holds(eps, e, f, im_e, im_f) == want, (eps, e, f)
                agree += want
        assert agree  # the explicit witness is in the pool and passes


class TestCaseAConfirmation:
    """Every hit is confirmed by all eight case-(a) facts: the top-row facts
    once per (row, column pair), the bottom-row facts on each hit, in k
    lookups each.  Each test breaks one part and requires the error that
    part raises, so a mutant that drops either check fails one.

    A mutant that runs the bottom-row loop, or keys the buckets, on only
    k - 1 points of im f is equivalent on every well-formed grid: e and g
    both map the transversal im f bijectively onto im e, so agreement on
    k - 1 points forces the last (ROADMAP item 1), and the bottom-row facts
    then hold as well.  Only a broken grid tells the loop mutant apart, as
    the identity cell below does when its failing point is the one skipped."""

    def test_identity_witness_fails_the_top_row(self, monkeypatch):
        from igmax import squares

        # idempotent, so only the top-row facts can reject it (f*eps = f, not e)
        monkeypatch.setattr(squares, "_explicit_witness", lambda e, im_f: tuple(range(len(e))))
        with pytest.raises(StructuralError, match="top-row case-\\(a\\) facts"):
            enumerate_singular_squares(build_grid(4, 2, PT))

    @pytest.mark.parametrize(
        "entries",
        [(0, 1, 2, 3), (0, 0, 0, 0)],
        ids=["identity_breaks_eps_h", "constant_breaks_h_eps"],
    )
    def test_broken_bottom_cell_fails_the_bottom_row(self, entries):
        # the bottom-right cell of the first hit, replaced in a copy of the
        # grid: the pointwise test and the memoised top row still pass
        grid = build_grid(4, 2, PT)
        first = enumerate_singular_squares(grid)[0]
        cell = (first.rows[1], first.cols[1])
        broken = grid._replace(group_cells={**grid.group_cells, cell: entries})
        with pytest.raises(StructuralError, match="bottom-row case-\\(a\\) facts"):
            enumerate_singular_squares(broken)
        assert enumerate_singular_squares(grid)[0] == first  # the original is untouched
