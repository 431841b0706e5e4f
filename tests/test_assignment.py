import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from archseg.assignment import brute_force_assign, hungarian_assign
from archseg.detection import aps_cost_matrix
from archseg.pipeline import stage_keys


def scipy_assign_reference(cost):
    """The scipy call `hungarian_assign` made before it solved the problem
    itself: the sparse Jonker-Volgenant solver (LAPJVsp) on the costs
    shifted to >= 1, since it takes only non-zero entries as edges."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    c = np.asarray(cost, dtype=np.float64)
    _, cols = min_weight_full_bipartite_matching(csr_array(c - c.min() + 1.0))
    assignment = cols.astype(np.intp)
    return assignment, float(c[np.arange(len(c)), assignment].sum())


class TestHungarian:
    @pytest.mark.parametrize("seed", range(20))
    def test_square_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 8)
        cost = rng.random((n, n))
        _, total = hungarian_assign(cost)
        _, expected = brute_force_assign(cost)
        assert total == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_rectangular_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed + 1000)
        r = int(rng.integers(1, 6))
        c = int(rng.integers(r, 9))
        cost = rng.random((r, c))
        assignment, total = hungarian_assign(cost)
        _, expected = brute_force_assign(cost)
        assert total == pytest.approx(expected, abs=1e-12)
        assert len(np.unique(assignment)) == r

    def test_diagonal_zero_identity(self):
        cost = np.ones((5, 5)) - np.eye(5)
        assignment, total = hungarian_assign(cost)
        assert np.array_equal(assignment, np.arange(5))
        assert total == 0.0

    def test_more_rows_than_cols_solves_transpose(self):
        """R > C: every column gets one row, the other rows get -1, and the
        total is the brute-force optimum of the transpose."""
        rng = np.random.default_rng(2000)
        for _ in range(20):
            c = int(rng.integers(1, 6))
            r = int(rng.integers(c + 1, 9))
            cost = rng.random((r, c))
            assignment, total = hungarian_assign(cost)
            rows = np.flatnonzero(assignment >= 0)
            assert np.array_equal(np.sort(assignment[rows]), np.arange(c))
            assert len(rows) == c and (assignment[assignment < 0] == -1).all()
            _, expected = brute_force_assign(cost.T)
            assert total == pytest.approx(expected, abs=1e-12)
            assert total == pytest.approx(cost[rows, assignment[rows]].sum(), abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hungarian_assign(np.array([[0.0, np.inf]]))

    def test_assignment_consistent_with_total(self):
        rng = np.random.default_rng(7)
        cost = rng.random((6, 10))
        assignment, total = hungarian_assign(cost)
        assert total == pytest.approx(
            cost[np.arange(6), assignment].sum(), rel=1e-12
        )

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_optimality_property(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 5))
        c = int(rng.integers(r, 7))
        cost = rng.integers(0, 50, size=(r, c)).astype(float)
        _, total = hungarian_assign(cost)
        _, expected = brute_force_assign(cost)
        assert total == pytest.approx(expected, abs=1e-9)

    def test_large_instance_runs(self):
        rng = np.random.default_rng(0)
        cost = rng.random((64, 2048))
        assignment, total = hungarian_assign(cost)
        assert len(np.unique(assignment)) == 64
        # lower bound: sum of per-row minima
        assert total >= cost.min(axis=1).sum() - 1e-12

    def test_no_rows_rejected(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            with pytest.raises(ValueError, match="no rows or no columns"):
                hungarian_assign(np.zeros(shape))

    def test_not_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            hungarian_assign(np.zeros(4))


def check_optimal(cost):
    """hungarian_assign on `cost` gives distinct columns and the brute-force
    optimum, and its total is the sum of the entries it picked."""
    assignment, total = hungarian_assign(cost)
    n_rows = cost.shape[0]
    assert len(np.unique(assignment)) == n_rows
    assert total == float(cost[np.arange(n_rows), assignment].sum())
    _, expected = brute_force_assign(cost)
    assert total == pytest.approx(expected, rel=1e-12, abs=1e-12)


@st.composite
def shapes(draw, max_rows=5, max_cols=7):
    rows = draw(st.integers(1, max_rows))
    return rows, draw(st.integers(rows, max(rows, max_cols)))


# Few distinct values, so ties everywhere; negative ones included.
TIED = st.integers(-3, 3).map(float)
ROUNDED = st.floats(-2.0, 2.0).map(lambda x: round(x, 1))


class TestTies:
    """The solver against the brute-force oracle on tie-heavy costs."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_integer_and_rounded_costs(self, data):
        elements = data.draw(st.sampled_from([TIED, ROUNDED]))
        cost = data.draw(hnp.arrays(np.float64, data.draw(shapes()), elements=elements))
        check_optimal(cost)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_duplicate_rows(self, data):
        """Like APS, whose slot rows i and i + 32 are the same arch point."""
        n_rows, n_cols = data.draw(shapes())
        base = data.draw(hnp.arrays(np.float64, (max(1, n_rows // 2), n_cols), elements=TIED))
        check_optimal(base[np.arange(n_rows) % len(base)])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_duplicate_columns(self, data):
        n_rows, n_cols = data.draw(shapes())
        base = data.draw(hnp.arrays(np.float64, (n_rows, n_rows), elements=ROUNDED))
        picks = data.draw(hnp.arrays(np.intp, n_cols, elements=st.integers(0, n_rows - 1)))
        check_optimal(base[:, picks])

    @given(hnp.arrays(np.float64, st.integers(1, 9).map(lambda c: (1, c)), elements=TIED))
    @settings(max_examples=50, deadline=None)
    def test_one_row(self, cost):
        check_optimal(cost)

    @given(st.integers(1, 6).flatmap(
        lambda n: hnp.arrays(np.float64, (n, n), elements=st.one_of(TIED, ROUNDED))))
    @settings(max_examples=100, deadline=None)
    def test_square(self, cost):
        check_optimal(cost)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_many_columns_tied(self, data):
        """C >> R with values from {0, 1, 2}: a row's R-th cheapest column
        is tied with others."""
        n_rows = data.draw(st.integers(1, 3))
        n_cols = data.draw(st.integers(3 * n_rows, 12))
        cost = data.draw(hnp.arrays(np.float64, (n_rows, n_cols), elements=st.sampled_from([0.0, 1.0, 2.0])))
        check_optimal(cost)


class TestScipyReference:
    """Equal totals to the scipy solver `hungarian_assign` replaced."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2048), (7, 7), (17, 40), (64, 64),
                                       (64, 1036), (64, 2048)])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_instances(self, shape, seed):
        cost = np.random.default_rng(seed).random(shape) * 10.0 - 3.0
        _, total = hungarian_assign(cost)
        _, expected = scipy_assign_reference(cost)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_pinned_aps_costs(self, benchmark_config, full_report, pinned_stages):
        """APS's cost matrices of pinned models 0-9: the same total and the
        same selected vote set (the sorted columns) as the reference."""
        keys = stage_keys(benchmark_config)
        for i in range(10):
            votes, arch = pinned_stages[i][keys["votes"]], pinned_stages[i][keys["refine"]]
            cost = aps_cost_matrix(votes, arch, benchmark_config.sampling)
            assignment, total = hungarian_assign(cost)
            expected_assignment, expected = scipy_assign_reference(cost)
            assert total == pytest.approx(expected, rel=1e-12)
            assert np.array_equal(np.sort(assignment), np.sort(expected_assignment))
