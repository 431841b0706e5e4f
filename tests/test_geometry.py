import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from archseg import io as aio
from archseg.detection import nms
from archseg.geometry import (
    _FPS_BATCH,
    DegenerateCloudError,
    PointCloud,
    brute_force_k_nearest,
    chamfer_distance,
    cross_entropy,
    farthest_point_sampling,
    huber_l1,
    k_nearest,
    normalize_model,
)
from archseg.pipeline import model_seeds, stage_keys
from archseg.synthetic import generate_model


def cloud(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return PointCloud(scale * rng.normal(size=(n, 3)))


class TestPointCloud:
    def test_read_only(self):
        c = cloud(10)
        with pytest.raises(ValueError):
            c.points[0, 0] = 1.0

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            PointCloud(np.array([[np.nan, 0, 0]]))

    def test_empty_rejected(self):
        with pytest.raises(DegenerateCloudError):
            PointCloud(np.zeros((0, 3)))


class TestNormalize:
    def test_centered_unit_norm(self):
        c = cloud(100, seed=1, scale=7.0)
        out = normalize_model(c)
        assert np.allclose(out.points.mean(axis=0), 0.0, atol=1e-12)
        assert np.linalg.norm(out.points, axis=1).max() == pytest.approx(1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateCloudError):
            normalize_model(PointCloud(np.tile([[1.0, 2.0, 3.0]], (5, 1))))


class TestKNearest:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        c = cloud(200, seed=seed)
        rng = np.random.default_rng(seed + 100)
        for q in rng.normal(size=(10, 3)):
            for k in (1, 5, 17):
                idx, dist = k_nearest(c.points, q, k)
                bidx, bdist = brute_force_k_nearest(c.points, q, k)
                assert np.array_equal(idx, bidx)
                assert np.allclose(dist, bdist, rtol=1e-12)

    def test_exact_ties_resolved_by_index(self):
        pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]])
        idx, dist = k_nearest(pts, np.zeros(3), 2)
        assert np.array_equal(idx, [0, 1])

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            k_nearest(cloud(5).points, np.zeros(3), 6)


class TestFPS:
    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_max_min_property(self, seed):
        c = cloud(80, seed=seed)
        sel = farthest_point_sampling(c, 12)
        assert len(np.unique(sel)) == 12
        assert sel[0] == 0
        # each chosen point is the farthest (lowest index on ties) from the prefix
        for j in range(1, 12):
            prefix = c.points[sel[:j]]
            d = np.min(
                np.linalg.norm(c.points[:, None, :] - prefix[None, :, :], axis=2),
                axis=1,
            )
            assert sel[j] == np.argmax(d)

    def test_all_points(self):
        c = cloud(7)
        assert len(farthest_point_sampling(c, 7)) == 7

    def test_too_many(self):
        with pytest.raises(ValueError):
            farthest_point_sampling(cloud(5), 6)

    def test_distinct_once_every_point_coincides_with_a_pick(self):
        """3 positions x 5 copies: after one pick per position every
        unpicked point is at distance 0, and the rest follow in index order."""
        pts = np.repeat(np.eye(3), 5, axis=0)
        sel = farthest_point_sampling(PointCloud(pts), 8)
        assert sel.tolist() == [0, 5, 10, 1, 2, 3, 4, 6]
        assert sel.tolist() == greedy_fps_reference(PointCloud(pts), 8).tolist()


def greedy_fps_reference(cloud, k, start_index=0):
    """Row-wise greedy FPS over the (N, 3) points: the oracle the
    column-wise ``farthest_point_sampling`` must match index for index.
    A picked point's min_dist is -inf, so it is never picked again."""
    pts = cloud.points
    selected = np.empty(k, dtype=np.intp)
    selected[0] = start_index
    min_dist = np.linalg.norm(pts - pts[start_index], axis=1)
    min_dist[start_index] = -np.inf
    for i in range(1, k):
        j = int(np.argmax(min_dist))  # argmax returns the first (lowest) index on ties
        selected[i] = j
        min_dist[j] = -np.inf
        np.minimum(min_dist, np.linalg.norm(pts - pts[j], axis=1), out=min_dist)
    return selected


def assert_matches_reference(pts, k, start_index):
    """In C order, in Fortran order and after a pickle round trip."""
    expected = greedy_fps_reference(PointCloud(pts), k, start_index)
    for c in (PointCloud(np.ascontiguousarray(pts)), PointCloud(np.asfortranarray(pts)),
              pickle.loads(pickle.dumps(PointCloud(pts)))):
        assert np.array_equal(farthest_point_sampling(c, k, start_index), expected)


@st.composite
def grid_clouds(draw):
    """Small grid clouds with repeated points, so distances tie often.

    On a 0.1 or 0.3 grid, distances that tie in exact arithmetic may differ
    in the last bit depending on the order the squares are summed in, and
    on whether the square root is taken.
    """
    n_sites = draw(st.integers(1, 30))
    sites = draw(hnp.arrays(
        np.int64, (n_sites, 3), elements=st.integers(-3, 3), fill=st.nothing()
    ))
    picks = draw(hnp.arrays(
        np.intp, draw(st.integers(1, 60)),
        elements=st.integers(0, n_sites - 1), fill=st.nothing(),
    ))
    step = draw(st.sampled_from([1.0, 0.1, 0.3]))
    pts = step * sites[picks]
    return pts, draw(st.integers(0, len(pts) - 1))


@pytest.fixture(scope="module")
def pinned_scan_0(benchmark_config):
    scan_seed, _ = model_seeds(benchmark_config, 0)
    return generate_model(benchmark_config.scan, scan_seed).cloud


class TestFPSEquivalence:
    @given(grid_clouds())
    @settings(max_examples=200, deadline=None)
    def test_matches_rowwise_reference_on_ties(self, case):
        """Every point in FPS order; a smaller k selects a prefix of it."""
        pts, start_index = case
        assert_matches_reference(pts, len(pts), start_index)

    @pytest.mark.parametrize("step", [0.1, 0.3])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_rowwise_reference_on_dense_grid(self, step, seed):
        """Every point of a 400-point cloud on 343 grid sites, in FPS order."""
        rng = np.random.default_rng(seed)
        pts = step * rng.integers(-3, 4, size=(400, 3))
        assert_matches_reference(pts, 400, int(rng.integers(400)))

    def test_pinned_scan_0_matches_reference(self, pinned_scan_0, benchmark_config):
        k = benchmark_config.vote_subsample
        got = farthest_point_sampling(pinned_scan_0, k)
        assert np.array_equal(got, greedy_fps_reference(pinned_scan_0, k))

    def test_speed_pinned_scan_0(self, benchmark, pinned_scan_0, benchmark_config):
        k = benchmark_config.vote_subsample
        sel = benchmark.pedantic(
            farthest_point_sampling, args=(pinned_scan_0, k), rounds=3, iterations=1
        )
        assert len(sel) == k


class TestFPSWindow:
    """The x-sorted window picks what a full pass picks."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 300])
    def test_every_point_in_order(self, n):
        rng = np.random.default_rng(n)
        assert_matches_reference(rng.normal(size=(n, 3)), n, int(rng.integers(n)))

    def test_all_x_equal(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(200, 3))
        pts[:, 0] = 0.5
        assert_matches_reference(pts, 200, 7)

    @pytest.mark.parametrize("x0", [1.0, 0.5, -3.0])
    def test_near_duplicates_below_ulp_of_x(self, x0):
        """Clusters whose spread (1e-20) is far below the ulp of x, with x
        one ulp apart, so late steps have M below that ulp."""
        rng = np.random.default_rng(2)
        sites = rng.normal(size=(5, 3))
        sites[:, 0] = x0 + np.arange(5) * np.spacing(x0)
        pts = sites[rng.integers(5, size=150)]
        pts[:, 1:] += 1e-20 * rng.normal(size=(150, 2))
        assert_matches_reference(pts, 150, 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_subnormal_squares(self, seed):
        """Spacing about 1e-160, so squared differences are subnormal and
        computed distances carry their rounding."""
        rng = np.random.default_rng(seed)
        pts = 1e-160 * rng.integers(0, 4, size=(150, 3)) * rng.uniform(1, 1.01, size=(150, 3))
        assert_matches_reference(pts, 150, int(rng.integers(150)))

    def test_ply_loaded_scan(self, tmp_path, benchmark_config):
        scan_seed, _ = model_seeds(benchmark_config, 1)
        model = generate_model(benchmark_config.scan, scan_seed)
        aio.save_model(model, tmp_path / "m.ply", tmp_path / "m.json")
        cloud = aio.load_model(tmp_path / "m.ply", tmp_path / "m.json").cloud
        k = benchmark_config.vote_subsample
        got = farthest_point_sampling(cloud, k)
        assert np.array_equal(got, greedy_fps_reference(cloud, k))
        assert np.array_equal(got, farthest_point_sampling(model.cloud, k))


def reference_min_dist(pts, k, start_index):
    """Every point's min_dist after the reference's first k picks, -inf
    at the picks."""
    sel = greedy_fps_reference(PointCloud(pts), k, start_index)
    d = np.linalg.norm(pts[:, None] - pts[sel][None], axis=2).min(axis=1)
    d[sel] = -np.inf
    return d


class TestFPSBatch:
    """Batches of picks pick what one pick at a time picks."""

    @pytest.mark.parametrize("seed", range(4))
    def test_candidates_tie_the_bound(self, seed):
        """A shuffled 6 x 6 x 6 grid: after `_FPS_BATCH` picks, every
        unpicked point (more than B) is at distance 1 from the picks, so
        the best candidate only ties the bound and lower-index points at
        that value may be no candidates."""
        grid = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        rng = np.random.default_rng(seed)
        pts = grid[rng.permutation(len(grid))]
        start = int(rng.integers(len(pts)))
        d = reference_min_dist(pts, _FPS_BATCH, start)
        assert np.count_nonzero(d == d.max()) > _FPS_BATCH
        assert_matches_reference(pts, len(pts), start)

    @pytest.mark.parametrize("n", range(2, 2 * _FPS_BATCH + 2))
    def test_every_point_near_batch_size(self, n):
        """k == n for every n up to 2B + 1: the candidate count grows with
        the picks up to B, and near the end a batch's candidates include
        picks."""
        rng = np.random.default_rng(100 + n)
        assert_matches_reference(rng.normal(size=(n, 3)), n, int(rng.integers(n)))

    @pytest.mark.parametrize("case", ["grid", "symmetric", "all_equal"])
    @pytest.mark.parametrize("start", ["first", "middle", "last"])
    def test_early_picks_tie(self, case, start):
        """Clouds whose picks tie while the candidate count still grows:
        a 4 x 4 x 4 grid (from pick 2 on), a cloud and its mirror image
        through the origin (from pick 7 or 37 on), and 100 copies of one
        point (every pick, in index order)."""
        rng = np.random.default_rng(11)
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        half = rng.normal(size=(50, 3))
        pts = {"grid": grid, "symmetric": np.concatenate([half, -half]),
               "all_equal": np.full((100, 3), 0.25)}[case]
        n = len(pts)
        assert_matches_reference(pts, n, {"first": 0, "middle": n // 2, "last": n - 1}[start])

    @pytest.mark.parametrize("k", [_FPS_BATCH - 1, _FPS_BATCH, _FPS_BATCH + 1, _FPS_BATCH + 2])
    def test_k_near_batch_size(self, k):
        rng = np.random.default_rng(7)
        assert_matches_reference(rng.normal(size=(500, 3)), k, 3)

    def test_pinned_scan_0_both_layouts(self, pinned_scan_0, benchmark_config):
        """The pinned scan in C and in Fortran order."""
        assert_matches_reference(pinned_scan_0.points, benchmark_config.vote_subsample, 0)

    def test_unpickled_pinned_scan_0(self, pinned_scan_0, benchmark_config):
        """A cloud as a pool worker receives it: unpickled arrays carry a
        float64 descriptor that is not numpy's own instance, which takes
        `ufunc.at` off its fast path (see `_fps_apply_windows`)."""
        cloud = pickle.loads(pickle.dumps(pinned_scan_0))
        k = benchmark_config.vote_subsample
        got = farthest_point_sampling(cloud, k)
        assert np.array_equal(got, greedy_fps_reference(pinned_scan_0, k))


def brute_chamfer(a, b):
    d_ab = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(d_ab.min(axis=1).sum() + d_ab.min(axis=0).sum())


def chamfer_kdtree_reference(p1, p2):
    """The two-cKDTree `chamfer_distance` the distance matrix replaced:
    `chamfer_distance` must equal it bit for bit."""
    a, b = p1.points, p2.points
    d_ab, _ = cKDTree(b).query(a)
    d_ba, _ = cKDTree(a).query(b)
    return float(np.sum(d_ab**2) + np.sum(d_ba**2))


class TestChamfer:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        a, b = cloud(60, seed), cloud(45, seed + 50)
        got = chamfer_distance(a, b)
        assert got == pytest.approx(brute_chamfer(a.points, b.points), rel=1e-12)
        assert got.hex() == chamfer_kdtree_reference(a, b).hex()

    def test_pinned_detections_match_kdtree_reference(
        self, benchmark_config, full_report, pinned_stages
    ):
        """The retained centroids of pinned models 0-9 against their teeth:
        the pairs every pinned report's `chamfer` comes from."""
        keys = stage_keys(benchmark_config)
        det = benchmark_config.detection
        for i in range(10):
            proposals = pinned_stages[i][keys["proposals"]]
            retained = nms(proposals, det.nms_radius, det.max_centroids)
            pred = PointCloud(proposals.position[retained])
            gt = PointCloud(pinned_stages[i][keys["model"]].centroids)
            got = chamfer_distance(pred, gt)
            assert got.hex() == chamfer_kdtree_reference(pred, gt).hex()
            assert got.hex() == full_report.per_model[i]["chamfer"].hex()

    def test_identity_zero(self):
        a = cloud(30)
        assert chamfer_distance(a, a) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        a, b = cloud(20, seed), cloud(25, seed + 1)
        assert chamfer_distance(a, b) == pytest.approx(
            chamfer_distance(b, a), rel=1e-12
        )

    def test_single_pair_analytic(self):
        a = PointCloud(np.array([[0.0, 0, 0]]))
        b = PointCloud(np.array([[3.0, 4.0, 0]]))
        assert chamfer_distance(a, b) == pytest.approx(50.0)  # 25 both ways


class TestHuber:
    def test_quadratic_region(self):
        a, b = np.array([[0.3, 0, 0]]), np.zeros((1, 3))
        assert huber_l1(a, b, delta=1.0) == pytest.approx(np.mean([0.5 * 0.09, 0, 0]))

    def test_linear_region(self):
        a, b = np.array([[5.0, 0, 0]]), np.zeros((1, 3))
        # elementwise mean: (1*(5-0.5) + 0 + 0) / 3
        assert huber_l1(a, b, delta=1.0) == pytest.approx(4.5 / 3)

    @given(st.floats(-3, 3), st.floats(0.1, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_piecewise_definition(self, r, delta):
        got = huber_l1(np.array([[r, 0, 0]]), np.zeros((1, 3)), delta)
        expect = 0.5 * r * r if abs(r) <= delta else delta * (abs(r) - 0.5 * delta)
        assert got * 3 == pytest.approx(expect, abs=1e-12)


class TestCrossEntropy:
    def test_hand_value(self):
        got = cross_entropy(np.array([0.8]), np.array([1.0]))
        assert got == pytest.approx(-np.log(0.8))

    def test_clamped_extremes_finite(self):
        got = cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(got)
        assert got == pytest.approx(-np.log(1e-7), rel=1e-6)
