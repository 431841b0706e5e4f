import types
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from archseg.geometry import PointCloud, SpatialIndex, k_nearest
from archseg.pipeline import model_seeds
from archseg.segmentation import (
    TABLE_K,
    Patch,
    PatchMask,
    SegParams,
    _table_neighbours,
    crop_patch,
    fuse_patches,
    iou_dice,
    neighbour_table,
    segment_patch,
)
from archseg.synthetic import ScanConfig, generate_model, with_seed


@pytest.fixture(scope="module")
def model():
    return generate_model(ScanConfig(n_points=4000, n_teeth=10, seed=21))


@pytest.fixture(scope="module")
def params():
    return SegParams(patch_size=512, prob_decay=2.0)


class TestCropPatch:
    def test_matches_k_nearest(self, model, params):
        center = model.centroids[3]
        patch = crop_patch(model, center, params)
        idx, _ = k_nearest(SpatialIndex(model.cloud), center, params.patch_size)
        assert np.array_equal(np.sort(patch.point_indices), np.sort(idx))

    def test_relative_coordinates(self, model, params):
        center = model.centroids[0]
        patch = crop_patch(model, center, params)
        assert np.allclose(
            patch.relative_coords,
            model.cloud.points[patch.point_indices] - center,
            atol=1e-15,
        )

    def test_patch_too_large(self, model):
        with pytest.raises(ValueError):
            crop_patch(model, np.zeros(3), SegParams(patch_size=5000))


class TestSegmentPatch:
    def test_probabilities_in_range_and_monotone(self, model, params):
        patch = crop_patch(model, model.centroids[2], params)
        mask = segment_patch(patch, params)
        assert (mask.probabilities >= 0).all() and (mask.probabilities <= 1).all()
        assert mask.probabilities.max() == 1.0

    def test_covers_own_tooth(self, model, params):
        for k in (1, 5, 9):
            patch = crop_patch(model, model.centroids[k - 1], params)
            mask = segment_patch(patch, params)
            patch_labels = model.labels[patch.point_indices]
            own = patch_labels == k
            accepted = mask.probabilities >= params.accept_prob
            iou = (own & accepted).sum() / (own | accepted).sum()
            assert iou > 0.85

    def test_excludes_gingiva(self, model, params):
        patch = crop_patch(model, model.centroids[4], params)
        mask = segment_patch(patch, params)
        gum = model.labels[patch.point_indices] == 0
        leak = (mask.probabilities[gum] >= params.accept_prob).mean() if gum.any() else 0
        assert leak < 0.05

    def test_isolated_seed_degenerate(self):
        # one far-away point: its kNN edges all prune, seed isolated
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(0, 0.01, (63, 3)), [[5.0, 5.0, 5.0]]])

        class FakeModel:
            pass

        from archseg.geometry import PointCloud
        from archseg.segmentation import Patch

        patch = Patch(
            center=np.array([5.0, 5.0, 5.0]),
            point_indices=np.arange(64),
            relative_coords=pts - [5.0, 5.0, 5.0],
        )
        with pytest.warns(UserWarning):
            mask = segment_patch(patch, SegParams(patch_size=64))
        assert mask.degenerate
        assert mask.probabilities.sum() == 1.0


class TestFusePatches:
    def test_single_patch_full_cover(self, model):
        from archseg.segmentation import Patch, PatchMask

        n = model.cloud.size
        patch = Patch(
            center=np.zeros(3),
            point_indices=np.arange(n),
            relative_coords=model.cloud.points,
        )
        mask = PatchMask(probabilities=np.ones(n))
        fused = fuse_patches(model, [patch], [mask])
        assert (fused.labels == 1).all()

    def test_disjoint_patches(self, model):
        from archseg.segmentation import Patch, PatchMask

        pts = model.cloud.points
        a = np.arange(0, 100)
        b = np.arange(100, 200)
        patches = [
            Patch(np.zeros(3), a, pts[a]),
            Patch(np.zeros(3), b, pts[b]),
        ]
        masks = [PatchMask(np.ones(100)), PatchMask(np.full(100, 0.6))]
        fused = fuse_patches(model, patches, masks)
        assert (fused.labels[a] == 1).all()
        assert (fused.labels[b] == 2).all()
        assert (fused.labels[200:] == 0).all()

    def test_argmax_conflict_resolution(self, model):
        from archseg.segmentation import Patch, PatchMask

        pts = model.cloud.points
        idx = np.arange(50)
        patches = [Patch(np.zeros(3), idx, pts[idx]), Patch(np.zeros(3), idx, pts[idx])]
        p1 = np.full(50, 0.7)
        p2 = np.full(50, 0.9)
        fused = fuse_patches(model, patches, [PatchMask(p1), PatchMask(p2)])
        assert (fused.labels[idx] == 2).all()
        assert np.allclose(fused.winning_prob[idx], 0.9)

    def test_below_accept_prob_unlabeled(self, model):
        from archseg.segmentation import Patch, PatchMask

        idx = np.arange(30)
        patch = Patch(np.zeros(3), idx, model.cloud.points[idx])
        fused = fuse_patches(model, [patch], [PatchMask(np.full(30, 0.4))])
        assert (fused.labels == 0).all()


class TestIoUDice:
    def test_perfect(self, model):
        r = iou_dice(model.labels, model.labels)
        assert r["mean_iou"] == pytest.approx(100.0)
        assert r["mean_dice"] == pytest.approx(100.0)

    def test_half_coverage_analytic(self):
        gt = np.array([1] * 100 + [0] * 100)
        pred = np.array([1] * 50 + [0] * 150)
        r = iou_dice(pred, gt)
        assert r["mean_iou"] == pytest.approx(50.0)
        assert r["mean_dice"] == pytest.approx(200 / 3)

    def test_dice_iou_identity(self, model, params):
        patches = [crop_patch(model, c, params) for c in model.centroids]
        masks = [segment_patch(p, params) for p in patches]
        fused = fuse_patches(model, patches, masks, params)
        r = iou_dice(fused.labels, model.labels)
        for row in r["per_instance"]:
            if row["pred_id"] is not None:
                iou = row["iou"] / 100
                assert row["dice"] / 100 == pytest.approx(
                    2 * iou / (1 + iou), abs=1e-9
                )

    def test_matching_is_optimal_small(self):
        rng = np.random.default_rng(3)
        gt = rng.integers(0, 4, 200)
        pred = rng.integers(0, 4, 200)
        r = iou_dice(pred, gt)
        # brute force over permutations of pred ids
        import itertools

        gt_ids = np.unique(gt[gt > 0])
        pred_ids = np.unique(pred[pred > 0])
        best = -1.0
        for perm in itertools.permutations(pred_ids):
            tot = 0.0
            for g, p in zip(gt_ids, perm):
                inter = np.sum((gt == g) & (pred == p))
                union = np.sum((gt == g) | (pred == p))
                tot += inter / union if union else 0.0
            best = max(best, tot)
        assert r["mean_iou"] == pytest.approx(100 * best / len(gt_ids), abs=1e-9)

    def test_no_gt_instances_error(self):
        with pytest.raises(ValueError):
            iou_dice(np.ones(10, dtype=int), np.zeros(10, dtype=int))

    def test_empty_prediction_scores_zero(self):
        gt = np.array([1] * 10 + [2] * 10)
        r = iou_dice(np.zeros(20, dtype=int), gt)
        assert r["mean_iou"] == 0.0 and r["mean_dice"] == 0.0


def crop_patch_reference(model, center, params):
    """The full-lexsort crop `crop_patch` replaced."""
    pts = model.cloud.points
    c = np.asarray(center, dtype=np.float64).reshape(3)
    d = np.linalg.norm(pts - c, axis=1)
    idx = np.lexsort((np.arange(len(pts)), d))[: params.patch_size]
    return Patch(center=c, point_indices=idx, relative_coords=pts[idx] - c)


def segment_patch_reference(patch, params):
    """The per-patch-tree `segment_patch` the table replaced (its warning
    dropped): the oracle masks must match bit for bit."""
    pts = patch.relative_coords
    n = len(pts)
    k = min(params.knn_graph_k, n - 1)
    dist, nn = cKDTree(pts).query(pts, k=k + 1)
    dist, nn = dist[:, 1:], nn[:, 1:]
    rows = np.repeat(np.arange(n), k)
    cols = nn.ravel()
    lengths = dist.ravel()
    keep = lengths <= 2.0 * np.median(lengths)
    graph = csr_matrix((lengths[keep], (rows[keep], cols[keep])), shape=(n, n))
    graph = graph.maximum(graph.T)
    seed = int(np.argmin(np.linalg.norm(pts, axis=1)))
    g = dijkstra(graph, directed=False, indices=seed, limit=params.max_geodesic_radius)
    reachable = np.isfinite(g)
    probs = np.zeros(n)
    if reachable.sum() <= 1:
        probs[seed] = 1.0
        return PatchMask(probabilities=probs, degenerate=True)
    n_core = max(1, int(round(0.05 * n)))
    r0 = float(np.median(np.sort(g[reachable])[:n_core]))
    probs[reachable] = np.exp(-params.prob_decay * np.maximum(0.0, g[reachable] - r0))
    return PatchMask(probabilities=probs)


def assert_patches_match_reference(model, centers, params, untabled=True):
    """Each centre's patch and mask, with the model's table, without one
    (if `untabled`) and by the reference, are bitwise equal; returns the
    settled-row count and the row count."""
    table = neighbour_table(model.cloud.points)
    settled = rows = 0
    for center in centers:
        patch = crop_patch(model, center, params, table)
        want = crop_patch_reference(model, center, params)
        assert np.array_equal(patch.point_indices, want.point_indices)
        assert np.array_equal(patch.relative_coords, want.relative_coords)
        patches = [patch]
        if untabled:
            patches.append(Patch(patch.center, patch.point_indices, patch.relative_coords))
        with warnings.catch_warnings():  # degenerate patches warn
            warnings.simplefilter("ignore")
            masks = [segment_patch(p, params) for p in patches]
        ref = segment_patch_reference(want, params)
        for mask in masks:
            assert mask.degenerate == ref.degenerate
            assert np.array_equal(mask.probabilities, ref.probabilities)
        # the settled rows hold the neighbours the patch tree gives them
        k = min(params.knn_graph_k, len(patch.point_indices) - 1)
        rows_settled, nn, dist = _table_neighbours(patch, k)
        tree_dist, tree_nn = cKDTree(want.relative_coords).query(
            want.relative_coords[rows_settled], k=k + 1
        )
        assert np.array_equal(np.sort(nn, axis=1), np.sort(tree_nn[:, 1:], axis=1))
        assert np.array_equal(np.sort(dist, axis=1), tree_dist[:, 1:])
        settled += int(rows_settled.sum())
        rows += len(patch.point_indices)
    return settled, rows


def extreme_x_point(model):
    """The cloud's max-x point: a patch there has the most rows whose
    table entries leave the patch, so the most patch-tree rows."""
    return model.cloud.points[np.argmax(model.cloud.points[:, 0])]


class TestPatchEquivalence:
    def test_pinned_scans_match_reference(self, benchmark_config):
        """Every pinned scan: patches at three ground-truth centroids and at
        the extreme-x point."""
        settled = rows = 0
        for i in range(benchmark_config.n_models):
            model = generate_model(
                with_seed(benchmark_config.scan, model_seeds(benchmark_config, i)[0])
            )
            picks = model.centroids[[0, model.n_teeth // 2, -1]]
            s, r = assert_patches_match_reference(
                model, [*picks, extreme_x_point(model)], benchmark_config.segmentation,
                untabled=False,
            )
            settled, rows = settled + s, rows + r
        assert 0.9 < settled / rows < 1.0  # both paths run

    def test_extreme_x_patch_falls_back(self, model, params):
        settled, rows = assert_patches_match_reference(model, [extreme_x_point(model)], params)
        assert 0 < settled < rows

    def test_grid_ties_and_duplicates(self):
        """A regular grid ties neighbour distances at every rank, and
        repeated points sit at distance 0: such rows must go to the tree."""
        axes = [np.arange(14) * 0.05, np.arange(14) * 0.05, np.arange(6) * 0.05]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        pts = np.concatenate([grid, grid[::37]])
        model = types.SimpleNamespace(cloud=PointCloud(pts))
        params = SegParams(patch_size=400, max_geodesic_radius=0.3)
        settled, rows = assert_patches_match_reference(
            model, [[0.3, 0.3, 0.1], [0.0, 0.0, 0.0], [0.33, 0.31, 0.12]], params
        )
        assert 0 < settled < rows

    def test_knn_graph_k_beyond_table(self, model):
        """With k >= TABLE_K no row is settled and the tree does it all."""
        params = SegParams(patch_size=512, knn_graph_k=TABLE_K, prob_decay=2.0)
        settled, _ = assert_patches_match_reference(model, [model.centroids[1]], params)
        assert settled == 0

    def test_table_is_the_cloud_knn(self, model):
        table = neighbour_table(model.cloud.points)
        dist, idx = cKDTree(model.cloud.points).query(model.cloud.points, k=TABLE_K)
        assert table.indices.dtype == np.int32
        assert np.array_equal(table.indices, idx)
        assert np.array_equal(table.reach, dist[:, -1])
