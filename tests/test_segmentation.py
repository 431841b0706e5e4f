import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from archseg.assignment import hungarian_assign
from archseg.geometry import PointCloud, k_nearest
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
from archseg.synthetic import ScanConfig, generate_model


@pytest.fixture(scope="module")
def model():
    return generate_model(ScanConfig(n_points=4000, n_teeth=10), 21)


@pytest.fixture(scope="module")
def params():
    return SegParams(patch_size=512, prob_decay=2.0)


@pytest.fixture(scope="module")
def table(model):
    return neighbour_table(model.cloud.points)


def patch_probabilities(patch, mask):
    """The mask's probabilities scattered back onto its patch: 0 at every
    patch point the mask leaves out."""
    probs = np.zeros(len(patch.point_indices))
    probs[np.isin(patch.point_indices, mask.point_indices)] = mask.probabilities
    return probs


def fuse_patches_reference(model, patches, probabilities, params):
    """The full-patch fusion `fuse_patches` replaced: one probability per
    patch point, where a point at probability 0 never wins."""
    n = model.cloud.size
    best_prob = np.zeros(n)
    best_dist = np.full(n, np.inf)
    best_patch = np.full(n, -1, dtype=np.int64)
    for j, (patch, p) in enumerate(zip(patches, probabilities)):
        idx = patch.point_indices
        dist = np.linalg.norm(patch.relative_coords, axis=1)
        cur_prob = best_prob[idx]
        cur_dist = best_dist[idx]
        win = (p > cur_prob) | ((p == cur_prob) & (p > 0) & (dist < cur_dist))
        upd = idx[win]
        best_prob[upd] = p[win]
        best_dist[upd] = dist[win]
        best_patch[upd] = j
    return np.where(best_prob >= params.accept_prob, best_patch + 1, 0)


class TestCropPatch:
    def test_matches_k_nearest(self, model, params):
        center = model.centroids[3]
        patch = crop_patch(model, center, params)
        idx, _ = k_nearest(model.cloud.points, center, params.patch_size)
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
    def test_probabilities_in_range_and_monotone(self, model, params, table):
        patch = crop_patch(model, model.centroids[2], params)
        mask = segment_patch(patch, params, table)
        assert (mask.probabilities > 0).all() and (mask.probabilities <= 1).all()
        assert mask.probabilities.max() == 1.0

    def test_covers_own_tooth(self, model, params, table):
        for k in (1, 5, 9):
            patch = crop_patch(model, model.centroids[k - 1], params)
            probs = patch_probabilities(patch, segment_patch(patch, params, table))
            patch_labels = model.labels[patch.point_indices]
            own = patch_labels == k
            accepted = probs >= params.accept_prob
            iou = (own & accepted).sum() / (own | accepted).sum()
            assert iou > 0.85

    def test_excludes_gingiva(self, model, params, table):
        patch = crop_patch(model, model.centroids[4], params)
        probs = patch_probabilities(patch, segment_patch(patch, params, table))
        gum = model.labels[patch.point_indices] == 0
        leak = (probs[gum] >= params.accept_prob).mean() if gum.any() else 0
        assert leak < 0.05

    def test_isolated_seed_degenerate(self):
        # one far-away point: its kNN edges all prune, seed isolated
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(0, 0.01, (63, 3)), [[5.0, 5.0, 5.0]]])
        params = SegParams(patch_size=64)
        patch = crop_patch(types.SimpleNamespace(cloud=PointCloud(pts)), pts[63], params)
        with pytest.warns(UserWarning):
            mask = segment_patch(patch, params, neighbour_table(pts))
        assert mask.degenerate
        assert mask.probabilities.sum() == 1.0
        assert np.array_equal(mask.point_indices, [63])


def origin_mask(model, idx, probabilities):
    """A mask over cloud points `idx` of a patch centred at the origin."""
    dist = np.linalg.norm(model.cloud.points[idx], axis=1)
    return PatchMask(idx, dist, np.asarray(probabilities, dtype=np.float64))


class TestFusePatches:
    def test_single_patch_full_cover(self, model, params):
        n = model.cloud.size
        labels = fuse_patches(model, [origin_mask(model, np.arange(n), np.ones(n))], params)
        assert (labels == 1).all()

    def test_disjoint_patches(self, model, params):
        a = np.arange(0, 100)
        b = np.arange(100, 200)
        masks = [origin_mask(model, a, np.ones(100)), origin_mask(model, b, np.full(100, 0.6))]
        labels = fuse_patches(model, masks, params)
        assert (labels[a] == 1).all()
        assert (labels[b] == 2).all()
        assert (labels[200:] == 0).all()

    def test_argmax_conflict_resolution(self, model, params):
        idx = np.arange(50)
        masks = [origin_mask(model, idx, np.full(50, 0.7)), origin_mask(model, idx, np.full(50, 0.9))]
        labels = fuse_patches(model, masks, params)
        assert (labels[idx] == 2).all()

    def test_exact_tie_goes_to_nearer_center_then_lower_index(self, model, params):
        idx = np.arange(40)
        p = np.full(40, 0.8)
        far, near = PatchMask(idx, np.full(40, 2.0), p), PatchMask(idx, np.full(40, 1.0), p)
        assert (fuse_patches(model, [far, near], params)[idx] == 2).all()
        assert (fuse_patches(model, [near, far], params)[idx] == 1).all()
        assert (fuse_patches(model, [near, near], params)[idx] == 1).all()

    def test_below_accept_prob_unlabeled(self, model, params):
        labels = fuse_patches(model, [origin_mask(model, np.arange(30), np.full(30, 0.4))], params)
        assert (labels == 0).all()


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

    def test_dice_iou_identity(self, model, params, table):
        masks = [segment_patch(crop_patch(model, c, params), params, table)
                 for c in model.centroids]
        r = iou_dice(fuse_patches(model, masks, params), model.labels)
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


def iou_dice_reference(pred_labels, gt_labels) -> dict:
    """The per-(gt, pred) mask loop `iou_dice` replaced."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    gt = np.asarray(gt_labels, dtype=np.int64)
    gt_ids = np.unique(gt[gt > 0])
    pred_ids = np.unique(pred[pred > 0])
    iou = np.zeros((len(gt_ids), max(len(pred_ids), 1)))
    dice = np.zeros_like(iou)
    for a, g in enumerate(gt_ids):
        gmask = gt == g
        gsize = int(gmask.sum())
        for b, p in enumerate(pred_ids):
            pmask = pred == p
            inter = int(np.sum(gmask & pmask))
            if inter == 0:
                continue
            psize = int(pmask.sum())
            iou[a, b] = inter / (gsize + psize - inter)
            dice[a, b] = 2.0 * inter / (gsize + psize)

    if len(pred_ids) == 0:
        matched = {}
    elif len(gt_ids) <= len(pred_ids):
        assignment, _ = hungarian_assign(-iou)
        matched = {a: int(assignment[a]) for a in range(len(gt_ids))}
    else:
        assignment, _ = hungarian_assign(-iou.T)
        matched = {int(assignment[b]): b for b in range(len(pred_ids))}
    per_instance = []
    total_iou = 0.0
    total_dice = 0.0
    for a, g in enumerate(gt_ids):
        b = matched.get(a)
        if b is None or iou[a, b] == 0.0:
            per_instance.append({"gt_id": int(g), "pred_id": None, "iou": 0.0, "dice": 0.0})
            continue
        total_iou += iou[a, b]
        total_dice += dice[a, b]
        per_instance.append({
            "gt_id": int(g),
            "pred_id": int(pred_ids[b]),
            "iou": 100.0 * iou[a, b],
            "dice": 100.0 * dice[a, b],
        })
    return {
        "mean_iou": 100.0 * total_iou / len(gt_ids),
        "mean_dice": 100.0 * total_dice / len(gt_ids),
        "per_instance": per_instance,
    }


def assert_iou_dice_matches_reference(pred, gt):
    """Bitwise: repr tells -0.0 from 0.0 and a numpy float from a Python one."""
    assert repr(iou_dice(pred, gt)) == repr(iou_dice_reference(pred, gt))


def perturbed(labels, rng):
    """`labels` with its ids shuffled among themselves, gingiva and three
    extra ids, then a tenth of the points relabelled at random."""
    n_ids = int(labels.max()) + 4
    pred = rng.permutation(n_ids)[labels]
    flip = rng.random(len(labels)) < 0.1
    pred[flip] = rng.integers(0, n_ids, int(flip.sum()))
    return pred


class TestIoUDiceReference:
    @pytest.mark.parametrize("index", range(5))
    def test_pinned_labelings(self, benchmark_config, index):
        scan_seed, _ = model_seeds(benchmark_config, index)
        gt = generate_model(benchmark_config.scan, scan_seed).labels
        rng = np.random.default_rng(index)
        for _ in range(6):
            assert_iou_dice_matches_reference(perturbed(gt, rng), gt)
        assert_iou_dice_matches_reference(np.zeros_like(gt), gt)
        assert_iou_dice_matches_reference(gt, gt)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_drawn_labelings(self, data):
        n = data.draw(st.integers(1, 60))
        gt = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        gt[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(1, 5))
        pred_max = data.draw(st.sampled_from([0, 3, 9]))  # none, fewer or more ids
        pred = data.draw(st.lists(st.integers(0, pred_max), min_size=n, max_size=n))
        assert_iou_dice_matches_reference(np.array(pred), gt)


def crop_patch_reference(model, center, params):
    """The full-lexsort crop `crop_patch` replaced."""
    pts = model.cloud.points
    c = np.asarray(center, dtype=np.float64).reshape(3)
    d = np.linalg.norm(pts - c, axis=1)
    idx = np.lexsort((np.arange(len(pts)), d))[: params.patch_size]
    return Patch(center=c, point_indices=idx, relative_coords=pts[idx] - c, distances=d[idx])


def segment_patch_reference(patch, params):
    """The per-patch-tree `segment_patch` the table replaced (its warning
    dropped), returning (probabilities, degenerate) with one probability per
    patch point: a mask must be its probability > 0 part, bit for bit.
    Zero-length edges stay in the graph as explicit zeros, which dijkstra
    follows, so duplicate points are joined."""
    pts = patch.relative_coords
    n = len(pts)
    k = min(params.knn_graph_k, n - 1)
    dist, nn = cKDTree(pts).query(pts, k=k + 1)
    dist, nn = dist[:, 1:], nn[:, 1:]
    rows = np.repeat(np.arange(n), k)
    cols = nn.ravel()
    lengths = dist.ravel()
    keep = lengths <= 2.0 * np.median(lengths)
    # directed k-NN edges, read both ways (`maximum(graph, graph.T)` would
    # drop the explicit zeros)
    graph = csr_matrix((lengths[keep], (rows[keep], cols[keep])), shape=(n, n))
    seed = int(np.argmin(np.linalg.norm(pts, axis=1)))
    g = dijkstra(graph, directed=False, indices=seed, limit=params.max_geodesic_radius)
    reachable = np.isfinite(g)
    probs = np.zeros(n)
    if reachable.sum() <= 1:
        probs[seed] = 1.0
        return probs, True
    n_core = max(1, int(round(0.05 * n)))
    r0 = float(np.median(np.sort(g[reachable])[:n_core]))
    probs[reachable] = np.exp(-params.prob_decay * np.maximum(0.0, g[reachable] - r0))
    return probs, False


def assert_patches_match_reference(model, centers, params):
    """Each centre's patch, and its mask with the model's table, are bitwise
    the reference's (for the mask, the reference's probability > 0 part);
    returns the settled-row count and the row count."""
    table = neighbour_table(model.cloud.points)
    settled = rows = 0
    for center in centers:
        patch = crop_patch(model, center, params)
        want = crop_patch_reference(model, center, params)
        assert np.array_equal(patch.point_indices, want.point_indices)
        assert np.array_equal(patch.relative_coords, want.relative_coords)
        assert np.array_equal(patch.distances, want.distances)
        with warnings.catch_warnings():  # degenerate patches warn
            warnings.simplefilter("ignore")
            mask = segment_patch(patch, params, table)
        probs, degenerate = segment_patch_reference(want, params)
        keep = probs > 0
        assert mask.degenerate == degenerate
        assert np.array_equal(mask.point_indices, want.point_indices[keep])
        assert np.array_equal(mask.probabilities, probs[keep])
        assert np.array_equal(
            mask.distances, np.linalg.norm(want.relative_coords[keep], axis=1)
        )
        # the settled rows hold the neighbours the patch tree gives them
        k = min(params.knn_graph_k, len(patch.point_indices) - 1)
        rows_settled, nn, dist = _table_neighbours(patch, table, k)
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
                benchmark_config.scan, model_seeds(benchmark_config, i)[0]
            )
            picks = model.centroids[[0, model.n_teeth // 2, -1]]
            s, r = assert_patches_match_reference(
                model, [*picks, extreme_x_point(model)], benchmark_config.segmentation
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

    def test_seed_joined_only_to_its_duplicate(self):
        """The seed's one neighbour within the cutoff is its own duplicate,
        at distance 0: the zero-length edge joins the two, so the mask is
        not degenerate and holds both at probability 1."""
        rng = np.random.default_rng(5)
        cluster = 0.5 + 0.01 * rng.normal(size=(60, 3))
        pts = np.concatenate([np.zeros((2, 3)), cluster])
        model = types.SimpleNamespace(cloud=PointCloud(pts))
        params = SegParams(patch_size=len(pts))
        assert_patches_match_reference(model, [np.zeros(3)], params)
        patch = crop_patch(model, np.zeros(3), params)
        mask = segment_patch(patch, params, neighbour_table(pts))
        assert not mask.degenerate
        assert sorted(mask.point_indices.tolist()) == [0, 1]
        assert mask.probabilities.tolist() == [1.0, 1.0]

    def test_cut_off_row_and_duplicate_pair(self):
        """A point whose k-NN edges are all cut leaves its graph row empty,
        in the middle of the patch; a duplicated point adds a zero-length
        edge.  Patched at the line's end, and at the cut-off point itself,
        whose isolated seed makes the mask degenerate."""
        rng = np.random.default_rng(7)
        line = np.stack([np.linspace(0.0, 2.0, 200), 0.002 * rng.normal(size=200),
                         np.zeros(200)], axis=1)
        cut_off = [0.0, 0.5, 0.0]
        pts = np.concatenate([line, [cut_off], line[40:41]])
        model = types.SimpleNamespace(cloud=PointCloud(pts))
        params = SegParams(patch_size=len(pts), max_geodesic_radius=1.0)
        patch = crop_patch_reference(model, np.zeros(3), params)
        row = int(np.flatnonzero(patch.point_indices == 200)[0])
        dist, _ = cKDTree(patch.relative_coords).query(
            patch.relative_coords, k=params.knn_graph_k + 1
        )
        assert 0 < row < len(pts) - 1
        assert dist[row, 1] > 2.0 * np.median(dist[:, 1:])
        assert_patches_match_reference(model, [np.zeros(3), cut_off], params)
        cut_patch = crop_patch_reference(model, cut_off, params)
        assert segment_patch_reference(cut_patch, params)[1]

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
