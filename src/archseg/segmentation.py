"""Patch-based tooth instance segmentation.

A 2048-point patch is cropped around each detected centroid and scored by a
geodesic region-growing stand-in: a k-NN graph with long (gap-crossing)
edges pruned, geodesic distances from the seed nearest the patch center, and
an exponentially decaying probability in geodesic distance.  Patch masks are
fused into a full-model instance labeling by per-point argmax.

The k-NN graph of a patch is read from one per-model `NeighbourTable` where
the table settles it, and from the patch's own k-d tree elsewhere; either
way each patch point gets exactly the neighbours and edge lengths the patch
tree alone would give it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .assignment import hungarian_assign
from .synthetic import DentalModel


@dataclass(frozen=True)
class SegParams:
    patch_size: int = 2048
    knn_graph_k: int = 8
    max_geodesic_radius: float = 0.2
    prob_decay: float = 10.0
    accept_prob: float = 0.5

    def __post_init__(self):
        if min(self.patch_size, self.knn_graph_k) < 1:
            raise ValueError("patch_size and knn_graph_k must be positive")
        if min(self.max_geodesic_radius, self.prob_decay, self.accept_prob) <= 0:
            raise ValueError("geodesic radius, decay and accept_prob must be positive")


# Entries per point of a NeighbourTable, the point itself included.
TABLE_K = 12


@dataclass(frozen=True)
class NeighbourTable:
    """The TABLE_K nearest points of every point of one cloud (itself
    included), as cKDTree returns them, and the distance to the last one."""

    indices: np.ndarray  # (N, TABLE_K) int32 cloud indices
    reach: np.ndarray  # (N,) no point outside a row is nearer than this


def neighbour_table(points) -> NeighbourTable:
    """The NeighbourTable of an (N, 3) cloud."""
    k = min(TABLE_K, len(points))
    dist, idx = cKDTree(points).query(points, k=k)
    idx = idx.reshape(len(points), k).astype(np.int32)
    return NeighbourTable(indices=idx, reach=dist.reshape(len(points), k)[:, -1].copy())


@dataclass(frozen=True)
class Patch:
    """The patch_size cloud points nearest a detected centroid; `table`, if
    given, is the whole cloud's NeighbourTable (shared, not copied)."""

    center: np.ndarray
    point_indices: np.ndarray
    relative_coords: np.ndarray
    table: NeighbourTable | None = None


@dataclass(frozen=True)
class PatchMask:
    """Per-patch-point tooth probability, aligned with Patch.point_indices."""

    probabilities: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True)
class InstanceSegmentation:
    labels: np.ndarray  # 0 = background, k >= 1 = k-th patch's instance
    winning_prob: np.ndarray


def crop_patch(
    model: DentalModel, center, params: SegParams = SegParams(), table=None
) -> Patch:
    """Crop the patch_size nearest points to `center`, ties broken by index.

    `table` (the model's `neighbour_table`) is passed on to the patch."""
    pts = model.cloud.points
    size = params.patch_size
    if len(pts) < size:
        raise ValueError(f"cloud of {len(pts)} points is smaller than patch_size {size}")
    c = np.asarray(center, dtype=np.float64).reshape(3)
    d = np.linalg.norm(pts - c, axis=1)
    # every point within the size-th smallest distance, then (distance, index)
    cand = np.flatnonzero(d <= np.partition(d, size - 1)[size - 1])
    idx = cand[np.lexsort((cand, d[cand]))[:size]]
    return Patch(center=c, point_indices=idx, relative_coords=pts[idx] - c, table=table)


def _table_neighbours(patch: Patch, k: int):
    """(settled, nn, dist): a mask of the rows whose k nearest other patch
    points the table settles, and for those rows the points and distances
    the patch's own cKDTree query returns (after its self-match).

    A row is settled when its table row holds at least k other patch
    points, the nearest of them is not at distance 0 (a duplicate point
    could take the tree's self-match slot), the k-th is strictly nearer
    than the (k+1)-th (no tie for the tree to break) and nearer than the
    row's reach by a margin that covers the rounding between absolute and
    patch-relative coordinates (no patch point outside the row can be
    nearer).  Distances are recomputed from the patch-relative x, y, z as
    sqrt((dx*dx + dy*dy) + dz*dz), bitwise the tree's.
    """
    pts = patch.relative_coords
    n = len(pts)
    table = patch.table
    if table is None or not 0 < k < TABLE_K:
        return np.zeros(n, dtype=bool), np.empty((0, k), dtype=np.intp), np.empty((0, k))
    idx = patch.point_indices
    local = np.full(len(table.reach), -1, dtype=np.intp)
    local[idx] = np.arange(n)
    cand = np.take(local, table.indices[idx])  # (n, TABLE_K); -1 off-patch
    x, y, z = (np.ascontiguousarray(col) for col in pts.T)
    dx = np.take(x, cand) - x[:, None]
    dy = np.take(y, cand) - y[:, None]
    dz = np.take(z, cand) - z[:, None]
    r = np.sqrt((dx * dx + dy * dy) + dz * dz)
    r[(cand < 0) | (cand == np.arange(n)[:, None])] = np.inf
    rs = np.sort(r, axis=1)
    margin = 1e-9 * (np.abs(patch.center).max() + np.abs(pts).max())
    settled = (
        (rs[:, 0] > 0)
        & (rs[:, k - 1] < rs[:, k])
        & (rs[:, k - 1] < table.reach[idx] - margin)
    )
    # a settled row has exactly k entries up to its k-th distance
    sel = (r <= rs[:, k - 1, None]) & settled[:, None]
    return settled, cand[sel].reshape(-1, k), r[sel].reshape(-1, k)


def segment_patch(patch: Patch, params: SegParams = SegParams()) -> PatchMask:
    """Geodesic region growing from the point nearest the patch center.

    k-NN graph edges longer than twice the median edge length are removed,
    which cuts the graph across the tooth/gingiva and tooth/tooth gaps;
    probability decays exponentially in geodesic distance beyond the local
    seed neighborhood radius, and is 0 outside max_geodesic_radius.

    Each point's k nearest other patch points are those of the patch's own
    cKDTree query.  Rows the patch's table settles (`_table_neighbours`)
    are read from it; every other row, and every row of a patch without a
    table, queries the patch tree.  The mask is the same either way.
    """
    pts = patch.relative_coords
    n = len(pts)
    k = min(params.knn_graph_k, n - 1)
    dist = np.empty((n, k))
    nn = np.empty((n, k), dtype=np.intp)
    settled, table_nn, table_dist = _table_neighbours(patch, k)
    nn[settled], dist[settled] = table_nn, table_dist
    rest = np.flatnonzero(~settled)
    d, j = cKDTree(pts).query(pts[rest], k=k + 1)
    dist[rest], nn[rest] = d[:, 1:], j[:, 1:]  # drop the self-match
    rows = np.repeat(np.arange(n), k)
    cols = nn.ravel()
    lengths = dist.ravel()
    cutoff = 2.0 * np.median(lengths)
    keep = lengths <= cutoff
    graph = csr_matrix(
        (lengths[keep], (rows[keep], cols[keep])), shape=(n, n)
    )
    graph = graph.maximum(graph.T)  # symmetric: either endpoint's k-NN suffices

    seed = int(np.argmin(np.linalg.norm(pts, axis=1)))
    g = dijkstra(graph, directed=False, indices=seed, limit=params.max_geodesic_radius)

    reachable = np.isfinite(g)
    if reachable.sum() <= 1:
        warnings.warn("patch seed is isolated; emitting a degenerate mask")
        probs = np.zeros(n)
        probs[seed] = 1.0
        return PatchMask(probabilities=probs, degenerate=True)

    n_core = max(1, int(round(0.05 * n)))
    r0 = float(np.median(np.sort(g[reachable])[:n_core]))
    probs = np.zeros(n)
    probs[reachable] = np.exp(
        -params.prob_decay * np.maximum(0.0, g[reachable] - r0)
    )
    return PatchMask(probabilities=probs)


def fuse_patches(
    model: DentalModel, patches, masks, params: SegParams = SegParams()
) -> InstanceSegmentation:
    """Per-point argmax fusion of patch masks into an instance labeling.

    A point takes the instance id of the patch giving it the highest
    probability if that probability reaches accept_prob, else stays 0.
    Exact ties go to the nearer patch center, then the lower patch index.
    """
    if len(patches) != len(masks):
        raise ValueError("patches and masks must be aligned")
    n = model.cloud.size
    best_prob = np.zeros(n)
    best_dist = np.full(n, np.inf)
    best_patch = np.full(n, -1, dtype=np.int64)
    for j, (patch, mask) in enumerate(zip(patches, masks)):
        idx = patch.point_indices
        p = mask.probabilities
        dist = np.linalg.norm(patch.relative_coords, axis=1)
        cur_prob = best_prob[idx]
        cur_dist = best_dist[idx]
        win = (p > cur_prob) | ((p == cur_prob) & (p > 0) & (dist < cur_dist))
        upd = idx[win]
        best_prob[upd] = p[win]
        best_dist[upd] = dist[win]
        best_patch[upd] = j
    labels = np.where(best_prob >= params.accept_prob, best_patch + 1, 0)
    return InstanceSegmentation(labels=labels, winning_prob=best_prob)


def iou_dice(pred_labels, gt_labels) -> dict:
    """Instance IoU / Dice with one-to-one Hungarian matching.

    Predicted and ground-truth instances are matched by maximizing total
    IoU; unmatched ground-truth instances contribute 0.  Means are macro
    over ground-truth instances, in percent.
    """
    pred = np.asarray(pred_labels, dtype=np.int64)
    gt = np.asarray(gt_labels, dtype=np.int64)
    if pred.shape != gt.shape:
        raise ValueError("label arrays must have the same length")
    gt_ids = np.unique(gt[gt > 0])
    if len(gt_ids) == 0:
        raise ValueError("no ground-truth instances")
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

    per_instance = []
    if len(pred_ids) == 0:
        matched = {}
    elif len(gt_ids) <= len(pred_ids):
        assignment, _ = hungarian_assign(-iou)
        matched = {a: int(assignment[a]) for a in range(len(gt_ids))}
    else:
        assignment, _ = hungarian_assign(-iou.T)
        matched = {int(assignment[b]): b for b in range(len(pred_ids))}

    total_iou = 0.0
    total_dice = 0.0
    for a, g in enumerate(gt_ids):
        b = matched.get(a)
        if b is None or iou[a, b] == 0.0:
            per_instance.append(
                {"gt_id": int(g), "pred_id": None, "iou": 0.0, "dice": 0.0}
            )
            continue
        total_iou += iou[a, b]
        total_dice += dice[a, b]
        per_instance.append(
            {
                "gt_id": int(g),
                "pred_id": int(pred_ids[b]),
                "iou": 100.0 * iou[a, b],
                "dice": 100.0 * dice[a, b],
            }
        )
    return {
        "mean_iou": 100.0 * total_iou / len(gt_ids),
        "mean_dice": 100.0 * total_dice / len(gt_ids),
        "per_instance": per_instance,
    }
