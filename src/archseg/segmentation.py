"""Patch-based tooth instance segmentation.

A 2048-point patch (the centroid's `geometry.k_nearest` points) is cropped
around each detected centroid and scored by a geodesic region-growing
stand-in: a k-NN graph with long (gap-crossing) edges pruned (zero-length
edges between duplicate points are kept, so duplicates are joined),
geodesic distances from the seed nearest the patch center, and an
exponentially decaying probability in geodesic distance.  A patch's mask
keeps only its points with probability > 0, the only ones that can win
when the masks are fused into a full-model instance labeling by per-point
argmax.

The k-NN graph of a patch follows the patch's own cKDTree query, ties
included; this is a second contract beside `k_nearest`'s.  It is read from
one per-model `NeighbourTable` where the table settles it, and from the
patch tree elsewhere; either way each patch point gets exactly the
neighbours and edge lengths the patch tree alone would give it.

The module imports no scipy at load time.  `neighbour_table` and
`segment_patch` are the only k-d tree builders, and `segment_patch` the only
graph search; they import `scipy.spatial` and `scipy.sparse.csgraph` when
first called, so a process that never segments (a detection-only run,
`generate`, `eval`) loads no scipy at all.  Instance matching in `iou_dice`
uses `assignment.hungarian_assign`, which is numpy-only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assignment import hungarian_assign
from .geometry import k_nearest
from .synthetic import DentalModel


@dataclass(frozen=True)
class SegParams:
    patch_size: int = 2048
    knn_graph_k: int = 8
    max_geodesic_radius: float = 0.2
    prob_decay: float = 10.0
    accept_prob: float = 0.5

    def __post_init__(self):
        if self.patch_size < 2:
            raise ValueError(
                f"patch_size must be >= 2 (a point and a neighbour), got {self.patch_size}"
            )
        if self.knn_graph_k < 1:
            raise ValueError("knn_graph_k must be positive")
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
    from scipy.spatial import cKDTree

    k = min(TABLE_K, len(points))
    dist, idx = cKDTree(points).query(points, k=k)
    idx = idx.reshape(len(points), k).astype(np.int32)
    return NeighbourTable(indices=idx, reach=dist.reshape(len(points), k)[:, -1].copy())


@dataclass(frozen=True)
class Patch:
    """The patch_size cloud points nearest a detected centroid, sorted by
    distance to it (ties by index)."""

    center: np.ndarray
    point_indices: np.ndarray
    relative_coords: np.ndarray
    distances: np.ndarray  # to the center


@dataclass(frozen=True)
class PatchMask:
    """A patch's tooth mask as fusion reads it: the patch points with
    probability > 0, in patch order, with their distance to the patch
    center."""

    point_indices: np.ndarray  # cloud indices
    distances: np.ndarray
    probabilities: np.ndarray
    degenerate: bool = False


def crop_patch(model: DentalModel, center, params: SegParams) -> Patch:
    """Crop the patch_size nearest points to `center` (`k_nearest`: ties
    broken by index)."""
    pts = model.cloud.points
    c = np.asarray(center, dtype=np.float64).reshape(3)
    idx, dist = k_nearest(pts, c, params.patch_size)
    return Patch(center=c, point_indices=idx, relative_coords=pts[idx] - c, distances=dist)


def _table_neighbours(patch: Patch, table: NeighbourTable, k: int):
    """(settled, nn, dist): a mask of the rows whose k nearest other patch
    points `table` (the cloud's NeighbourTable) settles, and for
    those rows the points and distances the patch's own cKDTree query
    returns (after its self-match).

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
    if not 0 < k < TABLE_K:
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


def segment_patch(patch: Patch, params: SegParams, table: NeighbourTable) -> PatchMask:
    """Geodesic region growing from patch position 0, the point nearest the center.

    k-NN graph edges longer than twice the median edge length are removed,
    which cuts the graph across the tooth/gingiva and tooth/tooth gaps;
    zero-length edges between duplicate points are kept, so a duplicate is
    reached at the same geodesic distance as its twin; the graph is
    undirected, so a pair is joined if either is among the other's k-NN;
    probability decays exponentially in geodesic distance beyond the local
    seed neighborhood radius, and is 0 outside max_geodesic_radius.

    Each point's k nearest other patch points are those of the patch's own
    cKDTree query.  Rows `table` (the model's `neighbour_table`) settles
    (`_table_neighbours`) are read from it; every other row queries the
    patch tree.  A degenerate mask is the seed alone at probability 1.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra
    from scipy.spatial import cKDTree

    pts = patch.relative_coords
    n = len(pts)
    k = min(params.knn_graph_k, n - 1)
    dist = np.empty((n, k))
    nn = np.empty((n, k), dtype=np.intp)
    settled, table_nn, table_dist = _table_neighbours(patch, table, k)
    nn[settled], dist[settled] = table_nn, table_dist
    rest = np.flatnonzero(~settled)
    d, j = cKDTree(pts).query(pts[rest], k=k + 1)
    # Drop the self-match.  Duplicate points get the same query result, so
    # when a twin comes first its row keeps a 0 self-loop and the twin's row
    # the 0 edge between them.
    dist[rest], nn[rest] = d[:, 1:], j[:, 1:]
    cutoff = 2.0 * np.median(dist)
    # Row i of the CSR graph holds point i's kept k-NN edges, one per pair,
    # which dijkstra(directed=False) reads both ways; a zero-length edge is
    # stored as an explicit 0, which dijkstra follows, so duplicate points
    # are joined.  A row whose edges are all cut is empty.
    keep = dist <= cutoff
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    graph = csr_matrix((dist[keep], nn[keep], indptr), shape=(n, n))

    g = dijkstra(graph, directed=False, indices=0, limit=params.max_geodesic_radius)

    reachable = np.isfinite(g)
    probs = np.zeros(n)
    degenerate = bool(reachable.sum() <= 1)
    if degenerate:
        warnings.warn("patch seed is isolated; emitting a degenerate mask")
        probs[0] = 1.0
    else:
        n_core = max(1, int(round(0.05 * n)))
        r0 = float(np.median(np.sort(g[reachable])[:n_core]))
        probs[reachable] = np.exp(
            -params.prob_decay * np.maximum(0.0, g[reachable] - r0)
        )
    keep = probs > 0
    return PatchMask(
        point_indices=patch.point_indices[keep],
        distances=patch.distances[keep],
        probabilities=probs[keep],
        degenerate=degenerate,
    )


def fuse_patches(model: DentalModel, masks, params: SegParams) -> np.ndarray:
    """Per-point argmax fusion of patch masks into instance labels: 0 is
    background, k >= 1 the k-th mask's instance.

    A point takes the instance id of the mask giving it the highest
    probability if that probability reaches accept_prob, else stays 0.
    Exact ties go to the nearer patch center, then the lower mask index.
    """
    n = model.cloud.size
    best_prob = np.zeros(n)
    best_dist = np.full(n, np.inf)
    best_patch = np.full(n, -1, dtype=np.int64)
    for j, mask in enumerate(masks):
        idx, p, dist = mask.point_indices, mask.probabilities, mask.distances
        cur_prob = best_prob[idx]
        win = (p > cur_prob) | ((p == cur_prob) & (dist < best_dist[idx]))
        upd = idx[win]
        best_prob[upd] = p[win]
        best_dist[upd] = dist[win]
        best_patch[upd] = j
    return np.where(best_prob >= params.accept_prob, best_patch + 1, 0)


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

    # One contingency table over (gt index, pred index) pairs; the last row
    # and column count the points outside every gt / pred instance.
    rows = np.where(gt > 0, np.searchsorted(gt_ids, gt), len(gt_ids))
    cols = np.where(pred > 0, np.searchsorted(pred_ids, pred), len(pred_ids))
    shape = (len(gt_ids) + 1, len(pred_ids) + 1)
    table = np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1]).reshape(shape)
    inter = table[:-1, :-1]
    gsize = table[:-1].sum(axis=1)[:, None]
    psize = table[:, :-1].sum(axis=0)[None, :]
    iou = inter / (gsize + psize - inter)
    dice = 2.0 * inter / (gsize + psize)

    per_instance = []
    if len(pred_ids) == 0:
        assignment = [-1] * len(gt_ids)
    else:
        assignment = hungarian_assign(-iou)[0].tolist()

    total_iou = 0.0
    total_dice = 0.0
    for a, (g, b) in enumerate(zip(gt_ids, assignment)):
        if b < 0 or iou[a, b] == 0.0:
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
