"""Foundational geometric primitives shared by every pipeline stage.

All coordinates live in normalized model units: the cloud is centered at the
origin and scaled so the farthest point sits at distance 1 (see
``normalize_model``).  Every function here is pure and deterministic; any
randomness comes in through an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


class DegenerateCloudError(ValueError):
    """Raised when a point cloud has no spatial extent."""


def as_points(arr) -> np.ndarray:
    """Coerce input to an (N, 3) float64 array of finite coordinates."""
    pts = np.asarray(arr, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite coordinates")
    return pts


@dataclass(frozen=True)
class PointCloud:
    """Immutable ordered set of 3D points; operations refer to points by index."""

    points: np.ndarray

    def __post_init__(self):
        pts = as_points(self.points)
        if len(pts) < 1:
            raise DegenerateCloudError("point cloud must contain at least one point")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return len(self.points)


def normalize_model(cloud: PointCloud) -> PointCloud:
    """Center the cloud at the origin and scale the max point norm to 1.

    Gives every absolute threshold in the pipeline (confidence distance,
    grouping radius, ...) a fixed unit system.  Idempotent within 1e-9.
    """
    pts = cloud.points
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    radius = float(np.linalg.norm(centered, axis=1).max())
    if radius <= 0.0:
        raise DegenerateCloudError("all points identical; cannot normalize")
    return PointCloud(centered / radius)


class SpatialIndex:
    """Nearest-neighbor index over a PointCloud.

    Backed by a k-d tree; queries are guaranteed to return exactly the
    brute-force result, with ties broken by ascending point index.  Safe for
    unlimited concurrent read queries once built.
    """

    def __init__(self, cloud: PointCloud):
        self.cloud = cloud
        self._tree = cKDTree(cloud.points)


def k_nearest(index: SpatialIndex, query, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the k nearest cloud points to ``query``.

    Sorted by ascending distance, ties broken by ascending index.
    Returns (indices, distances).
    """
    n = index.cloud.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for cloud of size {n}")
    q = np.asarray(query, dtype=np.float64).reshape(3)
    dist, _ = index._tree.query(q, k=k)
    dist = np.atleast_1d(dist)
    # Re-collect every point within the k-th distance so boundary ties are
    # resolved by index, not by tree traversal order.
    cand = index._tree.query_ball_point(q, float(dist[-1]) * (1 + 1e-12))
    cand = np.asarray(cand, dtype=np.intp)
    d = np.linalg.norm(index.cloud.points[cand] - q, axis=1)
    order = np.lexsort((cand, d))[:k]
    return cand[order], d[order]


def brute_force_k_nearest(points: np.ndarray, query, k: int):
    """Reference oracle for k_nearest: full scan + lexicographic sort."""
    q = np.asarray(query, dtype=np.float64).reshape(3)
    d = np.linalg.norm(points - q, axis=1)
    idx = np.lexsort((np.arange(len(points)), d))[:k]
    return idx, d[idx]


# Points per block of the x-sorted FPS arrays; each block keeps the max of
# its points' min_dist, so finding the next pick scans blocks, not points.
FPS_BLOCK = 64
# Absolute slack of the FPS window: it covers the underflow of a squared
# coordinate difference when min_dist is tiny (near-duplicate points).
_FPS_WINDOW_ABS = 2.0**-500


def farthest_point_sampling(cloud: PointCloud, k: int, start_index: int = 0) -> np.ndarray:
    """Greedy max-min subsampling.

    output[0] = start_index; each subsequent pick maximizes its minimum
    distance to all previously chosen points, ties broken by lowest index.

    Distances are computed from separate x, y, z rows as
    sqrt((x - xj)**2 + (y - yj)**2 + (z - zj)**2), summed in that order, so
    each is bitwise equal to ``np.linalg.norm(pts - pts[j], axis=1)``.  The
    selected indices therefore do not depend on the points' memory layout or
    on the BLAS kernel.

    Window contract: the points are sorted by (x, index) once.  When pick j
    is added, only the contiguous slice with |x - x_j| <= M * (1 + 1e-9) +
    2**-500 is updated, where M is the current max of min_dist (the value
    that chose j).  A point outside it is at least M from j: a computed
    distance is not below |x - x_j| by more than that slack, whose absolute
    part covers squared differences that underflow when points nearly
    coincide.  So its min_dist cannot fall.  The bounds x_j -/+ width are
    rounded, but rounding is monotone, so no sorted x inside the exact
    window falls outside the searched slice.  Every min_dist is therefore
    bitwise what a full pass computes, and the picks are the same.  Blocks
    of FPS_BLOCK sorted points keep their max of min_dist; the next pick is
    the lowest original index among the points at the overall max.
    """
    pts = cloud.points
    n = len(pts)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for cloud of size {n}")
    if not 0 <= start_index < n:
        raise ValueError(f"start_index={start_index} out of range")
    order = np.argsort(pts[:, 0], kind="stable")  # by (x, index)
    coords = np.ascontiguousarray(pts[order].T)  # sorted x, y, z rows
    xs, x_list = coords[0], coords[0].tolist()
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    rank = rank.tolist()
    n_blocks = -(-n // FPS_BLOCK)
    pad = n_blocks * FPS_BLOCK - n
    # min_dist and original indices in sorted order, padded to whole blocks
    min_dist = np.concatenate([np.full(n, np.inf), np.full(pad, -np.inf)])
    index = np.concatenate([order, np.full(pad, n)])
    blocks = min_dist.reshape(n_blocks, FPS_BLOCK)
    block_max = blocks.max(axis=1)
    selected = np.empty(k, dtype=np.intp)
    selected[0] = start_index
    m = np.inf
    for i in range(1, k):
        r = rank[selected[i - 1]]
        width = m * (1 + 1e-9) + _FPS_WINDOW_ABS
        lo = int(xs.searchsorted(x_list[r] - width, side="left"))
        hi = int(xs.searchsorted(x_list[r] + width, side="right"))
        t = coords[:, lo:hi] - coords[:, r : r + 1]
        t *= t
        d = t[0] + t[1]
        d += t[2]
        np.sqrt(d, out=d)
        window = min_dist[lo:hi]
        np.minimum(window, d, out=window)
        b0, b1 = lo // FPS_BLOCK, -(-hi // FPS_BLOCK)
        np.maximum.reduce(blocks[b0:b1], axis=1, out=block_max[b0:b1])
        # Every block whose max is m lies in [b0, b1); the pick is the
        # lowest original index among their points at m.
        b0 = int(block_max.argmax())
        b1 = n_blocks - int(block_max[::-1].argmax())
        m = float(block_max[b0])
        p0, p1 = b0 * FPS_BLOCK, b1 * FPS_BLOCK
        selected[i] = index[p0:p1][min_dist[p0:p1] == m].min()
    return selected


def chamfer_distance(p1: PointCloud, p2: PointCloud) -> float:
    """Symmetric sum of squared nearest-neighbor distances.

    Sum-of-squared form (no square root, no averaging) so reported values
    are directly comparable across runs.
    """
    a, b = p1.points, p2.points
    d_ab, _ = cKDTree(b).query(a)
    d_ba, _ = cKDTree(a).query(b)
    return float(np.sum(d_ab**2) + np.sum(d_ba**2))


def huber_l1(pred, target, delta: float = 1.0) -> float:
    """Mean Huber loss over components: quadratic below delta, linear above."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(target, dtype=np.float64).ravel()
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    r = np.abs(p - t)
    quad = 0.5 * r**2
    lin = delta * (r - 0.5 * delta)
    return float(np.mean(np.where(r <= delta, quad, lin)))


_CLAMP_EPS = 1e-7


def cross_entropy(prob, label) -> float:
    """Binary cross-entropy with probabilities clamped to [1e-7, 1 - 1e-7]."""
    p = np.clip(np.asarray(prob, dtype=np.float64), _CLAMP_EPS, 1.0 - _CLAMP_EPS)
    y = np.asarray(label, dtype=np.float64)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))
