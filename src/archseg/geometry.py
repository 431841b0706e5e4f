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


def farthest_point_sampling(cloud: PointCloud, k: int, start_index: int = 0) -> np.ndarray:
    """Greedy max-min subsampling.

    output[0] = start_index; each subsequent pick maximizes its minimum
    distance to all previously chosen points, ties broken by lowest index.

    Distances are computed over contiguous x, y, z columns as
    sqrt((x - xj)**2 + (y - yj)**2 + (z - zj)**2), summed in that order, so
    each is bitwise equal to ``np.linalg.norm(pts - pts[j], axis=1)``.  The
    selected indices therefore do not depend on the points' memory layout or
    on the BLAS kernel.
    """
    pts = cloud.points
    n = len(pts)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for cloud of size {n}")
    if not 0 <= start_index < n:
        raise ValueError(f"start_index={start_index} out of range")
    x, y, z = np.ascontiguousarray(pts.T)
    dist = np.empty(n)
    term = np.empty(n)
    min_dist = np.full(n, np.inf)
    selected = np.empty(k, dtype=np.intp)
    selected[0] = start_index
    for i in range(1, k):
        j = selected[i - 1]
        np.subtract(x, x[j], out=dist)
        np.multiply(dist, dist, out=dist)
        for col in (y, z):
            np.subtract(col, col[j], out=term)
            np.multiply(term, term, out=term)
            np.add(dist, term, out=dist)
        np.sqrt(dist, out=dist)
        np.minimum(min_dist, dist, out=min_dist)
        selected[i] = np.argmax(min_dist)  # the first (lowest) index on ties
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
