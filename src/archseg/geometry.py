"""Foundational geometric primitives shared by every pipeline stage.

All coordinates live in normalized model units: the cloud is centered at the
origin and scaled so the farthest point sits at distance 1 (see
``normalize_model``).  Every function here is pure and deterministic; any
randomness comes in through an explicit seed.  ``distances`` is the one
Euclidean distance kernel over (..., 3) arrays, and ``k_nearest`` the exact
k-nearest contract (ties to the lower index) that patch crops follow.

The module imports no scipy, only numpy: every stage imports it, so a
process that never segments loads no k-d tree code (see `segmentation`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


# The origin, for the norms of vectors: distances(v, ORIGIN) is |v|.
ORIGIN = np.zeros(3)
ORIGIN.setflags(write=False)


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances over the last axis of broadcast (..., 3) arrays.

    Summed column by column as sqrt((dx*dx + dy*dy) + dz*dz) with
    d = a[..., k] - b[..., k]: the sum ``np.linalg.norm(a - b, axis=-1)``
    takes, in the same order, so every result is bitwise the same, but
    without NumPy's slow per-row reduction of a length-3 axis.
    """
    dx = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    dz = a[..., 2] - b[..., 2]
    return np.sqrt((dx * dx + dy * dy) + dz * dz)


def normalize_model(cloud: PointCloud) -> PointCloud:
    """Center the cloud at the origin and scale the max point norm to 1.

    Gives every absolute threshold in the pipeline (confidence distance,
    grouping radius, ...) a fixed unit system.  Idempotent within 1e-9.
    """
    pts = cloud.points
    centroid = pts.mean(axis=0)
    radius = float(distances(pts, centroid).max())
    if radius <= 0.0:
        raise DegenerateCloudError("all points identical; cannot normalize")
    return PointCloud((pts - centroid) / radius)


def k_nearest(points: np.ndarray, query, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the k points of an (N, 3) array nearest
    ``query``: exact, sorted by ascending distance, ties broken by ascending
    index.  Distances are ``distances(points, query)``.

    Every point within the k-th smallest distance (found by a partition) is
    sorted by (distance, index).  Returns (indices, distances).
    """
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for cloud of size {n}")
    d = distances(points, np.asarray(query, dtype=np.float64).reshape(3))
    cand = np.flatnonzero(d <= np.partition(d, k - 1)[k - 1])
    idx = cand[np.lexsort((cand, d[cand]))[:k]]
    return idx, d[idx]


def brute_force_k_nearest(points: np.ndarray, query, k: int):
    """Reference oracle for k_nearest: full scan + lexicographic sort."""
    q = np.asarray(query, dtype=np.float64).reshape(3)
    d = np.linalg.norm(points - q, axis=1)
    idx = np.lexsort((np.arange(len(points)), d))[:k]
    return idx, d[idx]


# Absolute slack of the FPS window: it covers the underflow of a squared
# coordinate difference when min_dist is tiny (near-duplicate points).
_FPS_WINDOW_ABS = 2.0**-500
# Most candidates per batch of FPS picks (see `farthest_point_sampling`).
_FPS_BATCH = 64


def farthest_point_sampling(cloud: PointCloud, k: int, start_index: int = 0) -> np.ndarray:
    """Greedy max-min subsampling.

    output[0] = start_index; each subsequent pick is the unpicked point that
    maximizes its minimum distance to all previously chosen points, ties
    broken by lowest index.  So the picks are distinct: once every unpicked
    point coincides with a pick, the rest follow in ascending index order.

    Distances are computed from separate x, y, z rows as
    sqrt((x - xj)**2 + (y - yj)**2 + (z - zj)**2), summed in that order, so
    each is bitwise equal to ``distances(pts, pts[j])``.  The
    selected indices therefore do not depend on the points' memory layout or
    on the BLAS kernel.

    Window contract: the points are sorted by (x, index) once, and min_dist
    is kept in that order.  When pick j is applied, only the contiguous
    slice with |x - x_j| <= M * (1 + 1e-9) + 2**-500 is updated, where M is
    the max of min_dist that chose j (inf for start_index, whose window is
    the whole cloud).  A point outside it is at least M from j: a computed
    distance is not below |x - x_j| by more than that slack, whose absolute
    part covers squared differences that underflow when points nearly
    coincide.  Its min_dist, at most M once the picks before j are applied,
    cannot fall.  The bounds x_j -/+ width are rounded, but rounding is
    monotone, so no sorted x inside the exact window falls outside the
    searched slice.

    Batch contract: the picks are taken in batches.  A batch starts from
    every point's exact min_dist and keeps the B points with the largest as
    candidates, in index order, where B is the number of picks so far, at
    most 64; the largest min_dist of the others is the bound.  Each
    candidate's value stays exact: after every pick it is lowered by its
    distance to the pick, from one B x B matrix summed as the windows are.
    min_dist only falls, so no other point's value exceeds the bound: while
    the best candidate is strictly above it, that candidate is the argmax,
    and the lowest index at its value since no other point reaches it.
    When it only ties the bound, a lower-index point outside the candidates
    may tie it, so one pick is taken among every point at that value.  A
    batch's picks are applied together, every window as it would be one
    pick at a time: a minimum does not depend on the order its distances
    are taken in, so min_dist is bitwise what a full pass after every pick
    computes, and the picks are the same.  B grows with the picks because
    early batches yield few picks: their candidates crowd the one region
    farthest from the few picks so far.
    """
    pts = cloud.points
    n = len(pts)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for cloud of size {n}")
    if not 0 <= start_index < n:
        raise ValueError(f"start_index={start_index} out of range")
    order = np.argsort(pts[:, 0], kind="stable")  # by (x, index)
    coords = np.ascontiguousarray(pts[order].T)  # sorted x, y, z rows
    min_dist = np.full(n, np.inf)
    q = int(np.flatnonzero(order == start_index)[0])  # sorted position
    min_dist[q] = -np.inf  # a pick never wins again
    selected = np.empty(k, dtype=np.intp)
    selected[0] = start_index
    picks, values = [q], [np.inf]  # positions not yet applied, and the M that chose each
    i = 1
    block = np.empty((3, 0))
    while i < k:
        block = _fps_apply_windows(min_dist, coords, picks, values, block)
        kth = n - 1 - min(_FPS_BATCH, i)  # >= 0, since i < k <= n
        part = np.argpartition(min_dist, kth)  # the bound at kth, the B largest after it
        bound = float(min_dist[part[kth]])
        cpos = part[kth + 1:]  # sorted positions
        cpos = cpos[np.argsort(order[cpos])]  # in index order
        cand = order[cpos]
        value = min_dist[cpos]
        b = int(value.argmax())
        v = float(value[b])
        if not v > bound:  # so v, the largest value, ties the bound
            at_max = np.flatnonzero(min_dist == v)
            q = at_max[order[at_max].argmin()]
            selected[i] = order[q]
            i += 1
            picks, values = [q], [v]
            min_dist[q] = -np.inf
            continue
        c = coords.take(cpos, axis=1)  # C order, unlike coords[:, cpos]: faster below
        pair = _root_sum_squares(c[:, :, None] - c[:, None])
        picks, values = [], []
        while True:
            selected[i] = cand[b]
            i += 1
            picks.append(cpos[b])
            values.append(v)
            if i == k:
                break
            np.minimum(value, pair[b], out=value)
            value[b] = -np.inf
            b = int(value.argmax())
            v = float(value[b])
            if not v > bound:
                break
        min_dist[cpos] = value
    return selected


def _fps_apply_windows(min_dist, coords, picks, values, block):
    """Lower the sorted-order ``min_dist`` by each pick's distance inside
    its window (see `farthest_point_sampling`), where ``picks`` are sorted
    positions and ``values`` holds the M that chose each.  The
    differences of all windows go into one (3, total) slice of ``block``,
    so squares, sums and roots take one call each; returns the block, grown
    if it was too small, for the next call.  With glibc's malloc, a block
    allocated per call made the later stages fault in fresh pages: about
    500 more minor page faults per detection-only pinned model.

    The windows are folded in slice by slice with ``np.minimum``, not with
    ``np.minimum.at``: an array that arrives by pickle, as a model does in a
    pool worker, carries a float64 descriptor that is not numpy's own
    instance, and ``ufunc.at`` then leaves its fast path (about 25x slower
    for 15k elements with numpy 2.4).
    """
    width = np.multiply(values, 1 + 1e-9) + _FPS_WINDOW_ABS
    xs = coords[0]
    x = xs[picks]
    lo = xs.searchsorted(x - width, side="left").tolist()
    hi = xs.searchsorted(x + width, side="right").tolist()
    spans, total = [], 0  # (window, its columns in the block)
    for l, h in zip(lo, hi):
        spans.append((l, h, total, total + h - l))
        total += h - l
    if total > block.shape[1]:
        block = np.empty((3, 2 * total))
    for p, (l, h, a, e) in zip(picks, spans):
        np.subtract(coords[:, l:h], coords[:, p, None], out=block[:, a:e])
    d = _root_sum_squares(block[:, :total])
    for l, h, a, e in spans:
        np.minimum(min_dist[l:h], d[a:e], out=min_dist[l:h])
    return block


def _root_sum_squares(t: np.ndarray) -> np.ndarray:
    """sqrt((t[0]**2 + t[1]**2) + t[2]**2), summed in `distances`' order;
    squares ``t`` in place."""
    t *= t
    d = t[0] + t[1]
    d += t[2]
    return np.sqrt(d, out=d)


def chamfer_distance(p1: PointCloud, p2: PointCloud) -> float:
    """Symmetric sum of squared nearest-neighbor distances.

    Sum-of-squared form (no square root, no averaging) so reported values
    are directly comparable across runs.  The nearest distances are the row
    and column minima of one `distances` matrix, so it holds len(p1) *
    len(p2) floats; the kernel sums in cKDTree's order, so the value is
    bitwise what two cKDTree queries give.
    """
    d = distances(p1.points[:, None], p2.points[None])
    return float(np.sum(d.min(axis=1) ** 2) + np.sum(d.min(axis=0) ** 2))


def huber_l1(pred, target, delta: float) -> float:
    """Mean Huber loss over components: quadratic below delta > 0, linear above."""
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
