"""Dental arch estimation: target-arch construction and vote-driven refinement.

An arch is represented two ways: a cubic Bézier (coarse stage) and a 32-point
ordered polyline (fine stage).  The polyline order convention is
left-to-right along the jaw, i.e. ascending x in the canonical jaw frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bezier import BezierCurve, bezier_sample_uniform
from .geometry import ORIGIN, distances

ARCH_POINTS = 32


@dataclass(frozen=True)
class ArchPolyline:
    """Ordered 32-point arch curve."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.shape != (ARCH_POINTS, 3):
            raise ValueError(f"arch polyline must have exactly {ARCH_POINTS} points, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("arch points must be finite")
        spacing = distances(pts[1:], pts[:-1])
        if np.any(spacing <= 1e-9):
            raise ValueError("consecutive arch points must be non-coincident")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class RefineParams:
    """Knobs of the deterministic arch refiner.

    iterations and neighbors mirror the refinement structure (3 rounds over
    32 points, 3 nearest votes per arch point); step/smoothing control the
    along-chain message passing that replaces the learned offset head.
    """

    iterations: int = 3
    neighbors: int = 3
    step_size: float = 1.0
    smoothing_lambda: float = 0.5
    smoothing_passes: int = 2

    def __post_init__(self):
        if self.iterations < 1 or self.neighbors < 1:
            raise ValueError("iterations and neighbors must be >= 1")
        if not 0.0 <= self.step_size <= 1.0:
            raise ValueError("step_size must lie in [0, 1]")
        if self.smoothing_lambda < 0 or self.smoothing_passes < 0:
            raise ValueError("smoothing parameters must be non-negative")


def order_centroids(centroids: np.ndarray) -> np.ndarray:
    """Indices ordering centroids along the jaw, left to right.

    Centroids are sorted by angle around their mean within the best-fit
    (PCA) plane; the cyclic order is cut at the largest angular gap (the
    open end of the arch) and oriented by ascending x.
    """
    c = np.asarray(centroids, dtype=np.float64)
    n = len(c)
    if n < 2:
        raise ValueError("need at least 2 centroids")
    if n == 2:
        return np.argsort(c[:, 0], kind="stable")
    centered = c - c.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    uv = centered @ vt[:2].T
    ang = np.arctan2(uv[:, 1], uv[:, 0])
    order = np.lexsort((np.arange(n), ang))
    sorted_ang = ang[order]
    gaps = np.diff(np.concatenate([sorted_ang, [sorted_ang[0] + 2 * np.pi]]))
    cut = int(np.argmax(gaps)) + 1
    order = np.concatenate([order[cut:], order[:cut]])
    if c[order[0], 0] > c[order[-1], 0]:
        order = order[::-1]
    return order


def _resample_chain(vertices: np.ndarray, arc_positions: np.ndarray) -> np.ndarray:
    """Points at given arc-length positions along a piecewise-linear chain."""
    seg = distances(vertices[1:], vertices[:-1])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    out = np.empty((len(arc_positions), 3))
    for k in range(3):
        out[:, k] = np.interp(arc_positions, cum, vertices[:, k])
    return out


def build_target_arch(centroids) -> ArchPolyline:
    """Ground-truth style arch: chain through ordered centroids, resampled to 32.

    Sample positions are uniform in arc length, then the sample nearest each
    interior centroid is snapped onto it so the polyline passes through every
    centroid (a strictly uniform 32-point resampling would cut the corners at
    the centroids).
    """
    c = np.asarray(centroids, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != 3:
        raise ValueError(f"expected (N, 3) centroids, got {c.shape}")
    if len(c) < 2:
        raise ValueError("need at least 2 centroids")
    chain = c[order_centroids(c)]
    seg = distances(chain[1:], chain[:-1])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total <= 0:
        raise ValueError("centroids are fully coincident")
    positions = np.linspace(0.0, total, ARCH_POINTS)
    for s in cum[1:-1]:
        j = int(np.argmin(np.abs(positions - s)))
        j = min(max(j, 1), ARCH_POINTS - 2)
        positions[j] = s
    return ArchPolyline(_resample_chain(chain, positions))


def sample_arch_from_bezier(curve: BezierCurve) -> ArchPolyline:
    """32 arc-length-uniform points along the curve, oriented left-to-right."""
    pts = bezier_sample_uniform(curve, ARCH_POINTS)
    if pts[0, 0] > pts[-1, 0]:
        pts = pts[::-1]
    return ArchPolyline(pts)


def _smooth_offsets(offsets: np.ndarray, lam: float, passes: int) -> np.ndarray:
    """Chain-graph smoothing: o_i <- (1-lam) o_i + lam * mean(neighbors)."""
    o = offsets.copy()
    for _ in range(passes):
        blended = o.copy()
        blended[1:-1] = (1 - lam) * o[1:-1] + lam * 0.5 * (o[:-2] + o[2:])
        blended[0] = (1 - lam) * o[0] + lam * o[1]
        blended[-1] = (1 - lam) * o[-1] + lam * o[-2]
        o = blended
    return o


def refine_arch(init: ArchPolyline, votes, params: RefineParams) -> ArchPolyline:
    """Iteratively offset arch points toward nearby vote evidence.

    Per round: inverse-distance-weighted mean offset toward the `neighbors`
    nearest votes, smoothed along the chain, applied with `step_size`.
    `votes` is a `synthetic.Votes`; only its positions are read.
    """
    positions = votes.position
    if len(positions) < params.neighbors:
        raise ValueError(
            f"need at least {params.neighbors} votes, got {len(positions)}"
        )
    pts = init.points.copy()
    for _ in range(params.iterations):
        d = distances(pts[:, None, :], positions[None, :, :])
        if params.neighbors < len(positions):
            nn = np.argpartition(d, params.neighbors - 1, axis=1)[:, : params.neighbors]
        else:
            nn = np.tile(np.arange(len(positions)), (len(pts), 1))
        diff = positions[nn] - pts[:, None, :]
        nd = distances(diff, ORIGIN)
        w = 1.0 / np.maximum(nd, 1e-12)
        w /= w.sum(axis=1, keepdims=True)
        raw = np.einsum("ik,ikj->ij", w, diff)
        smoothed = _smooth_offsets(raw, params.smoothing_lambda, params.smoothing_passes)
        pts = pts + params.step_size * smoothed
    return ArchPolyline(pts)


def arch_mse(pred: ArchPolyline, gt: ArchPolyline) -> float:
    """Mean squared Euclidean distance between index-aligned arch points."""
    return float(np.mean(np.sum((pred.points - gt.points) ** 2, axis=1)))
