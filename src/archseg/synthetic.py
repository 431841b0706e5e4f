"""Deterministic generator of labeled synthetic dental scans and simulated votes.

Teeth are superellipsoid surface samples placed along a configurable cubic
Bézier arch in the z=0 jaw plane, with a gingiva band of unlabeled points
below.  The vote simulator stands in for a trained voting network: tooth
seeds vote toward their centroid with optional Gaussian noise, and a fraction
of the gingiva seeds emit near-gum clutter votes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arch import ArchPolyline, build_target_arch
from .bezier import BezierCurve, arc_length_params, bezier_derivative, bezier_eval
from .geometry import ORIGIN, PointCloud, distances, farthest_point_sampling, normalize_model

# Canonical jaw-plane arch: U shape spanning x in [-0.85, 0.85].
DEFAULT_ARCH_CONTROL = np.array(
    [
        [-0.85, -0.05, 0.0],
        [-0.55, 0.85, 0.0],
        [0.55, 0.85, 0.0],
        [0.85, -0.05, 0.0],
    ]
)

# Vertical band occupied by the gingiva, in canonical (pre-normalization)
# units; leaves a clear gap below the tooth undersides so teeth and gum are
# geometrically separable.
GINGIVA_Z_RANGE = (-0.30, -0.14)
GINGIVA_FRACTION = 0.25
MIN_SURVIVING_TEETH = 4


@dataclass(frozen=True)
class ScanConfig:
    n_points: int = 16000
    n_teeth: int = 14
    arch_control: np.ndarray = field(default_factory=lambda: DEFAULT_ARCH_CONTROL.copy())
    tooth_radius_range: tuple[float, float] = (0.042, 0.058)
    gingiva_band_width: float = 0.10
    missing_tooth_prob: float = 0.0
    crowding_jitter: float = 0.0
    misalignment_angle_max: float = 0.0

    def __post_init__(self):
        try:
            ctrl = np.asarray(self.arch_control, dtype=np.float64)
        except (TypeError, ValueError):
            ctrl = None
        if ctrl is None or ctrl.shape != (4, 3) or not np.isfinite(ctrl).all():
            raise ValueError(
                f"ScanConfig key 'arch_control' must be a (4, 3) array of finite numbers, "
                f"got {self.arch_control!r}"
            )
        ctrl.setflags(write=False)
        object.__setattr__(self, "arch_control", ctrl)
        object.__setattr__(self, "tooth_radius_range", tuple(self.tooth_radius_range))
        if not 8 <= self.n_teeth <= 16:
            raise ValueError("n_teeth must be in [8, 16]")
        if self.n_points < self.n_teeth * 64:
            raise ValueError("n_points must be at least 64 per tooth")
        lo, hi = self.tooth_radius_range
        if not 0 < lo <= hi < np.inf:
            raise ValueError("tooth radii must be finite, positive and ordered")
        if not 0.0 <= self.missing_tooth_prob <= 1.0:
            raise ValueError("missing_tooth_prob must be a probability")
        if self.crowding_jitter < 0 or self.misalignment_angle_max < 0:
            raise ValueError("jitter and misalignment must be non-negative")
        if self.gingiva_band_width <= 0:
            raise ValueError("gingiva_band_width must be positive")


@dataclass(frozen=True)
class DentalModel:
    """A labeled synthetic scan in normalized model units."""

    cloud: PointCloud
    labels: np.ndarray  # per-point instance id, 0 = gingiva, 1..T = teeth
    centroids: np.ndarray  # (T, 3) label-mask means
    gt_arch: ArchPolyline = field(init=False)  # build_target_arch(centroids)

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)
        cen = np.asarray(self.centroids, dtype=np.float64)
        cen.setflags(write=False)
        object.__setattr__(self, "centroids", cen)
        object.__setattr__(self, "gt_arch", build_target_arch(cen))

    @property
    def n_teeth(self) -> int:
        return len(self.centroids)


@dataclass(frozen=True)
class Votes:
    """Seed points' predicted displacements toward their tooth centroids.

    Row i is one vote: position[i] = cloud point seed_index[i] +
    displacement[i].
    """

    seed_index: np.ndarray  # (N,) cloud point index of each voting seed
    position: np.ndarray  # (N, 3)
    displacement: np.ndarray  # (N, 3)
    displacement_norm: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.seed_index)

    @classmethod
    def from_seeds(cls, points: np.ndarray, seed_index, displacement) -> Votes:
        """Votes cast from points[seed_index] by the given displacements."""
        idx = np.asarray(seed_index, dtype=np.intp)
        disp = np.asarray(displacement, dtype=np.float64)
        return cls(
            seed_index=idx,
            position=points[idx] + disp,
            displacement=disp,
            displacement_norm=distances(disp, ORIGIN),
        )


@dataclass(frozen=True)
class VoteNoiseModel:
    tooth_vote_sigma: float = 0.0
    clutter_fraction: float = 0.0  # share of gingiva seeds that vote
    clutter_sigma: float = 0.02

    def __post_init__(self):
        if self.tooth_vote_sigma < 0 or self.clutter_sigma < 0:
            raise ValueError("sigmas must be non-negative")
        if not 0.0 <= self.clutter_fraction <= 1.0:
            raise ValueError("clutter_fraction must be in [0, 1]")


def _superellipsoid_surface(rng, n: int, semi_axes, exponent: float) -> np.ndarray:
    """Random surface sample of a superellipsoid blob (convex for exponent<=1)."""
    eta = rng.uniform(-np.pi / 2, np.pi / 2, n)
    omega = rng.uniform(-np.pi, np.pi, n)

    def spow(v, e):
        return np.sign(v) * np.abs(v) ** e

    a, b, c = semi_axes
    x = a * spow(np.cos(eta), exponent) * spow(np.cos(omega), exponent)
    y = b * spow(np.cos(eta), exponent) * spow(np.sin(omega), exponent)
    z = c * spow(np.sin(eta), exponent)
    return np.stack([x, y, z], axis=1)


def _rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def generate_model(config: ScanConfig, seed: int) -> DentalModel:
    """Build one labeled scan: teeth blobs along the arch plus a gingiva band.

    Fully deterministic per (config, seed).
    """
    rng = np.random.default_rng(seed)
    curve = BezierCurve(config.arch_control)
    n_teeth = config.n_teeth

    fractions = (np.arange(n_teeth) + 0.5) / n_teeth
    fractions = fractions + config.crowding_jitter * rng.normal(0.0, 1.0, n_teeth)
    fractions = np.clip(fractions, 0.01, 0.99)
    t_params = arc_length_params(curve, fractions)
    centers = bezier_eval(curve, t_params)

    drop_draw = rng.random(n_teeth)
    keep = drop_draw >= config.missing_tooth_prob
    if keep.sum() < MIN_SURVIVING_TEETH:
        # resurrect the teeth with the largest draws until enough survive
        order = np.argsort(-drop_draw)
        for idx in order:
            if keep.sum() >= MIN_SURVIVING_TEETH:
                break
            keep[idx] = True
    surviving = np.flatnonzero(keep)

    n_gingiva = int(round(config.n_points * GINGIVA_FRACTION))
    per_tooth = (config.n_points - n_gingiva) // len(surviving)
    n_gingiva = config.n_points - per_tooth * len(surviving)

    lo, hi = config.tooth_radius_range
    all_points = []
    all_labels = []
    for new_id, tooth_idx in enumerate(surviving, start=1):
        semi = rng.uniform(lo, hi, 3)
        semi[2] *= 1.2  # teeth are slightly taller than wide
        exponent = rng.uniform(0.6, 0.9)
        pts = _superellipsoid_surface(rng, per_tooth, semi, exponent)
        if config.misalignment_angle_max > 0:
            axis = rng.normal(size=3)
            angle = rng.uniform(0.0, config.misalignment_angle_max)
            pts = pts @ _rotation_matrix(axis, angle).T
        all_points.append(pts + centers[tooth_idx])
        all_labels.append(np.full(per_tooth, new_id, dtype=np.int64))

    # gingiva: a band following the arch, offset below the teeth
    g_t = rng.uniform(0.0, 1.0, n_gingiva)
    g_lateral = rng.uniform(-config.gingiva_band_width, config.gingiva_band_width, n_gingiva)
    g_z = rng.uniform(GINGIVA_Z_RANGE[0], GINGIVA_Z_RANGE[1], n_gingiva)
    base = bezier_eval(curve, g_t)
    tangent = bezier_derivative(curve, g_t)
    normal = np.stack([-tangent[:, 1], tangent[:, 0], np.zeros(n_gingiva)], axis=1)
    normal /= distances(normal, ORIGIN)[:, None]
    g_pts = base + normal * g_lateral[:, None]
    g_pts[:, 2] = g_z
    all_points.append(g_pts)
    all_labels.append(np.zeros(n_gingiva, dtype=np.int64))

    points = np.concatenate(all_points)
    labels = np.concatenate(all_labels)

    cloud = normalize_model(PointCloud(points))
    n_instances = len(surviving)
    centroids = np.stack(
        [cloud.points[labels == k].mean(axis=0) for k in range(1, n_instances + 1)]
    )
    return DentalModel(cloud=cloud, labels=labels, centroids=centroids)


def simulate_votes(
    model: DentalModel, subsample: int, noise: VoteNoiseModel, seed: int
) -> Votes:
    """Simulated Hough votes for FPS-selected seed points, in seed order.

    Tooth seeds vote toward their instance centroid (plus Gaussian noise);
    a gingiva seed emits a near-seed vote, a distractor arch-aware sampling
    is designed to reject, when its draw is below `clutter_fraction`, and
    is dropped otherwise.
    """
    if subsample > model.cloud.size:
        raise ValueError("subsample exceeds cloud size")
    seeds = farthest_point_sampling(model.cloud, subsample)
    rng = np.random.default_rng(seed)
    tooth_noise = rng.normal(0.0, 1.0, (subsample, 3))
    keep_draw = rng.random(subsample)
    clutter_noise = rng.normal(0.0, 1.0, (subsample, 3))

    label = model.labels[seeds]
    tooth = label > 0
    clutter = ~tooth & (keep_draw < noise.clutter_fraction)
    # label - 1 is -1 on gingiva seeds; np.where discards those rows
    to_centroid = model.centroids[label - 1] - model.cloud.points[seeds]
    disp = np.where(
        tooth[:, None],
        to_centroid + noise.tooth_vote_sigma * tooth_noise,
        noise.clutter_sigma * clutter_noise,
    )
    keep = tooth | clutter
    return Votes.from_seeds(model.cloud.points, seeds[keep], disp[keep])


def ground_truth_offsets(model: DentalModel, seed_indices) -> np.ndarray:
    """Vector from each seed point to its nearest ground-truth centroid."""
    cen = model.centroids
    if len(cen) == 0:
        raise ValueError("model has no teeth")
    idx = np.asarray(seed_indices, dtype=np.intp)
    pts = model.cloud.points[idx]
    d = distances(pts[:, None, :], cen[None, :, :])
    nearest = np.argmin(d, axis=1)
    return cen[nearest] - pts
