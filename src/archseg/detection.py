"""Tooth centroid detection: arch-aware sampling, grouping, proposals, NMS.

The proposal-seed selection solves a one-to-one assignment between sample
slots distributed along the 32-point arch and the vote set, with cost
combining vote-to-arch distance and vote displacement magnitude.  FPS and
uniform-random selection are kept as baseline samplers for ablations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .arch import ARCH_POINTS, ArchPolyline
from .assignment import hungarian_assign
from .geometry import PointCloud, chamfer_distance, cross_entropy, farthest_point_sampling, huber_l1
from .synthetic import DentalModel, Votes, ground_truth_offsets


@dataclass(frozen=True)
class SamplingParams:
    alpha: float = 1.0
    beta: float = 5.0
    n_samples: int = 64

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @property
    def slots_per_arch_point(self) -> int:
        return math.ceil(self.n_samples / ARCH_POINTS)


@dataclass(frozen=True)
class DetectionParams:
    grouping_radius: float = 0.1
    conf_gt_threshold: float = 0.3
    nms_radius: float = 0.12
    max_centroids: int = 20
    match_threshold: float = 0.3

    def __post_init__(self):
        if min(self.grouping_radius, self.nms_radius, self.match_threshold) <= 0:
            raise ValueError("radii and thresholds must be positive")
        if self.max_centroids < 1:
            raise ValueError("max_centroids must be >= 1")


@dataclass(frozen=True)
class DetectionLossParams:
    gamma: float = 0.1
    huber_delta: float = 1.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


@dataclass(frozen=True)
class Proposals:
    """Candidate tooth centroids, one row per vote cluster."""

    position: np.ndarray  # (P, 3) cluster mean
    confidence: np.ndarray  # (P,)
    gt_assignment: np.ndarray  # (P,) matched ground-truth centroid, -1 for none

    def __len__(self) -> int:
        return len(self.confidence)


def aps_cost_matrix(votes: Votes, arch: ArchPolyline, params: SamplingParams) -> np.ndarray:
    """Slot-by-vote assignment cost.

    Rows cycle through the 32 arch points (slots_per_arch_point copies each,
    truncated to n_samples); entry = alpha * ||vote - arch point|| +
    beta * vote displacement norm.
    """
    if params.n_samples > len(votes):
        raise ValueError(
            f"n_samples={params.n_samples} exceeds vote count {len(votes)}"
        )
    slot_arch = np.tile(np.arange(ARCH_POINTS), params.slots_per_arch_point)[
        : params.n_samples
    ]
    d_arch = np.linalg.norm(
        arch.points[slot_arch][:, None, :] - votes.position[None, :, :], axis=2
    )
    return params.alpha * d_arch + params.beta * votes.displacement_norm[None, :]


def arch_aware_sampling(votes: Votes, arch: ArchPolyline, params: SamplingParams) -> np.ndarray:
    """Distinct vote indices selected by Hungarian assignment of arch slots.

    Returned in ascending order: slot rows i and i + 32 are the same arch
    point, so only the selected set, not the row order, is meaningful.
    """
    cost = aps_cost_matrix(votes, arch, params)
    assignment, _ = hungarian_assign(cost)
    return np.sort(assignment)


def fps_vote_sampling(votes: Votes, n_samples: int) -> np.ndarray:
    """Baseline: farthest point sampling over vote positions."""
    return farthest_point_sampling(PointCloud(votes.position), n_samples)


def random_vote_sampling(votes: Votes, n_samples: int, seed: int) -> np.ndarray:
    """Baseline: uniform sampling without replacement over votes."""
    if n_samples > len(votes):
        raise ValueError("n_samples exceeds vote count")
    rng = np.random.default_rng(seed)
    return rng.choice(len(votes), size=n_samples, replace=False).astype(np.intp)


def group_votes(selected, votes: Votes, radius: float) -> list[np.ndarray]:
    """Per selected vote, the indices of all votes within `radius` of it.

    Votes may appear in multiple clusters; each cluster contains its own
    selected vote.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    pos = votes.position
    clusters = []
    for s in np.asarray(selected, dtype=np.intp):
        d = np.linalg.norm(pos - pos[s], axis=1)
        clusters.append(np.flatnonzero(d <= radius))
    return clusters


def make_proposals(clusters, votes: Votes, radius_scale: float = 0.1) -> Proposals:
    """Cluster means with a logistic size/spread confidence surrogate.

    confidence = sigmoid(log(size) - 2 * spread / radius_scale), where spread
    is the RMS member distance to the cluster mean: monotone up in evidence
    mass, down in scatter.  No proposal has a ground-truth assignment yet.
    """
    if len(clusters) == 0:
        raise ValueError("no clusters")
    means = []
    confidences = []
    for members in clusters:
        if len(members) == 0:
            raise ValueError("empty cluster")
        p = votes.position[np.asarray(members, dtype=np.intp)]
        mean = p.mean(axis=0)
        spread = float(np.sqrt(np.mean(np.sum((p - mean) ** 2, axis=1))))
        logit = math.log(len(members)) - 2.0 * spread / radius_scale
        means.append(mean)
        confidences.append(1.0 / (1.0 + math.exp(-logit)))
    return Proposals(
        position=np.asarray(means),
        confidence=np.asarray(confidences),
        gt_assignment=np.full(len(means), -1, dtype=np.intp),
    )


def assign_gt_confidence(
    proposals: Proposals, gt_centroids, threshold: float = 0.3
) -> tuple[np.ndarray, Proposals]:
    """Ground-truth confidence labels: 1 iff the nearest centroid is closer
    than `threshold` (strict); positives get that centroid assigned."""
    gt = np.asarray(gt_centroids, dtype=np.float64).reshape(-1, 3)
    assigned = np.full(len(proposals), -1, dtype=np.intp)
    if len(gt):
        d = np.linalg.norm(gt[None, :, :] - proposals.position[:, None, :], axis=2)
        nearest = np.argmin(d, axis=1)
        hit = d.min(axis=1) < threshold
        assigned[hit] = nearest[hit]
    labels = (assigned >= 0).astype(np.int64)
    return labels, replace(proposals, gt_assignment=assigned)


def nms(proposals: Proposals, radius: float, max_k: int) -> np.ndarray:
    """Greedy descending-confidence suppression within `radius`, capped at max_k.

    Returns the indices of the retained proposals in retention order.  Ties in
    confidence are broken by original proposal index.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    pos = proposals.position
    order = np.lexsort((np.arange(len(proposals)), -proposals.confidence))
    kept: list[int] = []
    for i in order:
        if len(kept) >= max_k:
            break
        if all(np.linalg.norm(pos[i] - pos[j]) >= radius for j in kept):
            kept.append(i)
    return np.asarray(kept, dtype=np.intp)


def detection_metrics(pred_centroids, gt_centroids, match_threshold: float = 0.3) -> dict:
    """Accuracy / recall / chamfer for predicted vs ground-truth centroids.

    One-to-one matching by minimum-total-distance assignment; matched pairs
    closer than `match_threshold` count as true positives.  Accuracy and
    recall are percentages.
    """
    pred = np.asarray(pred_centroids, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt_centroids, dtype=np.float64).reshape(-1, 3)
    if len(pred) == 0 or len(gt) == 0:
        raise ValueError("empty centroid set")
    d = np.linalg.norm(pred[:, None, :] - gt[None, :, :], axis=2)
    if len(pred) > len(gt):
        d = d.T  # hungarian_assign needs rows <= columns
    assignment, _ = hungarian_assign(d)
    matched = d[np.arange(len(d)), assignment]
    tp = int(np.sum(matched < match_threshold))
    return {
        "accuracy": 100.0 * tp / len(pred),
        "recall": 100.0 * tp / len(gt),
        "chamfer": chamfer_distance(PointCloud(pred), PointCloud(gt)),
    }


def detection_loss(
    votes: Votes,
    proposals: Proposals,
    labels,
    model: DentalModel,
    params: DetectionLossParams = DetectionLossParams(),
    centroids=None,
) -> dict:
    """Evaluation-only detection loss terms and their combination.

    `centroids` optionally restricts the ground-truth centroid set (weak
    annotation: only the visible instances enter the loss terms).
    """
    gt_centroids = model.centroids if centroids is None else np.asarray(centroids)
    gt_off = ground_truth_offsets(model, votes.seed_index, gt_centroids)
    l_offset = huber_l1(votes.displacement, gt_off, params.huber_delta)

    l_conf = cross_entropy(proposals.confidence, np.asarray(labels, dtype=np.float64))

    positive = proposals.gt_assignment >= 0
    if positive.any():
        l_centers = huber_l1(
            proposals.position[positive],
            gt_centroids[proposals.gt_assignment[positive]],
            params.huber_delta,
        )
    else:
        warnings.warn("no positive proposals; l_centers set to 0")
        l_centers = 0.0

    return {
        "l_offset": l_offset,
        "l_conf": l_conf,
        "l_centers": l_centers,
        "l_det": l_offset + l_conf + params.gamma * l_centers,
    }


def pregroup_votes(votes: Votes, radius: float, min_size_frac: float = 0.25) -> np.ndarray:
    """Radius-based vote clustering for the coarse arch fit.

    Greedy leader selection in index order, members assigned to the nearest
    leader; clusters smaller than min_size_frac of the largest are dropped
    (sparse clutter clusters do not survive).  Returns cluster mean positions.

    A vote leads iff no earlier leader lies within `radius` of it, so the
    loop runs over leaders: each leader's distances to every vote mark the
    votes it covers, and the next leader is the first vote no leader covers
    so far.  Those distances are also the columns the members' argmin reads.
    """
    pos = votes.position
    covered = np.zeros(len(pos), dtype=bool)
    columns = []
    leader = 0
    while not covered[leader]:
        d = np.linalg.norm(pos - pos[leader], axis=1)
        columns.append(d)
        covered |= d <= radius
        leader = int(covered.argmin())  # every vote before it is covered
    member_of = np.argmin(np.stack(columns, axis=1), axis=1)
    sizes = np.bincount(member_of, minlength=len(columns))
    centers = np.stack([pos[member_of == k].mean(axis=0) for k in range(len(columns))])
    keep = sizes >= min_size_frac * sizes.max()
    return centers[keep]
