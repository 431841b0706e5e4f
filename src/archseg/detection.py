"""Tooth centroid detection: arch-aware sampling, grouping, proposals, NMS.

The proposal-seed selection solves a one-to-one assignment between sample
slots distributed along the 32-point arch and the vote set, with cost
combining vote-to-arch distance and vote displacement magnitude.  FPS is
kept as the baseline sampler for ablations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .arch import ARCH_POINTS, ArchPolyline
from .assignment import hungarian_assign
from .geometry import (
    PointCloud, chamfer_distance, cross_entropy, distances, farthest_point_sampling, huber_l1,
)
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


@dataclass(frozen=True)
class DetectionParams:
    grouping_radius: float = 0.1
    conf_gt_threshold: float = 0.3
    nms_radius: float = 0.12
    max_centroids: int = 20
    match_threshold: float = 0.3

    def __post_init__(self):
        for name in ("grouping_radius", "conf_gt_threshold", "nms_radius", "match_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_centroids < 1:
            raise ValueError("max_centroids must be >= 1")


@dataclass(frozen=True)
class DetectionLossParams:
    gamma: float = 0.1
    huber_delta: float = 1.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.huber_delta <= 0:
            raise ValueError(f"huber_delta must be positive, got {self.huber_delta}")


@dataclass(frozen=True)
class Proposals:
    """Candidate tooth centroids, one row per vote cluster."""

    position: np.ndarray  # (P, 3) cluster mean
    confidence: np.ndarray  # (P,)

    def __len__(self) -> int:
        return len(self.confidence)


def aps_cost_matrix(votes: Votes, arch: ArchPolyline, params: SamplingParams) -> np.ndarray:
    """Slot-by-vote assignment cost.

    Row i is slot i, at arch point i mod 32, for n_samples rows; entry =
    alpha * ||vote - arch point|| + beta * vote displacement norm.  The 32
    distinct rows are computed once.
    """
    if params.n_samples > len(votes):
        raise ValueError(
            f"n_samples={params.n_samples} exceeds vote count {len(votes)}"
        )
    d_arch = distances(arch.points[:, None, :], votes.position[None, :, :])
    cost = params.alpha * d_arch + params.beta * votes.displacement_norm[None, :]
    return cost[np.arange(params.n_samples) % ARCH_POINTS]


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


def group_votes(selected, votes: Votes, radius: float) -> list[np.ndarray]:
    """Per selected vote, the indices of all votes within `radius` of it.

    Votes may appear in multiple clusters; each cluster contains its own
    selected vote.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    pos = votes.position
    sel = np.asarray(selected, dtype=np.intp)
    near = distances(pos[sel, None, :], pos[None, :, :]) <= radius
    return [np.flatnonzero(row) for row in near]


PROPOSAL_RADIUS_SCALE = 0.1


def make_proposals(clusters, votes: Votes) -> Proposals:
    """Cluster means with a logistic size/spread confidence surrogate.

    confidence = sigmoid(log(size) - 2 * spread / PROPOSAL_RADIUS_SCALE),
    where spread is the RMS member distance to the cluster mean: monotone up
    in evidence mass, down in scatter.
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
        logit = math.log(len(members)) - 2.0 * spread / PROPOSAL_RADIUS_SCALE
        means.append(mean)
        confidences.append(1.0 / (1.0 + math.exp(-logit)))
    return Proposals(position=np.asarray(means), confidence=np.asarray(confidences))


def assign_gt_confidence(proposals: Proposals, gt_centroids, threshold: float) -> np.ndarray:
    """Per proposal, the index of its nearest ground-truth centroid if that
    is closer than `threshold` (strict), else -1; a proposal's confidence
    label is whether it has one."""
    gt = np.asarray(gt_centroids, dtype=np.float64).reshape(-1, 3)
    assigned = np.full(len(proposals), -1, dtype=np.intp)
    if len(gt):
        d = distances(gt[None, :, :], proposals.position[:, None, :])
        nearest = np.argmin(d, axis=1)
        hit = d.min(axis=1) < threshold
        assigned[hit] = nearest[hit]
    return assigned


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
        if (distances(pos[kept], pos[i]) >= radius).all():
            kept.append(i)
    return np.asarray(kept, dtype=np.intp)


def detection_metrics(pred_centroids, gt_centroids, match_threshold: float) -> dict:
    """Accuracy / recall / chamfer for predicted vs ground-truth centroids.

    One-to-one matching by minimum-total-distance assignment; matched pairs
    closer than `match_threshold` count as true positives.  Accuracy and
    recall are percentages.
    """
    pred = np.asarray(pred_centroids, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt_centroids, dtype=np.float64).reshape(-1, 3)
    if len(pred) == 0 or len(gt) == 0:
        raise ValueError("empty centroid set")
    d = distances(pred[:, None, :], gt[None, :, :])
    assignment, _ = hungarian_assign(d)
    rows = np.flatnonzero(assignment >= 0)
    tp = int(np.sum(d[rows, assignment[rows]] < match_threshold))
    return {
        "accuracy": 100.0 * tp / len(pred),
        "recall": 100.0 * tp / len(gt),
        "chamfer": chamfer_distance(PointCloud(pred), PointCloud(gt)),
    }


def detection_loss(
    votes: Votes,
    proposals: Proposals,
    assigned,
    model: DentalModel,
    params: DetectionLossParams,
) -> dict:
    """Evaluation-only detection loss terms and their combination, against
    the model's centroids; `assigned` is `assign_gt_confidence`'s output."""
    gt_off = ground_truth_offsets(model, votes.seed_index)
    l_offset = huber_l1(votes.displacement, gt_off, params.huber_delta)

    positive = assigned >= 0
    l_conf = cross_entropy(proposals.confidence, positive.astype(np.float64))

    if positive.any():
        l_centers = huber_l1(
            proposals.position[positive],
            model.centroids[assigned[positive]],
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


def pregroup_votes(votes: Votes, radius: float, min_size_frac: float) -> np.ndarray:
    """Radius-based vote clustering for the coarse arch fit.

    Greedy leader selection in index order, members assigned to the nearest
    leader (the earliest on ties); clusters smaller than min_size_frac of the
    largest are dropped (sparse clutter clusters do not survive).  Returns
    the kept clusters' mean positions.

    A vote leads iff no earlier leader lies within `radius` of it, so the
    loop runs over leaders: each leader's distances to every vote mark the
    votes it covers, and the next leader is the first vote no leader covers
    so far.  Each vote keeps its nearest leader so far, replaced only by a
    strictly nearer one.
    """
    pos = votes.position
    covered = np.zeros(len(pos), dtype=bool)
    nearest = np.full(len(pos), np.inf)
    member_of = np.zeros(len(pos), dtype=np.intp)
    n_leaders = leader = 0
    while not covered[leader]:
        d = distances(pos, pos[leader])
        member_of[d < nearest] = n_leaders
        np.minimum(nearest, d, out=nearest)
        n_leaders += 1
        covered |= d <= radius
        leader = int(covered.argmin())  # every vote before it is covered
    sizes = np.bincount(member_of, minlength=n_leaders)
    keep = np.flatnonzero(sizes >= min_size_frac * sizes.max())
    return np.stack([pos[member_of == k].mean(axis=0) for k in keep])
