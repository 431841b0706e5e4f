"""End-to-end experiment orchestration.

An ExperimentConfig describes a synthetic dataset plus every stage knob:
vote simulation, arch estimation mode (direct_fit / coarse / coarse_fine),
vote sampling method (aps / fps / random), detection, and segmentation.
run_dataset generates the models, runs the pipeline per model, and reduces
per-model metrics into a MetricsReport with exact-mean aggregates.

run_model runs named stages in order: votes -> arch (pregroup -> bezier ->
refine) -> select -> proposals, then NMS, metrics and segmentation.  Each
stage reads its upstream outputs and only the config fields STAGE_FIELDS
lists for it, so a caller that runs several configs over the same models
can pass `stages` and have every config reuse the outputs whose config
slice it shares (as the ablation commands do).
"""

from __future__ import annotations

import json
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .arch import (
    ArchPolyline,
    RefineParams,
    arch_mse,
    build_target_arch,
    order_centroids,
    refine_arch,
    sample_arch_from_bezier,
)
from .bezier import fit_bezier
from .detection import (
    DetectionLossParams,
    DetectionParams,
    SamplingParams,
    arch_aware_sampling,
    assign_gt_confidence,
    detection_loss,
    detection_metrics,
    fps_vote_sampling,
    group_votes,
    make_proposals,
    nms,
    pregroup_votes,
    random_vote_sampling,
)
from .segmentation import (
    SegParams,
    crop_patch,
    fuse_patches,
    iou_dice,
    neighbour_table,
    segment_patch,
)
from .synthetic import (
    DentalModel,
    ScanConfig,
    VoteNoiseModel,
    config_from_dict,
    generate_model,
    simulate_votes,
    with_seed,
)

ARCH_MODES = ("direct_fit", "coarse", "coarse_fine")
SAMPLING_METHODS = ("aps", "fps", "random")


@dataclass(frozen=True)
class ExperimentConfig:
    n_models: int = 50
    scan: ScanConfig = field(default_factory=ScanConfig)
    noise: VoteNoiseModel = field(default_factory=VoteNoiseModel)
    sampling_method: str = "aps"
    sampling: SamplingParams = field(default_factory=SamplingParams)
    detection: DetectionParams = field(default_factory=DetectionParams)
    loss: DetectionLossParams = field(default_factory=DetectionLossParams)
    refine: RefineParams = field(default_factory=RefineParams)
    segmentation: SegParams = field(default_factory=SegParams)
    arch_mode: str = "coarse_fine"
    vote_subsample: int = 2048
    pregroup_radius: float = 0.08
    pregroup_min_size_frac: float = 0.1
    with_segmentation: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.arch_mode not in ARCH_MODES:
            raise ValueError(f"arch_mode must be one of {ARCH_MODES}")
        if self.sampling_method not in SAMPLING_METHODS:
            raise ValueError(f"sampling_method must be one of {SAMPLING_METHODS}")
        if self.n_models < 1:
            raise ValueError("n_models must be >= 1")
        if self.vote_subsample < 1:
            raise ValueError("vote_subsample must be >= 1")
        if self.pregroup_radius <= 0:
            raise ValueError("pregroup_radius must be positive")
        n_points = self.scan.n_points
        if self.vote_subsample > n_points:
            raise ValueError(
                f"vote_subsample {self.vote_subsample} exceeds scan.n_points {n_points}"
            )
        if self.with_segmentation and self.segmentation.patch_size > n_points:
            raise ValueError(
                f"segmentation.patch_size {self.segmentation.patch_size} exceeds "
                f"scan.n_points {n_points}"
            )
        if self.scan.seed != ScanConfig.seed:
            raise ValueError(
                f"scan.seed {self.scan.seed} is not used: each model's scan seed "
                "derives from the top-level 'seed'; set that instead"
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scan"] = self.scan.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of `to_dict`; a missing key keeps its default and an
        unknown key raises ValueError."""
        d = dict(d)
        for key, klass in [
            ("scan", ScanConfig),
            ("noise", VoteNoiseModel),
            ("sampling", SamplingParams),
            ("detection", DetectionParams),
            ("loss", DetectionLossParams),
            ("refine", RefineParams),
            ("segmentation", SegParams),
        ]:
            if key in d:
                if not isinstance(d[key], dict):
                    raise ValueError(f"config section '{key}' must be an object")
                d[key] = config_from_dict(klass, d[key])
        return config_from_dict(cls, d)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=1, sort_keys=True)


def model_seeds(config: ExperimentConfig, index: int) -> tuple[int, int]:
    """Deterministic (scan seed, vote seed) pair for the index-th model."""
    base = config.seed * 1_000_003
    return base + index, base + 500_000 + index


# Per stage, in pipeline order, the config fields it reads ("a.b" is field b
# of section a).  A stored stage output is keyed by the values of its own
# fields and of every upstream stage's (`stage_keys`).
STAGE_FIELDS = (
    ("votes", ("scan", "seed", "vote_subsample", "noise")),
    ("pregroup", ("pregroup_radius", "pregroup_min_size_frac")),
    ("bezier", ()),
    ("refine", ("refine",)),
    ("select", ("arch_mode", "sampling_method", "sampling")),
    ("proposals", ("detection.grouping_radius",)),
)


def stage_keys(config: ExperimentConfig) -> dict:
    """Stage name -> the JSON text of the config slice its output depends on."""
    d = config.to_dict()
    keys, upstream = {}, {}
    for name, names in STAGE_FIELDS:
        for path in names:
            value = d
            for part in path.split("."):
                value = value[part]
            upstream[path] = value
        keys[name] = json.dumps([name, upstream], sort_keys=True)
    return keys


def _stage(stages, keys, name, compute):
    """compute(), or the output `stages` holds under `keys[name]`; a computed
    output is added to `stages`.  `stages` None computes and stores nothing."""
    if stages is None:
        return compute()
    key = keys[name]
    if key not in stages:
        stages[key] = compute()
    return stages[key]


def estimate_arch(
    model: DentalModel, votes, config: ExperimentConfig, stages=None, keys=None
) -> ArchPolyline:
    """Arch estimate from votes only, per arch_mode.

    direct_fit: chain polyline through vote-cluster centers, no curve model.
    coarse: cubic Bézier fitted to the cluster centers, sampled to 32 points.
    coarse_fine: the coarse arch refined against the individual votes.
    `stages`/`keys` as in `run_model`.
    """
    centers = _stage(stages, keys, "pregroup", lambda: pregroup_votes(
        votes, config.pregroup_radius, config.pregroup_min_size_frac
    ))
    if config.arch_mode == "direct_fit":
        return build_target_arch(centers)

    def coarse_arch():
        curve, _ = fit_bezier(centers[order_centroids(centers)])
        return sample_arch_from_bezier(curve)

    coarse = _stage(stages, keys, "bezier", coarse_arch)
    if config.arch_mode == "coarse":
        return coarse
    return _stage(stages, keys, "refine", lambda: refine_arch(coarse, votes, config.refine))


def select_votes(votes, arch: ArchPolyline, config: ExperimentConfig, seed: int) -> np.ndarray:
    if config.sampling_method == "aps":
        return arch_aware_sampling(votes, arch, config.sampling)
    if config.sampling_method == "fps":
        return fps_vote_sampling(votes, config.sampling.n_samples)
    return random_vote_sampling(votes, config.sampling.n_samples, seed)


def run_model(
    model: DentalModel,
    config: ExperimentConfig,
    vote_seed: int,
    visible_instances=None,
    stages=None,
) -> dict:
    """Full pipeline on one model; returns a flat metrics dict.

    `visible_instances` (1-based instance ids) restricts which ground-truth
    centroids the loss terms see, modeling weak annotation; detection and
    segmentation metrics always use the full ground truth.

    `stages`, if given, is this model's dict of stage outputs from earlier
    calls with the same model and vote seed: each stage whose `stage_keys`
    entry it holds is reused, and each stage computed here is added to it.
    """
    t0 = time.perf_counter()
    keys = None if stages is None else stage_keys(config)
    noise = replace(config.noise, seed=vote_seed)
    votes = _stage(stages, keys, "votes", lambda: simulate_votes(
        model, config.vote_subsample, noise
    ))

    if visible_instances is None:
        loss_centroids = model.centroids
    else:
        idx = np.asarray(sorted(visible_instances), dtype=np.intp) - 1
        loss_centroids = model.centroids[idx]

    arch = estimate_arch(model, votes, config, stages, keys)
    selected = _stage(stages, keys, "select", lambda: select_votes(
        votes, arch, config, vote_seed
    ))
    proposals = _stage(stages, keys, "proposals", lambda: make_proposals(
        group_votes(selected, votes, config.detection.grouping_radius), votes
    ))
    labels, proposals = assign_gt_confidence(
        proposals, loss_centroids, config.detection.conf_gt_threshold
    )
    retained = nms(proposals, config.detection.nms_radius, config.detection.max_centroids)
    pred_centroids = proposals.position[retained]

    metrics = detection_metrics(
        pred_centroids, model.centroids, config.detection.match_threshold
    )
    metrics.update(
        detection_loss(votes, proposals, labels, model, config.loss, loss_centroids)
    )
    metrics["arch_mse"] = arch_mse(arch, model.gt_arch)
    metrics["n_detected"] = len(retained)
    metrics["n_teeth"] = model.n_teeth
    metrics["n_votes"] = len(votes)

    if config.with_segmentation:
        table = neighbour_table(model.cloud.points)
        patches = [
            crop_patch(model, c, config.segmentation, table) for c in pred_centroids
        ]
        masks = [segment_patch(p, config.segmentation) for p in patches]
        fused = fuse_patches(model, patches, masks, config.segmentation)
        seg = iou_dice(fused.labels, model.labels)
        metrics["mean_iou"] = seg["mean_iou"]
        metrics["mean_dice"] = seg["mean_dice"]
        metrics["per_instance"] = seg["per_instance"]

    metrics["seconds"] = time.perf_counter() - t0
    return metrics


AGGREGATE_FIELDS = (
    "accuracy",
    "recall",
    "chamfer",
    "arch_mse",
    "l_offset",
    "l_conf",
    "l_centers",
    "l_det",
    "mean_iou",
    "mean_dice",
)


@dataclass(frozen=True)
class MetricsReport:
    config: ExperimentConfig
    per_model: list
    failures: list
    aggregate: dict
    seconds: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "per_model": self.per_model,
            "failures": self.failures,
            "aggregate": self.aggregate,
            "seconds": self.seconds,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)


def aggregate_metrics(per_model: list) -> dict:
    out = {}
    for key in AGGREGATE_FIELDS:
        values = [m[key] for m in per_model if key in m]
        if values:
            out[key] = float(np.mean(values))
    out["n_models"] = len(per_model)
    return out


def _run_one(args):
    """One model's metrics, and the stage outputs it computed that its
    stored entries lacked (None when it was given none)."""
    config, index, model, visible, stored = args
    _, vote_seed = model_seeds(config, index)
    if model is None:
        scan_seed, _ = model_seeds(config, index)
        model = generate_model(with_seed(config.scan, scan_seed))
    stages = None if stored is None else dict(stored)
    metrics = run_model(model, config, vote_seed, visible, stages)
    return metrics, None if stages is None else {
        k: v for k, v in stages.items() if k not in stored
    }


def _stored(stages, index):
    return None if stages is None else stages.setdefault(index, {})


def run_dataset(config: ExperimentConfig, jobs: int = 1, stages=None) -> MetricsReport:
    """Run the pipeline over n_models freshly generated models.

    `stages`, if given, is a dict the caller keeps across calls on the same
    models: model index -> that model's stage outputs (see `run_model`).
    Each model reuses what its entry holds and the entry keeps what the
    model computed, whether the model ran here or in a worker.
    """
    tasks = [(config, i, None, None, _stored(stages, i)) for i in range(config.n_models)]
    return _reduce(config, tasks, jobs)


def run_models(
    config: ExperimentConfig, models, jobs: int = 1, visible_lists=None, stages=None
) -> MetricsReport:
    """Run the pipeline over pre-generated (loaded) models; `stages` as in
    `run_dataset`, for the same list of models."""
    if visible_lists is None:
        visible_lists = [None] * len(models)
    tasks = [
        (config, i, m, v, _stored(stages, i))
        for i, (m, v) in enumerate(zip(models, visible_lists))
    ]
    return _reduce(replace(config, n_models=len(models)), tasks, jobs)


def _attempt(call, *args):
    """(call(*args), None), or (None, the traceback) if it raised."""
    try:
        return call(*args), None
    except Exception:
        return None, traceback.format_exc()


def _run_alone(task):
    """_run_one(task) in a fresh single-worker pool."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        return pool.submit(_run_one, task).result()


def _reduce(config: ExperimentConfig, tasks, jobs: int) -> MetricsReport:
    """Execute tasks (serially or in a worker pool) and reduce in index order.

    Per-model failures are recorded and the run continues.  A worker that
    dies breaks the pool and fails every task still in it, so each task
    that failed with BrokenProcessPool is rerun alone on a fresh pool: only
    a model that crashes its worker again is recorded as failed.  A task's
    stored stage entries (its last item) gain the outputs the task computed.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    t0 = time.perf_counter()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_one, task) for task in tasks]
            outcomes = [_attempt(fut.result) for fut in futures]
        for i, fut in enumerate(futures):
            if isinstance(fut.exception(), BrokenProcessPool):
                outcomes[i] = _attempt(_run_alone, tasks[i])
    else:
        outcomes = [_attempt(_run_one, task) for task in tasks]
    per_model = []
    failures = []
    for i, (result, error) in enumerate(outcomes):
        if error is not None:
            failures.append({"model": i, "error": error})
            continue
        metrics, computed = result
        if computed:
            tasks[i][4].update(computed)
        metrics = dict(metrics)
        metrics["model"] = i
        per_model.append(metrics)
    return MetricsReport(
        config=config,
        per_model=per_model,
        failures=failures,
        aggregate=aggregate_metrics(per_model),
        seconds=time.perf_counter() - t0,
    )
