"""End-to-end experiment orchestration.

An ExperimentConfig describes a synthetic dataset plus every stage knob:
vote simulation, arch estimation mode (direct_fit / coarse / coarse_fine),
vote sampling method (aps / fps), detection, and segmentation.
run_dataset generates the models, runs the pipeline per model, and reduces
per-model metrics into a MetricsReport with exact-mean aggregates.

run_model runs named stages in order: votes -> arch (pregroup -> bezier ->
refine) -> select -> proposals, then NMS and metrics, then per retained
centroid a segment stage that reads the model's neighbour table (built on
a worker thread while detection runs) and keeps the patch's tooth mask.
Each stage reads its upstream outputs and only the config fields
STAGE_FIELDS lists for it, so a caller that runs several configs over the
same models can pass `stages` and have every config reuse the outputs
whose config slice it shares (as the ablation commands do).
"""

from __future__ import annotations

import json
import math
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, is_dataclass, replace

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
)
from .segmentation import (
    SegParams,
    crop_patch,
    fuse_patches,
    iou_dice,
    neighbour_table,
    segment_patch,
)
from .synthetic import DentalModel, ScanConfig, VoteNoiseModel, generate_model, simulate_votes

ARCH_MODES = ("direct_fit", "coarse", "coarse_fine")
SAMPLING_METHODS = ("aps", "fps")


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.vote_subsample < 1:
            raise ValueError("vote_subsample must be >= 1")
        if self.pregroup_radius <= 0:
            raise ValueError("pregroup_radius must be positive")
        if not 0.0 <= self.pregroup_min_size_frac <= 1.0:
            raise ValueError(
                f"pregroup_min_size_frac must be in [0, 1], got {self.pregroup_min_size_frac}"
            )
        n_points = self.scan.n_points
        if self.vote_subsample > n_points:
            raise ValueError(
                f"vote_subsample {self.vote_subsample} exceeds scan.n_points {n_points}"
            )
        if self.sampling.n_samples > self.vote_subsample:
            raise ValueError(
                f"sampling.n_samples {self.sampling.n_samples} exceeds "
                f"vote_subsample {self.vote_subsample}"
            )
        if self.with_segmentation and self.segmentation.patch_size > n_points:
            raise ValueError(
                f"segmentation.patch_size {self.segmentation.patch_size} exceeds "
                f"scan.n_points {n_points}"
            )

    def to_dict(self) -> dict:
        """JSON-ready form: each section a dict, arrays and tuples lists."""
        return _encode(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of `to_dict`; a missing key keeps its default and an
        invalid one raises ValueError (see `config_from_dict`)."""
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {d!r}")
        return config_from_dict(cls, d)


def _encode(value):
    """A config dataclass as a dict of its encoded fields; an array or a
    tuple as a list; any other value as itself."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    return value


def config_from_dict(klass, d: dict):
    """`klass(**d)` for a config dataclass.  A section (a field whose default
    is a config dataclass) is decoded from its own object the same way.
    Every error is a ValueError that names an unknown key, a section that is
    not an object, a scalar key whose JSON type is not its default's (a
    float field also takes an int; a bool is not an int), a non-finite
    float, or the class."""
    name = klass.__name__
    kinds = {
        f.name: f.default_factory if is_dataclass(f.default_factory) else type(f.default)
        for f in fields(klass)
    }
    unknown = set(d) - set(kinds)
    if unknown:
        raise ValueError(f"unknown {name} key(s): {', '.join(sorted(unknown))}")
    decoded = {}
    for key, value in d.items():
        kind = kinds[key]
        if is_dataclass(kind):
            if not isinstance(value, dict):
                raise ValueError(f"config section '{key}' must be an object")
            value = config_from_dict(kind, value)
        elif kind in (bool, int, float, str) and (
            not isinstance(value, (int, float) if kind is float else kind)
            or isinstance(value, bool) != (kind is bool)
        ):
            raise ValueError(f"{name} key '{key}' must be {kind.__name__}, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} key '{key}' must be finite, got {value!r}")
        decoded[key] = value
    try:
        return klass(**decoded)
    except TypeError as exc:
        raise ValueError(f"invalid {name}: {exc}") from None


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


# Per stage, in pipeline order: its name, the stage whose key it extends
# and the config fields it reads ("a.b" is field b of section a).  A stored
# stage output is keyed by the values of its own fields and of every stage
# it extends (`stage_keys`).  "model" is a generated model, keyed by the
# fields that make it, and "table" its neighbour table; a "segment" output
# is stored per retained centroid.
STAGE_FIELDS = (
    ("model", None, ("scan", "seed")),
    ("table", "model", ()),
    ("votes", "table", ("vote_subsample", "noise")),
    ("pregroup", "votes", ("pregroup_radius", "pregroup_min_size_frac")),
    ("bezier", "pregroup", ()),
    ("refine", "bezier", ("refine",)),
    ("select", "refine", ("arch_mode", "sampling_method", "sampling")),
    ("proposals", "select", ("detection.grouping_radius",)),
    ("segment", "table", (
        "segmentation.patch_size",
        "segmentation.knn_graph_k",
        "segmentation.max_geodesic_radius",
        "segmentation.prob_decay",
    )),
)


def stage_keys(config: ExperimentConfig) -> dict:
    """Stage name -> the JSON text of the config slice its output depends on."""
    d = config.to_dict()
    keys, slices = {}, {None: {}}
    for name, extends, names in STAGE_FIELDS:
        fields = dict(slices[extends])
        for path in names:
            value = d
            for part in path.split("."):
                value = value[part]
            fields[path] = value
        slices[name] = fields
        keys[name] = json.dumps([name, fields], sort_keys=True)
    return keys


def _stage(stages, keys, name, compute, item=None):
    """compute(), or the output `stages` holds under `keys[name]` (under
    `(keys[name], item)` when `item` is given); a computed output is added
    to `stages`.  `stages` None computes and stores nothing."""
    if stages is None:
        return compute()
    key = keys[name] if item is None else (keys[name], item)
    if key not in stages:
        stages[key] = compute()
    return stages[key]


def estimate_arch(votes, config: ExperimentConfig, stages=None, keys=None) -> ArchPolyline:
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


def select_votes(votes, arch: ArchPolyline, config: ExperimentConfig) -> np.ndarray:
    """The sampled vote indices, min(`sampling.n_samples`, vote count) of them."""
    n = min(config.sampling.n_samples, len(votes))
    if config.sampling_method == "aps":
        return arch_aware_sampling(votes, arch, replace(config.sampling, n_samples=n))
    return fps_vote_sampling(votes, n)


def run_model(
    model: DentalModel, config: ExperimentConfig, vote_seed: int, stages=None
) -> dict:
    """Full pipeline on one model; returns a flat metrics dict.  Every
    detection metric and loss term reads the model's full centroid set.

    `stages`, if given, is this model's dict of stage outputs from earlier
    calls with the same model and vote seed: each stage whose `stage_keys`
    entry it holds is reused, and each stage computed here is added to it.
    Segment outputs are keyed by the segment key and the retained
    centroid's float64 bytes, so only centroids no earlier call segmented
    are cropped and segmented here.

    The neighbour table reads only the scan, so when segmentation needs one
    and `stages` does not hold it, `neighbour_table` runs on a worker thread
    from before the votes stage until the segment stage takes its result
    (cKDTree releases the GIL while it queries).  The thread is joined
    before this returns or raises.
    """
    t0 = time.perf_counter()
    keys = None if stages is None else stage_keys(config)
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        if config.with_segmentation and (stages is None or keys["table"] not in stages):
            pending = worker.submit(neighbour_table, model.cloud.points)
        votes = _stage(stages, keys, "votes", lambda: simulate_votes(
            model, config.vote_subsample, config.noise, vote_seed
        ))
        arch = estimate_arch(votes, config, stages, keys)
        selected = _stage(stages, keys, "select", lambda: select_votes(votes, arch, config))
        proposals = _stage(stages, keys, "proposals", lambda: make_proposals(
            group_votes(selected, votes, config.detection.grouping_radius), votes
        ))
        assigned = assign_gt_confidence(
            proposals, model.centroids, config.detection.conf_gt_threshold
        )
        retained = nms(proposals, config.detection.nms_radius, config.detection.max_centroids)
        pred_centroids = proposals.position[retained]

        metrics = detection_metrics(
            pred_centroids, model.centroids, config.detection.match_threshold
        )
        metrics.update(detection_loss(votes, proposals, assigned, model, config.loss))
        metrics["arch_mse"] = arch_mse(arch, model.gt_arch)
        metrics["n_detected"] = len(retained)
        metrics["n_teeth"] = model.n_teeth
        metrics["n_votes"] = len(votes)

        if config.with_segmentation:
            params = config.segmentation
            # a stored segment entry is always stored beside its table
            table = _stage(stages, keys, "table", lambda: pending.result())
            masks = [
                _stage(stages, keys, "segment", lambda c=c: segment_patch(
                    crop_patch(model, c, params), params, table
                ), c.tobytes())
                for c in pred_centroids
            ]
            metrics.update(iou_dice(fuse_patches(model, masks, params), model.labels))

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
        return _encode(self)

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
    stored entries lacked (None when it was given none).  A model generated
    here is one of them; a given (loaded) model is not."""
    config, index, model, stored = args
    scan_seed, vote_seed = model_seeds(config, index)
    stages = None if stored is None else dict(stored)
    if model is None:
        keys = None if stages is None else stage_keys(config)
        model = _stage(stages, keys, "model", lambda: generate_model(config.scan, scan_seed))
    metrics = run_model(model, config, vote_seed, stages)
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
    tasks = [(config, i, None, _stored(stages, i)) for i in range(config.n_models)]
    return _reduce(config, tasks, jobs)


def run_models(config: ExperimentConfig, models, jobs: int = 1, stages=None) -> MetricsReport:
    """Run the pipeline over pre-generated (loaded) models; `stages` as in
    `run_dataset`, for the same list of models."""
    tasks = [(config, i, m, _stored(stages, i)) for i, m in enumerate(models)]
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
        if config.with_segmentation:
            # Forked workers inherit the k-d tree and graph search modules
            # instead of each importing them at its first segmentation.
            import scipy.sparse.csgraph  # noqa: F401
            import scipy.spatial  # noqa: F401
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
            tasks[i][3].update(computed)
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
