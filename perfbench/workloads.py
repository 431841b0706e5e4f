"""The benchmark's workloads and the check of every model's output.

A workload runs in rounds. Round j of workload seed s works on the scans of
the pinned config with config seed `s * ROUND_STRIDE + j`, so the same seed
gives the same inputs, every round brings new scans, and round j of every
workload starts from the same scan. Each round function returns a `Round`
with its wall times and the MetricsReports the program produced.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

from archseg import cli, pipeline

from common import GOLDEN_REPORT, PINNED_CONFIG

ROUND_STRIDE = 1_000_000
GOLDEN_TOL = 1e-9
IGNORED_FIELDS = ("seconds", "model")


@dataclass
class Round:
    wall: float  # all of the round's work
    run_wall: float  # the part that runs the pipeline (pool efficiency base)
    generate_wall: float  # the time spent making the input scans
    scans: int
    reports: list


@dataclass
class Context:
    seed: int
    tmp: Path
    config: pipeline.ExperimentConfig  # what the workload's rounds run
    config_path: Path  # the same config as a file, for the CLI


def round_seed(seed: int, j: int) -> int:
    return seed * ROUND_STRIDE + j


@contextlib.contextmanager
def captured_reports():
    """Collect every MetricsReport the CLI's run_dataset/run_models return."""
    reports = []
    originals = {name: getattr(cli, name) for name in ("run_dataset", "run_models")}

    def recording(fn):
        def call(*args, **kwargs):
            report = fn(*args, **kwargs)
            reports.append(report)
            return report

        return call

    for name, fn in originals.items():
        setattr(cli, name, recording(fn))
    try:
        yield reports
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


@contextlib.contextmanager
def timed_generation():
    """Sum the seconds spent in `pipeline.generate_model`, the binding
    `run_dataset` makes its in-memory scans with. Yields a one-item list that
    holds the total when the block exits."""
    total = [0.0]
    original = pipeline.generate_model

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            total[0] += time.perf_counter() - t0

    pipeline.generate_model = timed
    try:
        yield total
    finally:
        pipeline.generate_model = original


def _cli(argv: list[str]) -> None:
    """Run one archseg command in-process with its stdout discarded.

    Exit 1 (a per-model failure) is left for the report check to count;
    any other non-zero exit means the command itself did not run.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code not in (cli.EXIT_OK, cli.EXIT_MODEL_FAILURE):
        raise RuntimeError(f"archseg {' '.join(argv)} exited {code}")


def pinned_round(ctx: Context, j: int, jobs: int) -> Round:
    config = replace(ctx.config, seed=round_seed(ctx.seed, j))
    with timed_generation() as generate:
        t0 = time.perf_counter()
        report = pipeline.run_dataset(config, jobs=jobs)
        wall = time.perf_counter() - t0
    return Round(wall, wall, generate[0], config.n_models, [report])


def ablation_round(ctx: Context, j: int, jobs: int) -> Round:
    common = ["--config", str(ctx.config_path), "--seed", str(round_seed(ctx.seed, j)),
              "--jobs", str(jobs)]
    with captured_reports() as reports, timed_generation() as generate:
        t0 = time.perf_counter()
        _cli(["ablate-sampling", *common])
        _cli(["ablate-arch", *common])
        wall = time.perf_counter() - t0
    return Round(wall, wall, generate[0], ctx.config.n_models, reports)


def disk_round(ctx: Context, j: int, jobs: int) -> Round:
    data, out = ctx.tmp / f"data{j}", ctx.tmp / f"out{j}"
    with captured_reports() as reports:
        t0 = time.perf_counter()
        _cli(["generate", "--config", str(ctx.config_path),
              "--seed", str(round_seed(ctx.seed, j)),
              "--n-models", str(ctx.config.n_models), "--weak-ratio", "0.5",
              "--out", str(data)])
        t1 = time.perf_counter()
        _cli(["run", "--config", str(ctx.config_path), "--dataset", str(data),
              "--jobs", str(jobs), "--out", str(out)])
        t2 = time.perf_counter()
    shutil.rmtree(data)
    shutil.rmtree(out)
    return Round(t2 - t0, t2 - t1, t1 - t0, ctx.config.n_models, reports)


@dataclass(frozen=True)
class Workload:
    name: str
    run_round: object  # (Context, round index, jobs) -> Round
    jobs: int
    scans_per_round: int
    with_segmentation: bool
    count_rounds: int  # rounds the traced run always completes; counts use these


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pinned", pinned_round, jobs=1, scans_per_round=1,
                 with_segmentation=True, count_rounds=4),
        Workload("ablation", ablation_round, jobs=1, scans_per_round=1,
                 with_segmentation=True, count_rounds=2),
        Workload("disk-jobs2", disk_round, jobs=2, scans_per_round=4,
                 with_segmentation=False, count_rounds=1),
    )
}


def workload_config(workload: Workload) -> pipeline.ExperimentConfig:
    """The benchmark's own copy of the pinned config for this workload."""
    return replace(
        pipeline.load_config(PINNED_CONFIG),
        n_models=workload.scans_per_round,
        with_segmentation=workload.with_segmentation,
    )


# ---------------------------------------------------------------- output check


def _comparable(config: pipeline.ExperimentConfig) -> dict:
    d = json.loads(json.dumps(config.to_dict()))
    d.pop("n_models")
    return d


@functools.cache
def _golden() -> dict:
    with open(GOLDEN_REPORT) as fh:
        return json.load(fh)


def golden_models(config: pipeline.ExperimentConfig) -> list | None:
    """Golden per-model entries when `config` is the golden's run, else None."""
    golden = _golden()
    if _comparable(config) != {k: v for k, v in golden["config"].items() if k != "n_models"}:
        return None
    return golden["per_model"]


def _golden_diffs(fresh, golden, path=""):
    """Numeric fields of `golden` that `fresh` misses by more than GOLDEN_TOL."""
    if isinstance(golden, dict):
        for key, value in golden.items():
            if key in IGNORED_FIELDS:
                continue
            if key not in fresh:
                yield f"{path}{key} missing"
            else:
                yield from _golden_diffs(fresh[key], value, f"{path}{key}.")
    elif isinstance(golden, list):
        if len(fresh) != len(golden):
            yield f"{path[:-1]} has {len(fresh)} entries, golden {len(golden)}"
        for i, (a, b) in enumerate(zip(fresh, golden)):
            yield from _golden_diffs(a, b, f"{path}{i}.")
    elif isinstance(golden, (int, float)) and not isinstance(golden, bool):
        if not isinstance(fresh, (int, float)):
            yield f"{path[:-1]} {fresh!r} vs golden {golden!r}"
        elif not abs(fresh - golden) <= GOLDEN_TOL:
            yield f"{path[:-1]} {fresh!r} vs golden {golden!r} (|d|={abs(fresh - golden):.2g})"
    elif fresh != golden:
        yield f"{path[:-1]} {fresh!r} vs golden {golden!r}"


def _invariant_errors(m: dict, config: pipeline.ExperimentConfig):
    """The benchmark's own reference: identities every correct output obeys."""
    for key, value in m.items():
        if isinstance(value, float) and not math.isfinite(value):
            yield f"{key} is {value}"
    for key in ("accuracy", "recall"):
        if not 0.0 <= m[key] <= 100.0:
            yield f"{key} {m[key]} outside [0, 100]"
    if m["chamfer"] < 0 or m["arch_mse"] < 0:
        yield "negative chamfer or arch_mse"
    if not 1 <= m["n_detected"] <= config.detection.max_centroids:
        yield f"n_detected {m['n_detected']} outside [1, {config.detection.max_centroids}]"
    if not 1 <= m["n_votes"] <= config.vote_subsample:
        yield f"n_votes {m['n_votes']} outside [1, {config.vote_subsample}]"
    l_det = m["l_offset"] + m["l_conf"] + config.loss.gamma * m["l_centers"]
    if abs(m["l_det"] - l_det) > 1e-12 * max(1.0, abs(l_det)):
        yield f"l_det {m['l_det']} != l_offset + l_conf + gamma * l_centers"
    if config.with_segmentation != ("mean_iou" in m):
        yield "segmentation fields do not match with_segmentation"
    if "mean_iou" in m:
        if not 0.0 <= m["mean_iou"] <= m["mean_dice"] <= 100.0:
            yield f"mean_iou {m['mean_iou']} / mean_dice {m['mean_dice']} out of order"
        if len(m["per_instance"]) != m["n_teeth"]:
            yield f"{len(m['per_instance'])} per_instance entries for {m['n_teeth']} teeth"
        for inst in m["per_instance"]:
            iou, dice = inst["iou"], inst["dice"]
            if abs(dice - 200.0 * iou / (100.0 + iou)) > 1e-9:
                yield f"instance {inst['gt_id']}: dice {dice} != 2 iou / (1 + iou)"


def check_report(report) -> tuple[int, list[str]]:
    """(models attempted, one line per failed model) for one MetricsReport.

    A model fails when it raised, when it breaks an identity of
    `_invariant_errors`, or, on the golden's own config and seed, when any
    numeric field misses the golden by more than GOLDEN_TOL.
    """
    golden = golden_models(report.config)
    failed = [f"seed {report.config.seed} model {f['model']}: raised "
              f"{f['error'].strip().splitlines()[-1]}" for f in report.failures]
    for m in report.per_model:
        errors = list(_invariant_errors(m, report.config))
        if golden is not None and m["model"] < len(golden):
            errors += _golden_diffs(m, golden[m["model"]])
        if errors:
            failed.append(f"seed {report.config.seed} model {m['model']}: "
                          + "; ".join(errors))
    return len(report.per_model) + len(report.failures), failed
