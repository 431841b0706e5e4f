"""Command-line experiment runner.

Subcommands:
  generate         write a synthetic dataset (PLY + JSON sidecars + manifest)
  run              full pipeline over a dataset (or freshly generated models)
  ablate-sampling  FPS/APS x 20/30 max-centroids table (Acc./Recall/C. Dist./IoU/Dice)
  ablate-arch      direct_fit/coarse/coarse_fine table (Acc./Recall/MSE(1e-4))
  eval             metrics on existing prediction artifacts

Exit codes: 0 success, 1 a per-model failure occurred, 2 invalid config,
usage or input file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import io as aio
from .detection import detection_metrics
from .pipeline import (
    ExperimentConfig,
    load_config,
    model_seeds,
    run_dataset,
    run_models,
)
from .segmentation import iou_dice
from .synthetic import generate_model

EXIT_OK = 0
EXIT_MODEL_FAILURE = 1
EXIT_BAD_CONFIG = 2

# detection.max_centroids values of each sampling method's rows in ablate-sampling
ABLATION_CENTROIDS = (20, 30)


def _config_from_args(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if getattr(args, "n_models", None) is not None:
        config = dataclasses.replace(config, n_models=args.n_models)
    return config


def _runner(args, stages=None):
    """config -> MetricsReport, over --dataset's models if given, else over
    models generated from the config; `stages` as in `run_dataset`.  Bad
    --jobs or --dataset input raises here, before any output is made."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if not args.dataset:
        return lambda config: run_dataset(config, jobs=args.jobs, stages=stages)
    manifest = Path(args.dataset) / "manifest.json"
    models = aio.load_dataset(manifest)
    if not models:
        raise ValueError(f"{manifest}: 'models' is empty")
    return lambda config: run_models(config, models, jobs=args.jobs, stages=stages)


def render_table(headers, rows) -> str:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def write_csv(path, headers, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)


def cmd_generate(args) -> int:
    config = _config_from_args(args)
    if not 0.0 <= args.weak_ratio <= 1.0:
        raise ValueError(f"--weak-ratio must be in [0, 1], got {args.weak_ratio}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    entries = []
    for i in range(config.n_models):
        scan_seed, _ = model_seeds(config, i)
        model = generate_model(config.scan, scan_seed)
        ply, sidecar = f"model_{i:04d}.ply", f"model_{i:04d}.json"
        aio.save_model(model, out / ply, out / sidecar)
        entry = {"index": i, "ply": ply, "json": sidecar, "split": "full"}
        if args.weak_ratio > 0:
            n_visible = max(1, int(round(args.weak_ratio * model.n_teeth)))
            ids = rng.choice(model.n_teeth, size=n_visible, replace=False) + 1
            entry["split"] = "weak"
            entry["visible_instances"] = sorted(int(k) for k in ids)
        entries.append(entry)
    aio.write_manifest(out / "manifest.json", entries)
    print(f"wrote {config.n_models} models to {out}")
    return EXIT_OK


def _print_failures(report, prefix="") -> None:
    for f in report.failures:
        print(f"{prefix}model {f['model']} FAILED:\n{f['error']}", file=sys.stderr)


def cmd_run(args) -> int:
    if args.dataset and args.n_models is not None:
        raise ValueError("--n-models cannot be used with --dataset, "
                         "whose manifest sets the model count")
    config = _config_from_args(args)
    run = _runner(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = run(config)
    report.save(out / "report.json")
    for metrics in report.per_model:
        print(
            f"model {metrics['model']:4d}: acc {metrics['accuracy']:.2f} "
            f"recall {metrics['recall']:.2f} chamfer {metrics['chamfer']:.3e}"
        )
    print("aggregate:", json.dumps(report.aggregate, sort_keys=True))
    if report.failures:
        _print_failures(report)
        return EXIT_MODEL_FAILURE
    return EXIT_OK


def _fmt(x, nd=2):
    return f"{x:.{nd}f}"


def _ablate(args, name, headers, variants, extra_cells) -> int:
    """Run each (label, config) variant; its table row is the label, Acc.,
    Recall, then `extra_cells(aggregate)`.  Written to name.csv/.txt.
    An aggregate lacks a metric no model of the variant gave (every model
    failed, or no segmentation ran); its cell reads nan.

    The variants run on the same models and share one dict of stage outputs,
    so each stage prefix they have in common runs once per model."""
    run = _runner(args, stages={})
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    headers = [headers[0], "Acc.", "Recall", *headers[1:]]
    rows = []
    failed = False
    for label, variant in variants:
        report = run(variant)
        _print_failures(report, f"{label}: ")
        failed = failed or bool(report.failures)
        agg = defaultdict(lambda: math.nan, report.aggregate)
        rows.append([label, _fmt(agg["accuracy"]), _fmt(agg["recall"]), *extra_cells(agg)])
    table = render_table(headers, rows)
    print(table)
    if args.out:
        write_csv(out / f"{name}.csv", headers, rows)
        (out / f"{name}.txt").write_text(table + "\n")
    return EXIT_MODEL_FAILURE if failed else EXIT_OK


def cmd_ablate_sampling(args) -> int:
    config = _config_from_args(args)
    variants = []
    for method in ("fps", "aps"):
        for k in ABLATION_CENTROIDS:
            detection = dataclasses.replace(config.detection, max_centroids=k)
            variant = dataclasses.replace(
                config, sampling_method=method, detection=detection
            )
            variants.append((f"{method.upper()}-{k}", variant))
    return _ablate(
        args, "ablate_sampling", ["Method", "C. Dist.", "IoU", "Dice"], variants,
        lambda agg: [_fmt(agg["chamfer"], 4), _fmt(agg["mean_iou"]), _fmt(agg["mean_dice"])],
    )


def cmd_ablate_arch(args) -> int:
    config = _config_from_args(args)
    pretty = {"direct_fit": "Direct", "coarse": "Coarse", "coarse_fine": "Coarse + Fine"}
    variants = [
        (label, dataclasses.replace(config, arch_mode=mode))
        for mode, label in pretty.items()
    ]
    return _ablate(
        args, "ablate_arch", ["Mode", "MSE(1e-4)"], variants,
        lambda agg: [_fmt(agg["arch_mse"] * 1e4)],
    )


def cmd_eval(args) -> int:
    """Metrics on existing predictions against a ground-truth model pair.

    --pred is either a labeled PLY (segmentation -> IoU/Dice) or a detection
    JSON with predicted centroids (-> accuracy/recall/chamfer, matched
    within --config's `detection.match_threshold`).
    """
    threshold = _config_from_args(args).detection.match_threshold
    model = aio.load_model(args.gt_ply, args.gt_json)
    pred_path = Path(args.pred)
    if pred_path.suffix == ".ply":
        _, labels = aio.read_ply(pred_path)
        if labels is None:
            print(f"{pred_path}: no instance labels to evaluate", file=sys.stderr)
            return EXIT_BAD_CONFIG
        result = iou_dice(labels, model.labels)
    else:
        detection = aio.read_detection_json(pred_path)
        result = detection_metrics(
            detection["centroids"], model.centroids, threshold
        )
    print(json.dumps(result, indent=1, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises ValueError where argparse would print the usage and exit 2,
    so `main` reports a usage error as one `error:` line; subparsers
    inherit the class, and `--help` still prints and exits 0."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="archseg", description="Arch-prior tooth detection and segmentation."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, runs=True):
        """A subcommand taking --config and --seed and, when it `runs` the
        pipeline, --jobs and --dataset."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override config seed")
        if runs:
            p.add_argument("--jobs", type=int, default=1, help="worker processes")
            p.add_argument("--dataset", help="directory with manifest.json")
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, "write a synthetic dataset", runs=False)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-models", type=int, help="override model count")
    p.add_argument(
        "--weak-ratio",
        type=float,
        default=0.0,
        help="fraction of teeth recorded in the manifest as having labelled "
        "masks (0 = full); no stage reads it yet",
    )

    p = command("run", cmd_run, "run the full pipeline")
    p.add_argument("--out", required=True)
    p.add_argument("--n-models", type=int, help="override model count (not with --dataset)")

    p = command("ablate-sampling", cmd_ablate_sampling, "FPS/APS x centroid-count table")
    p.add_argument("--out")
    p = command("ablate-arch", cmd_ablate_arch, "arch-mode comparison table")
    p.add_argument("--out")

    p = sub.add_parser("eval", help="metrics on existing predictions")
    p.add_argument("--pred", required=True, help="labeled PLY or detection JSON")
    p.add_argument("--gt-ply", required=True)
    p.add_argument("--gt-json", required=True)
    p.add_argument("--config", help="experiment config JSON; eval reads its "
                   "detection.match_threshold")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
