#!/usr/bin/env python3
"""archseg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload pinned --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
  pinned      serial run_dataset on the committed pinned config
  ablation    `archseg ablate-sampling` then `ablate-arch`, in process
  disk-jobs2  `archseg generate --weak-ratio 0.5`, then `archseg run --jobs 2`
              on the written scans, without segmentation

The run repeats rounds of the workload until --seconds have passed (at least
one round) and checks every model's output (workloads.check_report).

--trace 0 reports the end-to-end metrics, untraced:
  wall_s_per_scan      wall time of a round divided by its scans, median
  model_s_p50          median of the report's per-model `seconds`
  model_s_tail         the highest nearest-rank percentile of per-model
                       `seconds` with at least ten samples above it
  generate_s_per_scan  the time a round spends making its input scans, per
                       scan, median: the `generate` command on disk-jobs2,
                       the calls of pipeline.generate_model elsewhere
                       (in-memory generation, timed by one wrapper)
  setup_s              median of fresh interpreters that import archseg.cli,
                       load the config and start the workload's process pool
  peak_rss_mb          peak RSS of this process plus its largest child

--trace 1 reports the per-layer metrics from serial rounds with every layer
wrapped by spans.installed, interleaved with untraced serial rounds (for
trace.overhead_frac) and, for a pooled workload, untraced pooled rounds (for
pipeline.pool.efficiency).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it give the environment, details and a summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common

common.prepare()

import spans  # noqa: E402
import workloads  # noqa: E402
from archseg import pipeline  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60

SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import archseg.cli
from archseg.pipeline import load_config
load_config(sys.argv[2])
jobs = int(sys.argv[3])
if jobs > 1:
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(abs, range(jobs)))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="archseg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def check_rounds(rounds) -> tuple[int, list[str]]:
    attempted, failed = 0, []
    for rnd in rounds:
        for report in rnd.reports:
            n, errors = workloads.check_report(report)
            attempted += n
            failed += errors
    return attempted, failed


def model_seconds(rounds) -> list[float]:
    return sorted(m["seconds"] for r in rounds for rep in r.reports for m in rep.per_model)


def per_scan_wall(rounds) -> float:
    return statistics.median(r.wall / r.scans for r in rounds)


def tail(sorted_values):
    """(value, percentile, samples) of the highest nearest-rank percentile
    with TAIL_BEYOND samples above it; the maximum when there are too few."""
    n = len(sorted_values)
    i = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return sorted_values[i], 100.0 * (i + 1) / n, n


def pool_efficiency(rounds, jobs) -> float:
    rounds = list(rounds)
    return sum(model_seconds(rounds)) / (jobs * sum(r.run_wall for r in rounds))


def setup_seconds(config_path, jobs) -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(common.SRC), str(config_path), str(jobs)],
        check=True, timeout=PROBE_TIMEOUT_S, cwd=common.ROOT,
    )
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN is the largest child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def untraced(args, workload, ctx):
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < args.seconds:
        rounds.append(workload.run_round(ctx, len(rounds), workload.jobs))
    rss = peak_rss_mb()  # before the setup probes, which are children too
    attempted, failed = check_rounds(rounds)
    model_s = model_seconds(rounds)
    details = {
        "rounds": len(rounds),
        "scans": sum(r.scans for r in rounds),
        "round_walls": [r.wall for r in rounds],
        "round_generate_walls": [r.generate_wall for r in rounds],
    }
    if not model_s:
        return {}, details, attempted, failed
    tail_value, tail_pct, tail_n = tail(model_s)
    setup = [setup_seconds(ctx.config_path, workload.jobs) for _ in range(SETUP_REPEATS)]
    details.update(model_s_tail_percentile=tail_pct, model_s_samples=tail_n, setup_runs=setup)
    values = {
        "wall_s_per_scan": (per_scan_wall(rounds), "s"),
        "model_s_p50": (statistics.median(model_s), "s"),
        "model_s_tail": (tail_value, "s"),
        "generate_s_per_scan": (statistics.median(r.generate_wall / r.scans for r in rounds), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, details, attempted, failed


def traced(args, workload, ctx):
    """Rounds cycle through the modes: traced serial, untraced serial and, for a
    pooled workload, untraced with its pool. Interleaving, with the order
    rotated every cycle, puts the modes under the same host load; each round
    has its own scans, so nothing one mode computes is reused by another."""
    modes = ("traced", "serial", "pool") if workload.jobs > 1 else ("traced", "serial")
    tracer = spans.Tracer()
    by_mode = {mode: {} for mode in modes}
    t0 = time.perf_counter()
    j = 0
    while (len(by_mode["traced"]) < workload.count_rounds or j % len(modes)
           or time.perf_counter() - t0 < args.seconds):
        mode = modes[(j + j // len(modes)) % len(modes)]  # rotate order each cycle
        if mode == "traced":
            tracer.round = j
            with spans.installed(tracer):
                by_mode[mode][j] = workload.run_round(ctx, j, 1)
        else:
            jobs = workload.jobs if mode == "pool" else 1
            by_mode[mode][j] = workload.run_round(ctx, j, jobs)
        j += 1
    attempted, failed = check_rounds(r for rounds in by_mode.values() for r in rounds.values())

    traced_rounds = by_mode["traced"]
    per_round = spans.layer_values(tracer.spans, {j: r.scans for j, r in traced_rounds.items()})
    count_keys = sorted(traced_rounds)[:workload.count_rounds]
    metrics = {}
    for metric, _, field in spans.LAYER_METRICS:
        # Counts only over the rounds every traced run completes, so they
        # repeat exactly; times over every traced round.
        keys = traced_rounds if field in spans.TIME_FIELDS else count_keys
        metrics[metric] = {
            "value": statistics.median(per_round[k][metric] for k in keys),
            "unit": spans.metric_unit(field),
        }
    pool_mode, pool_jobs = ("pool", workload.jobs) if workload.jobs > 1 else ("serial", 1)
    metrics["pipeline.pool.efficiency"] = {
        "value": pool_efficiency(by_mode[pool_mode].values(), pool_jobs), "unit": "ratio"}
    metrics["trace.overhead_frac"] = {
        "value": per_scan_wall(traced_rounds.values()) / per_scan_wall(by_mode["serial"].values()) - 1.0,
        "unit": "ratio"}
    details = {
        "rounds": j,
        "scans": sum(r.scans for rounds in by_mode.values() for r in rounds.values()),
        "count_rounds": workload.count_rounds,
        "spans": len(tracer.spans),
        "round_walls": {mode: [r.wall for r in rounds.values()] for mode, rounds in by_mode.items()},
    }
    return metrics, details, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=common.ROOT) as tmp:
        config = workloads.workload_config(workload)
        config_path = Path(tmp) / "config.json"
        pipeline.save_config(config, config_path)
        ctx = workloads.Context(args.seed, Path(tmp), config, config_path)
        run = traced if args.trace else untraced
        metrics, details, attempted, failed = run(args, workload, ctx)

    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   attempted=attempted, failed_frac=len(failed) / max(attempted, 1),
                   failures=failed)
    for line in failed:
        print(f"FAILED {line}")
    print(f"[{args.workload} seed {args.seed} trace {args.trace}] "
          f"{details['rounds']} rounds, {details['scans']} scans, "
          f"{len(failed)}/{attempted} models failed")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"environment": common.environment()}))
    print(json.dumps({"details": details}))
    if not metrics:
        print("perfbench: no model completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
