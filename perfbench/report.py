#!/usr/bin/env python3
"""Every workload's metrics plus the full output checks, in one command.

    python3 perfbench/report.py [--seed 0] [--seconds 30]

For each workload this runs `run.py` once untraced (end-to-end metrics) and
twice traced with the same seed; the traced runs' count-type metrics must
agree exactly, and any that differ are flagged. Then the committed pinned
benchmark is run whole and serially at its own seed, and every per-model
numeric field is compared with golden/benchmark_report.json at 1e-9.

Prints the tables and ends with one JSON summary line. Exits 1 when a run
reported a failed model, a count did not repeat, or the golden check found
a mismatch; the mismatching models are listed, never skipped.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import common

common.prepare()

import workloads  # noqa: E402
from archseg import pipeline  # noqa: E402

RUN = Path(__file__).resolve().with_name("run.py")
RUN_TIMEOUT_S = 300


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          cwd=common.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = next(
        json.loads(ln)["details"] for ln in lines if ln.startswith('{"details"'))
    return result


def table(title: str, rows: dict[str, dict], names: list[str]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':36s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for metric, by_workload in rows.items():
        unit = next(m["unit"] for m in by_workload.values())
        cells = " ".join(f"{by_workload[n]['value']:14.6g}" for n in names)
        print(f"  {metric:36s} {unit:6s} {cells}")


def golden_check() -> dict:
    config = pipeline.load_config(common.PINNED_CONFIG)
    t0 = time.perf_counter()
    report = pipeline.run_dataset(config, jobs=1)
    attempted, failed = workloads.check_report(report)
    return {"attempted": attempted, "failed": failed,
            "failed_frac": len(failed) / attempted, "seconds": time.perf_counter() - t0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    names = list(workloads.WORKLOADS)
    e2e, layers, flagged, problems = {}, {}, {}, []
    for name in names:
        untraced = bench(name, args.seed, args.seconds, 0)
        first, second = (bench(name, args.seed, args.seconds, 1) for _ in range(2))
        for result in (untraced, first, second):
            if not result["correct"]:
                problems += [f"{name}: {line}" for line in result["details"]["failures"]]
        for metric, m in untraced["metrics"].items():
            e2e.setdefault(metric, {})[name] = m
        e2e.setdefault("failed_frac", {})[name] = {
            "value": untraced["details"]["failed_frac"], "unit": "ratio"}
        e2e.setdefault("model_s_tail.percentile", {})[name] = {
            "value": untraced["details"]["model_s_tail_percentile"], "unit": "%"}
        e2e.setdefault("model_s_tail.samples", {})[name] = {
            "value": untraced["details"]["model_s_samples"], "unit": "count"}
        for metric, m in first["metrics"].items():
            layers.setdefault(metric, {})[name] = m
        flagged[name] = [
            metric for metric, m in first["metrics"].items()
            if m["unit"] in ("count", "bytes") and m["value"] != second["metrics"][metric]["value"]
        ]
    golden = golden_check()

    print(json.dumps({"environment": common.environment()}))
    table(f"end-to-end, seed {args.seed}, {args.seconds:g} s per run (untraced)", e2e, names)
    table("per layer, per scan (traced run)", layers, names)
    print("\ncount metrics that differ between two traced runs:")
    for name in names:
        print(f"  {name:12s} {', '.join(flagged[name]) or 'none'}")
    print(f"\ngolden check: {len(golden['failed'])}/{golden['attempted']} models fail "
          f"the 1e-9 comparison ({golden['seconds']:.1f} s)")
    for line in golden["failed"]:
        print(f"  {line}")
    for line in problems:
        print(f"FAILED {line}")
    ok = not golden["failed"] and not problems and not any(flagged.values())
    print(json.dumps({"ok": ok, "golden_failed_frac": golden["failed_frac"],
                      "golden_failures": golden["failed"], "flagged_counts": flagged,
                      "failures": problems}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
