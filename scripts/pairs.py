#!/usr/bin/env python3
"""Alternated parent/change benchmark pairs and their end-to-end summary.

    python3 scripts/pairs.py --parent ../parent --change . --workload pinned \
        --pairs 10 --seconds 30 --seed-base 300

Pair i runs `perfbench/run.py --workload W --seed B+i --seconds S` once in
each checkout, the parent first in even pairs and the change first in odd
ones, so a drift of the host's speed does not favour either side.  Each run
is printed as it ends.  Then, per end-to-end metric of `BENCHMARK.json`,
the table gives each side's median and quartiles, the change/parent ratio
of the medians, the parent's interquartile range, the pairs the change
won (strictly better, in the metric's direction) and the verdict of
`verdict`, the rule a claimed gain and a regression are judged by.  Exits 1
if any run failed or had a failing model.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one untraced perfbench run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change is strictly better, in the direction
    `better` ("lower" or "higher")."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one metric from paired runs (pair i is parent[i],
    change[i]); `better` as in `wins`, and `bound` the metric's
    allowed regression, a fraction of the parent's median.

    gain        the change won at least 9/10 of the pairs and its median is
                better than the parent's by more than the parent's IQR
    worse       the change's median is worse than the parent's by more
                than bound * |parent median|
    unresolved  the parent's IQR is wider than that bound and not every
                change run beats every parent run
    same        otherwise
    """
    sign = 1.0 if better == "lower" else -1.0
    won = wins(parent, change, better)
    p_q1, p_med, p_q3 = quartiles(parent)
    gap = sign * (quartiles(change)[1] - p_med)  # < 0 is better
    allowed = bound * abs(p_med)
    if 10 * won >= 9 * len(parent) and -gap > p_q3 - p_q1:
        return "gain"
    if gap > allowed:
        return "worse"
    all_beat = max(sign * c for c in change) < min(sign * p for p in parent)
    if p_q3 - p_q1 > allowed and not all_beat:
        return "unresolved"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    results = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = run(sides[side], args.workload, seed, args.seconds)
            results[side].append(out)
            ok = ok and out["correct"] and out["failed"] == 0
            values = " ".join(
                f"{m['name']}={out['metrics'][m['name']]['value']:.4g}"
                for m in metrics if m["name"] in out["metrics"]
            )
            print(f"pair {i} seed {seed} {side:6s} correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} {values}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs: median [q1, q3] per side")
    print(f"{'metric':22s} {'parent':>30s} {'change':>30s} {'ratio':>7s} "
          f"{'parent IQR':>11s} {'won':>6s} {'verdict':>10s}")
    for m in metrics:
        name = m["name"]
        if any(name not in out["metrics"] for side in results.values() for out in side):
            continue
        vals = {side: [out["metrics"][name]["value"] for out in outs]
                for side, outs in results.items()}
        won = wins(vals["parent"], vals["change"], m["better"])
        cells = {}
        for side, v in vals.items():
            q1, q2, q3 = quartiles(v)
            cells[side] = (q2, f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
        p_q1, _, p_q3 = quartiles(vals["parent"])
        ratio = cells["change"][0] / cells["parent"][0] if cells["parent"][0] else float("nan")
        print(f"{name:22s} {cells['parent'][1]:>30s} {cells['change'][1]:>30s} "
              f"{ratio:7.3f} {p_q3 - p_q1:11.4g} {won:>3d}/{args.pairs} "
              f"{verdict(vals['parent'], vals['change'], m['better'], m['bound']):>10s}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
