#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<PR>.json.

    python3 scripts/bench.py --pr 6 [--tree .]

Runs `perfbench/run.py` of the tree being measured for every workload at
seed SEED for SECONDS seconds, once untraced (the six end-to-end metrics)
and once with `--trace 1` (the per-layer metrics), then the tier-1 test
suite, and writes BENCH_<PR>.json into that tree: the environment block
perfbench prints (it holds the `src/archseg` line count, and this script
adds `settable_config_keys` beside it, the number of leaf keys of the
tree's `ExperimentConfig().to_dict()`, and `cli_options`, the number of
options over all subcommands of its `cli.build_parser()`), both metric sets
per workload, tier-1 wall time and summary, and `git_dirty`, which is true
when `git status --porcelain` lists any change (perfbench's `git_commit`
names HEAD even for a modified tree).  Every point is taken at the same
seed and duration, so points compare.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pinned", "ablation", "disk-jobs2")
SEED = 0
SECONDS = 30.0
RUN_TIMEOUT_S = 600
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
COUNT_CONFIG_KEYS = """
from archseg.pipeline import ExperimentConfig
def leaves(d):
    return sum(leaves(v) if isinstance(v, dict) else 1 for v in d.values())
print(leaves(ExperimentConfig().to_dict()))
"""
COUNT_CLI_OPTIONS = """
import argparse
from archseg.cli import build_parser
sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
print(sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
          for p in sub.choices.values() for a in p._actions))
"""


def perfbench(tree: Path, workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith('{"environment"'):
            result["environment"] = json.loads(line)["environment"]
    return result


def count(tree: Path, script: str) -> int:
    """The integer `script` prints when run against the tree's `src`."""
    proc = subprocess.run([sys.executable, "-c", script], cwd=tree,
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
                          text=True, check=True)
    return int(proc.stdout)


def tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"seconds": seconds, "summary": summary.strip("= "), "exit_code": proc.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()

    status = subprocess.run(["git", "status", "--porcelain"], cwd=tree,
                            capture_output=True, text=True, check=True).stdout
    out = {"pr": args.pr, "seed": SEED, "seconds": SECONDS,
           "git_dirty": bool(status.strip()), "workloads": {}}
    for workload in WORKLOADS:
        untraced = perfbench(tree, workload, 0)
        traced = perfbench(tree, workload, 1)
        out.setdefault("environment", untraced["environment"])
        out["workloads"][workload] = {
            "correct": untraced["correct"] and traced["correct"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
        wall = untraced["metrics"]["wall_s_per_scan"]["value"]
        print(f"{workload}: wall_s_per_scan {wall:.4g}", flush=True)
    out["environment"]["settable_config_keys"] = count(tree, COUNT_CONFIG_KEYS)
    out["environment"]["cli_options"] = count(tree, COUNT_CLI_OPTIONS)
    out["tier1"] = tier1(tree)
    path = tree / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"tier-1: {out['tier1']['summary']}; wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
