import dataclasses
import json
from pathlib import Path

import pytest

from archseg.pipeline import load_config, run_dataset, stage_keys

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_CONFIG = ROOT / "configs" / "benchmark.json"
GOLDEN_REPORT = ROOT / "golden" / "benchmark_report.json"


@pytest.fixture(scope="session")
def benchmark_config():
    return load_config(BENCHMARK_CONFIG)


@pytest.fixture(scope="session")
def golden_report():
    with open(GOLDEN_REPORT) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def pinned_stages():
    """Stage outputs per pinned model (see `run_dataset`), filled by
    `full_report` and reused by the detection-only variants below."""
    return {}


@pytest.fixture(scope="session")
def full_report(benchmark_config, pinned_stages):
    """The pinned benchmark run end to end (detection + segmentation); it
    computes every stage itself, since criterion 10 checks it."""
    return run_dataset(benchmark_config, stages=pinned_stages)


@pytest.fixture(scope="session")
def pinned_votes_by_index(benchmark_config, full_report, pinned_stages):
    """The votes `full_report` simulated, per pinned model index."""
    key = stage_keys(benchmark_config)["votes"]
    return [pinned_stages[i][key] for i in range(benchmark_config.n_models)]


@pytest.fixture(scope="session")
def fps_report(benchmark_config, full_report, pinned_stages):
    """Pinned benchmark with FPS sampling, detection only; reuses
    `full_report`'s votes and arch."""
    cfg = dataclasses.replace(
        benchmark_config, sampling_method="fps", with_segmentation=False
    )
    return run_dataset(cfg, stages=pinned_stages)


@pytest.fixture(scope="session")
def coarse_report(benchmark_config, full_report, pinned_stages):
    """Pinned benchmark with the unrefined coarse arch, detection only;
    reuses `full_report`'s votes, pregrouping and Bézier fit."""
    cfg = dataclasses.replace(
        benchmark_config, arch_mode="coarse", with_segmentation=False
    )
    return run_dataset(cfg, stages=pinned_stages)
