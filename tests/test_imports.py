"""Only processes that segment load scipy.spatial.

`geometry` is numpy-only and `segmentation` imports cKDTree inside its two
tree builders, so importing the CLI or running detection alone never loads
the k-d tree module.  A segmenting pool loads it in the parent before it
forks, so its workers inherit it.  Each check runs in a fresh interpreter,
since this test process has loaded scipy.spatial long before."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUN_JOBS_2 = """
from archseg.pipeline import ExperimentConfig, run_dataset
config = ExperimentConfig.from_dict({{
    "n_models": 2,
    "scan": {{"n_points": 1200, "n_teeth": 8}},
    "vote_subsample": 400,
    "segmentation": {{"patch_size": 256, "prob_decay": 2.0}},
    "with_segmentation": {segment},
}})
report = run_dataset(config, jobs=2)
assert not report.failures, report.failures
assert ("mean_iou" in report.per_model[0]) == {segment}
"""


def spatial_loaded_after(code: str) -> bool:
    """Whether scipy.spatial is in sys.modules once `code` has run in a
    fresh interpreter that imports archseg from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = f"import sys\n{code}\nprint('scipy.spatial' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.strip().splitlines()[-1]]


def test_cli_import_leaves_spatial_out():
    assert not spatial_loaded_after("import archseg.cli")


def test_detection_only_pool_leaves_spatial_out():
    assert not spatial_loaded_after(RUN_JOBS_2.format(segment=False))


def test_segmenting_pool_preloads_spatial():
    """The parent never segments, so only the preload before the fork can
    have loaded the module."""
    assert spatial_loaded_after(RUN_JOBS_2.format(segment=True))
