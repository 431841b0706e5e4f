"""Only processes that segment load scipy.

`geometry` and `assignment` are numpy-only, and `segmentation` imports
`scipy.spatial` and `scipy.sparse.csgraph` inside the functions that build
k-d trees and search the patch graph, so importing the CLI, `generate`,
`eval` and detection alone never load any scipy module.  A segmenting pool
loads both in the parent before it forks, so its workers inherit them.  Each
check runs in a fresh interpreter, since this test process has loaded scipy
long before; `test_no_module_level_scipy_import` checks the source cheaply.
`test_no_module_level_thread` checks that no module starts a thread at
import, which a forked pool worker would not inherit.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import archseg
from archseg.io import save_model
from archseg.synthetic import ScanConfig, generate_model

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = {
    "n_models": 2,
    "scan": {"n_points": 1200, "n_teeth": 8},
    "vote_subsample": 400,
    "segmentation": {"patch_size": 256, "prob_decay": 2.0},
}

RUN_JOBS_2 = """
from archseg.pipeline import ExperimentConfig, run_dataset
config = ExperimentConfig.from_dict({config!r})
report = run_dataset(config, jobs=2)
assert not report.failures, report.failures
assert ("mean_iou" in report.per_model[0]) == config.with_segmentation
"""

CLI_MAIN = """
from archseg import cli
assert cli.main({argv!r}) == 0
"""


def scipy_loaded_after(code: str) -> list[str]:
    """The scipy modules in sys.modules once `code` has run in a fresh
    interpreter that imports archseg from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = (f"import json, sys\n{code}\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_jobs_2(segment: bool) -> str:
    return RUN_JOBS_2.format(config=dict(CONFIG, with_segmentation=segment))


def test_cli_import_loads_no_scipy():
    assert scipy_loaded_after("import archseg.cli") == []


def test_generate_loads_no_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    argv = ["generate", "--config", str(config), "--out", str(tmp_path / "data"),
            "--weak-ratio", "0.5"]
    assert scipy_loaded_after(CLI_MAIN.format(argv=argv)) == []
    assert (tmp_path / "data" / "manifest.json").exists()


@pytest.mark.parametrize("pred", ["labels", "centroids"])
def test_eval_loads_no_scipy(tmp_path, pred):
    """`eval` scores a labelled PLY by `iou_dice` and a detection JSON by
    `detection_metrics`; both match by assignment."""
    model = generate_model(ScanConfig(n_points=1200, n_teeth=8), seed=3)
    ply, sidecar = tmp_path / "model.ply", tmp_path / "model.json"
    save_model(model, ply, sidecar)
    if pred == "labels":
        pred_path = ply
    else:
        pred_path = tmp_path / "detection.json"
        pred_path.write_text(json.dumps({
            "centroids": model.centroids.tolist(),
            "confidences": [1.0] * len(model.centroids),
            "sampling": "aps",
            "params": {},
        }))
    argv = ["eval", "--pred", str(pred_path), "--gt-ply", str(ply), "--gt-json", str(sidecar)]
    assert scipy_loaded_after(CLI_MAIN.format(argv=argv)) == []


def test_detection_only_pool_loads_no_scipy():
    assert scipy_loaded_after(run_jobs_2(segment=False)) == []


def test_segmenting_pool_preloads_scipy():
    """The parent never segments, so only the preload before the fork can
    have loaded these modules."""
    loaded = scipy_loaded_after(run_jobs_2(segment=True))
    assert {"scipy.sparse.csgraph", "scipy.spatial"} <= set(loaded)


# The calls that start or can start an OS thread.
THREAD_FACTORIES = {"ThreadPoolExecutor", "Thread"}


def module_level_thread_calls(source: str) -> list[str]:
    """The thread and thread-pool constructors a module's source calls when
    the module is imported: anywhere but inside a function body (a default
    argument or a decorator runs at import too)."""
    found = []

    def visit(node):
        if (isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1] in THREAD_FACTORIES):
            found.append(ast.unparse(node.func))
        for name, value in ast.iter_fields(node):
            if name == "body" and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child)

    visit(ast.parse(source))
    return found


def test_no_module_level_thread():
    """No package module creates a thread or a thread pool when it is
    imported: `pipeline._reduce` forks pool workers, and a forked child has
    only the thread that forked it, so a pool made at import would have
    lost its worker thread there."""
    found = {
        (path.name, call)
        for path in Path(archseg.__file__).parent.glob("*.py")
        for call in module_level_thread_calls(path.read_text())
    }
    assert not found, f"create these inside the functions that use them: {sorted(found)}"
    source = (
        "import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
        "POOL = ThreadPoolExecutor(max_workers=1)\n"
        "class A:\n    t = threading.Thread(target=print)\n"
        "def f(w=futures.ThreadPoolExecutor()):\n"
        "    with ThreadPoolExecutor(1) as pool:\n"
        "        threading.Thread(target=print).start()\n"
        "g = lambda: ThreadPoolExecutor()\n"
    )
    assert module_level_thread_calls(source) == [
        "ThreadPoolExecutor", "threading.Thread", "futures.ThreadPoolExecutor",
    ]


def module_level_scipy_imports(source: str) -> list[str]:
    """The scipy modules a module's source imports outside any function,
    that is, when the module itself is imported."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append(child.module)
            visit(child)

    visit(ast.parse(source))
    return [name for name in found if name == "scipy" or name.startswith("scipy.")]


def test_no_module_level_scipy_import():
    """No package module imports scipy when it is imported; the functions
    that need scipy import it themselves."""
    found = {
        (path.name, name)
        for path in Path(archseg.__file__).parent.glob("*.py")
        for name in module_level_scipy_imports(path.read_text())
    }
    assert not found, f"import these inside the functions that use them: {sorted(found)}"
    source = (
        "import numpy as np\nimport scipy.sparse\nfrom scipy.spatial import cKDTree\n"
        "from .scipy_like import x\n"
        "class A:\n    import scipy.linalg\n"
        "def f():\n    from scipy.sparse.csgraph import dijkstra\n"
    )
    assert module_level_scipy_imports(source) == ["scipy.sparse", "scipy.spatial", "scipy.linalg"]
