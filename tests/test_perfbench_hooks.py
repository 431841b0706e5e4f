"""The benchmark times archseg from outside by rebinding module attributes
(`perfbench/spans.py`'s BINDINGS, and the bindings `perfbench/workloads.py`
patches), and checks its outputs against the golden report only when its
config matches the golden's.  A rename in `src/archseg` or a change of the
config schema would break the benchmark silently, so these tests read the
benchmark's own tables and check that each hook still lands on the program
and that the golden check still applies."""

import importlib
import importlib.util
import sys
from pathlib import Path

from archseg import cli, pipeline
from archseg.pipeline import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name, module_name=None):
    """perfbench/<name>.py as module `module_name` (by default
    perfbench_<name>), without adding perfbench to sys.path (its
    dataclasses need the module registered while it executes)."""
    module_name = module_name or f"perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        sys.modules[module_name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[module_name])
    return sys.modules[module_name]


def load_spans():
    return load_perfbench("spans")


def load_workloads():
    """perfbench/workloads.py, which imports perfbench/common.py as `common`."""
    load_perfbench("common", "common")
    return load_perfbench("workloads")


def test_every_binding_resolves_to_a_callable():
    for module_name, attr, _, _ in load_spans().BINDINGS:
        module = importlib.import_module(f"archseg.{module_name}")
        assert callable(getattr(module, attr, None)), f"archseg.{module_name}.{attr}"


def test_workload_patch_targets_exist():
    # workloads.captured_reports wraps the first two, timed_generation the third
    for module, attr in [(cli, "run_dataset"), (cli, "run_models"),
                         (pipeline, "generate_model")]:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_golden_check_applies_to_pinned_config():
    """`check_report` compares against the golden only when the run's config
    equals the golden's config block, so a schema change that leaves the
    golden behind would switch the 1e-9 check off without a failure."""
    workloads = load_workloads()
    assert workloads.golden_models(pipeline.load_config(workloads.PINNED_CONFIG)) is not None
    pinned = workloads.workload_config(workloads.WORKLOADS["pinned"])
    assert workloads.golden_models(pinned) is not None


def test_traced_run_counts_segment_spans():
    spans = load_spans()
    config = ExperimentConfig.from_dict({
        "n_models": 1,
        "scan": {"n_points": 1200, "n_teeth": 8},
        "vote_subsample": 400,
        "segmentation": {"patch_size": 256, "prob_decay": 2.0},
    })
    with spans.installed(spans.Tracer()) as tracer:
        report = pipeline.run_dataset(config)
    assert not report.failures
    segments = [s for s in tracer.spans if s.name == "segmentation.segment"]
    assert len(segments) == report.per_model[0]["n_detected"] > 0
    assert all(s.counts.keys() == {"patches", "degenerate"} for s in segments)
    assert all(s.model == 0 for s in segments)
