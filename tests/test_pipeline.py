import ast
import dataclasses
import json
import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import archseg
from archseg import pipeline
from archseg.pipeline import (
    STAGE_FIELDS,
    ExperimentConfig,
    MetricsReport,
    aggregate_metrics,
    estimate_arch,
    load_config,
    model_seeds,
    run_dataset,
    run_model,
    run_models,
    save_config,
    stage_keys,
)
from archseg.segmentation import PatchMask, SegParams, neighbour_table
from archseg.synthetic import ScanConfig, VoteNoiseModel, generate_model, simulate_votes

TINY = ExperimentConfig(
    n_models=3,
    scan=ScanConfig(n_points=2000, n_teeth=8),
    vote_subsample=512,
    segmentation=dataclasses.replace(
        ExperimentConfig().segmentation, patch_size=512, prob_decay=2.0
    ),
)


RUN_ONE = pipeline._run_one


def crash_on_model_1(task):
    """`_run_one`, except that model 1 kills its worker process."""
    if task[1] == 1:
        os._exit(1)
    return RUN_ONE(task)


@pytest.fixture(scope="module")
def tiny_report():
    return run_dataset(TINY)


class TestConfig:
    def test_round_trip(self, tmp_path):
        save_config(TINY, tmp_path / "c.json")
        loaded = load_config(tmp_path / "c.json")
        assert loaded.to_dict() == TINY.to_dict()

    def test_json_plain_types(self):
        json.dumps(TINY.to_dict())  # must be serializable as-is

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(arch_mode="fine")
        with pytest.raises(ValueError):
            ExperimentConfig(sampling_method="knn")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"vote_subsample": 2001}, "vote_subsample 2001 exceeds scan.n_points 2000"),
            (
                {"segmentation": SegParams(patch_size=2001)},
                "segmentation.patch_size 2001 exceeds scan.n_points 2000",
            ),
            (
                {"sampling": dataclasses.replace(TINY.sampling, n_samples=513)},
                "sampling.n_samples 513 exceeds vote_subsample 512",
            ),
        ],
    )
    def test_cross_field_checks(self, fields, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(TINY, **fields)

    def test_patch_size_unchecked_without_segmentation(self):
        cfg = dataclasses.replace(
            TINY, with_segmentation=False, segmentation=SegParams(patch_size=4096)
        )
        assert cfg.segmentation.patch_size > cfg.scan.n_points
        assert dataclasses.replace(TINY, vote_subsample=2000).vote_subsample == 2000

    def test_partial_dict_uses_defaults(self):
        cfg = ExperimentConfig.from_dict({"n_models": 2})
        assert cfg.n_models == 2
        assert cfg.arch_mode == "coarse_fine"


# The config section classes: ScanConfig, VoteNoiseModel and the *Params.
SECTION_CLASSES = {
    f.default_factory.__name__
    for f in dataclasses.fields(ExperimentConfig)
    if dataclasses.is_dataclass(f.default_factory)
}


def section_default_sites(source: str) -> list[str]:
    """"function.parameter" for each parameter of a module's functions whose
    default is a config section instance (a call of a SECTION_CLASSES name)."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                 *zip(args.kwonlyargs, args.kw_defaults)]
        for arg, default in pairs:
            if (isinstance(default, ast.Call)
                    and ast.unparse(default.func).split(".")[-1] in SECTION_CLASSES):
                sites.append(f"{getattr(node, 'name', '<lambda>')}.{arg.arg}")
    return sites


def test_no_config_section_default():
    """A function whose value the config holds takes it without a default,
    so the config's defaults have one home."""
    assert SECTION_CLASSES >= {"ScanConfig", "VoteNoiseModel", "SegParams", "RefineParams"}
    found = sorted(
        f"{path.name}: {site}"
        for path in Path(archseg.__file__).parent.glob("*.py")
        for site in section_default_sites(path.read_text())
    )
    assert not found, f"pass the config's section instead of a default: {found}"
    source = (
        "def f(a, p: SegParams = SegParams(), q=3, *, r=seg.RefineParams()): pass\n"
        "def g(s=ScanConfig, t=make(VoteNoiseModel()), u=None): pass\n"
        "class A:\n    def h(self, n=VoteNoiseModel(clutter_fraction=0.1)): pass\n"
        "k = lambda c=DetectionParams(): c\n"
    )
    assert sorted(section_default_sites(source)) == [
        "<lambda>.c", "f.p", "f.r", "h.n",
    ]


class TestRunModel:
    def test_metrics_keys(self, tiny_report):
        m = tiny_report.per_model[0]
        for key in (
            "accuracy",
            "recall",
            "chamfer",
            "arch_mse",
            "l_det",
            "mean_iou",
            "mean_dice",
            "n_detected",
            "seconds",
        ):
            assert key in m

    def test_detection_only_skips_segmentation(self):
        cfg = dataclasses.replace(TINY, with_segmentation=False)
        model = generate_model(cfg.scan, model_seeds(cfg, 0)[0])
        m = run_model(model, cfg, model_seeds(cfg, 0)[1])
        assert "mean_iou" not in m


class TestRunDataset:
    def test_determinism(self, tiny_report):
        again = run_dataset(TINY)
        for a, b in zip(tiny_report.per_model, again.per_model):
            for key, val in a.items():
                if key in ("seconds", "per_instance"):
                    continue
                assert b[key] == val, key

    def test_parallel_matches_serial(self, tiny_report):
        par = run_dataset(TINY, jobs=2)
        for a, b in zip(tiny_report.per_model, par.per_model):
            assert a["accuracy"] == b["accuracy"]
            assert a["arch_mse"] == b["arch_mse"]

    def test_aggregates_are_exact_means(self, tiny_report):
        for key, val in tiny_report.aggregate.items():
            if key == "n_models":
                continue
            vals = [m[key] for m in tiny_report.per_model]
            assert val == pytest.approx(np.mean(vals), abs=1e-12)

    def test_failure_recorded_run_continues(self):
        # keeping only the largest vote cluster leaves every model with
        # fewer than 2 arch centres
        bad = dataclasses.replace(TINY, pregroup_min_size_frac=1.0, n_models=2)
        rep = run_dataset(bad)
        assert len(rep.failures) == 2
        assert all("need at least 2 centroids" in f["error"] for f in rep.failures)
        assert rep.per_model == []

    @pytest.mark.parametrize("method", pipeline.SAMPLING_METHODS)
    def test_n_samples_is_an_upper_bound(self, method):
        """A model with fewer votes than n_samples takes one sample per vote."""
        cfg = dataclasses.replace(
            TINY, sampling=dataclasses.replace(TINY.sampling, n_samples=300),
            sampling_method=method, n_models=2, with_segmentation=False,
        )
        rep = run_dataset(cfg)
        assert rep.failures == []
        assert all(m["n_votes"] < 300 for m in rep.per_model)
        scan_seed, vote_seed = model_seeds(cfg, 0)
        votes = simulate_votes(generate_model(cfg.scan, scan_seed), cfg.vote_subsample,
                               cfg.noise, vote_seed)
        selected = pipeline.select_votes(votes, estimate_arch(votes, cfg), cfg)
        assert len(selected) == len(votes)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crashing task is patched into forked workers",
    )
    def test_crashing_worker_fails_only_its_model(self, monkeypatch):
        """A worker that dies breaks the pool for every model in it; each is
        rerun alone, and only the model that crashes again is a failure."""
        cfg = dataclasses.replace(TINY, n_models=6, with_segmentation=False)
        monkeypatch.setattr(pipeline, "_run_one", crash_on_model_1)
        report = run_dataset(cfg, jobs=2)
        monkeypatch.undo()
        assert [f["model"] for f in report.failures] == [1]
        assert "BrokenProcessPool" in report.failures[0]["error"]
        serial = run_dataset(cfg)
        assert without_seconds(report) == [
            m for m in without_seconds(serial) if m["model"] != 1
        ]

    def test_sampling_isolation(self):
        cfg = dataclasses.replace(TINY, with_segmentation=False)
        aps = run_dataset(cfg)
        fps = run_dataset(dataclasses.replace(cfg, sampling_method="fps"))
        # identical inputs: vote-level loss l_offset is sampling-independent
        for a, f in zip(aps.per_model, fps.per_model):
            assert a["l_offset"] == f["l_offset"]
            assert a["n_votes"] == f["n_votes"]
            assert a["arch_mse"] == f["arch_mse"]

    def test_run_models_matches_run_dataset(self, tiny_report):
        models = [
            generate_model(TINY.scan, model_seeds(TINY, i)[0])
            for i in range(TINY.n_models)
        ]
        loaded = run_models(TINY, models)
        for a, b in zip(tiny_report.per_model, loaded.per_model):
            assert a["accuracy"] == b["accuracy"]
            assert a["chamfer"] == b["chamfer"]


def without_seconds(report):
    return [{k: v for k, v in m.items() if k != "seconds"} for m in report.per_model]


# One detection-only model with clutter votes, so every stage has work to do.
STAGED = dataclasses.replace(
    TINY,
    n_models=1,
    with_segmentation=False,
    noise=VoteNoiseModel(
        tooth_vote_sigma=0.02, clutter_fraction=0.25, clutter_sigma=0.08,
    ),
)


def changed(**fields):
    """STAGED with top-level fields replaced; a dict value replaces fields of
    that section."""
    for name, value in fields.items():
        if isinstance(value, dict):
            fields[name] = dataclasses.replace(getattr(STAGED, name), **value)
    return dataclasses.replace(STAGED, **fields)


def leaf_fields(config):
    """Every config field that is not a section, as "name" or "section.name"."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from (f"{f.name}.{g.name}" for g in dataclasses.fields(value))
        else:
            yield f.name


def covers(names, path):
    """Whether `names` holds the field at `path` or its whole section."""
    return any(path == name or path.startswith(name + ".") for name in names)


def is_keyed(path):
    """Whether STAGE_FIELDS names the field or its whole section."""
    return covers([name for _, _, names in STAGE_FIELDS for name in names], path)


def stage_name(key):
    """The stage a stored key belongs to; a segment key is (key, centroid)."""
    return json.loads(key if isinstance(key, str) else key[0])[0]


# The changed value of a field, where `with_leaf_changed`'s default is
# invalid, undefined for its type, or leaves SEGMENTED's output unchanged.
CHANGED_VALUES = {
    "scan.n_points": 1500,
    "scan.n_teeth": 9,
    "scan.arch_control": 1.1 * ScanConfig().arch_control,
    "scan.tooth_radius_range": (0.04, 0.05),
    "scan.missing_tooth_prob": 0.3,
    "scan.crowding_jitter": 0.02,
    "scan.misalignment_angle_max": 0.3,
    "arch_mode": "coarse",
    "sampling_method": "fps",
    "segmentation.prob_decay": 8.0,
}


def with_leaf_changed(config, path):
    """config with the one leaf field at `path` set to another valid value:
    its CHANGED_VALUES entry, else a quarter of a number (an int to
    `value // 4`, or `value + 1` when that is 0) or a flipped bool."""
    *section, name = path.split(".")
    owner = getattr(config, section[0]) if section else config
    value = getattr(owner, name)
    if path in CHANGED_VALUES:
        new = CHANGED_VALUES[path]
    elif isinstance(value, bool):
        new = not value
    elif isinstance(value, int):
        new = value // 4 or value + 1
    elif isinstance(value, float):
        new = value / 4
    else:
        pytest.fail(f"no changed value for {path} of type {type(value).__name__}")
    owner = dataclasses.replace(owner, **{name: new})
    return dataclasses.replace(config, **{section[0]: owner}) if section else owner


# STAGED with segmentation on: the config whose stage outputs the stage tests
# start from, so the table and segment stages are stored too.
SEGMENTED = dataclasses.replace(STAGED, with_segmentation=True)
# Every leaf field a config file can set.
SETTABLE_FIELDS = list(leaf_fields(SEGMENTED))
# Every field no stage key holds; a change to one must reuse every stored
# stage and still give what a run with nothing stored gives.
DOWNSTREAM_FIELDS = [path for path in SETTABLE_FIELDS if not is_keyed(path)]
# Every field a stage key holds; a change to one must change the output.
KEYED_FIELDS = [path for path in SETTABLE_FIELDS if is_keyed(path)]
# The fields a segment output depends on: the model's and the segmentor's.
SEGMENT_READS = (
    "scan", "seed", "segmentation.patch_size", "segmentation.knn_graph_k",
    "segmentation.max_geodesic_radius", "segmentation.prob_decay",
)


@pytest.fixture(scope="module")
def staged_run():
    """SEGMENTED's report and the stage outputs of its model."""
    stages = {}
    report = run_dataset(SEGMENTED, stages=stages)
    return without_seconds(report), stages[0]


@pytest.fixture(scope="module")
def staged_outputs(staged_run):
    """The stage outputs of SEGMENTED's model; tests copy them."""
    return staged_run[1]


class TestStages:
    """A config run after SEGMENTED on the same stage dict reuses only the
    stage outputs whose config slice it shares: each leaf field a stage key
    holds gets a case that changes that field alone."""

    @pytest.mark.parametrize("path", KEYED_FIELDS)
    def test_changed_stage_field_recomputes(self, staged_run, path):
        report, outputs = staged_run
        variant = with_leaf_changed(SEGMENTED, path)
        shared = run_dataset(variant, stages={0: dict(outputs)})
        alone = without_seconds(run_dataset(variant))
        assert alone != report
        assert without_seconds(shared) == alone

    @pytest.mark.parametrize("path", DOWNSTREAM_FIELDS)
    def test_downstream_change_reuses_every_stage(self, staged_outputs, path):
        names = {stage_name(key) for key in staged_outputs}
        assert names == {name for name, _, _ in STAGE_FIELDS}
        variant = with_leaf_changed(SEGMENTED, path)
        stages = {0: dict(staged_outputs)}
        shared = run_dataset(variant, stages=stages)
        assert all(stages[0][key] is value for key, value in staged_outputs.items())
        segmented = {key[1] for key in staged_outputs if stage_name(key) == "segment"}
        for key in stages[0].keys() - staged_outputs.keys():
            assert stage_name(key) == "segment" and key[1] not in segmented
        assert without_seconds(shared) == without_seconds(run_dataset(variant))

    @pytest.mark.parametrize("path", SETTABLE_FIELDS)
    def test_segment_key_reads_model_and_segmentor_fields(self, path):
        variant = with_leaf_changed(SEGMENTED, path)
        changed_key = stage_keys(variant)["segment"] != stage_keys(SEGMENTED)["segment"]
        assert changed_key == covers(SEGMENT_READS, path)

    def test_arch_modes_share_pregroup_and_bezier(self, staged_outputs):
        stages = {0: dict(staged_outputs)}
        run_dataset(changed(arch_mode="coarse"), stages=stages)
        run_dataset(changed(arch_mode="direct_fit"), stages=stages)
        added = sorted(stage_name(key) for key in stages[0].keys() - staged_outputs.keys())
        assert added == sorted(2 * ["select", "proposals"])

    def test_keys_name_only_upstream_fields(self):
        base = stage_keys(STAGED)
        after_votes = stage_keys(changed(pregroup_radius=0.06))
        assert all(after_votes[name] == base[name] for name in ("table", "votes", "segment"))
        assert all(after_votes[name] != base[name] for name in
                   ("pregroup", "bezier", "refine", "select", "proposals"))

    def test_jobs_2_stores_what_serial_stores(self, staged_outputs):
        pooled = {}
        run_dataset(SEGMENTED, jobs=2, stages=pooled)
        assert pooled[0].keys() == staged_outputs.keys()
        keys = stage_keys(SEGMENTED)
        np.testing.assert_array_equal(
            pooled[0][keys["votes"]].position, staged_outputs[keys["votes"]].position
        )
        for key in staged_outputs:
            if stage_name(key) == "segment":
                mask, pooled_mask = staged_outputs[key], pooled[0][key]
                assert isinstance(mask, PatchMask) and isinstance(pooled_mask, PatchMask)
                np.testing.assert_array_equal(pooled_mask.point_indices, mask.point_indices)
                np.testing.assert_array_equal(pooled_mask.distances, mask.distances)
                np.testing.assert_array_equal(pooled_mask.probabilities, mask.probabilities)

    def test_run_models_stores_per_model(self):
        models = [
            generate_model(STAGED.scan, model_seeds(STAGED, i)[0])
            for i in range(2)
        ]
        stages = {}
        run_models(STAGED, models, stages=stages)
        variant = changed(sampling_method="fps")
        shared = run_models(variant, models, stages=stages)
        alone = run_models(variant, models)
        assert sorted(stages) == [0, 1]
        assert without_seconds(shared) == without_seconds(alone)


TABLE_MODELS = dataclasses.replace(TINY, n_models=2)
REAL_NEIGHBOUR_TABLE = pipeline.neighbour_table


def first_model():
    """TINY's model 0 and its vote seed."""
    scan_seed, vote_seed = model_seeds(TINY, 0)
    return generate_model(TINY.scan, scan_seed), vote_seed


def fail_on_model_0(points):
    """`neighbour_table`, except that it raises on TINY's model 0."""
    if np.array_equal(points, first_model()[0].cloud.points):
        raise RuntimeError("table build failed")
    return REAL_NEIGHBOUR_TABLE(points)


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs, in start order."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


class TestTableThread:
    """A segmenting `run_model` builds the neighbour table on a worker
    thread while detection runs, and joins the thread before it returns."""

    def test_stored_table_is_bitwise_neighbour_table(self):
        model, vote_seed = first_model()
        stages = {}
        run_model(model, TINY, vote_seed, stages)
        table = stages[stage_keys(TINY)["table"]]
        expected = neighbour_table(model.cloud.points)
        for name in ("indices", "reach"):
            got, want = getattr(table, name), getattr(expected, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), name

    def test_table_built_off_the_calling_thread(self, monkeypatch, thread_starts):
        builders = []

        def recording_table(points):
            builders.append(threading.current_thread())
            return REAL_NEIGHBOUR_TABLE(points)

        monkeypatch.setattr(pipeline, "neighbour_table", recording_table)
        model, vote_seed = first_model()
        before = threading.active_count()
        run_model(model, TINY, vote_seed)
        assert threading.active_count() == before
        assert builders == thread_starts and len(builders) == 1
        assert builders[0] is not threading.current_thread()

    @pytest.mark.parametrize("jobs", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="the failing table is patched into forked workers",
        )),
    ])
    def test_failed_table_fails_only_its_model(self, monkeypatch, tiny_report, jobs):
        monkeypatch.setattr(pipeline, "neighbour_table", fail_on_model_0)
        report = run_dataset(TABLE_MODELS, jobs=jobs)
        assert [f["model"] for f in report.failures] == [0]
        assert "table build failed" in report.failures[0]["error"]
        assert without_seconds(report) == without_seconds(tiny_report)[1:2]

    def test_detection_error_joins_the_thread(self, monkeypatch):
        """A stage that raises while the table is being built still leaves
        no thread behind."""
        building = threading.Event()

        def slow_table(points):
            building.set()
            return REAL_NEIGHBOUR_TABLE(points)

        def failing_votes(*args):
            assert building.wait(10)
            raise RuntimeError("votes failed")

        monkeypatch.setattr(pipeline, "neighbour_table", slow_table)
        monkeypatch.setattr(pipeline, "simulate_votes", failing_votes)
        model, vote_seed = first_model()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="votes failed"):
            run_model(model, TINY, vote_seed)
        assert threading.active_count() == before

    def test_no_thread_without_a_table_to_build(self, thread_starts):
        model, vote_seed = first_model()
        run_model(model, dataclasses.replace(TINY, with_segmentation=False), vote_seed)
        assert thread_starts == []
        stages = {}
        run_model(model, TINY, vote_seed, stages)
        assert len(thread_starts) == 1
        again = run_model(model, TINY, vote_seed, stages)
        assert len(thread_starts) == 1
        first = run_model(model, TINY, vote_seed)
        assert {k: v for k, v in again.items() if k != "seconds"} == {
            k: v for k, v in first.items() if k != "seconds"
        }


class TestMetricsReport:
    def test_save_round_trip(self, tiny_report, tmp_path):
        tiny_report.save(tmp_path / "r.json")
        with open(tmp_path / "r.json") as fh:
            loaded = json.load(fh)
        assert loaded["aggregate"] == tiny_report.aggregate
        assert len(loaded["per_model"]) == TINY.n_models

    def test_aggregate_helper(self):
        agg = aggregate_metrics([{"accuracy": 50.0}, {"accuracy": 100.0}])
        assert agg["accuracy"] == 75.0
        assert agg["n_models"] == 2
