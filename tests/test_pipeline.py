import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

from archseg import pipeline
from archseg.pipeline import (
    STAGE_FIELDS,
    ExperimentConfig,
    MetricsReport,
    aggregate_metrics,
    load_config,
    model_seeds,
    run_dataset,
    run_model,
    run_models,
    save_config,
    stage_keys,
)
from archseg.segmentation import SegParams
from archseg.synthetic import ScanConfig, VoteNoiseModel, generate_model, with_seed

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
            ({"scan": ScanConfig(n_points=2000, n_teeth=8, seed=3)}, "top-level 'seed'"),
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

    def test_weak_annotation_changes_only_losses(self):
        model = generate_model(with_seed(TINY.scan, model_seeds(TINY, 0)[0]))
        _, vote_seed = model_seeds(TINY, 0)
        full = run_model(model, TINY, vote_seed)
        weak = run_model(model, TINY, vote_seed, visible_instances=[1, 2])
        assert weak["accuracy"] == full["accuracy"]
        assert weak["recall"] == full["recall"]
        assert weak["mean_iou"] == full["mean_iou"]
        assert weak["l_conf"] != full["l_conf"]

    def test_detection_only_skips_segmentation(self):
        cfg = dataclasses.replace(TINY, with_segmentation=False)
        model = generate_model(with_seed(cfg.scan, model_seeds(cfg, 0)[0]))
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
        # more APS samples than any model has votes makes every model fail
        bad = dataclasses.replace(
            TINY, sampling=dataclasses.replace(TINY.sampling, n_samples=600), n_models=2
        )
        rep = run_dataset(bad)
        assert len(rep.failures) == 2
        assert rep.per_model == []

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
            generate_model(with_seed(TINY.scan, model_seeds(TINY, i)[0]))
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
        tooth_vote_sigma=0.02, gingiva_vote_mode="clutter", clutter_fraction=0.25,
        clutter_sigma=0.08,
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


def is_keyed(path):
    """Whether STAGE_FIELDS names the field or its whole section."""
    return any(
        path == name or path.startswith(name + ".")
        for _, names in STAGE_FIELDS for name in names
    )


def with_leaf_changed(config, path):
    """config with the one leaf field at `path` set to another valid value."""
    *section, name = path.split(".")
    owner = getattr(config, section[0]) if section else config
    value = getattr(owner, name)
    if isinstance(value, bool):
        new = not value
    elif isinstance(value, int):
        new = value // 4 or value + 1
    elif isinstance(value, float):
        new = value / 4
    else:
        pytest.fail(f"no changed value for {path} of type {type(value).__name__}")
    owner = dataclasses.replace(owner, **{name: new})
    return dataclasses.replace(config, **{section[0]: owner}) if section else owner


# Every field no stage key holds; a change to one must reuse every stored
# stage and still give what a run with nothing stored gives.  STAGED skips
# segmentation, so the cases start from it with segmentation on (the
# `with_segmentation` case turns it off).
SEGMENTED = dataclasses.replace(STAGED, with_segmentation=True)
DOWNSTREAM_FIELDS = [path for path in leaf_fields(STAGED) if not is_keyed(path)]


@pytest.fixture(scope="module")
def staged_outputs():
    """The stage outputs of STAGED's model; tests copy them."""
    stages = {}
    run_dataset(STAGED, stages=stages)
    return stages[0]


class TestStages:
    """A config run after STAGED on the same stage dict reuses only the stage
    outputs whose config slice it shares: each field a stage key holds gets
    a case that changes that field alone."""

    @pytest.mark.parametrize(
        "variant",
        [
            pytest.param(changed(scan={"crowding_jitter": 0.02}), id="scan"),
            pytest.param(changed(seed=1), id="seed"),
            pytest.param(changed(vote_subsample=400), id="vote_subsample"),
            pytest.param(changed(noise={"tooth_vote_sigma": 0.03}), id="noise"),
            pytest.param(changed(pregroup_radius=0.06), id="pregroup_radius"),
            pytest.param(changed(pregroup_min_size_frac=0.3), id="pregroup_min_size_frac"),
            pytest.param(changed(refine={"step_size": 0.5}), id="refine"),
            pytest.param(changed(arch_mode="coarse"), id="arch_mode"),
            pytest.param(changed(sampling_method="fps"), id="sampling_method"),
            pytest.param(changed(sampling={"n_samples": 48}), id="sampling"),
            pytest.param(changed(detection={"grouping_radius": 0.08}), id="grouping_radius"),
        ],
    )
    def test_changed_stage_field_recomputes(self, staged_outputs, variant):
        shared = run_dataset(variant, stages={0: dict(staged_outputs)})
        assert without_seconds(shared) == without_seconds(run_dataset(variant))

    @pytest.mark.parametrize("path", DOWNSTREAM_FIELDS)
    def test_downstream_change_reuses_every_stage(self, staged_outputs, path):
        assert len(staged_outputs) == len(STAGE_FIELDS)
        variant = with_leaf_changed(SEGMENTED, path)
        stages = {0: dict(staged_outputs)}
        shared = run_dataset(variant, stages=stages)
        assert stages[0].keys() == staged_outputs.keys()
        assert without_seconds(shared) == without_seconds(run_dataset(variant))

    def test_arch_modes_share_pregroup_and_bezier(self, staged_outputs):
        stages = {0: dict(staged_outputs)}
        run_dataset(changed(arch_mode="coarse"), stages=stages)
        run_dataset(changed(arch_mode="direct_fit"), stages=stages)
        names = sorted(json.loads(key)[0] for key in stages[0])
        assert names == sorted(
            ["votes", "pregroup", "bezier", "refine"] + 3 * ["select", "proposals"]
        )

    def test_keys_name_only_upstream_fields(self):
        base = stage_keys(STAGED)
        after_votes = stage_keys(changed(pregroup_radius=0.06))
        assert after_votes["votes"] == base["votes"]
        assert all(after_votes[name] != base[name] for name in
                   ("pregroup", "bezier", "refine", "select", "proposals"))

    def test_jobs_2_stores_what_serial_stores(self, staged_outputs):
        pooled = {}
        run_dataset(STAGED, jobs=2, stages=pooled)
        assert pooled[0].keys() == staged_outputs.keys()
        votes = stage_keys(STAGED)["votes"]
        np.testing.assert_array_equal(pooled[0][votes].position, staged_outputs[votes].position)

    def test_run_models_stores_per_model(self):
        models = [
            generate_model(with_seed(STAGED.scan, model_seeds(STAGED, i)[0]))
            for i in range(2)
        ]
        stages = {}
        run_models(STAGED, models, visible_lists=[[1, 2], None], stages=stages)
        variant = changed(sampling_method="fps")
        shared = run_models(variant, models, visible_lists=[[1, 2], None], stages=stages)
        alone = run_models(variant, models, visible_lists=[[1, 2], None])
        assert sorted(stages) == [0, 1]
        assert without_seconds(shared) == without_seconds(alone)


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
