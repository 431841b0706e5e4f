import argparse
import csv
import json
import shutil

import numpy as np
import pytest

from archseg import cli, pipeline
from archseg import io as aio
from archseg.cli import main, render_table
from archseg.segmentation import crop_patch, fuse_patches, neighbour_table, segment_patch
from archseg.synthetic import generate_model
from test_io import per_row_reference
from test_segmentation import fuse_patches_reference, segment_patch_reference

TINY_CONFIG = {
    "n_models": 2,
    "scan": {"n_points": 2000, "n_teeth": 8},
    "vote_subsample": 512,
    "segmentation": {"patch_size": 512, "prob_decay": 2.0},
}

ABLATIONS = ["ablate-sampling", "ablate-arch"]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("data") / "ds"
    rc = main(["generate", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    return out


class TestGenerate:
    def test_writes_models_and_manifest(self, dataset_dir):
        entries = aio.read_manifest(dataset_dir / "manifest.json")
        assert len(entries) == 2
        for e in entries:
            assert (dataset_dir / e["ply"]).exists()
            assert (dataset_dir / e["json"]).exists()
            assert e["split"] == "full"

    def test_deterministic_rerun(self, tmp_path, config_path, dataset_dir):
        out = tmp_path / "again"
        assert main(["generate", "--config", str(config_path), "--out", str(out)]) == 0
        a = (dataset_dir / "model_0000.ply").read_bytes()
        b = (out / "model_0000.ply").read_bytes()
        assert a == b

    def test_weak_ratio_flags_instances(self, tmp_path, config_path):
        out = tmp_path / "weak"
        rc = main([
            "generate", "--config", str(config_path), "--out", str(out),
            "--weak-ratio", "0.25",
        ])
        assert rc == 0
        for e in aio.read_manifest(out / "manifest.json"):
            assert e["split"] == "weak"
            assert 1 <= len(e["visible_instances"]) <= 8

    @pytest.mark.parametrize("ratio", ["1.5", "-0.5"])
    def test_weak_ratio_out_of_range_exit_2(self, tmp_path, config_path, capsys, ratio):
        out = tmp_path / "weak"
        rc = main([
            "generate", "--config", str(config_path), "--out", str(out),
            "--weak-ratio", ratio,
        ])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--weak-ratio" in err[0]
        assert not list(out.glob("model_*"))


class TestRun:
    def test_run_on_dataset(self, tmp_path, config_path, dataset_dir, capsys):
        out = tmp_path / "run"
        rc = main([
            "run", "--config", str(config_path), "--dataset", str(dataset_dir),
            "--out", str(out),
        ])
        assert rc == 0
        with open(out / "report.json") as fh:
            report = json.load(fh)
        assert report["aggregate"]["n_models"] == 2
        assert "aggregate:" in capsys.readouterr().out

    def test_weak_dataset_metrics_equal_run_models(
        self, tmp_path, config_path, weak_dataset_dir
    ):
        """A weak split records which teeth have labelled masks; every
        detection metric and loss term still reads every centroid."""
        out = tmp_path / "run"
        rc = main([
            "run", "--config", str(config_path), "--dataset", str(weak_dataset_dir),
            "--out", str(out),
        ])
        assert rc == 0
        with open(out / "report.json") as fh:
            per_model = json.load(fh)["per_model"]
        models = aio.load_dataset(weak_dataset_dir / "manifest.json")
        loaded = pipeline.run_models(pipeline.load_config(config_path), models)
        assert [{k: v for k, v in m.items() if k != "seconds"} for m in per_model] == (
            without_seconds(loaded)
        )

    def test_ascii_dataset_report_equals_binary(self, tmp_path, config_path, dataset_dir):
        """A dataset whose PLYs are ASCII, as datasets were written before
        PLY bodies became binary, gives the report the binary dataset gives
        (all but the timing fields)."""
        ascii_dir = tmp_path / "ascii"
        shutil.copytree(dataset_dir, ascii_dir)
        for entry in aio.read_manifest(ascii_dir / "manifest.json"):
            points, labels = aio.read_ply(dataset_dir / entry["ply"])
            per_row_reference(ascii_dir / entry["ply"], points, labels)
        assert b"format ascii" in (ascii_dir / "model_0000.ply").read_bytes()
        reports = []
        for data in (dataset_dir, ascii_dir):
            out = tmp_path / f"run_{data.name}"
            assert main(["run", "--config", str(config_path), "--dataset", str(data),
                         "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            del report["seconds"]
            for m in report["per_model"]:
                del m["seconds"]
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]

    def test_sampling_override(self, tmp_path, dataset_dir):
        """The sampling method is set by the config file alone."""
        out_a = tmp_path / "aps"
        out_f = tmp_path / "fps"
        for out, sampling in ((out_a, "aps"), (out_f, "fps")):
            config = tmp_path / f"{sampling}.json"
            config.write_text(json.dumps(dict(TINY_CONFIG, sampling_method=sampling)))
            rc = main([
                "run", "--config", str(config), "--dataset", str(dataset_dir),
                "--out", str(out),
            ])
            assert rc == 0
        with open(out_a / "report.json") as fh:
            a = json.load(fh)
        with open(out_f / "report.json") as fh:
            f = json.load(fh)
        assert a["config"]["sampling_method"] == "aps"
        assert f["config"]["sampling_method"] == "fps"
        # sampling-independent fields agree
        for ma, mf in zip(a["per_model"], f["per_model"]):
            assert ma["l_offset"] == mf["l_offset"]

    @pytest.mark.parametrize("argv, message", [
        (["run", "--out", "{out}", "--sampling", "fps"], "unrecognized arguments: --sampling fps"),
        (["run", "--out", "{out}", "--centroids", "20"], "unrecognized arguments: --centroids 20"),
        (["bogus", "--out", "{out}"], "invalid choice: 'bogus'"),
        (["run"], "the following arguments are required: --out"),
    ], ids=["sampling", "centroids", "unknown-command", "missing-out"])
    def test_method_flag_exit_2(self, tmp_path, config_path, capsys, argv, message):
        """A command line argparse rejects exits 2 with one `error:` line and
        writes nothing: `sampling_method` and `detection.max_centroids` are
        config keys only, so `run` has no flag that restates them."""
        out = tmp_path / "o"
        argv = [a.format(out=out) for a in argv] + ["--config", str(config_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: archseg run")

    def test_bad_config_exit_2(self, tmp_path):
        assert main(["run", "--config", "/no/such.json", "--out", str(tmp_path)]) == 2

    def test_invalid_config_values_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"arch_mode": "banana"}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_random_sampling_method_exit_2(self, tmp_path, capsys):
        """The uniform-random sampling baseline is gone: a config that still
        names it is rejected like any other unknown method."""
        bad = tmp_path / "random.json"
        bad.write_text(json.dumps(dict(TINY_CONFIG, n_models=1, sampling_method="random")))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "sampling_method" in err[0]

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"n_modles": 3}, "n_modles"),
            ({"scan": {"n_teeths": 8}}, "n_teeths"),
            # a scalar of the wrong JSON type is named by its key; a TypeError
            # from the constructor by the config class
            pytest.param({"n_models": "3"}, "n_models", id="n_models_str"),
            pytest.param({"n_models": 2.5}, "n_models", id="n_models_float"),
            pytest.param(
                {"scan": {"tooth_radius_range": 5}}, "ScanConfig", id="radius_range_int"
            ),
            pytest.param(
                dict(TINY_CONFIG, n_models=1, vote_subsample=256.5), "vote_subsample",
                id="vote_subsample_float",
            ),
            pytest.param(
                dict(TINY_CONFIG, n_models=1, scan={"n_points": 2000.0, "n_teeth": 8}),
                "n_points", id="n_points_float",
            ),
            # an array field numpy cannot convert is named by class and key
            pytest.param(
                {"scan": {"arch_control": "x"}}, "ScanConfig key 'arch_control'",
                id="arch_control_str",
            ),
            # each model's scan and vote seeds derive from the top-level seed
            pytest.param(
                dict(TINY_CONFIG, scan={"n_points": 2000, "n_teeth": 8, "seed": 12345}),
                "unknown ScanConfig key(s): seed", id="scan_seed",
            ),
            pytest.param(
                dict(TINY_CONFIG, noise={"seed": 123}), "unknown VoteNoiseModel key(s): seed",
                id="noise_seed",
            ),
            # `clutter_fraction` alone sets how many gingiva seeds vote
            *(
                pytest.param(
                    dict(TINY_CONFIG, noise={"gingiva_vote_mode": mode, "clutter_fraction": 0.25}),
                    "unknown VoteNoiseModel key(s): gingiva_vote_mode",
                    id=f"gingiva_vote_mode_{mode}",
                )
                for mode in ("clutter", "suppressed")
            ),
        ],
    )
    def test_unknown_config_key_exit_2(self, tmp_path, capsys, config, key):
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(config))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0]

    @pytest.mark.parametrize(
        "config, message",
        [
            pytest.param(
                {"scan": {"n_points": 1500}, "vote_subsample": 2048},
                "vote_subsample 2048 exceeds scan.n_points 1500", id="vote_subsample",
            ),
            pytest.param(
                {"scan": {"n_points": 1500}, "vote_subsample": 1024,
                 "segmentation": {"patch_size": 4096}},
                "segmentation.patch_size 4096 exceeds scan.n_points 1500", id="patch_size",
            ),
            pytest.param(
                dict(TINY_CONFIG, sampling={"n_samples": 600}),
                "sampling.n_samples 600 exceeds vote_subsample 512", id="n_samples",
            ),
            pytest.param(
                dict(TINY_CONFIG, segmentation={"patch_size": 1}),
                "patch_size must be >= 2", id="patch_size_1",
            ),
            pytest.param(dict(TINY_CONFIG, seed=-1), "seed must be >= 0", id="seed"),
            # NaN and Infinity, which Python's json reads and writes
            pytest.param(
                dict(TINY_CONFIG, segmentation={"prob_decay": float("nan")}),
                "SegParams key 'prob_decay' must be finite, got nan", id="prob_decay_nan",
            ),
            pytest.param(
                dict(TINY_CONFIG, detection={"nms_radius": float("inf")}),
                "DetectionParams key 'nms_radius' must be finite, got inf", id="nms_radius_inf",
            ),
            pytest.param(
                dict(TINY_CONFIG, pregroup_radius=float("-inf")),
                "ExperimentConfig key 'pregroup_radius' must be finite, got -inf",
                id="pregroup_radius_minus_inf",
            ),
            pytest.param(
                dict(TINY_CONFIG, scan={"n_points": 2000, "n_teeth": 8,
                                        "arch_control": [[float("nan")] * 3] * 4}),
                "ScanConfig key 'arch_control' must be a (4, 3) array of finite numbers",
                id="arch_control_nan",
            ),
            pytest.param(
                dict(TINY_CONFIG, scan={"n_points": 2000, "n_teeth": 8,
                                        "tooth_radius_range": [0.04, float("inf")]}),
                "tooth radii must be finite", id="radius_range_inf",
            ),
            pytest.param(
                dict(TINY_CONFIG, pregroup_min_size_frac=1.5),
                "pregroup_min_size_frac must be in [0, 1], got 1.5", id="min_size_frac_above_1",
            ),
            pytest.param(
                dict(TINY_CONFIG, pregroup_min_size_frac=-0.1),
                "pregroup_min_size_frac must be in [0, 1], got -0.1", id="min_size_frac_below_0",
            ),
            pytest.param(
                dict(TINY_CONFIG, loss={"huber_delta": -1.0}),
                "huber_delta must be positive, got -1.0", id="huber_delta",
            ),
            pytest.param(
                dict(TINY_CONFIG, detection={"conf_gt_threshold": 0.0}),
                "conf_gt_threshold must be positive, got 0.0", id="conf_gt_threshold",
            ),
        ],
    )
    def test_cross_field_config_exit_2(self, tmp_path, capsys, config, message):
        bad = tmp_path / "cross.json"
        bad.write_text(json.dumps(dict(config, n_models=1)))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]

    def test_min_size_frac_1_fails_per_model(self, tmp_path, capsys):
        """At fraction 1 only the largest vote clusters are kept; a model
        left with fewer than 2 is a per-model failure, not a config error."""
        config = tmp_path / "frac.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, n_models=1, pregroup_min_size_frac=1.0)))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "need at least 2 centroids" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["noise", "scan"])
    def test_non_object_config_section_exit_2(self, tmp_path, capsys, section):
        config = dict(TINY_CONFIG, n_models=1, vote_subsample=256)
        config[section] = 5
        bad = tmp_path / "section.json"
        bad.write_text(json.dumps(config))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"'{section}'" in err[0]

    @pytest.mark.parametrize("config", [[1], None, "x"])
    def test_non_object_config_exit_2(self, tmp_path, capsys, config):
        bad = tmp_path / "list.json"
        bad.write_text(json.dumps(config))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "a config must be a JSON object" in err[0]

    def test_negative_seed_flag_exit_2(self, tmp_path, config_path, capsys):
        out = tmp_path / "o"
        assert main(["generate", "--config", str(config_path), "--out", str(out),
                     "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_below_one_exit_2(self, tmp_path, config_path, capsys):
        out = tmp_path / "o"
        rc = main([
            "run", "--config", str(config_path), "--out", str(out), "--jobs", "0",
        ])
        assert rc == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


@pytest.fixture
def ran_models(monkeypatch):
    """The models `run_model` is called on (serial runs only)."""
    calls = []
    run_model = pipeline.run_model

    def recording(model, *args):
        calls.append(model)
        return run_model(model, *args)

    monkeypatch.setattr(pipeline, "run_model", recording)
    return calls


class TestBadInput:
    @pytest.mark.parametrize("name, document, message", [
        ("manifest.json", [], "expected an object with key 'models'"),
        ("manifest.json", {"models": 5}, "'models' must be an array, got int"),
        ("manifest.json", {"models": []}, "'models' is empty"),
        ("manifest.json", {"models": [{"ply": 5, "json": "model_0000.json"}]},
         "models[0]: 'ply' must be a string, got int"),
        ("model_0000.json", [1], "expected an object with key 'centroids'"),
        ("model_0000.json", {"centroids": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
         "3 centroids, but"),
    ], ids=["manifest-list", "models-int", "models-empty", "ply-int", "sidecar-list",
            "sidecar-short"])
    def test_bad_dataset_file_exit_2(self, tmp_path, config_path, dataset_dir, capsys,
                                     name, document, message):
        data = tmp_path / "ds"
        shutil.copytree(dataset_dir, data)
        (data / name).write_text(json.dumps(document))
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_path), "--dataset", str(data),
                     "--out", str(out)]) == 2
        err = one_error_line(capsys)
        assert str(data / name) in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("document, message", [
        ([1, 2], "expected an object with key 'centroids'"),
        ({"centroids": {"a": 1}}, "'centroids' must be an array, got dict"),
        ({"centroids": [[0.0, 0.0, "x"]]}, "'centroids' must be an array of finite numbers"),
        ({"centroids": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]},
         "'centroids' must be an (N, 3) array, got shape (3, 2)"),
        ({"centroids": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]},
         "'centroids' must be an (N, 3) array, got shape (6,)"),
    ], ids=["list", "centroids-object", "centroids-string", "centroids-n-by-2",
            "centroids-flat"])
    def test_bad_detection_json_exit_2(self, tmp_path, dataset_dir, capsys, document, message):
        pred = tmp_path / "det.json"
        pred.write_text(json.dumps(document))
        assert main([
            "eval", "--pred", str(pred),
            "--gt-ply", str(dataset_dir / "model_0000.ply"),
            "--gt-json", str(dataset_dir / "model_0000.json"),
        ]) == 2
        err = one_error_line(capsys)
        assert str(pred) in err and message in err

    @pytest.mark.parametrize("command", ["run", *ABLATIONS])
    def test_out_is_a_file_exit_2_before_any_model(
        self, tmp_path, config_path, capsys, ran_models, command
    ):
        out = tmp_path / "o"
        out.write_text("")
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        assert str(out) in one_error_line(capsys)
        assert ran_models == []

    def test_n_models_with_dataset_exit_2(self, tmp_path, config_path, dataset_dir, capsys,
                                          ran_models):
        """The manifest sets the model count, so --n-models is not silently
        ignored."""
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_path), "--dataset", str(dataset_dir),
                     "--n-models", "1", "--out", str(out)]) == 2
        assert "--n-models cannot be used with --dataset" in one_error_line(capsys)
        assert ran_models == [] and not out.exists()


class TestAblations:
    def test_sampling_table(self, tmp_path, config_path, dataset_dir, capsys):
        out = tmp_path / "abl"
        rc = main([
            "ablate-sampling", "--config", str(config_path),
            "--dataset", str(dataset_dir), "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        for label in ("FPS-20", "FPS-30", "APS-20", "APS-30"):
            assert label in text
        with open(out / "ablate_sampling.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["Method", "Acc.", "Recall", "C. Dist.", "IoU", "Dice"]
        assert (out / "ablate_sampling.txt").exists()

    def test_arch_table(self, tmp_path, config_path, dataset_dir, capsys):
        out = tmp_path / "abl2"
        rc = main([
            "ablate-arch", "--config", str(config_path),
            "--dataset", str(dataset_dir), "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        for label in ("Direct", "Coarse", "Coarse + Fine"):
            assert label in text
        with open(out / "ablate_arch.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["Mode", "Acc.", "Recall", "MSE(1e-4)"]


    def test_every_model_failing_exits_1(self, tmp_path, capsys):
        """Every model fails (as in `test_min_size_frac_1_fails_per_model`):
        each failure is printed, the table's cells read nan and the exit
        is 1, a model failure, not a usage error."""
        config = tmp_path / "frac.json"
        config.write_text(json.dumps(dict(TINY_CONFIG, n_models=1, pregroup_min_size_frac=1.0)))
        out = tmp_path / "abl"
        assert main(["ablate-arch", "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "need at least 2 centroids" in captured.err
        assert "error:" not in captured.err
        with open(out / "ablate_arch.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == ["Direct", "Coarse", "Coarse + Fine"]
        assert all(cell == "nan" for row in rows for cell in row[1:])


def without_seconds(report):
    return [{k: v for k, v in m.items() if k != "seconds"} for m in report.per_model]


@pytest.fixture
def recorded(monkeypatch):
    """(function name, args, kwargs, report) of every run_dataset/run_models
    call the CLI makes."""
    calls = []
    for name in ("run_dataset", "run_models"):
        def record(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            report = _fn(*args, **kwargs)
            calls.append((_name, args, kwargs, report))
            return report

        monkeypatch.setattr(cli, name, record)
    return calls


@pytest.fixture(scope="module")
def weak_dataset_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("weak") / "ds"
    rc = main([
        "generate", "--config", str(config_path), "--out", str(out),
        "--weak-ratio", "0.5",
    ])
    assert rc == 0
    return out


class TestSharedStages:
    """Ablation variants share stage outputs per model; every report equals
    the variant run alone."""

    @pytest.mark.parametrize("command", ABLATIONS)
    def test_variants_match_standalone_runs(self, config_path, recorded, command):
        assert main([command, "--config", str(config_path)]) == 0
        assert len(recorded) == (4 if command == "ablate-sampling" else 3)
        for name, (config,), _, report in recorded:
            assert name == "run_dataset"
            assert without_seconds(report) == without_seconds(pipeline.run_dataset(config))

    @pytest.mark.parametrize("command", ABLATIONS)
    def test_weak_dataset_variants_match_standalone_runs(
        self, config_path, weak_dataset_dir, recorded, command
    ):
        rc = main([command, "--config", str(config_path), "--dataset", str(weak_dataset_dir)])
        assert rc == 0
        entries = aio.read_manifest(weak_dataset_dir / "manifest.json")
        assert all(len(e["visible_instances"]) < 8 for e in entries)
        models = aio.load_dataset(weak_dataset_dir / "manifest.json")
        for name, (config, _), _, report in recorded:
            assert name == "run_models"
            alone = pipeline.run_models(config, models)
            assert without_seconds(report) == without_seconds(alone)

    @pytest.mark.parametrize("command", ABLATIONS)
    def test_jobs_2_tables_equal_serial(self, tmp_path, config_path, command):
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main([command, "--config", str(config_path), "--jobs", jobs,
                         "--out", str(out)]) == 0
        for path in (tmp_path / "jobs1").iterdir():
            assert path.read_bytes() == (tmp_path / "jobs2" / path.name).read_bytes()

    def test_models_generated_once_per_model(self, config_path, monkeypatch):
        """Each command generates each of its models once, for all its
        variants (4 + 3 variants over 2 models generated 14 before)."""
        seeds = []
        generate = pipeline.generate_model

        def counted(scan, seed):
            seeds.append(seed)
            return generate(scan, seed)

        monkeypatch.setattr(pipeline, "generate_model", counted)
        for command in ABLATIONS:
            assert main([command, "--config", str(config_path)]) == 0
        assert len(seeds) == 2 * TINY_CONFIG["n_models"]
        assert len(set(seeds)) == TINY_CONFIG["n_models"]

    def test_votes_simulated_once_per_model(self, config_path, monkeypatch):
        calls = []
        simulate = pipeline.simulate_votes

        def counted(*args, **kwargs):
            calls.append(args[0])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "simulate_votes", counted)
        assert main(["ablate-sampling", "--config", str(config_path)]) == 0
        assert len(calls) == TINY_CONFIG["n_models"]

    def test_neighbour_table_built_once_per_model(self, config_path, monkeypatch):
        tables = []
        build = pipeline.neighbour_table

        def counted(points):
            tables.append(points)
            return build(points)

        monkeypatch.setattr(pipeline, "neighbour_table", counted)
        assert main(["ablate-sampling", "--config", str(config_path)]) == 0
        assert len(tables) == TINY_CONFIG["n_models"]

    def test_patch_segmented_once_per_model_and_centroid(
        self, config_path, recorded, monkeypatch
    ):
        """The shared run crops and segments each (model, centroid) the
        variants retain exactly once; run alone, the variants repeat some."""
        crops, segments = [], []
        crop, segment = pipeline.crop_patch, pipeline.segment_patch

        def cropped(model, center, *args):
            crops.append((model.cloud.points.tobytes(), np.asarray(center).tobytes()))
            return crop(model, center, *args)

        def segmented(*args):
            segments.append(args)
            return segment(*args)

        monkeypatch.setattr(pipeline, "crop_patch", cropped)
        monkeypatch.setattr(pipeline, "segment_patch", segmented)
        assert main(["ablate-sampling", "--config", str(config_path)]) == 0
        shared, n_segmented = list(crops), len(segments)
        crops.clear()
        for _, (config,), _, _ in recorded:
            pipeline.run_dataset(config)
        assert n_segmented == len(shared) == len(set(shared))
        assert set(shared) == set(crops)
        assert len(shared) < len(crops)

    def test_positive_part_fuses_like_full_masks(self, benchmark_config):
        """Fusing the stored masks, which hold only each patch's points with
        probability > 0, gives the labels that fusing every patch point's
        reference probability gives (pinned models 0-4, a patch at every
        ground-truth centroid)."""
        params = benchmark_config.segmentation
        for i in range(5):
            scan_seed, _ = pipeline.model_seeds(benchmark_config, i)
            model = generate_model(benchmark_config.scan, scan_seed)
            table = neighbour_table(model.cloud.points)
            patches = [crop_patch(model, c, params) for c in model.centroids]
            masks = [segment_patch(p, params, table) for p in patches]
            full = [segment_patch_reference(p, params)[0] for p in patches]
            assert sum(len(m.probabilities) for m in masks) < sum(len(p) for p in full)
            np.testing.assert_array_equal(
                fuse_patches(model, masks, params),
                fuse_patches_reference(model, patches, full, params),
            )


class TestEvalAndReport:
    def test_eval_segmentation_ply(self, tmp_path, dataset_dir, capsys):
        rc = main([
            "eval",
            "--pred", str(dataset_dir / "model_0000.ply"),
            "--gt-ply", str(dataset_dir / "model_0000.ply"),
            "--gt-json", str(dataset_dir / "model_0000.json"),
            "--out", str(tmp_path / "metrics.json"),
        ])
        assert rc == 0
        with open(tmp_path / "metrics.json") as fh:
            metrics = json.load(fh)
        assert metrics["mean_iou"] == pytest.approx(100.0)

    def test_eval_detection_json(self, tmp_path, dataset_dir):
        model = aio.load_model(
            dataset_dir / "model_0000.ply", dataset_dir / "model_0000.json"
        )
        pred = tmp_path / "det.json"
        pred.write_text(json.dumps({
            "centroids": model.centroids.tolist(),
            "confidences": np.ones(len(model.centroids)).tolist(),
            "sampling": "aps",
            "params": {},
        }))
        rc = main([
            "eval", "--pred", str(pred),
            "--gt-ply", str(dataset_dir / "model_0000.ply"),
            "--gt-json", str(dataset_dir / "model_0000.json"),
        ])
        assert rc == 0

    def test_eval_detection_json_without_confidences(self, tmp_path, dataset_dir, capsys):
        """eval reads only a detection file's `centroids`."""
        model = aio.load_model(
            dataset_dir / "model_0000.ply", dataset_dir / "model_0000.json"
        )
        pred = tmp_path / "det.json"
        pred.write_text(json.dumps({"centroids": model.centroids.tolist()}))
        rc = main([
            "eval", "--pred", str(pred),
            "--gt-ply", str(dataset_dir / "model_0000.ply"),
            "--gt-json", str(dataset_dir / "model_0000.json"),
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == 100.0

    def test_eval_truncated_ply_exit_2(self, tmp_path, dataset_dir, capsys):
        pred = tmp_path / "cut.ply"
        pred.write_bytes((dataset_dir / "model_0000.ply").read_bytes()[:-10])
        rc = main([
            "eval", "--pred", str(pred),
            "--gt-ply", str(dataset_dir / "model_0000.ply"),
            "--gt-json", str(dataset_dir / "model_0000.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(pred) in err[0]

    @staticmethod
    def eval_shifted(tmp_path, dataset_dir, *config) -> int:
        """eval's exit code on model 0's centroids shifted 0.1 along x, which
        match within the default threshold 0.3 and miss within 0.05."""
        model = aio.load_model(
            dataset_dir / "model_0000.ply", dataset_dir / "model_0000.json"
        )
        pred = tmp_path / "det.json"
        pred.write_text(json.dumps({"centroids": (model.centroids + [0.1, 0, 0]).tolist()}))
        return main([
            "eval", "--pred", str(pred), *config,
            "--gt-ply", str(dataset_dir / "model_0000.ply"),
            "--gt-json", str(dataset_dir / "model_0000.json"),
        ])

    @pytest.mark.parametrize("threshold, message", [
        ("NaN", "'match_threshold' must be finite, got nan"),
        ("-1", "match_threshold must be positive, got -1"),
        ("0", "match_threshold must be positive, got 0"),
        ("Infinity", "'match_threshold' must be finite, got inf"),
    ], ids=["nan", "-1", "0", "inf"])
    def test_match_threshold_out_of_range_exit_2(
        self, tmp_path, dataset_dir, capsys, threshold, message
    ):
        """The config codec rejects a non-finite threshold, and
        `DetectionParams` one at or below 0."""
        config = tmp_path / "config.json"
        config.write_text(f'{{"detection": {{"match_threshold": {threshold}}}}}')
        assert self.eval_shifted(tmp_path, dataset_dir, "--config", str(config)) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
        assert captured.out == ""

    def test_config_match_threshold_scores(self, tmp_path, dataset_dir, capsys):
        """eval scores with --config's `detection.match_threshold`, and with
        the default 0.3 without a config."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"detection": {"match_threshold": 0.05}}))
        assert self.eval_shifted(tmp_path, dataset_dir) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == 100.0
        assert self.eval_shifted(tmp_path, dataset_dir, "--config", str(config)) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == 0.0


class TestOptions:
    def test_option_sets(self):
        """Flags choose only scans, paths and workers; every method setting,
        eval's match threshold too, is a config key."""
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: {a.option_strings[-1] for a in p._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)}
            for name, p in sub.choices.items()
        }
        run = {"--config", "--seed", "--jobs", "--dataset", "--out"}
        assert options == {
            "generate": {"--config", "--seed", "--out", "--n-models", "--weak-ratio"},
            "run": run | {"--n-models"},
            "ablate-sampling": run,
            "ablate-arch": run,
            "eval": {"--config", "--pred", "--gt-ply", "--gt-json", "--out"},
        }
        assert sum(map(len, options.values())) == 26


class TestRenderTable:
    def test_alignment(self):
        table = render_table(["Col", "Long header"], [["a", "1"], ["bb", "22"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines[2:])) <= 2  # ragged right only
