import json

import numpy as np
import pytest

from archseg import cli, pipeline
from archseg import io as aio
from archseg.cli import main, render_table

TINY_CONFIG = {
    "n_models": 2,
    "scan": {"n_points": 2000, "n_teeth": 8},
    "vote_subsample": 512,
    "segmentation": {"patch_size": 512, "prob_decay": 2.0},
}


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

    def test_sampling_override(self, tmp_path, config_path, dataset_dir):
        out_a = tmp_path / "aps"
        out_f = tmp_path / "fps"
        for out, sampling in ((out_a, "aps"), (out_f, "fps")):
            rc = main([
                "run", "--config", str(config_path), "--dataset", str(dataset_dir),
                "--out", str(out), "--sampling", sampling,
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

    def test_bad_config_exit_2(self, tmp_path):
        assert main(["run", "--config", "/no/such.json", "--out", str(tmp_path)]) == 2

    def test_invalid_config_values_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"arch_mode": "banana"}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

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
                dict(TINY_CONFIG, scan={"n_points": 2000, "n_teeth": 8, "seed": 12345}),
                "top-level 'seed'", id="scan_seed",
            ),
        ],
    )
    def test_cross_field_config_exit_2(self, tmp_path, capsys, config, message):
        bad = tmp_path / "cross.json"
        bad.write_text(json.dumps(dict(config, n_models=1)))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]

    @pytest.mark.parametrize("section", ["noise", "scan"])
    def test_non_object_config_section_exit_2(self, tmp_path, capsys, section):
        config = dict(TINY_CONFIG, n_models=1, vote_subsample=256)
        config[section] = 5
        bad = tmp_path / "section.json"
        bad.write_text(json.dumps(config))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"'{section}'" in err[0]

    def test_jobs_below_one_exit_2(self, tmp_path, config_path, capsys):
        out = tmp_path / "o"
        rc = main([
            "run", "--config", str(config_path), "--out", str(out), "--jobs", "0",
        ])
        assert rc == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()


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


ABLATIONS = ["ablate-sampling", "ablate-arch"]


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
        models, visible = aio.load_dataset(weak_dataset_dir / "manifest.json")
        assert all(v is not None and len(v) < 8 for v in visible)
        for name, (config, _), kwargs, report in recorded:
            assert name == "run_models" and kwargs["visible_lists"] == visible
            alone = pipeline.run_models(config, models, visible_lists=visible)
            assert without_seconds(report) == without_seconds(alone)

    @pytest.mark.parametrize("command", ABLATIONS)
    def test_jobs_2_tables_equal_serial(self, tmp_path, config_path, command):
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main([command, "--config", str(config_path), "--jobs", jobs,
                         "--out", str(out)]) == 0
        for path in (tmp_path / "jobs1").iterdir():
            assert path.read_bytes() == (tmp_path / "jobs2" / path.name).read_bytes()

    def test_votes_simulated_once_per_model(self, config_path, monkeypatch):
        calls = []
        simulate = pipeline.simulate_votes

        def counted(*args, **kwargs):
            calls.append(args[0])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "simulate_votes", counted)
        assert main(["ablate-sampling", "--config", str(config_path)]) == 0
        assert len(calls) == TINY_CONFIG["n_models"]


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
        aio.write_detection_json(
            pred, model.centroids, np.ones(len(model.centroids)), "aps", {}
        )
        rc = main([
            "eval", "--pred", str(pred),
            "--gt-ply", str(dataset_dir / "model_0000.ply"),
            "--gt-json", str(dataset_dir / "model_0000.json"),
        ])
        assert rc == 0

    def test_report_renders_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("A,B\n1,2\n")
        assert main(["report", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "A" in out and "1" in out

    def test_report_empty_csv_exit_2(self, tmp_path):
        csv_path = tmp_path / "e.csv"
        csv_path.write_text("")
        assert main(["report", "--csv", str(csv_path)]) == 2


class TestRenderTable:
    def test_alignment(self):
        table = render_table(["Col", "Long header"], [["a", "1"], ["bb", "22"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines[2:])) <= 2  # ragged right only
