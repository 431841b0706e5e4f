import json
from pathlib import Path

import numpy as np
import pytest

from archseg import io as aio
from archseg.arch import build_target_arch
from archseg.pipeline import load_config, model_seeds
from archseg.synthetic import ScanConfig, generate_model


BENCHMARK = load_config(Path(__file__).resolve().parents[1] / "configs" / "benchmark.json")


def per_row_reference(points, labels=None) -> str:
    """The PLY body as a per-point loop formats it: the reference for
    `write_ply`'s vectorised rows."""
    out = []
    for i, p in enumerate(np.asarray(points, dtype=np.float64)):
        row = f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}"
        if labels is not None:
            row += f" {int(labels[i])}"
        out.append(row + "\n")
    return "".join(out)


@pytest.fixture(scope="module")
def model():
    return generate_model(ScanConfig(n_points=2000, n_teeth=8), 13)


class TestPly:
    def test_lossless_round_trip(self, tmp_path, model):
        path = tmp_path / "m.ply"
        aio.write_ply(path, model.cloud.points, model.labels)
        pts, labels = aio.read_ply(path)
        assert np.array_equal(pts, model.cloud.points)  # bit-exact via %.17g
        assert np.array_equal(labels, model.labels)

    def test_without_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        path = tmp_path / "p.ply"
        aio.write_ply(path, pts)
        got, labels = aio.read_ply(path)
        assert labels is None
        assert np.array_equal(got, pts)

    @pytest.mark.parametrize("with_labels", [True, False])
    def test_rows_match_per_row_format(self, tmp_path, with_labels):
        cases = [
            generate_model(BENCHMARK.scan, model_seeds(BENCHMARK, 0)[0]),
            None,
        ]
        for case in cases:
            if case is None:  # edge values: signed zero, tiny normal, subnormal
                pts = np.array([[-0.0, 1e-300, 5e-324], [0.0, -1e-300, -5e-324]])
                labels = np.array([0, 16])
            else:
                pts, labels = case.cloud.points, case.labels
            labels = labels if with_labels else None
            path = tmp_path / "rows.ply"
            aio.write_ply(path, pts, labels)
            got = path.read_text().split("end_header\n", 1)[1].splitlines(keepends=True)
            want = per_row_reference(pts, labels).splitlines(keepends=True)
            assert len(got) == len(want)
            # the first differing row, not a diff of megabyte strings
            assert next(((g, w) for g, w in zip(got, want) if g != w), None) is None

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text("not a ply\n")
        with pytest.raises(ValueError):
            aio.read_ply(path)

    def test_header_structure(self, tmp_path):
        path = tmp_path / "h.ply"
        aio.write_ply(path, np.zeros((1, 3)), np.zeros(1, dtype=int))
        header = path.read_text().split("end_header")[0]
        assert "format ascii 1.0" in header
        assert "property double x" in header
        assert "property int instance" in header


def assert_same_model(loaded, model):
    assert np.array_equal(loaded.cloud.points, model.cloud.points)
    assert np.array_equal(loaded.labels, model.labels)
    assert np.array_equal(loaded.centroids, model.centroids)
    assert np.array_equal(loaded.gt_arch.points, model.gt_arch.points)


class TestModelRoundTrip:
    def test_save_load_exact(self, tmp_path, model):
        aio.save_model(model, tmp_path / "m.ply", tmp_path / "m.json")
        assert_same_model(aio.load_model(tmp_path / "m.ply", tmp_path / "m.json"), model)

    def test_sidecar_keys(self, tmp_path, model):
        aio.save_model(model, tmp_path / "m.ply", tmp_path / "m.json")
        with open(tmp_path / "m.json") as fh:
            sidecar = json.load(fh)
        assert set(sidecar) == {"centroids"}

    def test_loads_sidecar_with_bezier_control(self, tmp_path, model):
        """Sidecars written before the ground-truth Bézier was dropped carry
        a `bezier_control` key; the loader ignores it."""
        aio.save_model(model, tmp_path / "m.ply", tmp_path / "m.json")
        sidecar = json.loads((tmp_path / "m.json").read_text())
        sidecar["bezier_control"] = np.eye(4, 3).tolist()
        (tmp_path / "m.json").write_text(json.dumps(sidecar))
        assert_same_model(aio.load_model(tmp_path / "m.ply", tmp_path / "m.json"), model)

    def test_loads_sidecar_with_config(self, tmp_path, model):
        """Sidecars written before the scan config echo was dropped carry a
        `config` key, the scan's settings with its seed; the loader ignores
        it."""
        aio.save_model(model, tmp_path / "m.ply", tmp_path / "m.json")
        sidecar = json.loads((tmp_path / "m.json").read_text())
        scan = BENCHMARK.to_dict()["scan"]
        sidecar["config"] = dict(scan, n_points=2000, n_teeth=8, seed=13)
        (tmp_path / "m.json").write_text(json.dumps(sidecar))
        assert_same_model(aio.load_model(tmp_path / "m.ply", tmp_path / "m.json"), model)

    def test_arch_derived_from_centroids(self, tmp_path, model):
        """Sidecars written before the arch was derived on load carry an
        `arch` key; it loads, but the model's arch comes from its centroids
        even where the two disagree."""
        aio.save_model(model, tmp_path / "m.ply", tmp_path / "m.json")
        sidecar = json.loads((tmp_path / "m.json").read_text())
        sidecar["arch"] = (model.gt_arch.points + 0.5).tolist()
        (tmp_path / "m.json").write_text(json.dumps(sidecar))
        loaded = aio.load_model(tmp_path / "m.ply", tmp_path / "m.json")
        assert_same_model(loaded, model)
        assert np.array_equal(loaded.gt_arch.points, build_target_arch(loaded.centroids).points)

    def test_missing_labels_rejected(self, tmp_path, model):
        aio.write_ply(tmp_path / "nolab.ply", model.cloud.points)
        aio.save_model(model, tmp_path / "m.ply", tmp_path / "m.json")
        with pytest.raises(ValueError):
            aio.load_model(tmp_path / "nolab.ply", tmp_path / "m.json")


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            {"index": 0, "ply": "a.ply", "json": "a.json", "split": "full"},
            {
                "index": 1,
                "ply": "b.ply",
                "json": "b.json",
                "split": "weak",
                "visible_instances": [1, 3],
            },
        ]
        aio.write_manifest(tmp_path / "manifest.json", entries)
        assert aio.read_manifest(tmp_path / "manifest.json") == entries


def write_detection_json(path, centroids, confidences, sampling, params):
    """A detection file as `archseg eval --pred` reads it."""
    payload = {
        "centroids": np.asarray(centroids, dtype=np.float64).tolist(),
        "confidences": np.asarray(confidences, dtype=np.float64).tolist(),
        "sampling": sampling,
        "params": params,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


class TestDetectionJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        centroids = rng.normal(size=(6, 3))
        conf = rng.random(6)
        path = tmp_path / "d.json"
        write_detection_json(path, centroids, conf, "aps", {"alpha": 1.0})
        got = aio.read_detection_json(path)
        assert np.array_equal(got["centroids"], centroids)
        assert np.array_equal(got["confidences"], conf)
        assert got["sampling"] == "aps"
        assert got["params"] == {"alpha": 1.0}
