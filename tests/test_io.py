import json
import re
from pathlib import Path

import numpy as np
import pytest

from archseg import io as aio
from archseg.arch import build_target_arch
from archseg.pipeline import load_config, model_seeds
from archseg.synthetic import ScanConfig, generate_model


BENCHMARK = load_config(Path(__file__).resolve().parents[1] / "configs" / "benchmark.json")


def per_row_reference(path, points, labels=None) -> None:
    """Write an ASCII PLY as a per-point loop formats it (x/y/z with %.17g,
    the label as an int), the format datasets were written in before PLY
    bodies became binary: the fixture writer for `read_ply`'s ASCII path."""
    lines = ["ply", "format ascii 1.0", f"element vertex {len(points)}"]
    lines += [f"property double {axis}" for axis in "xyz"]
    if labels is not None:
        lines.append("property int instance")
    lines.append("end_header")
    for i, p in enumerate(np.asarray(points, dtype=np.float64)):
        row = f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}"
        if labels is not None:
            row += f" {int(labels[i])}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def model():
    return generate_model(ScanConfig(n_points=2000, n_teeth=8), 13)


def ply_cases():
    """(points, labels) of pinned model 0 and of the edge values: signed
    zero, tiny normals and the smallest subnormals."""
    pinned = generate_model(BENCHMARK.scan, model_seeds(BENCHMARK, 0)[0])
    edge = np.array([[-0.0, 1e-300, 5e-324], [0.0, -1e-300, -5e-324]])
    return [(pinned.cloud.points, pinned.labels), (edge, np.array([0, 16]))]


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPly:
    def test_lossless_round_trip(self, tmp_path, model):
        path = tmp_path / "m.ply"
        aio.write_ply(path, model.cloud.points, model.labels)
        pts, labels = aio.read_ply(path)
        assert np.array_equal(pts, model.cloud.points)
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
    def test_binary_round_trip_bit_exact(self, tmp_path, with_labels):
        for pts, labels in ply_cases():
            labels = labels if with_labels else None
            path = tmp_path / "bin.ply"
            aio.write_ply(path, pts, labels)
            got, got_labels = aio.read_ply(path)
            assert same_bits(got, pts)
            if with_labels:
                assert same_bits(got_labels, labels.astype(np.int64))
            else:
                assert got_labels is None

    @pytest.mark.parametrize("with_labels", [True, False])
    def test_reads_per_row_ascii(self, tmp_path, with_labels):
        for pts, labels in ply_cases():
            labels = labels if with_labels else None
            path = tmp_path / "rows.ply"
            per_row_reference(path, pts, labels)
            got, got_labels = aio.read_ply(path)
            assert same_bits(got, pts)
            if with_labels:
                assert same_bits(got_labels, labels.astype(np.int64))
            else:
                assert got_labels is None

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text("not a ply\n")
        with pytest.raises(ValueError):
            aio.read_ply(path)

    def test_header_structure(self, tmp_path):
        path = tmp_path / "h.ply"
        aio.write_ply(path, np.zeros((1, 3)), np.zeros(1, dtype=int))
        header, body = path.read_bytes().split(b"end_header\n")
        assert header.splitlines() == [
            b"ply", b"format binary_little_endian 1.0", b"element vertex 1",
            b"property double x", b"property double y", b"property double z",
            b"property int instance",
        ]
        assert len(body) == 3 * 8 + 4

    def test_reads_big_endian_and_other_types(self, tmp_path):
        """A body read through the header's types and byte order: big-endian
        floats and an unsigned byte label, with a face element after the
        vertices that is left unread."""
        pts = np.array([[0.5, -1.25, 3.0], [1e-3, 2.0, -0.0]], dtype=np.float32)
        body = np.empty(2, dtype=[("x", ">f4"), ("y", ">f4"), ("z", ">f4"), ("instance", "u1")])
        for i, axis in enumerate("xyz"):
            body[axis] = pts[:, i]
        body["instance"] = [3, 255]
        header = (
            "ply\nformat binary_big_endian 1.0\ncomment made by hand\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\nproperty uchar instance\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        )
        face = b"\x03" + np.array([0, 1, 0], dtype=">i4").tobytes()
        path = tmp_path / "be.ply"
        path.write_bytes(header.encode() + body.tobytes() + face)
        got, labels = aio.read_ply(path)
        assert same_bits(got, pts.astype(np.float64))
        assert same_bits(labels, np.array([3, 255], dtype=np.int64))

    def test_truncated_body_rejected(self, tmp_path, model):
        path = tmp_path / "cut.ply"
        aio.write_ply(path, model.cloud.points, model.labels)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            aio.read_ply(path)
        per_row_reference(path, model.cloud.points, model.labels)
        path.write_text(path.read_text().rsplit("\n", 2)[0] + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            aio.read_ply(path)

    @pytest.mark.parametrize("header, message", [
        ("ply\nformat binary_middle_endian 1.0\nelement vertex 0\n", "unknown PLY format"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
         "property double y\nproperty long z\n", "unknown PLY property type"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
         "property list uchar double y\n", "list property"),
        ("ply\nformat ascii 1.0\nelement face 0\nelement vertex 1\n", "before the vertex"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n", "x, y and z"),
        ("ply\nelement vertex 1\n", "missing format"),
        ("ply\nformat ascii 1.0\nelement vertex -1\n", "bad vertex count"),
    ], ids=["format", "type", "list", "order", "axes", "no-format", "count"])
    def test_bad_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "bad.ply"
        path.write_text(header + "end_header\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + message):
            aio.read_ply(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "head.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*truncated header"):
            aio.read_ply(path)

    @pytest.mark.parametrize("label", [2**31, -(2**31) - 1, 2**40])
    def test_labels_outside_int32_rejected(self, tmp_path, label):
        path = tmp_path / "wide.ply"
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*int32"):
            aio.write_ply(path, np.zeros((2, 3)), np.array([0, label]))

    def test_int32_label_limits_round_trip(self, tmp_path):
        path = tmp_path / "limits.ply"
        labels = np.array([-(2**31), 2**31 - 1])
        aio.write_ply(path, np.zeros((2, 3)), labels)
        assert np.array_equal(aio.read_ply(path)[1], labels)


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

    def test_label_without_centroid_rejected(self, tmp_path, model):
        """A sidecar needs a centroid for every instance label of its PLY:
        voting looks a seed's centroid up by its label."""
        aio.save_model(model, tmp_path / "m.ply", tmp_path / "m.json")
        short = {"centroids": model.centroids[:-1].tolist()}
        (tmp_path / "m.json").write_text(json.dumps(short))
        n = model.n_teeth
        with pytest.raises(ValueError, match=rf"m\.json: {n - 1} centroids, .* label {n}$"):
            aio.load_model(tmp_path / "m.ply", tmp_path / "m.json")


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
        assert got["confidences"] == conf.tolist()  # left as read
        assert got["sampling"] == "aps"
        assert got["params"] == {"alpha": 1.0}
