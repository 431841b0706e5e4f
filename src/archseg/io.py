"""File formats: ASCII PLY point clouds, JSON sidecars, dataset manifests.

PLY files carry vertex x/y/z as doubles (lossless round trip) plus an
optional integer `instance` property for per-point labels.  Each generated
model is a PLY + JSON sidecar pair listed in a manifest.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geometry import PointCloud
from .synthetic import DentalModel


def write_ply(path, points: np.ndarray, labels=None) -> None:
    points = np.asarray(points, dtype=np.float64)
    lines = ["ply", "format ascii 1.0", f"element vertex {len(points)}"]
    lines += [f"property double {axis}" for axis in "xyz"]
    if labels is not None:
        lines.append("property int instance")
    lines.append("end_header")
    # One %-format over all rows; an object array keeps Python floats and
    # ints, so each value prints as f"{x:.17g}" / str(int(label)) would.
    row = "%.17g %.17g %.17g" + ("" if labels is None else " %d") + "\n"
    values = np.empty((len(points), row.count("%")), dtype=object)
    values[:, :3] = points
    if labels is not None:
        values[:, 3] = labels
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write((row * len(points)) % tuple(values.ravel().tolist()))


def read_ply(path) -> tuple[np.ndarray, np.ndarray | None]:
    with open(path) as fh:
        line = fh.readline().strip()
        if line != "ply":
            raise ValueError(f"{path}: not a PLY file")
        n_vertices = None
        properties = []
        while True:
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: truncated header")
            line = line.strip()
            if line.startswith("element vertex"):
                n_vertices = int(line.split()[-1])
            elif line.startswith("property"):
                properties.append(line.split()[-1])
            elif line == "end_header":
                break
        if n_vertices is None:
            raise ValueError(f"{path}: missing vertex element")
        data = np.loadtxt(fh, max_rows=n_vertices, ndmin=2)
    cols = {name: i for i, name in enumerate(properties)}
    points = data[:, [cols["x"], cols["y"], cols["z"]]]
    labels = data[:, cols["instance"]].astype(np.int64) if "instance" in cols else None
    return points, labels


def save_model(model: DentalModel, ply_path, json_path) -> None:
    write_ply(ply_path, model.cloud.points, model.labels)
    sidecar = {"centroids": model.centroids.tolist()}
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)


def load_model(ply_path, json_path) -> DentalModel:
    """The model of a PLY + sidecar pair; sidecar keys other than
    `centroids` (older versions also wrote `config`, `arch` or
    `bezier_control`) are ignored."""
    points, labels = read_ply(ply_path)
    if labels is None:
        raise ValueError(f"{ply_path}: missing instance labels")
    with open(json_path) as fh:
        sidecar = json.load(fh)
    return DentalModel(
        cloud=PointCloud(points),
        labels=labels,
        centroids=np.asarray(sidecar["centroids"], dtype=np.float64),
    )


def write_manifest(path, entries: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({"models": entries}, fh, indent=1, sort_keys=True)


def read_manifest(path) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["models"]


def load_dataset(manifest_path) -> list[DentalModel]:
    """The manifest's models; PLY and sidecar paths are relative to the
    manifest."""
    base = Path(manifest_path).parent
    return [
        load_model(base / entry["ply"], base / entry["json"])
        for entry in read_manifest(manifest_path)
    ]


def read_detection_json(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    payload["centroids"] = np.asarray(payload["centroids"], dtype=np.float64)
    payload["confidences"] = np.asarray(payload["confidences"], dtype=np.float64)
    return payload
