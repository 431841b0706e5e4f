"""File formats: PLY point clouds, JSON sidecars, dataset manifests.

PLY files carry vertex x/y/z as doubles (lossless round trip) plus an
optional integer `instance` property for per-point labels.  `write_ply`
writes binary little-endian; `read_ply` also reads binary big-endian and
ASCII PLY, as older datasets and other tools write them.  Each generated
model is a PLY + JSON sidecar pair listed in a manifest.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geometry import PointCloud
from .synthetic import DentalModel

# PLY scalar type names, the original and the sized spelling, as numpy
# type codes without byte order.
PLY_TYPES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}
# PLY format -> numpy byte order; None reads the body as text
PLY_FORMATS = {"ascii": None, "binary_little_endian": "<", "binary_big_endian": ">"}
INT32 = np.iinfo(np.int32)


def write_ply(path, points: np.ndarray, labels=None) -> None:
    """Binary little-endian PLY: x/y/z as doubles and, when labels are
    given, `instance` as int32 (a label outside int32 raises ValueError)."""
    points = np.asarray(points, dtype=np.float64)
    fields = [(axis, "<f8") for axis in "xyz"]
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(points)}"]
    header += [f"property double {axis}" for axis in "xyz"]
    if labels is not None:
        labels = np.asarray(labels)
        if len(labels) and (labels.min() < INT32.min or labels.max() > INT32.max):
            raise ValueError(f"{path}: instance labels outside int32")
        fields.append(("instance", "<i4"))
        header.append("property int instance")
    header.append("end_header")
    body = np.empty(len(points), dtype=fields)
    for i, axis in enumerate("xyz"):
        body[axis] = points[:, i]
    if labels is not None:
        body["instance"] = labels
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(body.tobytes())


def _read_header(path, raw: bytes):
    """(format, vertex count, vertex properties as (type, name) pairs, body
    offset) of a PLY file's bytes.  Elements after `vertex` are not read;
    one before it, a list property of `vertex` or an unknown format or type
    raises ValueError."""
    lines, pos = [], 0
    while not lines or lines[-1] != "end_header":
        end = raw.find(b"\n", pos)
        if end < 0:
            raise ValueError(f"{path}: {'truncated header' if lines else 'not a PLY file'}")
        lines.append(raw[pos:end].decode("latin-1").strip())
        pos = end + 1
        if lines[0] != "ply":
            raise ValueError(f"{path}: not a PLY file")
    fmt = n_vertices = element = None
    properties = []
    for line in lines[1:-1]:
        keyword, *rest = line.split() or ["comment"]
        if keyword == "format":
            if len(rest) != 2 or rest[0] not in PLY_FORMATS:
                raise ValueError(f"{path}: unknown PLY format {line!r}")
            fmt = rest[0]
        elif keyword == "element":
            element = rest[0] if rest else None
            if element == "vertex":
                if len(rest) != 2 or not rest[1].isdecimal():
                    raise ValueError(f"{path}: bad vertex count {line!r}")
                n_vertices = int(rest[1])
            elif n_vertices is None:
                raise ValueError(f"{path}: element {line!r} before the vertex element")
        elif keyword == "property" and element == "vertex":
            if rest[:1] == ["list"]:
                raise ValueError(f"{path}: list property {line!r} in the vertex element")
            if len(rest) != 2 or rest[0] not in PLY_TYPES:
                raise ValueError(f"{path}: unknown PLY property type {line!r}")
            properties.append((rest[0], rest[1]))
    if fmt is None:
        raise ValueError(f"{path}: missing format line")
    if n_vertices is None:
        raise ValueError(f"{path}: missing vertex element")
    names = [name for _, name in properties]
    if len(set(names)) != len(names) or not {"x", "y", "z"} <= set(names):
        raise ValueError(f"{path}: vertex properties {names} need x, y and z once each")
    return fmt, n_vertices, properties, pos


def read_ply(path) -> tuple[np.ndarray, np.ndarray | None]:
    """(points, labels) of a PLY file: points as (N, 3) float64, labels
    (the `instance` property) as int64 or None.  A binary body is read as
    one array of the header's vertex properties."""
    raw = Path(path).read_bytes()
    fmt, n_vertices, properties, offset = _read_header(path, raw)
    names = [name for _, name in properties]
    order = PLY_FORMATS[fmt]
    if order is None:
        data = np.loadtxt(
            raw[offset:].decode("latin-1").splitlines(), max_rows=n_vertices, ndmin=2
        )
        if data.shape != (n_vertices, len(names)):
            raise ValueError(f"{path}: truncated or malformed body")
        columns = {name: data[:, i] for i, name in enumerate(names)}
    else:
        dtype = np.dtype([(name, order + PLY_TYPES[kind]) for kind, name in properties])
        if len(raw) - offset < n_vertices * dtype.itemsize:
            raise ValueError(f"{path}: truncated body")
        columns = np.frombuffer(raw, dtype, count=n_vertices, offset=offset)
    points = np.stack([columns[axis] for axis in "xyz"], axis=1).astype(np.float64, copy=False)
    labels = columns["instance"].astype(np.int64) if "instance" in names else None
    return points, labels


def save_model(model: DentalModel, ply_path, json_path) -> None:
    write_ply(ply_path, model.cloud.points, model.labels)
    sidecar = {"centroids": model.centroids.tolist()}
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)


def load_model(ply_path, json_path) -> DentalModel:
    """The model of a PLY + sidecar pair; sidecar keys other than
    `centroids` (older versions also wrote `config`, `arch` or
    `bezier_control`) are ignored.  A sidecar that is not an object whose
    `centroids` are an (N, 3) array of finite numbers making a ground-truth
    arch, with one centroid for each PLY instance label, raises ValueError
    naming it."""
    points, labels = read_ply(ply_path)
    if labels is None:
        raise ValueError(f"{ply_path}: missing instance labels")
    centroids = _centroids(json_path, _read_json(json_path))
    if len(labels) and labels.max() > len(centroids):
        raise ValueError(f"{json_path}: {len(centroids)} centroids, but {ply_path} "
                         f"has instance label {labels.max()}")
    try:
        return DentalModel(cloud=PointCloud(points), labels=labels, centroids=centroids)
    except ValueError as exc:  # centroids that make no ground-truth arch
        raise ValueError(f"{json_path}: {exc}") from None


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# JSON's names for the Python types `_field` checks.
JSON_TYPES = {list: "an array", str: "a string"}


def _field(where, payload, key: str, kind: type):
    """payload[key] of a JSON document read from `where`; ValueError naming
    `where` and `key` unless payload is an object holding `key` as `kind`."""
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError(f"{where}: expected an object with key {key!r}")
    value = payload[key]
    if not isinstance(value, kind):
        raise ValueError(f"{where}: {key!r} must be {JSON_TYPES[kind]}, "
                         f"got {type(value).__name__}")
    return value


def _centroids(where, payload) -> np.ndarray:
    """payload's `centroids` as an (N, 3) float64 array of finite numbers."""
    value = _field(where, payload, "centroids", list)
    try:
        centroids = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):  # a non-number or a ragged array
        centroids = np.array(np.nan)
    if not np.isfinite(centroids).all():
        raise ValueError(f"{where}: 'centroids' must be an array of finite numbers")
    if centroids.ndim != 2 or centroids.shape[1] != 3:
        raise ValueError(f"{where}: 'centroids' must be an (N, 3) array, "
                         f"got shape {centroids.shape}")
    return centroids


def write_manifest(path, entries: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({"models": entries}, fh, indent=1, sort_keys=True)


def read_manifest(path) -> list[dict]:
    """The manifest's entries, each an object whose `ply` and `json` are
    strings."""
    entries = _field(path, _read_json(path), "models", list)
    for i, entry in enumerate(entries):
        for key in ("ply", "json"):
            _field(f"{path} models[{i}]", entry, key, str)
    return entries


def load_dataset(manifest_path) -> list[DentalModel]:
    """The manifest's models; PLY and sidecar paths are relative to the
    manifest."""
    base = Path(manifest_path).parent
    return [
        load_model(base / entry["ply"], base / entry["json"])
        for entry in read_manifest(manifest_path)
    ]


def read_detection_json(path) -> dict:
    """A detection file's JSON object, its `centroids` as a float64 array;
    ValueError naming the file unless they are an (N, 3) array of finite
    numbers."""
    payload = _read_json(path)
    payload["centroids"] = _centroids(path, payload)
    return payload
