"""Fuzz of the config file and argv of `run`, `ablate-arch` and `generate`,
and of the manifest and sidecar of a `--dataset`: `main` returns 0, 1 or 2
and never raises, and exit 2 (invalid config, usage or input file) prints
exactly one `error:` line and no traceback.  Every config `from_dict`
accepts survives the config codec unchanged, and a non-finite float field
exits 2."""

import contextlib
import io
import json
import shutil
import tempfile
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from archseg.cli import EXIT_BAD_CONFIG, EXIT_MODEL_FAILURE, EXIT_OK, main
from archseg.pipeline import ExperimentConfig, load_config, save_config

# A valid starting point small enough that a config the fuzz leaves valid
# runs in well under a second.
BASE_CONFIG = {
    "n_models": 1,
    "scan": {"n_points": 600, "n_teeth": 8},
    "vote_subsample": 200,
    "sampling": {"n_samples": 32},
    "segmentation": {"patch_size": 128, "prob_decay": 2.0},
}

SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)
            if f.default_factory is not MISSING}
PATHS = sorted(
    [(f.name,) for f in fields(ExperimentConfig)]
    + [(name, f.name) for name, make in SECTIONS.items() for f in fields(make())]
    + [("bogus",), ("scan", "bogus")]
)
FLOAT_PATHS = sorted(
    [(f.name,) for f in fields(ExperimentConfig) if isinstance(f.default, float)]
    + [(name, f.name) for name, make in SECTIONS.items() for f in fields(make())
       if isinstance(f.default, float)]
)

# Integers stay small so that no drawn count (models, points, iterations)
# makes a run slow.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(),
    st.sampled_from(["", "aps", "fps", "clutter", "coarse", "direct_fit"]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.lists(st.lists(st.floats(-1, 1), min_size=3, max_size=3), min_size=4, max_size=4),
    st.dictionaries(st.sampled_from(["n_points", "bogus"]), SCALARS, max_size=2),
)


@st.composite
def configs(draw):
    """BASE_CONFIG with up to three fields set to drawn JSON values, or now
    and then a JSON document that is not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(VALUES)
    config = json.loads(json.dumps(BASE_CONFIG))
    for path in draw(st.lists(st.sampled_from(PATHS), max_size=3)):
        section = config if len(path) == 1 else config.setdefault(path[0], {})
        if isinstance(section, dict):  # an earlier draw may have replaced it
            section[path[-1]] = draw(VALUES)
    return config


DEFAULTS = ExperimentConfig().to_dict()
MODES = ["aps", "fps", "random", "clutter", "suppressed", "coarse", "direct_fit", "coarse_fine"]


def typed_value(default):
    """A strategy for JSON values of `default`'s encoded type, most of them
    valid for its field."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(0, 4)
    if isinstance(default, float):
        return st.one_of(st.floats(0, 1), st.integers(0, 2))
    if isinstance(default, str):
        return st.sampled_from(MODES)
    if isinstance(default[0], list):  # arch_control
        return st.lists(st.lists(st.floats(-1, 1), min_size=3, max_size=3),
                        min_size=4, max_size=4)
    return st.lists(st.floats(0.01, 0.1), min_size=2, max_size=2).map(sorted)


@st.composite
def typed_configs(draw):
    """BASE_CONFIG with up to three fields set to values of their own type."""
    config = json.loads(json.dumps(BASE_CONFIG))
    for path in draw(st.lists(st.sampled_from([p for p in PATHS if "bogus" not in p]),
                              max_size=3)):
        default = DEFAULTS
        for part in path:
            default = default[part]
        if isinstance(default, dict):
            continue  # a whole section: its fields are drawn on their own
        section = config if len(path) == 1 else config.setdefault(path[0], {})
        section[path[-1]] = draw(typed_value(default))
    return config


def option(draw, argv, flag, values):
    if draw(st.booleans()):  # --flag=value: argparse reads "-1e+16" as a flag
        argv.append(f"{flag}={draw(values)}")


@st.composite
def arguments(draw):
    """An argv tail that argparse accepts: every value has its flag's type."""
    command = draw(st.sampled_from(["run", "ablate-arch", "generate"]))
    argv = [command]
    option(draw, argv, "--seed", st.integers(-2, 3))
    if command in ("run", "generate"):
        option(draw, argv, "--n-models", st.integers(-1, 2))
    if command in ("run", "ablate-arch"):
        option(draw, argv, "--jobs", st.sampled_from([1, 2]))
    if command == "generate":
        option(draw, argv, "--weak-ratio", st.floats())
    return argv


def run_main(config, argv, dataset=None, files=None) -> tuple[int, str]:
    """main(argv) on `config` written to a config file: (exit code, stderr).
    With a `dataset` directory, argv also names a copy of it in which each
    file name of `files` holds its JSON document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path), "--out", str(Path(tmp) / "out")]
        if dataset is not None:
            data = Path(tmp) / "data"
            shutil.copytree(dataset, data)
            for name, document in (files or {}).items():
                (data / name).write_text(json.dumps(document))
            argv += ["--dataset", str(data)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def one_model_dataset(tmp_path_factory) -> Path:
    """A dataset of one BASE_CONFIG model."""
    tmp = tmp_path_factory.mktemp("fuzz")
    config = tmp / "config.json"
    config.write_text(json.dumps(BASE_CONFIG))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--config", str(config), "--out", str(tmp / "data")]) == 0
    return tmp / "data"


ENTRY = {"index": 0, "ply": "model_0000.ply", "json": "model_0000.json", "split": "full"}
CENTROIDS = st.lists(st.lists(st.floats(-1, 1), min_size=3, max_size=3), max_size=4)


@st.composite
def dataset_files(draw):
    """{file name: JSON document} for none, one or both of the dataset's
    manifest and sidecar: a drawn JSON value, or the file's own shape with
    one field drawn (for the sidecar, often a list of 0-4 points)."""
    files = {}
    manifest = draw(st.sampled_from(["keep", "keep", "value", "models", "entry"]))
    if manifest == "value":
        files["manifest.json"] = draw(VALUES)
    elif manifest == "models":
        files["manifest.json"] = {"models": draw(VALUES)}
    elif manifest == "entry":
        entry = dict(ENTRY)
        entry[draw(st.sampled_from(sorted(ENTRY)))] = draw(VALUES)
        files["manifest.json"] = {"models": [entry]}
    sidecar = draw(st.sampled_from(["keep", "keep", "value", "centroids", "points"]))
    if sidecar == "value":
        files["model_0000.json"] = draw(VALUES)
    elif sidecar != "keep":
        files["model_0000.json"] = {
            "centroids": draw(VALUES if sidecar == "centroids" else CENTROIDS)}
    return files


def assert_one_error_line(err: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs(), arguments())
def test_main_exits_cleanly(config, argv):
    code, err = run_main(config, argv)
    assert code in (EXIT_OK, EXIT_MODEL_FAILURE, EXIT_BAD_CONFIG)
    if code == EXIT_BAD_CONFIG:
        assert_one_error_line(err)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dataset_files(), st.sampled_from(["run", "ablate-arch"]),
       st.sampled_from([False, False, False, True]))
def test_dataset_files_exit_cleanly(one_model_dataset, files, command, n_models):
    """Exit 2 with one `error:` line for a manifest or sidecar of the wrong
    shape (or `run --n-models` beside `--dataset`), 0 or 1 otherwise.  Every
    drawn sidecar is wrong: it is not an object with `centroids`, they are
    not an (N, 3) array of finite numbers, or they are fewer than the PLY's
    8 teeth (a drawn point list holds at most 4)."""
    argv = [command, "--n-models=1"] if command == "run" and n_models else [command]
    code, err = run_main(BASE_CONFIG, argv, one_model_dataset, files)
    assert code in (EXIT_OK, EXIT_MODEL_FAILURE, EXIT_BAD_CONFIG)
    if code == EXIT_BAD_CONFIG:
        assert_one_error_line(err)
    if "model_0000.json" in files:
        assert code == EXIT_BAD_CONFIG
    if not files and len(argv) == 1:
        assert code == EXIT_OK


@settings(max_examples=100, deadline=None)
@given(st.one_of(configs(), typed_configs()))
def test_accepted_config_round_trips(config):
    try:
        accepted = ExperimentConfig.from_dict(config)
    except ValueError:
        return
    encoded = accepted.to_dict()
    assert ExperimentConfig.from_dict(encoded).to_dict() == encoded
    with tempfile.TemporaryDirectory() as tmp:
        save_config(accepted, Path(tmp) / "config.json")
        assert load_config(Path(tmp) / "config.json").to_dict() == encoded


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FLOAT_PATHS), st.sampled_from([float("nan"), float("inf"), -float("inf")]))
def test_non_finite_float_exits_2(path, value):
    config = json.loads(json.dumps(BASE_CONFIG))
    section = config if len(path) == 1 else config.setdefault(path[0], {})
    section[path[-1]] = value
    code, err = run_main(config, ["run"])
    assert code == EXIT_BAD_CONFIG
    assert_one_error_line(err)
    assert f"'{path[-1]}' must be finite" in err
