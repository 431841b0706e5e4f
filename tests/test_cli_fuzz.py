"""Fuzz of the config file and argv of `run`, `ablate-arch` and `generate`:
`main` returns 0, 1 or 2 and never raises, and exit 2 (invalid config or
usage) prints exactly one `error:` line and no traceback."""

import contextlib
import io
import json
import tempfile
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from archseg.cli import EXIT_BAD_CONFIG, EXIT_MODEL_FAILURE, EXIT_OK, main
from archseg.pipeline import ExperimentConfig

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
    if command == "run":
        option(draw, argv, "--sampling", st.sampled_from(["aps", "fps", "random"]))
        option(draw, argv, "--centroids", st.integers(-1, 3))
    if command == "generate":
        option(draw, argv, "--weak-ratio", st.floats())
    return argv


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs(), arguments())
def test_main_exits_cleanly(config, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path), "--out", str(Path(tmp) / "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    assert code in (EXIT_OK, EXIT_MODEL_FAILURE, EXIT_BAD_CONFIG)
    if code == EXIT_BAD_CONFIG:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
