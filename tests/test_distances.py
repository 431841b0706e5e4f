"""`geometry.distances` is bitwise `np.linalg.norm(a - b, axis=-1)`, on its
own and in every stage that calls it, and no other point-set norm is left."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import archseg
from archseg import arch, bezier, detection, geometry, synthetic
from archseg.arch import ARCH_POINTS
from archseg.detection import SamplingParams, aps_cost_matrix
from archseg.geometry import distances
from archseg.pipeline import model_seeds, run_dataset
from archseg.synthetic import generate_model, simulate_votes


def norm_reference(a, b):
    return np.linalg.norm(a - b, axis=-1)


# From subnormal coordinates to overflowing squares.
SCALES = [1e-310, 1e-160, 1.0, 1.0, 1e154, 1e200]


@st.composite
def point_pairs(draw):
    """(a, b) drawn from a small pool of points, so duplicates are common:
    (n, 3) against (3,), or (m, 1, 3) against (1, n, 3).  The pool's
    mantissas are random, so the order of the sum shows in the last bit,
    and some coordinates are +0 or -0."""
    n_pool = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.lists(st.sampled_from(SCALES), min_size=n_pool, max_size=n_pool))
    pool = rng.normal(size=(n_pool, 3)) * np.array(scale)[:, None]
    zeros = draw(hnp.arrays(np.int8, (n_pool, 3), elements=st.sampled_from([0, 0, 0, 1, -1])))
    pool[zeros == 1], pool[zeros == -1] = 0.0, -0.0
    pick = st.integers(0, len(pool) - 1)
    rows = draw(st.lists(pick, min_size=1, max_size=12))
    if draw(st.booleans()):
        return pool[rows], pool[draw(pick)]
    cols = draw(st.lists(pick, min_size=1, max_size=12))
    return pool[rows][:, None, :], pool[cols][None, :, :]


class TestKernel:
    @given(point_pairs())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_linalg_norm(self, pair):
        a, b = pair
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got, want = distances(a, b), norm_reference(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_origin_is_the_vector_norm(self):
        v = np.random.default_rng(0).normal(size=(50, 3))
        assert distances(v, geometry.ORIGIN).tobytes() == np.linalg.norm(v, axis=1).tobytes()


def aps_cost_matrix_reference(votes, arch_line, params):
    """The one-row-per-slot broadcast `aps_cost_matrix` replaced."""
    slots = math.ceil(params.n_samples / ARCH_POINTS)
    slot_arch = np.tile(np.arange(ARCH_POINTS), slots)[: params.n_samples]
    d_arch = np.linalg.norm(
        arch_line.points[slot_arch][:, None, :] - votes.position[None, :, :], axis=2
    )
    return params.alpha * d_arch + params.beta * votes.displacement_norm[None, :]


@pytest.mark.parametrize("n_samples", [1, 20, 32, 33, 64, 70])
def test_aps_cost_matches_broadcast_reference(benchmark_config, n_samples):
    scan_seed, vote_seed = model_seeds(benchmark_config, 0)
    model = generate_model(benchmark_config.scan, scan_seed)
    votes = simulate_votes(model, 512, benchmark_config.noise, vote_seed)
    arch_line = arch.build_target_arch(model.centroids)
    params = SamplingParams(alpha=0.7, beta=3.0, n_samples=n_samples)
    got = aps_cost_matrix(votes, arch_line, params)
    want = aps_cost_matrix_reference(votes, arch_line, params)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _per_model(report):
    assert not report.failures
    return [{k: v for k, v in m.items() if k != "seconds"} for m in report.per_model]


def _pinned_variants(config):
    """Per-model dicts of 3 pinned models with segmentation, and of the
    FPS and coarse variants of them, sharing their stages."""
    base = dataclasses.replace(config, n_models=3)
    stages = {}
    return [
        _per_model(run_dataset(variant, stages=stages))
        for variant in (
            base,
            dataclasses.replace(base, sampling_method="fps"),
            dataclasses.replace(base, arch_mode="coarse"),
        )
    ]


def test_pipeline_matches_norm_oracle(benchmark_config, monkeypatch):
    """Every stage gives the same per-model numbers when each module's
    `distances` binding is replaced by the broadcast `np.linalg.norm`
    (`segmentation` reads its distances from `geometry.k_nearest`)."""
    kernel = _pinned_variants(benchmark_config)
    for module in (arch, bezier, detection, geometry, synthetic):
        assert module.distances is distances
        monkeypatch.setattr(module, "distances", norm_reference)
    assert _pinned_variants(benchmark_config) == kernel


# The norms `distances` does not take: a 1-D norm (BLAS `dot`, another sum
# order) and the k-NN oracle.
NORM_SITES = {
    ("synthetic.py", "_rotation_matrix"),
    ("geometry.py", "brute_force_k_nearest"),
}


def linalg_norm_sites(source: str) -> list[str]:
    """The enclosing function of each `np.linalg.norm` reference in a
    module's source, "<module>" outside any function."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "norm"
                    and ast.unparse(child.value).endswith("linalg")):
                sites.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return sites


def test_one_distance_kernel():
    """No `np.linalg.norm` in the package outside the sites it is meant for."""
    found = set()
    for path in Path(archseg.__file__).parent.glob("*.py"):
        found |= {(path.name, scope) for scope in linalg_norm_sites(path.read_text())}
    assert found <= NORM_SITES, f"route these through geometry.distances: {found - NORM_SITES}"
    assert linalg_norm_sites("def f(x):\n    return np.linalg.norm(x, axis=1)\n") == ["f"]
