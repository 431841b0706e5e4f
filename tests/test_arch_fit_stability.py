"""Well-posedness of the coarse arch fit on the pinned 50-model benchmark.

The golden report is compared at 1e-9 on any BLAS kernel, and kernels round
the fit's matrix products differently in the last bits, so the Bézier fit
must not amplify last-bit differences; 1e-12 jitter of its input stands in
for them.  The fit once extrapolated its cubic on the most cluttered models,
leaving the coarse-to-fine arch worse than the plain chain through the
cluster centers.
"""

import dataclasses

import numpy as np
import pytest

from archseg import pipeline
from archseg.arch import arch_mse
from archseg.bezier import fit_bezier
from archseg.pipeline import estimate_arch, model_seeds
from archseg.synthetic import generate_model


@pytest.fixture(scope="module")
def pinned_votes(benchmark_config, pinned_votes_by_index):
    """(model, votes) per pinned model, the votes `full_report` simulated."""
    return [
        (generate_model(benchmark_config.scan, model_seeds(benchmark_config, i)[0]),
         votes)
        for i, votes in enumerate(pinned_votes_by_index)
    ]


def coarse_fine_errors(pinned_votes, config):
    return [
        arch_mse(estimate_arch(votes, config), model.gt_arch)
        for model, votes in pinned_votes
    ]


def test_arch_fit_stable_under_input_jitter(
    pinned_votes, benchmark_config, full_report, monkeypatch
):
    base = [m["arch_mse"] for m in full_report.per_model]  # the same fit, unjittered
    rng = np.random.default_rng(0)

    def jittered_fit(targets):
        return fit_bezier(targets + rng.normal(0.0, 1e-12, np.shape(targets)))

    monkeypatch.setattr(pipeline, "fit_bezier", jittered_fit)
    moved = np.abs(np.subtract(coarse_fine_errors(pinned_votes, benchmark_config), base))
    assert moved.max() <= 1e-10, f"model {int(moved.argmax())} moved by {moved.max():.2e}"


@pytest.mark.parametrize("index", [0, 10, 26, 36, 48])
def test_coarse_fine_not_worse_than_direct_fit(pinned_votes, benchmark_config, index):
    model, votes = pinned_votes[index]
    direct = dataclasses.replace(benchmark_config, arch_mode="direct_fit")
    fine = arch_mse(estimate_arch(votes, benchmark_config), model.gt_arch)
    assert fine <= arch_mse(estimate_arch(votes, direct), model.gt_arch)
