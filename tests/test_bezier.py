from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from archseg import bezier
from archseg.arch import order_centroids
from archseg.bezier import (
    BezierCurve,
    _bernstein,
    _least_squares_fit,
    _on_a_cubic,
    _project_params,
    arc_length_params,
    bezier_derivative,
    bezier_eval,
    bezier_sample_uniform,
    fit_bezier,
    reparametrize,
)
from archseg.pipeline import stage_keys


def arch_like_curve(seed):
    """Random curve with monotone-x control points (a jaw-like open arc)."""
    rng = np.random.default_rng(seed)
    ctrl = rng.uniform(-1, 1, (4, 3))
    ctrl[:, 0] = np.sort(rng.uniform(-1, 1, 4))
    return BezierCurve(ctrl)


# Ordered vote-cluster centers of pinned benchmark model 48 (rounded to 1e-3):
# 14 teeth, several of them split into two clusters, interleaved with
# off-arch gingiva clutter clusters (z < -0.03).
CLUTTERED_ARCH = np.array([
    [-0.807, -0.348, 0.056], [-0.751, -0.215, 0.049], [-0.721, -0.196, 0.049],
    [-0.646, -0.091, 0.036], [-0.647, -0.061, 0.062], [-0.522, 0.025, 0.03],
    [-0.53, 0.051, 0.064], [-0.392, 0.135, 0.055], [-0.255, 0.195, 0.058],
    [-0.073, 0.217, 0.042], [-0.084, 0.236, 0.075], [0.063, 0.213, 0.073],
    [0.067, 0.203, 0.023], [0.063, 0.147, -0.206], [0.081, 0.234, 0.05],
    [0.236, 0.196, 0.051], [0.375, 0.167, -0.036], [0.39, 0.137, 0.048],
    [0.362, 0.121, 0.061], [0.523, 0.052, 0.072], [0.52, 0.034, 0.046],
    [0.627, -0.075, 0.05], [0.575, -0.075, -0.047], [0.572, -0.125, -0.192],
    [0.72, -0.206, 0.051], [0.797, -0.347, 0.061], [0.711, -0.311, -0.135],
    [0.758, -0.349, 0.037],
])

LINE = BezierCurve(np.array([[0.0, 0, 0], [1 / 3, 0, 0], [2 / 3, 0, 0], [1.0, 0, 0]]))


class TestEval:
    def test_endpoints(self):
        c = arch_like_curve(0)
        assert np.allclose(bezier_eval(c, np.array([0.0]))[0], c.control[0])
        assert np.allclose(bezier_eval(c, np.array([1.0]))[0], c.control[3])

    def test_convex_hull(self):
        c = arch_like_curve(1)
        t = np.linspace(0, 1, 101)
        pts = bezier_eval(c, t)
        lo, hi = c.control.min(axis=0), c.control.max(axis=0)
        assert (pts >= lo - 1e-12).all() and (pts <= hi + 1e-12).all()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bezier_eval(arch_like_curve(0), np.array([1.2]))

    def test_derivative_finite_difference(self):
        c = arch_like_curve(2)
        t = np.linspace(0.1, 0.9, 9)
        h = 1e-6
        fd = (bezier_eval(c, t + h) - bezier_eval(c, t - h)) / (2 * h)
        assert np.allclose(bezier_derivative(c, t), fd, atol=1e-6)


class TestArcLength:
    def test_uniform_sampling_even_spacing(self):
        c = arch_like_curve(3)
        pts = bezier_sample_uniform(c, 32)
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert seg.std() / seg.mean() < 0.01

    def test_arc_length_params_inverts_fractions(self):
        # on a straight line, parameter equals arc-length fraction
        t = arc_length_params(LINE, np.array([0.25, 0.5, 0.75]))
        assert np.allclose(t, [0.25, 0.5, 0.75], atol=1e-6)


class TestReparametrize:
    def test_identity(self):
        c = arch_like_curve(4)
        r = reparametrize(c, 0.0, 1.0)
        assert np.allclose(r.control, c.control, atol=1e-12)

    def test_segment_matches_curve(self):
        c = arch_like_curve(5)
        r = reparametrize(c, 0.2, 0.7)
        s = np.linspace(0, 1, 11)
        assert np.allclose(
            bezier_eval(r, s), bezier_eval(c, 0.2 + s * 0.5), atol=1e-12
        )


class TestFit:
    # From chord-length parameters, seeds 1231, 1308 and 1554 end in a
    # folded basin whose polish is rejected (residual 6e-3 to 6e-2), and
    # 7769 and 8175 in a polish that stalls off the curve (residual 1e-4 to
    # 6e-4); the restart from uniform parameters fits them.
    @pytest.mark.parametrize("seed", [*range(8), 1231, 1308, 1554, 7769, 8175])
    def test_round_trip_exact_samples(self, seed):
        c = arch_like_curve(seed)
        targets = bezier_eval(c, np.linspace(0, 1, 16))
        fitted, residual = fit_bezier(targets)
        assert residual < 1e-8
        t = np.linspace(0, 1, 64)
        dev = np.linalg.norm(bezier_eval(fitted, t) - bezier_eval(c, t), axis=1)
        assert dev.max() < 1e-6

    def test_residual_reported_matches_targets(self):
        c = arch_like_curve(20)
        targets = bezier_eval(c, np.linspace(0, 1, 10)) + 0.005
        # constant offset: curve shifts, residual ~0
        fitted, residual = fit_bezier(targets)
        assert residual < 1e-6

    def test_noisy_fit_bounded(self):
        rng = np.random.default_rng(6)
        c = arch_like_curve(6)
        sigma = 0.01
        targets = bezier_eval(c, np.linspace(0, 1, 24)) + rng.normal(
            0, sigma, (24, 3)
        )
        _, residual = fit_bezier(targets)
        assert residual < 2 * sigma

    def test_too_few_targets(self):
        with pytest.raises(ValueError):
            fit_bezier(np.zeros((3, 3)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, seed):
        c = arch_like_curve(seed)
        targets = bezier_eval(c, np.linspace(0, 1, 16))
        _, residual = fit_bezier(targets)
        assert residual < 1e-7

    @pytest.mark.parametrize("seed", [3043, 7156, 8175])
    def test_round_trip_unevenly_spaced_samples(self, seed):
        # exact samples at random parameters that the chord-length fit
        # misses too, so the restart is not tied to evenly spaced samples
        rng = np.random.default_rng(seed + 10**6)
        n = int(rng.integers(8, 30))
        targets = bezier_eval(arch_like_curve(seed), np.sort(rng.uniform(0, 1, n)))
        _, residual = fit_bezier(targets)
        assert residual < 1e-7

    def test_on_a_cubic(self):
        t = np.sort(np.random.default_rng(0).uniform(0, 1, 20))
        exact = bezier_eval(arch_like_curve(4), t)
        assert _on_a_cubic(exact)
        assert _on_a_cubic(bezier_eval(LINE, t))
        planar = arch_like_curve(5).control.copy()
        planar[:, 2] = 0.5
        assert _on_a_cubic(bezier_eval(BezierCurve(planar), t))
        noisy = exact + np.random.default_rng(1).normal(0, 1e-4, exact.shape)
        assert not _on_a_cubic(noisy)
        assert not _on_a_cubic(CLUTTERED_ARCH)

    def test_restart_keeps_fits_off_a_cubic(self):
        # targets no cubic passes through never reach the restart's polish
        with mock.patch.object(bezier, "_polish_joint", wraps=bezier._polish_joint) as spy:
            fit_bezier(CLUTTERED_ARCH)
        assert spy.call_count == 1

    def test_cluttered_targets_stay_in_range(self):
        # Off-curve targets interleaved with ordered ones must not drive the
        # parameters out of [0, 1]: canonicalizing such a fit extrapolated
        # the cubic and flung its inner control points to y = -2.17.  An
        # arch's inner control points sit a third of its depth beyond the
        # curve, well within half the targets' extent of their bounding box.
        _, t = _least_squares_fit(CLUTTERED_ARCH)
        assert t.min() >= 0.0 and t.max() <= 1.0
        fitted, residual = fit_bezier(CLUTTERED_ARCH)
        lo, hi = CLUTTERED_ARCH.min(axis=0), CLUTTERED_ARCH.max(axis=0)
        margin = 0.5 * (hi - lo).max()
        assert (fitted.control >= lo - margin).all()
        assert (fitted.control <= hi + margin).all()
        assert residual < 0.1


def project_params_reference(curve, targets, t0, newton_steps=10):
    """The `_project_params` that re-evaluated the basis and both
    derivatives from scratch and ran every Newton step."""
    t = t0.copy()
    best_d = np.linalg.norm(_bernstein(t) @ curve.control - targets, axis=1)
    grid = np.linspace(0.0, 1.0, 257)
    grid_pts = _bernstein(grid) @ curve.control
    d_grid = np.linalg.norm(targets[:, None, :] - grid_pts[None, :, :], axis=2)
    gi = np.argmin(d_grid, axis=1)
    g_best = d_grid[np.arange(len(targets)), gi]
    take = g_best < best_d
    t = np.where(take, grid[gi], t)
    best_d = np.where(take, g_best, best_d)
    p = curve.control
    for _ in range(newton_steps):
        b = _bernstein(t) @ curve.control
        d1 = bezier_derivative(curve, t)
        d2 = 6 * (1.0 - t)[:, None] * (p[2] - 2 * p[1] + p[0]) + 6 * t[:, None] * (
            p[3] - 2 * p[2] + p[1]
        )
        diff = b - targets
        f = np.einsum("ij,ij->i", diff, d1)
        fp = np.einsum("ij,ij->i", d1, d1) + np.einsum("ij,ij->i", diff, d2)
        step = np.where(np.abs(fp) > 1e-300, f / np.where(fp == 0, 1.0, fp), 0.0)
        t_new = np.clip(t - step, 0.0, 1.0)
        d_new = np.linalg.norm(_bernstein(t_new) @ curve.control - targets, axis=1)
        accept = d_new <= best_d
        t = np.where(accept, t_new, t)
        best_d = np.where(accept, d_new, best_d)
    return t


def polish_joint_reference(pts, ctrl, t, iters=200):
    """The `_polish_joint` that rebuilt its Jacobian and a validated curve
    at every step."""
    n = len(pts)
    free = np.arange(1, n - 1)
    lam = 1e-6
    curve = BezierCurve(ctrl)
    resid = (_bernstein(t) @ curve.control - pts).ravel()
    cost = resid @ resid
    for _ in range(iters):
        basis = _bernstein(t)
        deriv = bezier_derivative(curve, t)
        jac = np.zeros((3 * n, 12 + n - 2))
        for k in range(3):
            jac[k::3, 4 * k : 4 * k + 4] = basis
            jac[3 * free + k, 11 + free] = deriv[free, k]
        g = jac.T @ resid
        h = jac.T @ jac
        step = np.linalg.solve(h + lam * np.eye(12 + n - 2), -g)
        ctrl_new = curve.control + step[:12].reshape(3, 4).T
        t_new = t.copy()
        t_new[free] += step[12:]
        resid_new = (_bernstein(t_new) @ ctrl_new - pts).ravel()
        cost_new = resid_new @ resid_new
        if cost_new < cost:
            curve = BezierCurve(ctrl_new)
            t, resid = t_new, resid_new
            if cost - cost_new < 1e-30:
                break
            cost = cost_new
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e8:
                break
    else:
        return None
    if t.min() < 0.0 or t.max() > 1.0 or np.any(np.diff(t) < 0.0):
        return None
    return curve.control, t


def assert_fit_matches_reference(targets):
    """`fit_bezier` gives the control bytes and residual it gives with the
    reference projection and polish patched in."""
    curve, residual = fit_bezier(targets)
    with mock.patch.multiple(
        bezier, _project_params=project_params_reference, _polish_joint=polish_joint_reference
    ):
        want, want_residual = fit_bezier(targets)
    assert curve.control.tobytes() == want.control.tobytes()
    assert repr(residual) == repr(want_residual)


def drawn_targets(seed, n, kind):
    """n targets along a random arch-like curve: exact samples, samples
    with noise, or noisy samples with a quarter of them pushed off the
    curve in z, as gingiva clutter clusters are."""
    rng = np.random.default_rng(seed)
    pts = bezier_eval(arch_like_curve(seed), np.sort(rng.uniform(0, 1, n)))
    if kind != "exact":
        pts = pts + rng.normal(0, 0.01, pts.shape)
    if kind == "cluttered":
        off = rng.random(n) < 0.25
        pts[off, 2] -= rng.uniform(0.05, 0.3, int(off.sum()))
    return pts


def newton_steps_run(curve, targets, t0):
    """`_project_params`'s result and the number of Newton steps it ran.
    It evaluates `_basis_and_derivative` once at the seeded parameters and
    then once per step, at the step's proposed parameters: each call after
    the first is one step."""
    with mock.patch.object(
        bezier, "_basis_and_derivative", wraps=bezier._basis_and_derivative
    ) as spy:
        t = _project_params(curve, targets, t0)
    return t, spy.call_count - 1


class TestFitEquivalence:
    def test_pinned_fits_match_reference(self, benchmark_config, full_report, pinned_stages):
        """The 50 pinned fit inputs: the vote-cluster centres `full_report`
        pregrouped (`pregroup_votes`), in `order_centroids` order."""
        key = stage_keys(benchmark_config)["pregroup"]
        for i in range(benchmark_config.n_models):
            centers = pinned_stages[i][key]
            assert_fit_matches_reference(centers[order_centroids(centers)])

    @given(st.integers(0, 2**32 - 1), st.integers(4, 40),
           st.sampled_from(["exact", "noisy", "cluttered"]))
    @settings(max_examples=12, deadline=None)
    def test_drawn_fits_match_reference(self, seed, n, kind):
        assert_fit_matches_reference(drawn_targets(seed, n, kind))

    def test_projection_stops_at_fixed_point(self):
        c = arch_like_curve(0)
        targets = bezier_eval(c, np.linspace(0, 1, 8)) + np.random.default_rng(100).normal(
            0, 0.01, (8, 3)
        )
        t0 = np.linspace(0, 1, 8)
        t, steps = newton_steps_run(c, targets, t0)
        assert steps < 10
        assert t.tobytes() == project_params_reference(c, targets, t0).tobytes()

    def test_projection_stops_on_period_2_cycle(self):
        # from step 4 on the state alternates between two states, so the
        # search stops after 6 steps and must return the 10th step's state
        c = arch_like_curve(3)
        targets = bezier_eval(c, np.linspace(0, 1, 4)) + np.random.default_rng(103).normal(
            0, 0.1, (4, 3)
        )
        t0 = np.linspace(0, 1, 4)
        t, steps = newton_steps_run(c, targets, t0)
        assert steps < 10
        want = project_params_reference(c, targets, t0)
        assert want.tobytes() != project_params_reference(c, targets, t0, 9).tobytes()
        assert t.tobytes() == want.tobytes()

    def test_projection_runs_every_step(self):
        # the parameters move at every one of the 10 steps
        c = arch_like_curve(1)
        targets = bezier_eval(c, np.linspace(0, 1, 4)) + np.random.default_rng(108).normal(
            0, 0.1, (4, 3)
        )
        t0 = np.linspace(0, 1, 4)
        t, steps = newton_steps_run(c, targets, t0)
        assert steps == 10
        states = [project_params_reference(c, targets, t0, k).tobytes() for k in range(11)]
        assert len(set(states)) == 11
        assert t.tobytes() == states[10]
