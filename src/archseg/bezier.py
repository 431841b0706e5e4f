"""Cubic Bézier curves: evaluation, arc-length sampling, least-squares fitting."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import distances


@dataclass(frozen=True)
class BezierCurve:
    """Cubic Bézier curve defined by 4 control points, rows of a (4, 3) array."""

    control: np.ndarray

    def __post_init__(self):
        ctrl = np.asarray(self.control, dtype=np.float64)
        if ctrl.shape != (4, 3):
            raise ValueError(f"expected (4, 3) control points, got {ctrl.shape}")
        if not np.isfinite(ctrl).all():
            raise ValueError("control points must be finite")
        ctrl.setflags(write=False)
        object.__setattr__(self, "control", ctrl)


def _bernstein(t: np.ndarray) -> np.ndarray:
    """Cubic Bernstein basis, shape (len(t), 4)."""
    t = np.asarray(t, dtype=np.float64)
    s = 1.0 - t
    return _basis(s**3, 3 * s**2 * t, 3 * s * t**2, t**3)


def _basis(b0, b1, b2, b3) -> np.ndarray:
    """The four basis columns as one C-ordered (len, 4) array: what
    np.stack builds, without its per-call overhead, which outweighs the
    arithmetic at the sizes a fit uses."""
    basis = np.empty((len(b0), 4))
    basis[:, 0] = b0
    basis[:, 1] = b1
    basis[:, 2] = b2
    basis[:, 3] = b3
    return basis


def bezier_eval(curve: BezierCurve, t):
    """Evaluate the curve at parameter t in [0, 1] (scalar or array)."""
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError("t must lie in [0, 1]")
    out = _bernstein(np.atleast_1d(t_arr)) @ curve.control
    return out[0] if t_arr.ndim == 0 else out


def bezier_derivative(curve: BezierCurve, t) -> np.ndarray:
    """dB/dt at each t, as an (len(t), 3) array."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    s = 1.0 - t
    return _derivative(t, s, 3 * s**2, t**2, np.diff(curve.control, axis=0))


# The 257-point parameter grid that seeds every projection, and its basis.
_GRID = np.linspace(0.0, 1.0, 257)
_GRID_BASIS = _bernstein(_GRID)
# Newton steps per projection, Levenberg-Marquardt steps per joint polish,
# and the alternating fit's iteration cap and RMS-improvement tolerance.
NEWTON_STEPS = 10
POLISH_ITERS = 200
FIT_MAX_ITERS = 20
FIT_TOL = 1e-14
# Relative tolerance for targets to lie on one cubic and for a fit to pass
# through them (RMS distance over the targets' largest extent).
EXACT_TOL = 1e-9
ARC_SEGMENTS = 1024


def arc_length_params(curve: BezierCurve, fractions) -> np.ndarray:
    """Parameters t at which arc length reaches the given fractions of total,
    measured along the polyline through `ARC_SEGMENTS + 1` uniform-t samples."""
    t = np.linspace(0.0, 1.0, ARC_SEGMENTS + 1)
    pts = _bernstein(t) @ curve.control
    seg = distances(pts[1:], pts[:-1])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total <= 0:
        # degenerate curve (all control points coincide)
        return np.asarray(fractions, dtype=np.float64)
    return np.interp(np.asarray(fractions, dtype=np.float64) * total, cum, t)


def bezier_sample_uniform(curve: BezierCurve, n: int) -> np.ndarray:
    """n points uniformly spaced in arc length (not in parameter t)."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    ts = arc_length_params(curve, np.linspace(0.0, 1.0, n))
    return _bernstein(ts) @ curve.control


def _derivative(t, s, s2, t2, diffs: np.ndarray) -> np.ndarray:
    """dB/dt at t for control differences diffs = np.diff(control, axis=0),
    given s = 1 - t, s2 = 3 s^2 and t2 = t^2."""
    deriv = s2[:, None] * diffs[0] + (6 * (s * t))[:, None] * diffs[1]
    return deriv + (3 * t2)[:, None] * diffs[2]


def _basis_and_derivative(t: np.ndarray, diffs: np.ndarray):
    """(basis, derivative, s) at t for control differences diffs =
    np.diff(control, axis=0), s = 1 - t: the basis is bitwise `_bernstein(t)`,
    with 3 s^2 and t^2 computed once for both."""
    s = 1.0 - t
    s2 = 3 * s**2
    t2 = t**2
    basis = _basis(s**3, s2 * t, 3 * s * t2, t**3)
    return basis, _derivative(t, s, s2, t2, diffs), s


def _project_params(curve: BezierCurve, targets: np.ndarray, t0: np.ndarray) -> np.ndarray:
    """Per-target nearest-point parameters via safeguarded Newton on the
    foot-point equation f(t) = (B(t) - p) . B'(t) = 0, clamped to [0, 1].

    A Newton step is only accepted if it does not increase the distance, so
    the overall fit residual is monotone.  Each target is additionally seeded
    from the nearest point on a dense parameter grid, which lets the search
    escape local minima of the foot-point equation.  A step is a function of
    (t, distance) alone, so once a step returns the state of one or two
    steps before, the later steps repeat that cycle: the search stops there
    and returns the state the last step would end on.

    The basis and derivative are elementwise in t, so each step evaluates
    them once, at its proposed parameters, and the next step takes the rows
    of the accepted ones: bitwise what evaluating them at the kept t gives.
    The curve points stay one ``basis @ p`` product per step."""
    p = curve.control
    diffs = np.diff(p, axis=0)
    second = (p[2] - 2 * p[1] + p[0], p[3] - 2 * p[2] + p[1])
    t = t0.copy()
    best_d = distances(_bernstein(t) @ p, targets)
    d_grid = distances(targets[:, None, :], (_GRID_BASIS @ p)[None, :, :])
    gi = np.argmin(d_grid, axis=1)
    g_best = d_grid[np.arange(len(targets)), gi]
    take = g_best < best_d
    t = np.where(take, _GRID[gi], t)
    best_d = np.where(take, g_best, best_d)
    before = None  # the state one step before (t, best_d), as bytes
    basis, d1, s = _basis_and_derivative(t, diffs)
    for k in range(NEWTON_STEPS):
        d2 = 6 * s[:, None] * second[0] + 6 * t[:, None] * second[1]
        diff = basis @ p - targets
        f = np.einsum("ij,ij->i", diff, d1)
        fp = np.einsum("ij,ij->i", d1, d1) + np.einsum("ij,ij->i", diff, d2)
        step = np.where(np.abs(fp) > 1e-300, f / np.where(fp == 0, 1.0, fp), 0.0)
        t_new = np.clip(t - step, 0.0, 1.0)
        basis_new, d1_new, s_new = _basis_and_derivative(t_new, diffs)
        d_new = distances(basis_new @ p, targets)
        accept = d_new <= best_d
        t_next, d_next = np.where(accept, t_new, t), np.where(accept, d_new, best_d)
        state, after = (t.tobytes(), best_d.tobytes()), (t_next.tobytes(), d_next.tobytes())
        if after == state:
            break
        if after == before:
            # the states alternate from here; the last step ends on `after`
            # when an even number of steps is left after this one
            return t_next if (NEWTON_STEPS - k - 1) % 2 == 0 else t
        before = state
        t, best_d = t_next, d_next
        basis = np.where(accept[:, None], basis_new, basis)
        d1 = np.where(accept[:, None], d1_new, d1)
        s = np.where(accept, s_new, s)
    return t


def _polish_joint(pts: np.ndarray, ctrl: np.ndarray,
                  t: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Levenberg-Marquardt refinement over control points and parameters jointly.

    Alternating projection/solve converges only linearly; damped Gauss-Newton
    steps on the joint residual bring a fit to exact samples to machine
    precision.  The residual is invariant under affine reparametrization
    t -> a + b t; the first and last parameters are pinned, which fixes that
    gauge, so the step is well-posed and the parameters cannot drift along it.

    Returns the polished (control, parameters), or None if the solve did not
    converge within `POLISH_ITERS` steps or ended with parameters outside
    [0, 1] or out of target order: the joint model then chases off-curve
    targets instead of refining a fit to ordered samples.
    """
    n = len(pts)
    free = np.arange(1, n - 1)
    lam = 1e-6
    eye = np.eye(12 + n - 2)
    # the Jacobian's zero pattern is fixed; each step overwrites the rest
    jac = np.zeros((3 * n, len(eye)))
    resid = (_bernstein(t) @ ctrl - pts).ravel()
    cost = resid @ resid
    h = None  # a rejected step leaves ctrl and t, so J, g and h, as they were
    for _ in range(POLISH_ITERS):
        if h is None:
            basis, deriv, _ = _basis_and_derivative(t, np.diff(ctrl, axis=0))
            for k in range(3):
                jac[k::3, 4 * k : 4 * k + 4] = basis
                jac[3 * free + k, 11 + free] = deriv[free, k]
            g = jac.T @ resid
            h = jac.T @ jac
        step = np.linalg.solve(h + lam * eye, -g)
        ctrl_new = ctrl + step[:12].reshape(3, 4).T
        t_new = t.copy()
        t_new[free] += step[12:]
        resid_new = (_bernstein(t_new) @ ctrl_new - pts).ravel()
        cost_new = resid_new @ resid_new
        if cost_new < cost:
            ctrl, t, resid, h = ctrl_new, t_new, resid_new, None
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
    return ctrl, t


def _on_a_cubic(pts: np.ndarray) -> bool:
    """Whether the targets can lie on one cubic Bézier curve.  Every
    polynomial cubic lies on three independent quadrics (an affine image of
    t -> (t, t^2, t^3) on y = x^2, z = xy and xz = y^2; a planar one on its
    plane times x, y, z and 1), so the eighth singular value of the targets'
    ten quadric monomials vanishes.  Noisy targets fail this at once."""
    q = pts - pts.mean(axis=0)
    x, y, z = (q / np.abs(q).max()).T
    quadric = np.column_stack([x * x, y * y, z * z, x * y, x * z, y * z, x, y, z, np.ones_like(x)])
    sv = np.linalg.svd(quadric, compute_uv=False)
    return len(sv) < 8 or sv[7] <= EXACT_TOL * sv[0]


def _least_squares_fit(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Control points and per-target parameters, all in [0, 1], before the
    affine reparametrization gauge is fixed.  From chord-length parameters
    even exact samples of a cubic can end in a folded basin that the polish
    cannot leave, so a fit that misses targets on a cubic is polished again
    from uniform parameters; that fit is kept only if it passes through them."""
    chord = distances(pts[1:], pts[:-1])
    cum = np.concatenate([[0.0], np.cumsum(chord)])
    if cum[-1] <= 0:
        raise ValueError("targets are fully coincident")
    t = cum / cum[-1]

    prev_residual = np.inf
    for _ in range(FIT_MAX_ITERS):
        basis = _bernstein(t)
        gram = basis.T @ basis
        rhs = basis.T @ pts
        try:
            ctrl = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            warnings.warn("singular normal system in fit_bezier; ridge-regularizing")
            ctrl = np.linalg.solve(gram + 1e-9 * np.eye(4), rhs)
        t = _project_params(BezierCurve(ctrl), pts, t)
        residual = _rms(ctrl, t, pts)
        if prev_residual - residual < FIT_TOL:
            break
        prev_residual = residual
    polished = _polish_joint(pts, ctrl, t)
    if polished is not None:
        ctrl, t = polished
    tol = EXACT_TOL * np.ptp(pts, axis=0).max()
    if _rms(ctrl, t, pts) > tol and _on_a_cubic(pts):
        t0 = np.linspace(0.0, 1.0, len(pts))
        restart = _polish_joint(pts, np.linalg.lstsq(_bernstein(t0), pts)[0], t0)
        if restart is not None and _rms(*restart, pts) <= tol:
            return restart
    return ctrl, t


def _rms(ctrl: np.ndarray, t: np.ndarray, pts: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum((_bernstein(t) @ ctrl - pts) ** 2, axis=1))))


def fit_bezier(targets) -> tuple[BezierCurve, float]:
    """Least-squares cubic Bézier fit by alternating projection and solve.

    Parameters are initialized by chord length over the targets in their
    given order, then refined by nearest-point projection onto [0, 1]; with
    parameters fixed the 4 control points solve a linear least-squares
    system.  A joint Levenberg-Marquardt polish then finishes the
    convergence quadratically; it is kept only if it converges with the
    parameters still in [0, 1] and in target order, and otherwise the
    alternating fit stands, unless a restart fits targets on a cubic that
    it misses.  The parameters never leave [0, 1], so the
    cubic is never extrapolated and small changes of the targets are not
    amplified.
    Returns the final curve, on which the first and last targets sit at
    parameters 0 and 1, and the root-mean-square point-to-curve distance.
    """
    pts = np.asarray(targets, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) targets, got {pts.shape}")
    if len(pts) < 4:
        raise ValueError("need at least 4 target points for a cubic fit")
    ctrl, t = _least_squares_fit(pts)
    # The fit is only determined up to affine reparametrization; canonicalize
    # so the first and last targets sit at the parameter endpoints.  Every
    # parameter lies in [0, 1], so this restricts the curve to a segment of
    # itself and never extrapolates it; a target whose parameter falls
    # outside the end targets' is projected onto the nearer end.
    curve = BezierCurve(ctrl)
    if abs(t[-1] - t[0]) > 1e-12:
        curve = reparametrize(curve, float(t[0]), float(t[-1]))
        t = (t - t[0]) / (t[-1] - t[0])
    t = _project_params(curve, pts, np.clip(t, 0.0, 1.0))
    return curve, _rms(curve.control, t, pts)


def _blossom(control: np.ndarray, u: float, v: float, w: float) -> np.ndarray:
    """Polar form of the cubic: generalized De Casteljau with mixed arguments."""
    a = control[:3] * (1 - u) + control[1:] * u
    b = a[:2] * (1 - v) + a[1:] * v
    return b[0] * (1 - w) + b[1] * w


def reparametrize(curve: BezierCurve, u0: float, u1: float) -> BezierCurve:
    """Cubic Bézier tracing t -> B(u0 + t * (u1 - u0)), as new control points."""
    p = curve.control
    ctrl = np.stack(
        [
            _blossom(p, u0, u0, u0),
            _blossom(p, u0, u0, u1),
            _blossom(p, u0, u1, u1),
            _blossom(p, u1, u1, u1),
        ]
    )
    return BezierCurve(ctrl)
