"""Swarm fitting of pose parameters to target joint locations.

The optimizer minimizes the joint loss over the pose box. A fit runs a
sequence of particle-swarm phases under a shared iteration budget: each
phase draws a fresh swarm (uniformly inside the bounds, or around a given
center pose), runs the standard global-best update

    v <- INERTIA*v + COGNITIVE*r1*(pbest - x) + SOCIAL*r2*(gbest - x)

with fresh uniform r1, r2 per particle and dimension, clamps positions to
the DOF bounds each step (zeroing the velocity component that hit a bound),
and hands its incumbent to a damped Gauss-Newton polish that descends the
joint loss with the analytic kinematics Jacobian. Restart phases recover
from bad swarm collapses (a global-rotation basin missed by one phase is
usually found by another); the polish finishes inside a basin, which the
swarm alone does slowly on this badly conditioned objective. Set
``polish_steps=0`` for the pure derivative-free behaviour. The target may
be a joint set no pose reaches, such as a regressor's prediction; the
residual then measures how far it sits from achievable geometry.

Frames are fitted together. The swarms of all frames live in one
(F, S, D) array, so a swarm iteration is one kinematics call over every
frame still running, and a polish step one stacked solve. Each frame stops
on its own: its swarm at ``TOL_MM``, its later phases once it converged,
its polish when no damping gives descent. Frames go through in chunks of
at most ``_CHUNK_POSES`` particles.

Each frame has its own generator seeded with ``config.seed`` and draws in
the order a fit of that frame alone would. Kinematics returns every batch
in the same layout, the per-frame products are computed pose by pose, and
ties in best-selection resolve to the lowest particle index. A frame's
result is therefore reproducible bit for bit given (seed, config, target),
and does not depend on the other frames in the call or on the chunking.
``fit_batch(warm_start=True)`` seeds each frame from the previous frame's
result, an inherently sequential chain, so it fits one frame at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kinematics import fk_jacobian_batch, forward_kinematics_batch
from .skeleton import Skeleton, clamp_pose

# Most particles fitted together: frames go through in chunks of
# _CHUNK_POSES // swarm_size, which keeps peak memory flat in the number of
# frames. Results do not depend on it.
_CHUNK_POSES = 4096

# weights of the global-best velocity update in the module docstring
INERTIA = 0.72
COGNITIVE = 1.49
SOCIAL = 1.49
INIT_SIGMA_FRAC = 0.10    # Gaussian sigma around a center, fraction of range
TOL_MM = 0.1              # a frame stops once its residual reaches this
MAX_VELOCITY_FRAC = 0.5   # velocity clamp as fraction of range


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int = 64
    iterations: int = 300              # total swarm iterations across phases
    seed: int = 0
    init_center: tuple | None = None   # pose to seed the first phase around
    phase_iterations: int = 75         # budget slice per restart phase
    polish_steps: int = 50             # Gauss-Newton steps per phase; 0 = off

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.phase_iterations < 1:
            raise ValueError("phase_iterations must be >= 1")


@dataclass
class FitResult:
    theta: np.ndarray
    residual_mm: float          # mean per-joint Euclidean error at theta
    iterations_used: int        # swarm iterations actually consumed
    converged: bool             # residual_mm <= TOL_MM


def _target_eval(skel, target):
    target = np.asarray(target, dtype=float)
    n_eval = len(skel.eval_subset)
    if target.shape == (3 * n_eval,):
        target = target.reshape(n_eval, 3)
    if target.shape != (n_eval, 3):
        raise ValueError(
            f"target shape {target.shape} does not match the eval subset "
            f"({n_eval} joints)"
        )
    if not np.all(np.isfinite(target)):
        raise ValueError("target contains non-finite values")
    return target


class _Objective:
    """Joint loss over the eval subset; row i of a batch of poses is scored
    against the target of frame ``frames[i]``."""

    def __init__(self, skel, targets):
        self.skel = skel
        self.ev = list(skel.eval_subset)
        self.targets = targets  # (F, n_eval, 3)

    def batch(self, thetas, frames):
        """(loss, mean per-joint distance) per pose."""
        joints = forward_kinematics_batch(self.skel, thetas, joint_indices=self.ev)
        resid = joints - self.targets[frames]
        sq = resid * resid
        return (0.5 * np.einsum("nkc,nkc->n", resid, resid),
                np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2]).mean(axis=1))

    def residual_and_jacobian(self, thetas, frames):
        pos, jac = fk_jacobian_batch(self.skel, thetas, joint_indices=self.ev)
        return (pos - self.targets[frames]).reshape(len(frames), -1), jac


def _swarm_phase(obj, rngs, frames, config, budget, center):
    """One swarm run for each frame index in `frames`.

    Returns (theta (A, D), loss (A,), residual (A,), iterations used (A,)).
    """
    skel = obj.skel
    lower, upper = skel.dof_lower, skel.dof_upper
    span = upper - lower
    S, D = config.swarm_size, skel.n_dofs

    if center is None:
        X = np.stack([rngs[f].uniform(lower, upper, size=(S, D))
                      for f in frames])
    else:
        X = np.stack([center + rngs[f].normal(0.0, INIT_SIGMA_FRAC,
                                              size=(S, D)) * span
                      for f in frames])
        X = np.clip(X, lower, upper)
        X[:, 0] = center  # keep the center itself in every swarm
    V = np.zeros_like(X)
    vmax = MAX_VELOCITY_FRAC * span

    fit, res = obj.batch(X.reshape(-1, D), np.repeat(frames, S))
    pbest = X.copy()
    pbest_fit = fit.reshape(-1, S)
    pbest_res = res.reshape(-1, S)
    live = np.arange(len(frames))  # positions in `frames` still iterating
    g = np.argmin(pbest_fit, axis=1)
    gbest = pbest[live, g]
    gbest_fit = pbest_fit[live, g]
    gbest_res = pbest_res[live, g]

    used = np.zeros(len(frames), dtype=int)
    for _ in range(budget):
        running = gbest_res[live] > TOL_MM
        if not running.all():
            live = live[running]
            if live.size == 0:
                break
            X, V, pbest = X[running], V[running], pbest[running]
            pbest_fit, pbest_res = pbest_fit[running], pbest_res[running]
        # r1 then r2 from each frame's own stream, as two (S, D) draws would
        r = np.stack([rngs[frames[i]].uniform(size=(2, S, D)) for i in live])
        V = (INERTIA * V
             + COGNITIVE * r[:, 0] * (pbest - X)
             + SOCIAL * r[:, 1] * (gbest[live, None] - X))
        np.clip(V, -vmax, vmax, out=V)
        X = X + V
        out = (X < lower) | (X > upper)
        X = np.clip(X, lower, upper)
        V[out] = 0.0

        fit, res = obj.batch(X.reshape(-1, D), np.repeat(frames[live], S))
        fit, res = fit.reshape(-1, S), res.reshape(-1, S)
        better = fit < pbest_fit
        pbest[better] = X[better]
        pbest_fit[better] = fit[better]
        pbest_res[better] = res[better]
        rows = np.arange(live.size)
        g = np.argmin(pbest_fit, axis=1)
        improved = pbest_fit[rows, g] < gbest_fit[live]
        rows, g = rows[improved], g[improved]
        won = live[improved]
        gbest[won] = pbest[rows, g]
        gbest_fit[won] = pbest_fit[rows, g]
        gbest_res[won] = pbest_res[rows, g]
        used[live] += 1
    return gbest, gbest_fit, gbest_res, used


def _solve(lhs, rhs):
    """Stacked solve; returns (solutions, solved mask).

    A singular system makes numpy fail the whole stack, so that step falls
    back to per-frame solves and only the singular frames stay unsolved.
    """
    try:
        return np.linalg.solve(lhs, rhs), np.ones(len(lhs), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.zeros_like(rhs)
        solved = np.ones(len(lhs), dtype=bool)
        for i in range(len(lhs)):
            try:
                out[i] = np.linalg.solve(lhs[i], rhs[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return out, solved


def _gauss_newton_polish(obj, frames, theta, steps):
    """Damped Gauss-Newton descent on the joint loss, clamped to bounds.

    theta is (A, D), one start per frame index in `frames`. Each frame keeps
    its own damping, and stops once its residual is zero or ten damping
    increases in one step give no descent.
    """
    skel = obj.skel
    theta = theta.copy()
    value, residual = obj.batch(theta, frames)
    damping = np.full(len(frames), 1e-3)
    live = np.arange(len(frames))
    for _ in range(steps):
        live = live[residual[live] != 0.0]
        if live.size == 0:
            break
        r, jac = obj.residual_and_jacobian(theta[live], frames[live])
        # stacked matmul reproduces the per-frame 2-D products bit for
        # bit; einsum does not
        jac_t = jac.transpose(0, 2, 1)
        hess = jac_t @ jac
        neg_grad = -(jac_t @ r[:, :, None])
        diag = np.zeros_like(hess)
        d = np.arange(hess.shape[1])
        diag[:, d, d] = hess[:, d, d] + 1e-12
        waiting = np.ones(live.size, dtype=bool)
        for _ in range(10):
            pending = np.flatnonzero(waiting)
            if pending.size == 0:
                break
            step, solved = _solve(
                hess[pending] + damping[live[pending], None, None] * diag[pending],
                neg_grad[pending])
            damping[live[pending[~solved]]] *= 10.0
            tried = pending[solved]
            if tried.size == 0:
                continue
            idx = live[tried]
            candidate = clamp_pose(skel, theta[idx] + step[solved, :, 0])
            cand_value, cand_residual = obj.batch(candidate, frames[idx])
            better = cand_value < value[idx]
            won = idx[better]
            theta[won] = candidate[better]
            value[won] = cand_value[better]
            residual[won] = cand_residual[better]
            damping[won] = np.maximum(damping[won] * 0.3, 1e-10)
            damping[idx[~better]] *= 10.0
            waiting[tried[better]] = False
        live = live[~waiting]
    return theta, value, residual


def _fit_chunk(skel, targets, config):
    """Fit every frame of `targets` ((F, n_eval, 3)) with the same config."""
    F, D = len(targets), skel.n_dofs
    obj = _Objective(skel, targets)
    rngs = [np.random.default_rng(config.seed) for _ in range(F)]
    everyone = np.arange(F)

    best_theta = np.zeros((F, D))
    best_fit = np.full(F, np.inf)
    best_res = np.full(F, np.inf)
    used_total = np.zeros(F, dtype=int)

    center = None
    if config.init_center is not None:
        center = clamp_pose(skel, np.asarray(config.init_center, dtype=float))
        # a warm-start center is an incumbent: descend from it before
        # spending any swarm iterations
        start = np.tile(center, (F, 1))
        if config.polish_steps > 0:
            best_theta, best_fit, best_res = _gauss_newton_polish(
                obj, everyone, start, config.polish_steps)
        else:
            best_theta = start
            best_fit, best_res = obj.batch(start, everyone)

    budget = config.iterations
    while budget > 0:
        # a converged frame skips the remaining phases
        frames = everyone[best_res > TOL_MM]
        if frames.size == 0:
            break
        phase_budget = min(config.phase_iterations, budget)
        theta, fit, res, used = _swarm_phase(obj, rngs, frames, config,
                                             phase_budget, center)
        center = None  # only the first phase is drawn around the center
        budget -= phase_budget
        used_total[frames] += used
        if config.polish_steps > 0:
            theta, fit, res = _gauss_newton_polish(obj, frames, theta,
                                                   config.polish_steps)
        better = fit < best_fit[frames]
        won = frames[better]
        best_theta[won] = theta[better]
        best_fit[won] = fit[better]
        best_res[won] = res[better]

    return [FitResult(theta=best_theta[f],
                      residual_mm=float(best_res[f]),
                      iterations_used=int(used_total[f]),
                      converged=bool(best_res[f] <= TOL_MM))
            for f in range(F)]


def _fit_frames(skel, targets, config):
    """Fit (F, n_eval, 3) targets in chunks of at most _CHUNK_POSES particles."""
    per_chunk = max(1, _CHUNK_POSES // config.swarm_size)
    results = []
    for start in range(0, len(targets), per_chunk):
        results += _fit_chunk(skel, targets[start:start + per_chunk], config)
    return results


def fit_batch(skel: Skeleton, targets, config: PsoConfig | None = None,
              warm_start: bool = False) -> list:
    """Fit a sequence of frames; optionally seed each fit from the previous.

    Each target is one frame's eval joints, (n_eval, 3) mm or flattened. It
    may be a joint set no pose reaches, such as a regressor's prediction;
    the residual then measures how far it is from achievable geometry.
    Without `warm_start` a frame's result does not depend on the other
    frames in the call: it equals a fit of that frame alone, bit for bit.
    Every frame reuses the same config seed, so identical targets produce
    identical results.
    """
    config = config or PsoConfig()
    targets = [_target_eval(skel, t) for t in targets]
    if not targets:
        raise ValueError("fit_batch needs at least one target frame")
    if not warm_start:
        return _fit_frames(skel, np.stack(targets), config)
    results = []
    for target in targets:
        frame_config = config
        if results:
            frame_config = replace(config, init_center=tuple(results[-1].theta))
        results += _fit_frames(skel, target[None], frame_config)
    return results


def residual_stats(results) -> tuple:
    """(mean, population variance) of residual_mm across fit results."""
    residuals = np.array([r.residual_mm for r in results], dtype=float)
    return float(residuals.mean()), float(residuals.var())
