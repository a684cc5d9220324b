"""Swarm fitting of pose parameters to target joint locations.

The optimizer minimizes the joint loss over the pose box. A fit runs a
sequence of particle-swarm phases under a shared iteration budget: each
phase draws a fresh swarm uniformly inside the bounds, runs the standard
global-best update

    v <- INERTIA*v + COGNITIVE*r1*(pbest - x) + SOCIAL*r2*(gbest - x)

with fresh uniform r1, r2 per particle and dimension, clamps positions to
the DOF bounds each step (zeroing the velocity component that hit a bound),
and hands its incumbent to a damped Gauss-Newton polish that descends the
joint loss with the analytic kinematics Jacobian. Restart phases recover
from bad swarm collapses (a global-rotation basin missed by one phase is
usually found by another); the polish finishes inside a basin, which the
swarm alone does slowly on this badly conditioned objective. A polish
takes at most ``POLISH_STEPS`` steps. The target may
be a joint set no pose reaches, such as a regressor's prediction; the
residual then measures how far it sits from achievable geometry.

Each phase gets ``PHASE_ITERATIONS`` of the budget (the last one what is
left). Frames are fitted together: targets come in as one (F, n_eval, 3)
array and the outcome goes out as one ``FitResult`` of per-frame arrays.
The swarms of all frames live in one (F, S, D) array, so a swarm iteration
is one kinematics call over every frame still running, and a polish step
one stacked solve. Each frame stops on its own: its swarm at ``TOL_MM``,
its polish when no damping gives descent, and its fit once its swarm's
best residual or its best result met ``TOL_MM``. Frames go through in
chunks of at most ``_CHUNK_POSES`` particles.

A fit's recipe is the module constants: ``SWARM_SIZE`` particles per
frame, ``PHASE_ITERATIONS`` and ``POLISH_STEPS``. Only the iteration budget
and the seed are the caller's.

Every frame of a chunk draws from one generator seeded with ``seed``. A
frame stops drawing only when its fit is done, and then never draws
again, so every frame still running has drawn what a fit of that frame
alone would have: one draw serves them all. Kinematics returns every batch
in the same layout, the per-frame products are computed pose by pose, and
ties in best-selection resolve to the lowest particle index. A frame's
result is therefore reproducible bit for bit given (seed, iterations,
target), and does not depend on the other frames in the call or on the
chunking.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bench import joint_distances
from .kinematics import fk_jacobian_batch, forward_kinematics_batch
from .skeleton import Skeleton, clamp_pose

# Most particles fitted together: frames go through in chunks of
# _CHUNK_POSES // SWARM_SIZE, which keeps peak memory flat in the number of
# frames. Results do not depend on it.
_CHUNK_POSES = 4096

# weights of the global-best velocity update in the module docstring
INERTIA = 0.72
COGNITIVE = 1.49
SOCIAL = 1.49
SWARM_SIZE = 64           # particles per frame in each swarm phase
TOL_MM = 0.1              # a frame stops once its residual reaches this
PHASE_ITERATIONS = 75     # budget slice per restart phase
POLISH_STEPS = 50         # Gauss-Newton steps after each swarm phase
MAX_VELOCITY_FRAC = 0.5   # velocity clamp as fraction of range


@dataclass
class FitResult:
    """Row f of each array is frame f's outcome."""
    theta: np.ndarray            # (F, D)
    residual_mm: np.ndarray      # (F,) mean per-joint Euclidean error at theta
    iterations_used: np.ndarray  # (F,) int, swarm iterations actually consumed


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
        return (0.5 * np.einsum("nkc,nkc->n", resid, resid),
                joint_distances(resid).mean(axis=1))

    def residual_and_jacobian(self, thetas, frames):
        pos, jac = fk_jacobian_batch(self.skel, thetas, joint_indices=self.ev)
        return (pos - self.targets[frames]).reshape(len(frames), -1), jac


def _swarm_phase(obj, rng, frames, budget):
    """One swarm run for each frame index in `frames`, all drawing from `rng`.

    Every frame gets the same draws: its start swarm is one (S, D) uniform
    draw, and each iteration's r1 and r2 one (2, S, D) draw, the values a
    fit of that frame alone takes. A frame stops once its best residual
    meets TOL_MM. V and X are updated in place, term by term in the order
    of the module docstring's formula, so they have the plain expression's
    bits.

    Returns (theta (A, D), loss (A,), residual (A,), iterations used (A,)).
    """
    skel = obj.skel
    lower, upper = skel.dof_lower, skel.dof_upper
    S, D = SWARM_SIZE, skel.n_dofs

    X = np.repeat(rng.uniform(lower, upper, size=(1, S, D)), len(frames), axis=0)
    V = np.zeros_like(X)
    vmax = MAX_VELOCITY_FRAC * (upper - lower)

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
        r1, r2 = rng.random((2, S, D))
        V *= INERTIA
        V += COGNITIVE * r1 * (pbest - X)
        V += SOCIAL * r2 * (gbest[live, None] - X)
        np.clip(V, -vmax, vmax, out=V)
        X += V
        hit = (X < lower) | (X > upper)
        np.clip(X, lower, upper, out=X)
        V[hit] = 0.0

        fit, res = obj.batch(X.reshape(-1, D), np.repeat(frames[live], S))
        fit, res = fit.reshape(-1, S), res.reshape(-1, S)
        better = fit < pbest_fit
        np.copyto(pbest, X, where=better[..., None])
        np.copyto(pbest_fit, fit, where=better)
        np.copyto(pbest_res, res, where=better)
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


def _fit_chunk(skel, targets, iterations, seed):
    """Fit every frame of `targets` ((F, n_eval, 3)) with the same budget
    and seed; returns (theta (F, D), residual (F,), iterations used (F,))."""
    F, D = len(targets), skel.n_dofs
    obj = _Objective(skel, targets)
    rng = np.random.default_rng(seed)
    everyone = np.arange(F)

    best_theta = np.zeros((F, D))
    best_fit = np.full(F, np.inf)
    best_res = np.full(F, np.inf)
    done = np.zeros(F, dtype=bool)
    used_total = np.zeros(F, dtype=int)

    budget = iterations
    while budget > 0:
        frames = everyone[~done]
        if frames.size == 0:
            break
        phase_budget = min(PHASE_ITERATIONS, budget)
        theta, fit, res, used = _swarm_phase(obj, rng, frames, phase_budget)
        budget -= phase_budget
        used_total[frames] += used
        # done even if the polish (which takes a lower loss, not a lower
        # residual) lifts it back above TOL_MM: a frame that stopped inside
        # the swarm must never draw again, so the others share one stream
        done[frames] = res <= TOL_MM
        theta, fit, res = _gauss_newton_polish(obj, frames, theta, POLISH_STEPS)
        better = fit < best_fit[frames]
        won = frames[better]
        best_theta[won] = theta[better]
        best_fit[won] = fit[better]
        best_res[won] = res[better]
        done |= best_res <= TOL_MM

    return best_theta, best_res, used_total


def fit_batch(skel: Skeleton, targets, iterations: int, seed: int) -> FitResult:
    """Fit each frame's pose to its target joints.

    `targets` is (F, n_eval, 3) mm, one frame's eval joints per row. A
    target may be a joint set no pose reaches, such as a regressor's
    prediction; the residual then measures how far it is from achievable
    geometry. `iterations` is the swarm budget across all phases; each
    phase runs at most PHASE_ITERATIONS of it. Returns one FitResult whose
    row f is frame f's outcome. A frame's result never depends on the other
    frames in the call: it equals a fit of that frame alone, bit for bit. Every frame reuses the same
    seed, so identical targets produce identical results.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    targets = np.asarray(targets, dtype=float)
    n_eval = len(skel.eval_subset)
    if targets.shape[:1] == (0,):
        raise ValueError("fit_batch needs at least one target frame")
    if targets.shape[1:] != (n_eval, 3):
        raise ValueError(f"targets shape {targets.shape} does not match the eval "
                         f"subset: (frames, {n_eval}, 3)")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets contain non-finite values")
    per_chunk = max(1, _CHUNK_POSES // SWARM_SIZE)
    chunks = [_fit_chunk(skel, targets[start:start + per_chunk], iterations, seed)
              for start in range(0, len(targets), per_chunk)]
    theta, residual, used = (np.concatenate(part) for part in zip(*chunks))
    return FitResult(theta, residual, used)


def residual_stats(result: FitResult) -> tuple:
    """(mean, population variance) of a fit's per-frame residuals."""
    return float(result.residual_mm.mean()), float(result.residual_mm.var())
