"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: full 4x4 homogeneous matrices,
straight-line per-joint chain products recomputed from the root for every
joint, and no sharing with the library's fast path beyond the documented
frame conventions.

`jacobian_gradient` is the joint-loss gradient formed from the whole
Jacobian, the reference for the reverse-mode gradient of `kinedeep.loss`.

`sequential_fit_pose` / `sequential_fit_batch` are the original one-frame-at-
a-time swarm + Gauss-Newton fitter, kept verbatim as the reference that the
frame-batched `kinedeep.ik_pso` must match bit for bit.

`mlp_forward_acts` and `mlp_backprop` are the MLP forward and backward
passes as they were when the forward pass kept every activation and every
hidden pre-activation, and took the ReLU mask from the pre-activations;
kept verbatim as the reference that `kinedeep.regressor`'s one layer loop
must match bit for bit.

`per_stage_train` is the staged learning-rate schedule as six calls of
`flat_train`, one per stage, the way the command line ran it before
`reg.train` ran the stages itself; `flat_train` is the one-stage
`reg.train` of that time, kept verbatim. The staged `reg.train` must match
it bit for bit.

`one_pass_make_dataset` is `bench.make_dataset` as it was when forward
kinematics ran over all n poses in one call, kept verbatim (less its
argument checks) as the reference that the block-wise FK must match bit for
bit.
"""
import math
from dataclasses import replace

import numpy as np

from kinedeep import bench, ik_pso
from kinedeep import regressor as reg
from kinedeep.kinematics import fk_jacobian_batch, forward_kinematics_batch
from kinedeep.skeleton import clamp_pose


def mat_rot(axis: int, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(4)
    if axis == 0:
        m[1:3, 1:3] = [[c, -s], [s, c]]
    elif axis == 1:
        m[0, 0], m[0, 2], m[2, 0], m[2, 2] = c, s, -s, c
    else:
        m[0:2, 0:2] = [[c, -s], [s, c]]
    return m


def mat_drot(axis: int, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    m = np.zeros((4, 4))
    if axis == 0:
        m[1:3, 1:3] = [[-s, -c], [c, -s]]
    elif axis == 1:
        m[0, 0], m[0, 2], m[2, 0], m[2, 2] = -s, c, -c, -s
    else:
        m[0:2, 0:2] = [[-s, -c], [c, -s]]
    return m


def mat_trans(axis: int, length: float) -> np.ndarray:
    m = np.eye(4)
    m[axis, 3] = length
    return m


def mat_dtrans(axis: int) -> np.ndarray:
    m = np.zeros((4, 4))
    m[axis, 3] = 1.0
    return m


def _rest_mat(rest_offset_deg) -> np.ndarray:
    rx, ry, rz = (math.radians(v) for v in rest_offset_deg)
    return mat_rot(0, rx) @ mat_rot(1, ry) @ mat_rot(2, rz)


_AXIS = {"X": 0, "Y": 1, "Z": 2}


def chain_matrices(skel, theta, joint: int, replace_dof=None):
    """All elementary 4x4s from the root to `joint`, in product order.

    If `replace_dof` is a flat DOF index, that DOF's matrix is swapped for
    its elementwise derivative (zero matrix contribution if the DOF is not
    on this joint's chain).
    """
    path = []
    u = joint
    while u is not None:
        path.append(u)
        u = skel.joints[u].parent
    path.reverse()

    dof_base = np.cumsum([0] + [len(j.dofs) for j in skel.joints])
    mats = []
    found = replace_dof is None
    for u in path:
        spec = skel.joints[u]
        if any(v != 0 for v in spec.rest_offset_deg):
            mats.append(_rest_mat(spec.rest_offset_deg))
        if spec.parent is not None:
            mats.append(mat_trans(0, spec.bone_length))
        for k, dof in enumerate(spec.dofs):
            d = dof_base[u] + k
            ax = _AXIS[dof.axis]
            val = theta[d]
            if d == replace_dof:
                found = True
                mats.append(mat_drot(ax, val) if dof.is_rotation else mat_dtrans(ax))
            elif dof.is_rotation:
                mats.append(mat_rot(ax, val))
            else:
                mats.append(mat_trans(ax, val))
    return mats, found


def naive_forward_kinematics(skel, theta) -> np.ndarray:
    """Per-joint full chain product; O(J * depth) matrix multiplies."""
    theta = np.asarray(theta, dtype=float)
    origin = np.array([0.0, 0.0, 0.0, 1.0])
    out = np.empty((skel.n_joints, 3))
    for u in range(skel.n_joints):
        mats, _ = chain_matrices(skel, theta, u)
        m = np.eye(4)
        for e in mats:
            m = m @ e
        out[u] = (m @ origin)[:3]
    return out


def naive_jacobian(skel, theta) -> np.ndarray:
    """(3J, D) Jacobian by the replace-one-matrix-with-its-derivative rule."""
    theta = np.asarray(theta, dtype=float)
    origin = np.array([0.0, 0.0, 0.0, 1.0])
    J, D = skel.n_joints, skel.n_dofs
    jac = np.zeros((3 * J, D))
    for u in range(J):
        for d in range(D):
            mats, on_chain = chain_matrices(skel, theta, u, replace_dof=d)
            if not on_chain:
                continue
            m = np.eye(4)
            for e in mats:
                m = m @ e
            jac[3 * u:3 * u + 3, d] = (m @ origin)[:3]
    return jac


def jacobian_gradient(skel, thetas, targets, joint_indices) -> np.ndarray:
    """Joint-loss gradient (N, D) through the full Jacobian: J^T residual."""
    pos, jac = fk_jacobian_batch(skel, thetas, joint_indices=joint_indices)
    resid = pos.reshape(len(pos), -1) - np.reshape(targets, (len(pos), -1))
    return np.einsum("nkd,nk->nd", jac, resid)


def fd_jacobian(f, x, h=1e-5) -> np.ndarray:
    """Central finite differences of a vector function, columns per input."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = h
        cols.append((f(x + dx) - f(x - dx)) / (2 * h))
    return np.stack([c.ravel() for c in cols], axis=1)


def rel_err(a, b) -> float:
    """max |a - b| / (1 + |b|), the gradient-check metric."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


class _SequentialObjective:
    """Joint loss over the eval subset for one target frame."""

    def __init__(self, skel, target):
        self.skel = skel
        self.ev = list(skel.eval_subset)
        self.target = target
        self.flat = target.reshape(-1)

    def batch(self, thetas):
        joints = forward_kinematics_batch(self.skel, thetas, joint_indices=self.ev)
        resid = joints - self.target[None, :, :]
        loss = 0.5 * np.einsum("nkc,nkc->n", resid, resid)
        per_joint = np.linalg.norm(resid, axis=2).mean(axis=1)
        return loss, per_joint

    def residual_and_jacobian(self, theta):
        pos, jac = fk_jacobian_batch(self.skel, theta[None], joint_indices=self.ev)
        return pos[0].reshape(-1) - self.flat, jac[0]

    def value(self, theta):
        loss, per_joint = self.batch(theta[None])
        return float(loss[0]), float(per_joint[0])


def _sequential_swarm_phase(obj, rng, config, budget, center):
    """One swarm run; returns (theta, loss, residual, iterations used)."""
    skel = obj.skel
    lower, upper = skel.dof_lower, skel.dof_upper
    span = upper - lower
    S, D = config.swarm_size, skel.n_dofs

    if center is None:
        X = rng.uniform(lower, upper, size=(S, D))
    else:
        X = center + rng.normal(0.0, ik_pso.INIT_SIGMA_FRAC, size=(S, D)) * span
        X = np.clip(X, lower, upper)
        X[0] = center  # keep the center itself in the swarm
    V = np.zeros((S, D))
    vmax = ik_pso.MAX_VELOCITY_FRAC * span

    fit, per_joint = obj.batch(X)
    pbest = X.copy()
    pbest_fit = fit.copy()
    g = int(np.argmin(pbest_fit))
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])
    gbest_res = float(per_joint[g])

    used = 0
    for _ in range(budget):
        if gbest_res <= ik_pso.TOL_MM:
            break
        r1 = rng.uniform(size=(S, D))
        r2 = rng.uniform(size=(S, D))
        V = (ik_pso.INERTIA * V
             + ik_pso.COGNITIVE * r1 * (pbest - X)
             + ik_pso.SOCIAL * r2 * (gbest - X))
        np.clip(V, -vmax, vmax, out=V)
        X = X + V
        out_low = X < lower
        out_high = X > upper
        if out_low.any() or out_high.any():
            X = np.clip(X, lower, upper)
            V[out_low | out_high] = 0.0

        fit, per_joint = obj.batch(X)
        better = fit < pbest_fit
        pbest[better] = X[better]
        pbest_fit[better] = fit[better]
        g = int(np.argmin(pbest_fit))
        if pbest_fit[g] < gbest_fit:
            gbest = pbest[g].copy()
            gbest_fit = float(pbest_fit[g])
            gbest_res = obj.value(gbest)[1]
        used += 1
    return gbest, gbest_fit, gbest_res, used


def _sequential_polish(obj, theta, steps):
    """Damped Gauss-Newton descent on the joint loss, clamped to bounds."""
    skel = obj.skel
    theta = theta.copy()
    value, residual = obj.value(theta)
    damping = 1e-3
    for _ in range(steps):
        if residual == 0.0:
            break
        r, jac = obj.residual_and_jacobian(theta)
        hess = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(np.diag(hess) + 1e-12)
        accepted = False
        for _ in range(10):
            try:
                step = np.linalg.solve(hess + damping * diag, -grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            candidate = clamp_pose(skel, theta + step)
            cand_value, cand_residual = obj.value(candidate)
            if cand_value < value:
                theta, value, residual = candidate, cand_value, cand_residual
                damping = max(damping * 0.3, 1e-10)
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            break
    return theta, value, residual


def sequential_fit_pose(skel, target, config=None):
    """Fit a pose whose eval joints match `target` ((n_eval, 3) mm)."""
    config = config or ik_pso.PsoConfig()
    target = ik_pso._target_eval(skel, target)
    obj = _SequentialObjective(skel, target)
    rng = np.random.default_rng(config.seed)

    best_theta = None
    best_fit = np.inf
    best_res = np.inf
    budget = config.iterations
    used_total = 0

    init_center = None
    if config.init_center is not None:
        init_center = clamp_pose(skel, np.asarray(config.init_center, dtype=float))
        # a warm-start center is an incumbent: descend from it before
        # spending any swarm iterations
        if config.polish_steps > 0:
            best_theta, best_fit, best_res = _sequential_polish(
                obj, init_center, config.polish_steps)
        else:
            best_theta = init_center
            best_fit, best_res = obj.value(init_center)

    first = True
    while budget > 0 and best_res > ik_pso.TOL_MM:
        center = init_center if first else None
        first = False
        phase_budget = min(config.phase_iterations, budget)
        theta, fit, res, used = _sequential_swarm_phase(
            obj, rng, config, phase_budget, center)
        budget -= phase_budget
        used_total += used
        if config.polish_steps > 0:
            theta, fit, res = _sequential_polish(obj, theta,
                                                 config.polish_steps)
        if fit < best_fit:
            best_theta, best_fit, best_res = theta, fit, res

    return ik_pso.FitResult(
        theta=best_theta,
        residual_mm=best_res,
        iterations_used=used_total,
        converged=best_res <= ik_pso.TOL_MM,
    )


def sequential_fit_batch(skel, targets, config=None, warm_start=False):
    """Fit a sequence of frames; optionally seed each fit from the previous.

    Every frame reuses the same config seed, so identical targets produce
    identical results.
    """
    config = config or ik_pso.PsoConfig()
    results = []
    prev_theta = None
    for target in targets:
        if warm_start and prev_theta is not None:
            frame_config = replace(config, init_center=tuple(prev_theta))
        else:
            frame_config = config
        results.append(sequential_fit_pose(skel, target, frame_config))
        prev_theta = results[-1].theta
    if not results:
        raise ValueError("fit_batch needs at least one target frame")
    return results



def mlp_forward_acts(run, features):
    """Layer activations; hidden pre-activations kept for the ReLU mask."""
    h = np.asarray(features, dtype=float)
    if run.config.input_clip_abs is not None:
        # tames the occlusion sentinel (-1000 mm) into an in-scale flag
        h = np.clip(h, -run.config.input_clip_abs, run.config.input_clip_abs)
    h = h * run.config.input_scale
    if h.ndim != 2 or h.shape[1] != run.config.layer_widths[0]:
        raise ValueError(
            f"feature width {h.shape[-1]} does not match input width "
            f"{run.config.layer_widths[0]}"
        )
    acts = [h]
    pre = []
    last = run.n_layers - 1
    for i, (w, b) in enumerate(zip(run.weights, run.biases)):
        z = h @ w + b
        if i < last:
            pre.append(z)
            h = np.maximum(z, 0.0)
        else:
            h = z
            if run.config.output_scale is not None:
                h = h * np.asarray(run.config.output_scale)
        acts.append(h)
    return acts, pre


def mlp_backprop(run, acts, pre, delta):
    """Gradients of the mean loss; `delta` is dLoss/d_output (already /N)."""
    grads_w = [None] * run.n_layers
    grads_b = [None] * run.n_layers
    if run.config.output_scale is not None:
        delta = delta * np.asarray(run.config.output_scale)
    for i in reversed(range(run.n_layers)):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ run.weights[i].T) * (pre[i - 1] > 0.0)
    return grads_w, grads_b


def flat_train(run, dataset, skel, sgd, val=None):
    """The one-stage `reg.train` as it was before it ran the stages itself."""
    if len(dataset) == 0:
        raise ValueError("training dataset is empty")
    mode = reg.MODES[run.mode]
    if mode.theta_targets:
        targets = dataset.thetas
    else:
        targets = dataset.joints[:, list(skel.eval_subset), :].reshape(len(dataset), -1)
    lam = mode.penalty_weight(sgd.lam)
    rng = np.random.default_rng([run.config.seed, 1])
    n = len(dataset)
    val_errors = []
    for epoch in range(sgd.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, sgd.batch_size):
            batch = start // sgd.batch_size
            idx = order[start:start + sgd.batch_size]
            feats = dataset.features[idx]
            tgt = targets[idx]
            try:
                if mode.through_fk:
                    value, grads = reg.backward_through_model(run, feats, tgt, skel, lam)
                else:
                    value, grads = reg.backward_direct(run, feats, tgt)
            except reg.NumericalError as e:
                raise reg.NumericalError(f"{e} at epoch {epoch} batch {batch}") from None
            if not np.isfinite(value):
                raise reg.NumericalError(f"non-finite loss at epoch {epoch} batch {batch}")
            if not all(np.isfinite(g).all() for g in grads[0] + grads[1]):
                raise reg.NumericalError(
                    f"non-finite gradient at epoch {epoch} batch {batch}")
            reg.sgd_step(run, grads, sgd)
            epoch_losses.append(value)

        if val is not None:
            joint_err, angle_err, invalid = reg.validation_stats(run, val, skel)
        else:
            joint_err = angle_err = invalid = float("nan")
        run.history.append(reg.EpochStats(
            train_loss=float(np.mean(epoch_losses)),
            val_joint_err_mm=joint_err,
            val_angle_err_deg=angle_err,
            val_invalid_frac=invalid,
        ))
        if val is not None:
            val_errors.append(joint_err)
            if len(val_errors) > 10:
                recent = min(val_errors[-10:])
                earlier = min(val_errors[:-10])
                if recent > earlier * (1.0 - 1e-3):
                    break
    return run


# Desk-scale training profile: staged learning rate (warm-up, main phase,
# two decay phases) as fractions of the mode's base rate and of the epoch
# budget. Raw joint-loss gradients at blast-off distances are orders of
# magnitude above their converged scale, so fixed-rate SGD either diverges
# or crawls; the schedule is plain SGD throughout.
_STAGE_PLAN = ((0.01, 0.01), (0.1, 0.015), (1.0 / 3.0, 0.025), (1.0, 0.45),
               (0.3, 0.25), (0.1, 0.25))


def _stages(base_lr, epochs):
    out = []
    for frac_lr, frac_ep in _STAGE_PLAN:
        ep = max(1, int(round(frac_ep * epochs)))
        out.append((base_lr * frac_lr, ep))
    return out


def per_stage_train(run, train_data, skel, base_lr, batch, epochs, lam,
                    val_data=None):
    """Train `run` through the schedule; returns the epochs each stage ran."""
    ran = []
    for lr, ep in _stages(base_lr, epochs):
        sgd = reg.SgdConfig(batch_size=batch, learning_rate=lr, epochs=ep, lam=lam)
        before = len(run.history)
        flat_train(run, train_data, skel, sgd, val=val_data)
        ran.append(len(run.history) - before)
    return ran


def one_pass_make_dataset(skel, n, noise_sigma_mm, occlusion_prob, seed,
                          interior_margin=0.0, pose_shape="uniform"):
    rng = np.random.default_rng(seed)
    span = skel.dof_upper - skel.dof_lower
    lo = skel.dof_lower + interior_margin * span
    hi = skel.dof_upper - interior_margin * span
    if pose_shape == "central":
        unit = rng.beta(3.0, 3.0, size=(n, skel.n_dofs))
        thetas = lo + unit * (hi - lo)
    else:
        thetas = rng.uniform(lo, hi, size=(n, skel.n_dofs))
    joints = forward_kinematics_batch(skel, thetas)
    ev = list(skel.eval_subset)
    features = joints[:, ev, :] + rng.normal(0.0, noise_sigma_mm, size=(n, len(ev), 3))
    if occlusion_prob > 0.0:
        occluded = rng.uniform(size=(n, len(ev))) < occlusion_prob
        features[occluded] = bench.OCCLUSION_SENTINEL_MM
    return bench.Dataset(
        skeleton_name=skel.name,
        sigma_mm=float(noise_sigma_mm),
        occlusion_prob=float(occlusion_prob),
        seed=int(seed),
        features=features.reshape(n, -1),
        thetas=thetas,
        joints=joints,
    )
