"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: full 4x4 homogeneous matrices,
straight-line per-joint chain products recomputed from the root for every
joint, and no sharing with the library's fast path beyond the documented
frame conventions.

`jacobian_gradient` is the joint-loss gradient formed from the whole
Jacobian, the reference for the reverse-mode gradient of `kinedeep.loss`.

`sequential_fit_pose` / `sequential_fit_batch` are the original one-frame-at-
a-time swarm + Gauss-Newton fitter, kept verbatim but for its swarm size,
which it reads from `ik_pso.SWARM_SIZE`, and its stopping policy: it stops
after a phase whose swarm met `ik_pso.TOL_MM`, as it does once its best
result meets it. It is the reference that the frame-batched
`kinedeep.ik_pso` must match bit for bit.

`mlp_forward_acts` and `mlp_backprop` are the MLP forward and backward
passes as they were when the forward pass kept every activation and every
hidden pre-activation, and took the ReLU mask from the pre-activations;
kept verbatim as the reference that `kinedeep.regressor`'s one layer loop
must match bit for bit.

`one_pass_forward` is `reg.forward` as it was when inference ran the layer
loop over all rows at once, kept verbatim as the reference that the
row-blocked `reg.forward` must match bit for bit.

`per_stage_train` is the staged learning-rate schedule as six calls of
`flat_train`, one per stage, the way the command line ran it before
`reg.train` ran the stages itself; `flat_train` is the one-stage
`reg.train` of that time, kept verbatim but for its rate, an argument, its
penalty weight, which it reads from the mode's row, its batch size, which
it reads from `reg.BATCH_SIZE`, and its stop on a validation plateau, which
is gone from `reg.train` too. The staged `reg.train` must match it bit for
bit.

`one_pass_make_dataset` is `bench.make_dataset` as it was when forward
kinematics ran over all n poses in one call, kept verbatim (less its
argument checks) as the reference that the block-wise FK must match bit for
bit.

`per_joint_fk_pass` is the kinematic layer's forward pass as it was when it
walked the tree one joint at a time, and `per_joint_forward_kinematics_batch`,
`per_joint_fk_jacobian_batch` and `per_joint_fk_vjp_batch` are the public
functions of that time on top of it, the pullback summing subtrees joint by
joint; all kept verbatim (less the pullback's choice of joints: like the
library's, it is over the eval subset) as the reference that the
joint-group pass of `kinedeep.kinematics` must match byte for byte.
"""
import math

import numpy as np

from kinedeep import bench, ik_pso
from kinedeep import regressor as reg
from kinedeep.kinematics import _check_poses, fk_jacobian_batch, forward_kinematics_batch
from kinedeep.skeleton import Skeleton


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
    joints = skel.to_dict()["joints"]
    index = {spec["name"]: u for u, spec in enumerate(joints)}
    path = []
    u = joint
    while u is not None:
        path.append(u)
        parent = joints[u]["parent"]
        u = None if parent is None else index[parent]
    path.reverse()

    dof_base = np.cumsum([0] + [len(j["dofs"]) for j in joints])
    mats = []
    found = replace_dof is None
    for u in path:
        spec = joints[u]
        rest_offset_deg = spec.get("rest_offset_deg", (0.0, 0.0, 0.0))
        if any(v != 0 for v in rest_offset_deg):
            mats.append(_rest_mat(rest_offset_deg))
        if spec["parent"] is not None:
            mats.append(mat_trans(0, spec["bone_length_mm"]))
        for k, dof in enumerate(spec["dofs"]):
            d = dof_base[u] + k
            ax = _AXIS[dof["axis"]]
            val = theta[d]
            is_rotation = dof["kind"] == "rotation"
            if d == replace_dof:
                found = True
                mats.append(mat_drot(ax, val) if is_rotation else mat_dtrans(ax))
            elif is_rotation:
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


def _sequential_swarm_phase(obj, rng, budget):
    """One swarm run; returns (theta, loss, residual, iterations used)."""
    skel = obj.skel
    lower, upper = skel.dof_lower, skel.dof_upper
    span = upper - lower
    S, D = ik_pso.SWARM_SIZE, skel.n_dofs

    X = rng.uniform(lower, upper, size=(S, D))
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
            candidate = np.clip(theta + step, skel.dof_lower, skel.dof_upper)
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


def sequential_fit_pose(skel, target, iterations, seed):
    """Fit a pose whose eval joints match `target` ((n_eval, 3) mm); returns
    (theta, residual_mm, iterations_used)."""
    target = np.asarray(target, dtype=float).reshape(len(skel.eval_subset), 3)
    obj = _SequentialObjective(skel, target)
    rng = np.random.default_rng(seed)

    best_theta = None
    best_fit = np.inf
    best_res = np.inf
    swarm_met_tol = False
    budget = iterations
    used_total = 0

    while budget > 0 and best_res > ik_pso.TOL_MM and not swarm_met_tol:
        phase_budget = min(ik_pso.PHASE_ITERATIONS, budget)
        theta, fit, res, used = _sequential_swarm_phase(obj, rng, phase_budget)
        budget -= phase_budget
        used_total += used
        swarm_met_tol = res <= ik_pso.TOL_MM
        if ik_pso.POLISH_STEPS > 0:
            theta, fit, res = _sequential_polish(obj, theta, ik_pso.POLISH_STEPS)
        if fit < best_fit:
            best_theta, best_fit, best_res = theta, fit, res

    return best_theta, best_res, used_total


def sequential_fit_batch(skel, targets, iterations, seed):
    """Fit each frame on its own; row f of the FitResult is frame f's fit.

    Every frame reuses the same seed, so identical targets produce identical
    results.
    """
    results = [sequential_fit_pose(skel, target, iterations, seed) for target in targets]
    if not results:
        raise ValueError("fit_batch needs at least one target frame")
    return ik_pso.FitResult(*(np.array(field) for field in zip(*results)))



def mlp_forward_acts(run, features):
    """Layer activations; hidden pre-activations kept for the ReLU mask."""
    h = np.asarray(features, dtype=float)
    # tames the occlusion sentinel (-1000 mm) into an in-scale flag
    h = np.clip(h, -reg.INPUT_CLIP_MM, reg.INPUT_CLIP_MM)
    h = h * reg.INPUT_SCALE
    if h.ndim != 2 or h.shape[1] != len(run.weights[0]):
        raise ValueError(
            f"feature width {h.shape[-1]} does not match input width "
            f"{len(run.weights[0])}"
        )
    acts = [h]
    pre = []
    last = len(run.weights) - 1
    for i, (w, b) in enumerate(zip(run.weights, run.biases)):
        z = h @ w + b
        if i < last:
            pre.append(z)
            h = np.maximum(z, 0.0)
        else:
            h = z * np.asarray(run.output_scale)
        acts.append(h)
    return acts, pre


def one_pass_forward(run, features):
    """Network outputs from one pass of `reg._layers` over all rows."""
    for h in reg._layers(run, features):
        pass  # only the current layer stays alive
    return h


def mlp_backprop(run, acts, pre, delta):
    """Gradients of the mean loss; `delta` is dLoss/d_output (already /N)."""
    grads_w = [None] * len(run.weights)
    grads_b = [None] * len(run.weights)
    delta = delta * np.asarray(run.output_scale)
    for i in reversed(range(len(run.weights))):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ run.weights[i].T) * (pre[i - 1] > 0.0)
    return grads_w, grads_b


def flat_train(run, dataset, skel, epochs, lr, seed, velocity, val=None):
    """The one-stage `reg.train`, at rate `lr` in batches of
    `reg.BATCH_SIZE`, as it was before it ran the stages itself; `velocity`
    holds the momentum buffers, which it updates."""
    if len(dataset) == 0:
        raise ValueError("training dataset is empty")
    mode = reg.MODES[run.mode]
    if mode.theta_targets:
        targets = dataset.thetas
    else:
        targets = forward_kinematics_batch(skel, dataset.thetas,
                                           joint_indices=list(skel.eval_subset))
        targets = targets.reshape(len(dataset), -1)
    rng = np.random.default_rng([seed, 1])
    n = len(dataset)
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, reg.BATCH_SIZE):
            batch = start // reg.BATCH_SIZE
            idx = order[start:start + reg.BATCH_SIZE]
            feats = dataset.features[idx]
            tgt = targets[idx]
            try:
                if mode.through_fk:
                    value, grads = reg.backward_through_model(run, feats, tgt, skel)
                else:
                    value, grads = reg.backward_direct(run, feats, tgt)
            except reg.NumericalError as e:
                raise reg.NumericalError(f"{e} at epoch {epoch} batch {batch}") from None
            if not np.isfinite(value):
                raise reg.NumericalError(f"non-finite loss at epoch {epoch} batch {batch}")
            if not all(np.isfinite(g).all() for g in grads[0] + grads[1]):
                raise reg.NumericalError(
                    f"non-finite gradient at epoch {epoch} batch {batch}")
            reg.sgd_step(run, grads, velocity, lr)
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


def per_stage_train(run, train_data, skel, base_lr, epochs, seed, val_data=None):
    """Train `run` through the schedule, momentum carried across the stages;
    returns the epochs each stage ran."""
    ran = []
    velocity = [np.zeros_like(p) for p in run.weights + run.biases]
    for lr, ep in _stages(base_lr, epochs):
        before = len(run.history)
        flat_train(run, train_data, skel, ep, lr, seed, velocity, val=val_data)
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
    ev = list(skel.eval_subset)
    joints = forward_kinematics_batch(skel, thetas)[:, ev, :]
    features = joints + rng.normal(0.0, noise_sigma_mm, size=(n, len(ev), 3))
    if occlusion_prob > 0.0:
        occluded = rng.uniform(size=(n, len(ev))) < occlusion_prob
        features[occluded] = bench.OCCLUSION_SENTINEL_MM
    return bench.Dataset(skel, features.reshape(n, -1), thetas)


# --- the per-joint kinematic walk ---------------------------------------------

# the root frame's columns, broadcast over poses
_EYE_COLUMNS = tuple(np.eye(3)[:, i:i + 1] for i in range(3))
# (i+1, i+2) mod 3 per axis i: the two columns a rotation about axis i
# mixes, as (c*first + s*second, c*second - s*first), and the factors of
# component i of a cross product, a[first]*b[second] - a[second]*b[first]
_CYCLIC = ((1, 2), (2, 0), (0, 1))


def per_joint_fk_pass(skel: Skeleton, thetas: np.ndarray, record: bool):
    """Walk the tree once for a batch of poses (N, D), poses last.

    Returns (positions (J, 3, N), axes (D, 3, N) or None, centers (D, 3, N)
    or None), where axes/centers are each DOF's world axis and the point it
    acts at.
    """
    N, D = thetas.shape
    angles = np.ascontiguousarray(thetas.T)
    cos, sin = np.cos(angles), np.sin(angles)
    parents = skel.parent_index.tolist()
    bones = skel.bone_lengths.tolist()
    dof_axis = skel.dof_axis.tolist()
    is_rotation = skel.dof_is_rotation.tolist()
    pos = np.empty((skel.n_joints, 3, N))
    axes = np.empty((D, 3, N)) if record else None
    cents = np.empty((D, 3, N)) if record else None

    columns = []
    for u, dofs in enumerate(skel.joint_dofs):
        p = parents[u]
        R = list(_EYE_COLUMNS if p < 0 else columns[p])
        rest = skel.rest_rotations[u]
        if rest is not None:
            # R @ rest written as sums: column j is sum_k R[k] * rest[k, j]
            R = list(R[0][None] * rest[0][:, None, None]
                     + R[1][None] * rest[1][:, None, None]
                     + R[2][None] * rest[2][:, None, None])
        t = np.zeros((3, 1)) if p < 0 else pos[p] + bones[u] * R[0]
        for d in dofs:
            ax = dof_axis[d]
            if record:
                axes[d] = R[ax]
                cents[d] = t
            if is_rotation[d]:
                a, b = _CYCLIC[ax]
                c, s = cos[d], sin[d]
                Ra, Rb = R[a], R[b]
                R[a] = c * Ra + s * Rb
                R[b] = c * Rb - s * Ra
            else:
                t = t + angles[d] * R[ax]
        columns.append(R)
        pos[u] = t
    return pos, axes, cents


def _joint_rows(skel: Skeleton, joint_indices) -> list:
    if joint_indices is None:
        return list(range(skel.n_joints))
    return list(joint_indices)


def _joints_first(pos: np.ndarray, rows: list) -> np.ndarray:
    """(J, 3, N) positions -> C-contiguous (N, len(rows), 3)."""
    return np.take(pos.transpose(2, 0, 1), rows, axis=1)


def per_joint_forward_kinematics_batch(skel: Skeleton, thetas, joint_indices=None) -> np.ndarray:
    """Joint positions (N, J, 3) in mm for a batch of poses (N, D)."""
    thetas = _check_poses(skel, thetas)
    pos, _, _ = per_joint_fk_pass(skel, thetas, record=False)
    return _joints_first(pos, _joint_rows(skel, joint_indices))


def per_joint_fk_jacobian_batch(skel: Skeleton, thetas, joint_indices=None):
    """Positions and Jacobians for a batch of poses.

    Returns (positions (N, Js, 3), jacobian (N, 3*Js, D)). Jacobian rows are
    joint-major x, y, z; units are mm per radian (mm per mm for translation
    DOFs). Columns vanish for DOFs off the joint's root path.
    """
    thetas = _check_poses(skel, thetas)
    pos, axes, cents = per_joint_fk_pass(skel, thetas, record=True)
    rows = _joint_rows(skel, joint_indices)
    N, D = thetas.shape

    # only (joint, DOF) pairs on a root path are nonzero; fill all pairs of
    # one DOF kind at once. Advanced indices split by a slice put the pair
    # axis first, (pairs, N, 3); adjacent ones keep it in place, (N, pairs).
    jac = np.zeros((N, len(rows), 3, D))
    on_path = skel.path_mask[rows]
    joint, dof = np.nonzero(on_path & ~skel.dof_is_rotation)
    jac[:, joint, :, dof] = axes[dof].transpose(0, 2, 1)
    joint, dof = np.nonzero(on_path & skel.dof_is_rotation)
    a = axes[dof]
    r = pos[np.asarray(rows)[joint]] - cents[dof]
    for i, (j, k) in enumerate(_CYCLIC):
        jac[:, joint, i, dof] = (a[:, j] * r[:, k] - a[:, k] * r[:, j]).T
    return _joints_first(pos, rows), jac.reshape(N, 3 * len(rows), D)


def per_joint_fk_vjp_batch(skel: Skeleton, thetas):
    """Eval-joint positions and their reverse-mode product for a batch of poses.

    Returns (positions (N, n_eval, 3), pullback). ``pullback(cotangent)``
    takes one (N, n_eval, 3) or (N, 3*n_eval) array, such as a loss
    residual, and returns J^T cotangent per pose, (N, D), without forming
    the Jacobian.
    """
    thetas = _check_poses(skel, thetas)
    pos, axes, cents = per_joint_fk_pass(skel, thetas, record=True)
    rows = list(skel.eval_subset)
    N = thetas.shape[0]

    def pullback(cotangent):
        r = np.asarray(cotangent, dtype=float).reshape(N, len(rows), 3)
        # per joint: [summed cotangent w, p x w], then subtree sums
        sums = np.zeros((skel.n_joints, 2, 3, N))
        w, q = sums[:, 0], sums[:, 1]
        w[rows] = r.transpose(1, 2, 0)
        for i, (j, k) in enumerate(_CYCLIC):
            q[:, i] = pos[:, j] * w[:, k] - pos[:, k] * w[:, j]
        parents = skel.parent_index.tolist()
        for u in range(skel.n_joints - 1, 0, -1):
            sums[parents[u]] += sums[u]

        # per DOF, its joint's subtree sums; v is the vector a_d is dotted
        # with in the formulas of the module docstring
        sub = sums[skel.dof_joint]
        sub_r, sub_q = sub[:, 0], sub[:, 1]
        v = np.empty_like(sub_r)
        for i, (j, k) in enumerate(_CYCLIC):
            v[:, i] = sub_q[:, i] - (cents[:, j] * sub_r[:, k] - cents[:, k] * sub_r[:, j])
        v = np.where(skel.dof_is_rotation[:, None, None], v, sub_r)
        grad = axes[:, 0] * v[:, 0] + axes[:, 1] * v[:, 1] + axes[:, 2] * v[:, 2]
        return np.ascontiguousarray(grad.T)

    return _joints_first(pos, rows), pullback
