"""Forward kinematics, analytic Jacobians and their reverse-mode products.

Conventions
-----------
Every bone extends along the +X axis of its parent frame after the joint's
fixed rest rotation; the rest rotation is what fans sibling bones (finger
splay, palm arch) out of a shared parent. The local transform of joint ``u``
on the edge from its parent is

    local(u) = RestRot(u) * Trans_x(bone_length_u) * T_1 * ... * T_k

where T_i are the joint's DOF transforms in listed order (rotation about or
translation along the DOF axis), and the joint's global transform is
``global(parent) * local(u)``. A joint's position is the translation part of
its global transform; the chain for a fingertip therefore reads like
Trans_x(l1) * Rot(theta_1) * Trans_x(l2) * Rot(theta_2) * ... applied to the
origin. The root's three rotation DOFs are listed X, Y, Z, so the global
orientation convention is Rx * Ry * Rz.

Derivatives
-----------
The forward pass records, per DOF d, its axis ``a_d`` in world coordinates
and the point ``c_d`` it acts at. A rotation DOF moves every joint ``k`` of
its joint's subtree (the joint itself included) by

    d p_k / d theta_d = a_d x (p_k - c_d)

and a translation DOF moves them by ``a_d``; all other joints stay put.
``fk_jacobian_batch`` assembles these columns. ``fk_vjp_batch`` never forms
them: for a cotangent ``r_k`` per selected joint (a loss residual, say) it
returns J^T r in reverse mode (Griewank & Walther, *Evaluating Derivatives*,
2008; Featherstone, *Rigid Body Dynamics Algorithms*, 2008):

    rotation DOF d at joint u:     a_d . (sum_sub(u) p x r - c_d x sum_sub(u) r)
    translation DOF d at joint u:  a_d . sum_sub(u) r

The two subtree sums come from one walk that adds every joint into its
parent, children before parents.

Layout
------
Every function takes a batch of poses (N, D); a single pose of length D is
read as a batch of one. Internally the pose axis is last: a rotation is its
three (3, N) columns, positions are (J, 3, N), and the recorded axes and
pivots are (D, 3, N), so every step is an elementwise operation over
contiguous pose vectors and no sum runs across poses. A pose therefore gets
the same bits alone as in a batch. Positions come back C-contiguous
(N, Js, 3) at every N, also for a subset of joints, so a row-wise reduction
of the output (a pose's loss, its mean joint distance) keeps that property.

All math is float64; gradient-check tolerances are unreachable in 32-bit.
Functions are pure and safe to call concurrently.
"""
from __future__ import annotations

import numpy as np

from .skeleton import Skeleton

# the root frame's columns, broadcast over poses
_EYE_COLUMNS = tuple(np.eye(3)[:, i:i + 1] for i in range(3))
# (i+1, i+2) mod 3 per axis i: the two columns a rotation about axis i
# mixes, as (c*first + s*second, c*second - s*first), and the factors of
# component i of a cross product, a[first]*b[second] - a[second]*b[first]
_CYCLIC = ((1, 2), (2, 0), (0, 1))


def _check_poses(skel: Skeleton, thetas: np.ndarray) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim == 1:
        thetas = thetas[None, :]
    if thetas.ndim != 2 or thetas.shape[1] != skel.n_dofs:
        raise ValueError(
            f"pose array shape {thetas.shape} does not match D={skel.n_dofs}"
        )
    if not np.all(np.isfinite(thetas)):
        raise ValueError("pose contains non-finite values")
    return thetas


def _fk_pass(skel: Skeleton, thetas: np.ndarray, record: bool):
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


def forward_kinematics_batch(skel: Skeleton, thetas, joint_indices=None) -> np.ndarray:
    """Joint positions (N, J, 3) in mm for a batch of poses (N, D)."""
    thetas = _check_poses(skel, thetas)
    pos, _, _ = _fk_pass(skel, thetas, record=False)
    return _joints_first(pos, _joint_rows(skel, joint_indices))


def fk_jacobian_batch(skel: Skeleton, thetas, joint_indices=None):
    """Positions and Jacobians for a batch of poses.

    Returns (positions (N, Js, 3), jacobian (N, 3*Js, D)). Jacobian rows are
    joint-major x, y, z; units are mm per radian (mm per mm for translation
    DOFs). Columns vanish for DOFs off the joint's root path.
    """
    thetas = _check_poses(skel, thetas)
    pos, axes, cents = _fk_pass(skel, thetas, record=True)
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


def fk_vjp_batch(skel: Skeleton, thetas, joint_indices=None):
    """Positions and their reverse-mode product for a batch of poses.

    Returns (positions (N, Js, 3), pullback). ``pullback(cotangent)`` takes
    one (N, Js, 3) or (N, 3*Js) array, such as a loss residual, and returns
    J^T cotangent per pose, (N, D), without forming the Jacobian.
    """
    thetas = _check_poses(skel, thetas)
    pos, axes, cents = _fk_pass(skel, thetas, record=True)
    rows = _joint_rows(skel, joint_indices)
    unique = len(set(rows)) == len(rows)
    N = thetas.shape[0]

    def pullback(cotangent):
        r = np.asarray(cotangent, dtype=float).reshape(N, len(rows), 3)
        # per joint: [summed cotangent w, p x w], then subtree sums
        sums = np.zeros((skel.n_joints, 2, 3, N))
        w, q = sums[:, 0], sums[:, 1]
        if unique:
            w[rows] = r.transpose(1, 2, 0)
        else:  # a joint selected twice gets both cotangents (add.at is slower)
            np.add.at(w, rows, r.transpose(1, 2, 0))
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
