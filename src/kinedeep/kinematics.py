"""Forward kinematics and analytic Jacobians over skeleton trees.

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

Derivatives: replacing one rotation matrix in the chain by its elementwise
derivative and keeping everything else fixed gives the exact gradient of any
downstream joint position. For a rotation about a fixed local axis this
collapses to the cross-product form

    d p_joint / d theta = a x (p_joint - c)

with ``a`` the DOF axis in world coordinates and ``c`` the point the DOF
rotates about; translation DOFs contribute their world axis directly. The
batched implementation below records (a, c) per DOF during the forward pass
and assembles all Jacobian columns in one vectorized step.

Every function takes a batch of poses (N, D); a single pose of length D is
read as a batch of one. Positions come back C-contiguous at every N, also
for a subset of joints. numpy sums in an order set by the memory layout, so
this is what makes a row-wise reduction of the output (a pose's loss, its
mean joint distance) give the same bits whether the pose is alone or in a
batch.

All math is float64; gradient-check tolerances are unreachable in 32-bit.
Functions are pure and safe to call concurrently.
"""
from __future__ import annotations

import numpy as np

from .skeleton import Skeleton

_EYE3 = np.eye(3)


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


def _apply_axis_rotation(R, ax, c, s):
    """Batched R @ RotAxis(theta) via column recombination."""
    out = np.empty_like(R)
    c0, c1, c2 = R[:, :, 0], R[:, :, 1], R[:, :, 2]
    if ax == 0:
        out[:, :, 0] = c0
        out[:, :, 1] = c * c1 + s * c2
        out[:, :, 2] = c * c2 - s * c1
    elif ax == 1:
        out[:, :, 0] = c * c0 - s * c2
        out[:, :, 1] = c1
        out[:, :, 2] = s * c0 + c * c2
    else:
        out[:, :, 0] = c * c0 + s * c1
        out[:, :, 1] = c * c1 - s * c0
        out[:, :, 2] = c2
    return out


def _fk_pass(skel: Skeleton, thetas: np.ndarray, record: bool):
    """Walk the tree once for a batch of poses.

    Returns (positions (N,J,3), axes (D,N,3) or None, centers (D,N,3) or None)
    where axes/centers describe each DOF's world axis and pivot point.
    """
    N = thetas.shape[0]
    J, D = skel.n_joints, skel.n_dofs
    rot_mats = [None] * J
    pos = np.empty((N, J, 3))
    axes = np.empty((D, N, 3)) if record else None
    cents = np.empty((D, N, 3)) if record else None

    dof_of_joint = [[] for _ in range(J)]
    for d, u in enumerate(skel.dof_joint):
        dof_of_joint[u].append(d)

    for u in range(J):
        p = skel.parent_index[u]
        if p < 0:
            R = np.broadcast_to(_EYE3, (N, 3, 3))
            t = np.zeros((N, 3))
            rest = skel.rest_rotations[u]
            if rest is not None:
                R = R @ rest
        else:
            R = rot_mats[p]
            rest = skel.rest_rotations[u]
            if rest is not None:
                R = R @ rest
            t = pos[:, p, :] + skel.bone_lengths[u] * R[:, :, 0]
        for d in dof_of_joint[u]:
            ax = skel.dof_axis[d]
            if record:
                axes[d] = R[:, :, ax]
                cents[d] = t
            val = thetas[:, d]
            if skel.dof_is_rotation[d]:
                R = _apply_axis_rotation(R, ax, np.cos(val)[:, None], np.sin(val)[:, None])
            else:
                t = t + val[:, None] * R[:, :, ax]
        rot_mats[u] = R
        pos[:, u, :] = t
    return pos, axes, cents


def forward_kinematics_batch(skel: Skeleton, thetas, joint_indices=None) -> np.ndarray:
    """Joint positions (N, J, 3) in mm for a batch of poses (N, D)."""
    thetas = _check_poses(skel, thetas)
    pos, _, _ = _fk_pass(skel, thetas, record=False)
    if joint_indices is not None:
        pos = np.take(pos, list(joint_indices), axis=1)
    return pos


def fk_jacobian_batch(skel: Skeleton, thetas, joint_indices=None):
    """Positions and Jacobians for a batch of poses.

    Returns (positions (N, Js, 3), jacobian (N, 3*Js, D)). Jacobian rows are
    joint-major x, y, z; units are mm per radian (mm per mm for translation
    DOFs). Columns vanish for DOFs off the joint's root path.
    """
    thetas = _check_poses(skel, thetas)
    N = thetas.shape[0]
    D = skel.n_dofs
    pos, axes, cents = _fk_pass(skel, thetas, record=True)

    if joint_indices is None:
        Js = skel.n_joints
        P = pos
        sel_desc = [np.flatnonzero(skel.path_mask[:, d]) for d in range(D)]
    else:
        js = np.asarray(list(joint_indices), dtype=np.int64)
        Js = len(js)
        P = np.take(pos, js, axis=1)
        path_sel = skel.path_mask[js]
        sel_desc = [np.flatnonzero(path_sel[:, d]) for d in range(D)]

    # Column d only touches joints below the DOF, so fill per DOF over its
    # descendant rows. The (N, Js, 3, D) buffer reshapes to (N, 3*Js, D)
    # without a copy.
    jac4 = np.zeros((N, Js, 3, D))
    for d in range(D):
        idx = sel_desc[d]
        if idx.size == 0:
            continue
        a = axes[d]  # (N, 3)
        # advanced indexing with the scalar d moves the idx axis first,
        # so the assigned block is laid out (len(idx), N, 3)
        if skel.dof_is_rotation[d]:
            r = P[:, idx, :] - cents[d][:, None, :]
            col = np.empty((N, idx.size, 3))
            ax, ay, az = a[:, None, 0], a[:, None, 1], a[:, None, 2]
            col[:, :, 0] = ay * r[:, :, 2] - az * r[:, :, 1]
            col[:, :, 1] = az * r[:, :, 0] - ax * r[:, :, 2]
            col[:, :, 2] = ax * r[:, :, 1] - ay * r[:, :, 0]
            jac4[:, idx, :, d] = col.transpose(1, 0, 2)
        else:
            jac4[:, idx, :, d] = a[None, :, :]
    return P, jac4.reshape(N, 3 * Js, D)
