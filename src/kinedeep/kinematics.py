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
them: for a cotangent ``r_k`` per eval joint (a loss residual, say) it
returns J^T r in reverse mode (Griewank & Walther, *Evaluating Derivatives*,
2008; Featherstone, *Rigid Body Dynamics Algorithms*, 2008):

    rotation DOF d at joint u:     a_d . (sum_sub(u) p x r - c_d x sum_sub(u) r)
    translation DOF d at joint u:  a_d . sum_sub(u) r

The two subtree sums come from one walk that adds every joint into its
parent, children before parents.

Layout
------
Every function takes a batch of poses (N, D), and only that: a single pose
is a batch of one, (1, D). Internally the pose axis is last: the rotations
of G joints are three (G, 3, N) column arrays, and every step is an
elementwise operation over contiguous pose vectors, so no sum runs across
poses and a pose gets the same bits alone as in a batch. Positions come back C-contiguous
(N, Js, 3) at every N, also for a subset of joints, so a row-wise reduction
of the output (a pose's loss, its mean joint distance) keeps that property.

The tree is walked one joint group at a time (``Skeleton.fk_layout``). A
group is the joints at one depth that share a signature: a rest rotation or
none, and the same DOF kinds and axes in order. The hand has 7: the root,
the palm and thumb wrists, then the five finger bases, mids, ends and tips.
Each step of a group is one numpy call on (G, 3, N) arrays. Internally the
joints are in group order and the DOFs in a permuted order where each
group's DOF slot is a contiguous run, rotation slots first, so trig runs
over rotation DOFs only; positions are (J, 3, N) and the recorded axes and
pivots (D, 3, N) in those orders, and the public functions map back in the
``take`` that builds their output. A group reads its parents' frames by
slice where they line up with its members, and gathers them from the few
kept frames where not (the finger bases, whose parents are two wrists).

Every element goes through the same float operations in the same order as
in a walk that takes one joint at a time: a group applies each joint's own
rest rotation, bone and DOF transforms elementwise, and the pullback adds
each parent's children in descending joint index, one level of the tree
after the other. So the outputs are the bytes of that walk.

All math is float64; gradient-check tolerances are unreachable in 32-bit.
Functions are pure and safe to call concurrently.
"""
from __future__ import annotations

import numpy as np

from .skeleton import Skeleton, check_pose_batch

# the root frame's columns and origin, broadcast over one member and poses
_ROOT_COLUMNS = tuple(np.eye(3)[None, :, i:i + 1] for i in range(3))
_ROOT_ORIGIN = np.zeros((1, 3, 1))
for _arr in _ROOT_COLUMNS + (_ROOT_ORIGIN,):
    _arr.flags.writeable = False
# (i+1, i+2) mod 3 per axis i: the two columns a rotation about axis i
# mixes, as (c*first + s*second, c*second - s*first), and the factors of
# component i of a cross product, a[first]*b[second] - a[second]*b[first]
_FIRST, _SECOND = [1, 2, 0], [2, 0, 1]
_CYCLIC = tuple(zip(_FIRST, _SECOND))


def _check_poses(skel: Skeleton, thetas: np.ndarray) -> np.ndarray:
    thetas = check_pose_batch(skel, thetas)
    if not np.all(np.isfinite(thetas)):
        raise ValueError("pose contains non-finite values")
    return thetas


def _fk_pass(skel: Skeleton, thetas: np.ndarray, record: bool):
    """Walk the tree once for a batch of poses (N, D), one joint group at a time.

    Returns (positions (J, 3, N) in group order, axes (D, 3, N) or None,
    centers (D, 3, N) or None in permuted DOF order), where axes/centers are
    each DOF's world axis and the point it acts at.
    """
    layout = skel.fk_layout
    N, D = thetas.shape
    angles = np.take(thetas.T, layout.dof_order, axis=0)
    rot = angles[:layout.n_rotations]
    cos, sin = np.cos(rot)[:, None], np.sin(rot)[:, None]
    angles = angles[:, None]
    pos = np.empty((skel.n_joints, 3, N))
    axes = np.empty((D, 3, N)) if record else None
    cents = np.empty((D, 3, N)) if record else None
    kept = np.empty((3, layout.n_kept, 3, N))

    frames = []
    for g in layout.groups:
        if g.parent_rows is None:
            R, t = list(_ROOT_COLUMNS), _ROOT_ORIGIN
        elif g.parent_group >= 0:
            R = [col[g.parent_frames] for col in frames[g.parent_group]]
        else:
            R = list(kept[:, g.parent_frames])
        if g.rest is not None:
            # R @ rest written as sums: column j is sum_k R[k] * rest[k, j]
            R = list(R[0][None] * g.rest[0] + R[1][None] * g.rest[1]
                     + R[2][None] * g.rest[2])
        if g.parent_rows is not None:
            t = pos[g.parent_rows] + g.bones * R[0]
        for d, ax, is_rotation in g.dofs:
            if record:
                axes[d] = R[ax]
                cents[d] = t
            if is_rotation:
                a, b = _CYCLIC[ax]
                c, s = cos[d], sin[d]
                Ra, Rb = R[a], R[b]
                R[a] = c * Ra + s * Rb
                R[b] = c * Rb - s * Ra
            else:
                t = t + angles[d] * R[ax]
        pos[g.rows] = t
        if g.kept is not None:
            kept[0, g.kept], kept[1, g.kept], kept[2, g.kept] = R
        frames.append(R if g.keep_frames else None)
    return pos, axes, cents


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over axis 1, component i being a[first]*b[second] - a[second]*b[first]."""
    return a[:, _FIRST] * b[:, _SECOND] - a[:, _SECOND] * b[:, _FIRST]


def _rows(skel: Skeleton, joint_indices) -> np.ndarray:
    """Rows in group order of the selected joints (default: all of them)."""
    if joint_indices is None:
        return skel.fk_layout.joint_row
    return skel.fk_layout.joint_row[list(joint_indices)]


def _joints_first(pos: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(J, 3, N) positions -> C-contiguous (N, len(rows), 3)."""
    return np.take(pos.transpose(2, 0, 1), rows, axis=1)


def forward_kinematics_batch(skel: Skeleton, thetas, joint_indices=None) -> np.ndarray:
    """Joint positions (N, J, 3) in mm for a batch of poses (N, D)."""
    thetas = _check_poses(skel, thetas)
    pos, _, _ = _fk_pass(skel, thetas, record=False)
    return _joints_first(pos, _rows(skel, joint_indices))


def fk_jacobian_batch(skel: Skeleton, thetas, joint_indices=None):
    """Positions and Jacobians for a batch of poses.

    Returns (positions (N, Js, 3), jacobian (N, 3*Js, D)). Jacobian rows are
    joint-major x, y, z; units are mm per radian (mm per mm for translation
    DOFs). Columns vanish for DOFs off the joint's root path.
    """
    thetas = _check_poses(skel, thetas)
    pos, axes, cents = _fk_pass(skel, thetas, record=True)
    rows = _rows(skel, joint_indices)
    slot = skel.fk_layout.dof_slot
    N, D = thetas.shape

    # only (joint, DOF) pairs on a root path are nonzero; fill all pairs of
    # one DOF kind at once. Advanced indices split by a slice put the pair
    # axis first, (pairs, N, 3); adjacent ones keep it in place, (N, pairs).
    jac = np.zeros((N, len(rows), 3, D))
    on_path = skel.path_mask if joint_indices is None else skel.path_mask[list(joint_indices)]
    joint, dof = np.nonzero(on_path & ~skel.dof_is_rotation)
    jac[:, joint, :, dof] = axes[slot[dof]].transpose(0, 2, 1)
    joint, dof = np.nonzero(on_path & skel.dof_is_rotation)
    a = axes[slot[dof]]
    r = pos[rows[joint]] - cents[slot[dof]]
    jac[:, joint, :, dof] = _cross(a, r).transpose(0, 2, 1)
    return _joints_first(pos, rows), jac.reshape(N, 3 * len(rows), D)


def fk_vjp_batch(skel: Skeleton, thetas):
    """Eval-joint positions and their reverse-mode product for a batch of poses.

    Returns (positions (N, n_eval, 3), pullback). ``pullback(cotangent)``
    takes one (N, n_eval, 3) or (N, 3*n_eval) array, such as a loss
    residual, and returns J^T cotangent per pose, (N, D), without forming
    the Jacobian.
    """
    thetas = _check_poses(skel, thetas)
    pos, axes, cents = _fk_pass(skel, thetas, record=True)
    layout = skel.fk_layout
    rows = _rows(skel, skel.eval_subset)
    N = thetas.shape[0]

    def pullback(cotangent):
        r = np.asarray(cotangent, dtype=float).reshape(N, len(rows), 3)
        # per joint: [summed cotangent w, p x w], then subtree sums; the eval
        # joints are distinct, so each gets its own cotangent
        sums = np.zeros((skel.n_joints, 2, 3, N))
        w, q = sums[:, 0], sums[:, 1]
        w[rows] = r.transpose(1, 2, 0)
        q[:] = _cross(pos, w)
        for parent_rows, child_rows in layout.sum_rounds:
            sums[parent_rows] += sums[child_rows]

        # per DOF, its joint's subtree sums; v is the vector a_d is dotted
        # with in the formulas of the module docstring: sum r for a
        # translation DOF, and for a rotation DOF (the first n_rotations)
        # sum p x r - c_d x sum r
        sub = sums[layout.dof_row]
        sub_r, sub_q = sub[:, 0], sub[:, 1]
        v = sub_r.copy()
        n = layout.n_rotations
        v[:n] = sub_q[:n] - _cross(cents[:n], sub_r[:n])
        grad = axes[:, 0] * v[:, 0] + axes[:, 1] * v[:, 1] + axes[:, 2] * v[:, 2]
        return np.take(grad.T, layout.dof_slot, axis=1)

    return _joints_first(pos, rows), pullback
