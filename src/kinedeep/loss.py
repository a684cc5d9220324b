"""Joint-location loss, angle-range penalty, and their pose gradients.

The joint term is summed (not averaged) over the eval joints:
0.5 * ||joints(pose) - target||^2 in mm^2. Its gradient, J^T times the
residual, is accumulated in reverse mode by the kinematics
(`fk_vjp_batch`), so the Jacobian itself is never formed. The range
penalty is a hinge on every rotation DOF, measured in radians: amounts
below the lower bound and above the upper bound add up linearly.
Components sitting exactly on a bound contribute zero penalty and zero
subgradient, so in-range poses are penalty-free. The training loss is the
joint term plus lambda times the penalty.

Both functions are pure and take a batch of poses stacked along the first
axis; row i of the output depends on row i of the input alone.
"""
from __future__ import annotations

import numpy as np

from .kinematics import fk_vjp_batch
from .skeleton import Skeleton, check_pose_batch


def joint_loss_batch(skel: Skeleton, thetas, targets):
    """Batched joint loss over the skeleton's eval subset: values (N,),
    gradients (N, D). `targets` is (N, n_eval, 3) or (N, 3*n_eval)."""
    sel = list(skel.eval_subset)
    thetas = np.asarray(thetas, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(thetas.shape[0], len(sel) * 3)
    pos, pullback = fk_vjp_batch(skel, thetas)
    resid = pos.reshape(thetas.shape[0], -1) - targets
    values = 0.5 * np.einsum("nk,nk->n", resid, resid)
    return values, pullback(resid)


def phy_loss_batch(skel: Skeleton, thetas):
    """Batched angle-range hinge over poses (N, D): values (N,), subgradients
    (N, D)."""
    thetas = check_pose_batch(skel, thetas)
    rot = skel.dof_is_rotation
    below = np.maximum(skel.dof_lower - thetas, 0.0) * rot
    above = np.maximum(thetas - skel.dof_upper, 0.0) * rot
    values = below.sum(axis=-1) + above.sum(axis=-1)
    grads = (above > 0).astype(float) - (below > 0).astype(float)
    grads *= rot
    return values, grads
