import numpy as np
import pytest

import oracles
from conftest import sample_in_bounds
from kinedeep import bench, loss
from kinedeep import kinematics as kin
from kinedeep import skeleton as sk


def eval_joints(hand, theta):
    return kin.forward_kinematics_batch(
        hand, theta[None], joint_indices=list(hand.eval_subset))[0]


def joint_loss_1(hand, theta, target):
    """(values (1,), gradients (1, D)) of one pose, as a batch of one."""
    return loss.joint_loss_batch(hand, theta[None], target[None])


def phy_loss_1(hand, theta):
    return loss.phy_loss_batch(hand, theta[None])


def test_joint_loss_perfect_fit(hand, rng):
    theta = sample_in_bounds(hand, rng)
    (value,), (grad,) = joint_loss_1(hand, theta, eval_joints(hand, theta))
    assert value == 0.0
    assert np.array_equal(grad, np.zeros(hand.n_dofs))


def test_joint_loss_pure_translation_residual(hand):
    theta = np.zeros(hand.n_dofs)
    target = eval_joints(hand, theta) + np.array([1.0, 0.0, 0.0])
    (value,), (grad,) = joint_loss_1(hand, theta, target)
    n_eval = len(hand.eval_subset)
    assert np.isclose(value, 0.5 * n_eval)
    assert np.isclose(grad[0], -n_eval)
    assert np.allclose(grad[1:3], 0.0, atol=1e-12)


def test_joint_loss_gradient_finite_difference(hand, rng):
    # residuals at training scale (a few mm): the scalar-loss FD oracle is
    # then accurate enough for the per-component metric
    for _ in range(10):
        theta = sample_in_bounds(hand, rng)
        near = theta + rng.normal(scale=0.02, size=theta.shape)
        target = eval_joints(hand, near)
        _, (grad,) = joint_loss_1(hand, theta, target)
        fd = oracles.fd_jacobian(lambda t: joint_loss_1(hand, t, target)[0], theta)[0]
        assert oracles.rel_err(grad, fd) < 1e-6


def test_joint_loss_gradient_far_targets_norm_metric(hand, rng):
    # far-apart pose/target pairs push the loss to ~1e5 mm^2, where per-entry
    # scalar FD saturates; the vector-norm metric stays meaningful
    for _ in range(10):
        theta = sample_in_bounds(hand, rng)
        target = eval_joints(hand, sample_in_bounds(hand, rng))
        _, (grad,) = joint_loss_1(hand, theta, target)
        fd = oracles.fd_jacobian(lambda t: joint_loss_1(hand, t, target)[0], theta)[0]
        assert np.linalg.norm(grad - fd) / (1.0 + np.linalg.norm(fd)) < 1e-8


def test_joint_loss_symmetric_in_residual(hand, rng):
    # swapping prediction and target leaves the value unchanged
    t1 = sample_in_bounds(hand, rng)
    t2 = sample_in_bounds(hand, rng)
    (v12,), _ = joint_loss_1(hand, t1, eval_joints(hand, t2))
    (v21,), _ = joint_loss_1(hand, t2, eval_joints(hand, t1))
    assert np.isclose(v12, v21)


def test_joint_loss_gradient_matches_jacobian_oracle(hand):
    # the reverse-mode gradient against J^T r from the full Jacobian, on
    # both skeletons (root translation DOFs included), for the eval subset
    # and for every joint (the same hand with the default eval subset),
    # alone and in batches
    rng = np.random.default_rng(606)
    for base in (hand, bench.benchmark_skeleton()):
        every_joint = base.to_dict()
        del every_joint["eval_subset"]
        for skel in (base, sk.skeleton_from_dict(every_joint)):
            sel = list(skel.eval_subset)
            for n in (1, 64, 4096):
                thetas = rng.uniform(skel.dof_lower, skel.dof_upper, size=(n, skel.n_dofs))
                others = rng.uniform(skel.dof_lower, skel.dof_upper, size=(n, skel.n_dofs))
                targets = kin.forward_kinematics_batch(skel, others, joint_indices=sel)
                _, grads = loss.joint_loss_batch(skel, thetas, targets)
                want = oracles.jacobian_gradient(skel, thetas, targets, sel)
                rel = (np.linalg.norm(grads - want, axis=1)
                       / np.linalg.norm(want, axis=1))
                assert rel.max() < 1e-12, (skel.name, len(sel), n, rel.max())


def test_phy_loss_in_range_zero(hand, rng):
    theta = sample_in_bounds(hand, rng)
    (value,), (grad,) = phy_loss_1(hand, theta)
    assert value == 0.0
    assert np.array_equal(grad, np.zeros(hand.n_dofs))


def test_phy_loss_single_violation(hand):
    theta = np.zeros(hand.n_dofs)
    d = 8  # finger rotation DOF
    assert hand.dof_is_rotation[d]
    theta[d] = hand.dof_upper[d] + 0.1
    (value,), (grad,) = phy_loss_1(hand, theta)
    assert np.isclose(value, 0.1)
    assert grad[d] == 1.0
    assert np.count_nonzero(grad) == 1


def test_phy_loss_two_violations_add(hand):
    theta = np.zeros(hand.n_dofs)
    rot_dofs = [d for d in range(hand.n_dofs) if hand.dof_is_rotation[d]]
    lo_d, hi_d = rot_dofs[2], rot_dofs[5]
    theta[lo_d] = hand.dof_lower[lo_d] - 0.2
    theta[hi_d] = hand.dof_upper[hi_d] + 0.3
    (value,), (grad,) = phy_loss_1(hand, theta)
    assert np.isclose(value, 0.5)
    assert grad[lo_d] == -1.0
    assert grad[hi_d] == 1.0


def test_phy_loss_zero_at_exact_bound(hand):
    theta = np.zeros(hand.n_dofs)
    d = 8
    theta[d] = hand.dof_upper[d]
    (value,), (grad,) = phy_loss_1(hand, theta)
    assert value == 0.0
    assert grad[d] == 0.0


def test_phy_loss_ignores_translation(hand):
    theta = np.zeros(hand.n_dofs)
    theta[0] = hand.dof_upper[0] + 50.0  # translation DOF out of its box
    (value,), (grad,) = phy_loss_1(hand, theta)
    assert value == 0.0
    assert grad[0] == 0.0


def test_phy_loss_monotone_in_violation(hand):
    d = 8
    base = np.zeros(hand.n_dofs)
    prev = -1.0
    for excess in (0.05, 0.1, 0.2, 0.4):
        theta = base.copy()
        theta[d] = hand.dof_upper[d] + excess
        (value,), _ = phy_loss_1(hand, theta)
        assert value > prev
        prev = value


def test_phy_loss_refuses_anything_but_a_batch(hand):
    for shape in ((hand.n_dofs,), (1, 25), (2, 1, hand.n_dofs)):
        with pytest.raises(ValueError, match=r"is not a batch \(N, 26\)"):
            loss.phy_loss_batch(hand, np.zeros(shape))


def test_total_loss_gradient_finite_difference_away_from_kinks(hand, rng):
    # keep every angle at least 1e-3 from its bounds so the hinge is smooth;
    # targets at training-scale residuals keep the scalar FD oracle accurate
    for _ in range(100):
        theta = sample_in_bounds(hand, rng, margin=0.01)
        lam = 1.0
        near = theta + rng.normal(scale=0.02, size=theta.shape)
        target = eval_joints(hand, near)

        def total(t):
            return joint_loss_1(hand, t, target)[0] + lam * phy_loss_1(hand, t)[0]

        grad = joint_loss_1(hand, theta, target)[1][0] + lam * phy_loss_1(hand, theta)[1][0]
        fd = oracles.fd_jacobian(total, theta)[0]
        assert oracles.rel_err(grad, fd) < 1e-6


def test_batched_losses_match_scalar(hand, rng):
    # row i of a batch is bit for bit the batch of row i alone
    thetas = sample_in_bounds(hand, rng, n=6)
    thetas[2, 8] = hand.dof_upper[8] + 0.1  # one pose outside its range
    targets = np.stack([eval_joints(hand, sample_in_bounds(hand, rng)) for _ in range(6)])
    values, grads = loss.joint_loss_batch(hand, thetas, targets)
    pvals, pgrads = loss.phy_loss_batch(hand, thetas)
    for i in range(6):
        v, g = joint_loss_1(hand, thetas[i], targets[i])
        assert values[i] == v[0]
        assert np.array_equal(grads[i], g[0])
        v2, g2 = phy_loss_1(hand, thetas[i])
        assert pvals[i] == v2[0]
        assert np.array_equal(pgrads[i], g2[0])
