import math

import numpy as np
import pytest

import oracles
from conftest import sample_in_bounds
from kinedeep import kinematics as kin
from kinedeep import skeleton as sk


def fk(skel, theta):
    """Joint positions (J, 3) of one pose, as a batch of one."""
    return kin.forward_kinematics_batch(skel, np.asarray(theta)[None])[0]


def jacobian(skel, theta, joint_indices=None):
    """(positions, Jacobian) of one pose, as a batch of one."""
    pos, jac = kin.fk_jacobian_batch(skel, np.asarray(theta)[None], joint_indices)
    return pos[0], jac[0]


def planar_chain(lengths=(30.0, 20.0, 10.0)):
    """root -> b -> c -> tip along X with Z rotations at b and c."""
    rot_z = sk.DofSpec("rotation", "Z", -math.pi, math.pi)
    joints = [
        sk.JointSpec("root", None, 0.0),
        sk.JointSpec("b", 0, lengths[0], dofs=(rot_z,)),
        sk.JointSpec("c", 1, lengths[1], dofs=(rot_z,)),
        sk.JointSpec("tip", 2, lengths[2]),
    ]
    return sk.Skeleton(joints, name="chain")


# --- elementary transforms (the oracle's matrices) --------------------------

def test_rot_zero_is_identity():
    assert np.array_equal(oracles.mat_rot(2, 0.0), np.eye(4))


def test_rot_quarter_turn_z():
    p = oracles.mat_rot(2, math.pi / 2) @ np.array([1.0, 0.0, 0.0, 1.0])
    assert np.allclose(p[:3], [0.0, 1.0, 0.0], atol=1e-15)


def test_rot_inverse_product():
    m = oracles.mat_rot(0, 0.3) @ oracles.mat_rot(0, -0.3)
    assert np.allclose(m, np.eye(4), atol=1e-15)


def test_rot_orthonormal(rng):
    for axis in range(3):
        a = rng.uniform(-math.pi, math.pi)
        r = oracles.mat_rot(axis, a)[:3, :3]
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-14)
        assert math.isclose(np.linalg.det(r), 1.0, abs_tol=1e-14)


def test_trans_zero_is_identity():
    assert np.array_equal(oracles.mat_trans(0, 0.0), np.eye(4))


def test_trans_moves_origin():
    p = oracles.mat_trans(0, 5.0) @ np.array([0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(p[:3], [5.0, 0.0, 0.0])


def test_trans_compose_adds():
    assert np.allclose(
        oracles.mat_trans(0, 2.5) @ oracles.mat_trans(0, 4.0), oracles.mat_trans(0, 6.5),
        atol=1e-15,
    )


def test_drot_at_zero():
    m = oracles.mat_drot(2, 0.0)
    expect = np.zeros((4, 4))
    expect[0, 1], expect[1, 0] = -1.0, 1.0
    assert np.array_equal(m, expect)


def test_drot_matches_finite_difference(rng):
    h = 1e-6
    for axis in range(3):
        a = rng.uniform(-math.pi, math.pi)
        fd = (oracles.mat_rot(axis, a + h) - oracles.mat_rot(axis, a - h)) / (2 * h)
        assert np.max(np.abs(oracles.mat_drot(axis, a) - fd)) < 1e-8


def test_drot_x_leaves_x_row_zero(rng):
    m = oracles.mat_drot(0, rng.uniform(-math.pi, math.pi))
    assert np.array_equal(m[0, :3], np.zeros(3))
    assert np.array_equal(m[:3, 0], np.zeros(3))
    assert np.array_equal(m[3], np.zeros(4))


# --- forward kinematics -------------------------------------------------------

def test_chain_straight():
    skel = planar_chain()
    pos = fk(skel, np.zeros(2))
    assert np.allclose(pos[3], [60.0, 0.0, 0.0], atol=1e-12)


def test_chain_right_angle():
    # Trans_x(l1) . Rot_z(pi/2) . Trans_x(l2) . Trans_x(l3) applied to origin
    skel = planar_chain()
    pos = fk(skel, np.array([math.pi / 2, 0.0]))
    assert np.allclose(pos[1], [30.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(pos[3], [30.0, 30.0, 0.0], atol=1e-12)


def test_rest_pose_matches_fixture(hand):
    names, table = [], []
    with open("tests/data/hand23_rest_pose.csv") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            name, x, y, z = line.strip().split(",")
            names.append(name)
            table.append([float(x), float(y), float(z)])
    assert names == [j.name for j in hand.joints]
    pos = fk(hand, np.zeros(hand.n_dofs))
    assert np.allclose(pos, np.array(table), atol=1e-9)


def test_rest_pose_fixture_matches_naive_oracle(hand):
    # guards fixture drift: regenerate with the straight-line 4x4 oracle
    expect = oracles.naive_forward_kinematics(hand, np.zeros(hand.n_dofs))
    pos = fk(hand, np.zeros(hand.n_dofs))
    assert np.allclose(pos, expect, atol=1e-9)


def test_fk_matches_naive_oracle_random(hand, rng):
    for _ in range(10):
        theta = sample_in_bounds(hand, rng)
        fast = fk(hand, theta)
        slow = oracles.naive_forward_kinematics(hand, theta)
        assert np.allclose(fast, slow, atol=1e-10)


def test_fk_batch_matches_single(hand, rng):
    # batched BLAS kernels may differ from the N=1 path in the last ulp
    thetas = sample_in_bounds(hand, rng, n=7)
    batch = kin.forward_kinematics_batch(hand, thetas)
    for i in range(7):
        assert np.allclose(batch[i], fk(hand, thetas[i]),
                           rtol=0.0, atol=1e-9)


def test_eval_joints_c_contiguous_at_every_batch_size(hand, rng):
    # numpy sums in memory order, so a row reduction of the output gives the
    # same bits for a pose alone and in a batch only if the layout is fixed
    ev = list(hand.eval_subset)
    for n in (1, 2, 64):
        thetas = sample_in_bounds(hand, rng, n=n).reshape(n, -1)
        assert kin.forward_kinematics_batch(hand, thetas, joint_indices=ev).flags.c_contiguous
        assert kin.fk_jacobian_batch(hand, thetas, joint_indices=ev)[0].flags.c_contiguous
    thetas = sample_in_bounds(hand, rng, n=64)
    target = fk(hand, sample_in_bounds(hand, rng))[ev]
    resid = kin.forward_kinematics_batch(hand, thetas, joint_indices=ev) - target
    loss = 0.5 * np.einsum("nkc,nkc->n", resid, resid)
    dist = np.linalg.norm(resid, axis=2).mean(axis=1)
    for i in range(64):
        alone = kin.forward_kinematics_batch(hand, thetas[i:i + 1], joint_indices=ev) - target
        assert 0.5 * np.einsum("nkc,nkc->n", alone, alone)[0] == loss[i]
        assert np.linalg.norm(alone, axis=2).mean(axis=1)[0] == dist[i]


def test_fk_rejects_bad_shape(hand):
    with pytest.raises(ValueError, match="shape"):
        fk(hand, np.zeros(9))


def test_fk_rejects_non_finite(hand):
    theta = np.zeros(hand.n_dofs)
    theta[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fk(hand, theta)


def test_rigidity(hand, rng):
    for _ in range(25):
        theta = sample_in_bounds(hand, rng)
        pos = fk(hand, theta)
        for u in range(1, hand.n_joints):
            p = hand.parent_index[u]
            dist = np.linalg.norm(pos[u] - pos[p])
            assert abs(dist - hand.bone_lengths[u]) < 1e-9


def test_translation_equivariance(hand, rng):
    theta = sample_in_bounds(hand, rng)
    delta = np.array([12.5, -40.0, 7.25])
    shifted = theta.copy()
    shifted[:3] += delta
    a = fk(hand, theta)
    b = fk(hand, shifted)
    assert np.allclose(b, a + delta, atol=1e-9)


def test_determinism(hand, rng):
    theta = sample_in_bounds(hand, rng)
    a = fk(hand, theta)
    b = fk(hand, theta.copy())
    assert np.array_equal(a, b)
    pa, ja = jacobian(hand, theta)
    pb, jb = jacobian(hand, theta.copy())
    assert np.array_equal(ja, jb)
    assert np.array_equal(pa, pb)


# --- jacobian -----------------------------------------------------------------

def test_jacobian_root_translation_columns(hand, rng):
    theta = sample_in_bounds(hand, rng)
    _, jac = jacobian(hand, theta)
    J = hand.n_joints
    for d, axis in enumerate("xyz"):
        col = jac[:, d].reshape(J, 3)
        expect = np.zeros((J, 3))
        expect[:, d] = 1.0
        assert np.array_equal(col, expect)


def test_jacobian_matches_finite_differences(hand, rng):
    worst = 0.0
    for _ in range(100):
        theta = sample_in_bounds(hand, rng)
        _, jac = jacobian(hand, theta)
        fd = oracles.fd_jacobian(lambda t: fk(hand, t), theta)
        worst = max(worst, oracles.rel_err(jac, fd))
    assert worst < 1e-6


def test_jacobian_matches_replace_rule_oracle(hand, rng):
    for _ in range(3):
        theta = sample_in_bounds(hand, rng)
        _, jac = jacobian(hand, theta)
        assert np.allclose(jac, oracles.naive_jacobian(hand, theta), atol=1e-10)


def test_jacobian_cross_finger_sparsity(hand, rng):
    theta = sample_in_bounds(hand, rng)
    _, jac = jacobian(hand, theta)
    tip = [j.name for j in hand.joints].index("index_tip")
    block = jac[3 * tip:3 * tip + 3]
    for d in range(hand.n_dofs):
        owner = hand.joints[hand.dof_joint[d]].name
        if owner.startswith(("middle", "ring", "pinky", "thumb")):
            assert np.array_equal(block[:, d], np.zeros(3))


def test_jacobian_subset_matches_full(hand, rng):
    theta = sample_in_bounds(hand, rng)
    ev = list(hand.eval_subset)
    pos_s, jac_s = jacobian(hand, theta, joint_indices=ev)
    pos_f, jac_f = jacobian(hand, theta)
    for k, u in enumerate(ev):
        assert np.array_equal(pos_s[k], pos_f[u])
        assert np.array_equal(jac_s[3 * k:3 * k + 3], jac_f[3 * u:3 * u + 3])


def test_jacobian_rotation_entries_bounded_by_reach(hand, rng):
    # |d p_u / d theta| <= total bone length from the DOF's joint down to u
    reach = np.zeros((hand.n_joints, hand.n_dofs))
    for u in range(hand.n_joints):
        for d in range(hand.n_dofs):
            if not hand.path_mask[u, d] or not hand.dof_is_rotation[d]:
                continue
            v, total = u, 0.0
            while v != hand.dof_joint[d]:
                total += hand.bone_lengths[v]
                v = hand.parent_index[v]
            reach[u, d] = total
    for _ in range(10):
        theta = sample_in_bounds(hand, rng)
        _, jac = jacobian(hand, theta)
        for u in range(hand.n_joints):
            for d in range(hand.n_dofs):
                if hand.dof_is_rotation[d] and hand.path_mask[u, d]:
                    norm = np.linalg.norm(jac[3 * u:3 * u + 3, d])
                    assert norm <= reach[u, d] + 1e-9
