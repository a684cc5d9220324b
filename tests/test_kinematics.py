import math

import numpy as np
import pytest

import oracles
from conftest import sample_in_bounds
from kinedeep import bench
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
    rot_z = {"kind": "rotation", "axis": "Z", "lower_deg": -180.0, "upper_deg": 180.0}
    return sk.skeleton_from_dict({"name": "chain", "joints": [
        {"name": "root"},
        {"name": "b", "parent": "root", "bone_length_mm": lengths[0], "dofs": [rot_z]},
        {"name": "c", "parent": "b", "bone_length_mm": lengths[1], "dofs": [rot_z]},
        {"name": "tip", "parent": "c", "bone_length_mm": lengths[2]},
    ]})


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
    assert names == list(hand.joint_names)
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
    tip = hand.joint_names.index("index_tip")
    block = jac[3 * tip:3 * tip + 3]
    for d in range(hand.n_dofs):
        owner = hand.joint_names[hand.dof_joint[d]]
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


# --- joint groups: the bytes of the per-joint walk ----------------------------

def _tree(name, rows, eval_subset):
    """A skeleton from (name, parent, bone, dofs, rest_offset_deg) rows; a
    DOF is "r" (+-143 deg) or "t" (+-30 mm) and its axis, and eval_subset
    lists row numbers."""
    bounds = {"r": ("rotation", "lower_deg", "upper_deg", 143.0),
              "t": ("translation", "lower_mm", "upper_mm", 30.0)}

    def dof(code):
        kind, lower, upper, limit = bounds[code[0]]
        return {"kind": kind, "axis": code[1], lower: -limit, upper: limit}

    joints = [{"name": jname, "parent": parent, "bone_length_mm": bone,
               "dofs": [dof(d) for d in dofs], "rest_offset_deg": list(rest)}
              for jname, parent, bone, dofs, rest in rows]
    return sk.skeleton_from_dict({"name": name, "joints": joints,
                                  "eval_subset": [rows[i][0] for i in eval_subset]})


NO_REST = (0.0, 0.0, 0.0)
SYNTHETIC_TREES = {
    # one joint: rest rotation on the root, a translation after a rotation
    "root_only": _tree("root_only", [
        ("root", None, 0.0, ("tX", "rZ", "tY", "rX"), (10.0, -20.0, 30.0)),
    ], eval_subset=[0]),
    # the root's children have three signatures; x1/a1/y1 gather from one
    # group at uneven rows, a2/y2 slice it with step 2, d1/d2 share a parent
    "mixed_signatures": _tree("mixed_signatures", [
        ("root", None, 0.0, ("tX", "tY", "tZ", "rX", "rY", "rZ"), NO_REST),
        ("a", "root", 30.0, ("rZ",), NO_REST),
        ("b", "root", 25.0, ("rY",), (0.0, 20.0, -40.0)),
        ("x", "root", 28.0, ("rZ",), NO_REST),
        ("c", "root", 20.0, ("rZ",), NO_REST),
        ("d", "root", 15.0, (), NO_REST),
        ("y", "root", 22.0, ("rZ",), NO_REST),
        ("a1", "a", 10.0, ("rX",), NO_REST),
        ("c1", "c", 12.0, ("rZ",), NO_REST),
        ("b1", "b", 14.0, ("rY", "rZ"), (5.0, 0.0, 5.0)),
        ("x1", "x", 9.0, ("rX",), NO_REST),
        ("y1", "y", 8.0, ("rX",), NO_REST),
        ("d1", "d", 9.0, (), NO_REST),
        ("d2", "d", 7.0, (), NO_REST),
        ("y2", "y1", 5.0, ("rY",), NO_REST),
        ("a2", "a1", 6.0, ("rY",), NO_REST),
        ("c2", "c1", 4.0, (), NO_REST),
    ], eval_subset=[16, 9, 0, 14, 12]),
    # b's chain is listed before a's below the first level
    "interleaved_siblings": _tree("interleaved_siblings", [
        ("root", None, 0.0, ("rZ",), NO_REST),
        ("a", "root", 30.0, ("rY",), NO_REST),
        ("b", "root", 32.0, ("rY",), (0.0, 0.0, 25.0)),
        ("b1", "b", 20.0, ("rY",), NO_REST),
        ("a1", "a", 21.0, ("rY",), NO_REST),
        ("b2", "b1", 10.0, (), NO_REST),
        ("a2", "a1", 11.0, (), NO_REST),
    ], eval_subset=[6, 5, 0]),
    # prismatic joints below the root, translations between rotations
    "translation_below_root": _tree("translation_below_root", [
        ("root", None, 0.0, ("rZ",), (0.0, 15.0, 0.0)),
        ("slide", "root", 40.0, ("tX", "rZ"), NO_REST),
        ("arm", "slide", 30.0, ("rY", "tZ", "rX"), NO_REST),
        ("tip", "arm", 10.0, (), NO_REST),
        ("slide2", "root", 35.0, ("tX", "rZ"), NO_REST),
        ("arm2", "slide2", 28.0, ("rY", "tZ", "rX"), NO_REST),
    ], eval_subset=[3, 5]),
}


def _skeleton(name):
    if name == "hand":
        return sk.default_hand()
    if name == "benchmark":
        return bench.benchmark_skeleton()
    return SYNTHETIC_TREES[name]


def _same_bytes(got, want):
    # np.array_equal would take -0.0 for 0.0
    return got.shape == want.shape and got.dtype == want.dtype and \
        got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 64, 1536])
@pytest.mark.parametrize("name", ["hand", "benchmark", *SYNTHETIC_TREES])
def test_joint_groups_give_the_bytes_of_the_per_joint_walk(name, n):
    skel = _skeleton(name)
    rng = np.random.default_rng(n)
    thetas = sample_in_bounds(skel, rng, n=n).reshape(n, -1)
    if n > 1:
        thetas[0] = -0.0  # signed zeros reach every output
    J = skel.n_joints
    selections = (None, list(skel.eval_subset), [J - 1, 0, J - 1, J // 2])
    for sel in selections:
        got = kin.forward_kinematics_batch(skel, thetas, sel)
        assert _same_bytes(got, oracles.per_joint_forward_kinematics_batch(skel, thetas, sel))
        assert got.flags.c_contiguous

        got_pos, got_jac = kin.fk_jacobian_batch(skel, thetas, sel)
        want_pos, want_jac = oracles.per_joint_fk_jacobian_batch(skel, thetas, sel)
        assert _same_bytes(got_pos, want_pos) and _same_bytes(got_jac, want_jac)

        got_pos, got_pull = kin.fk_vjp_batch(skel, thetas, sel)
        want_pos, want_pull = oracles.per_joint_fk_vjp_batch(skel, thetas, sel)
        assert _same_bytes(got_pos, want_pos)
        cotangent = rng.normal(size=got_pos.shape)
        cotangent[..., 0] = np.where(cotangent[..., 0] > 0, 0.0, -0.0)
        got_grad = got_pull(cotangent)
        assert _same_bytes(got_grad, want_pull(cotangent))
        assert got_grad.flags.c_contiguous


def test_hand_forms_seven_joint_groups(hand):
    # one numpy call per group step: the five fingers' chains share theirs
    layout = hand.fk_layout
    fingers = ("index", "middle", "ring", "pinky", "thumb")
    assert [[hand.joint_names[u] for u in g.joints] for g in layout.groups] == \
        [["root"], ["wrist_palm"], ["wrist_thumb"]] + \
        [[f"{f}_{part}" for f in fingers] for part in ("base", "mid", "end", "tip")]
    # only the finger bases gather their parents' frames; the rest slice
    assert [g.parent_group for g in layout.groups[1:]] == [0, 0, -1, 3, 4, 5]
    assert layout.n_kept == 2 and layout.n_rotations == 23
    for arr in (layout.joint_row, layout.dof_order, layout.dof_slot, layout.dof_row):
        assert not arr.flags.writeable
    assert not any(g.rest.flags.writeable for g in layout.groups if g.rest is not None)
