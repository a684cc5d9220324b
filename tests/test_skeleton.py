import hashlib
import json

import numpy as np
import pytest

from conftest import sample_in_bounds
from kinedeep import bench
from kinedeep import skeleton as sk


def single_joint_config():
    return {
        "name": "dot",
        "joints": [
            {
                "name": "root",
                "parent": None,
                "bone_length_mm": 0.0,
                "dofs": [
                    {"kind": "translation", "axis": a, "lower_mm": -100.0, "upper_mm": 100.0}
                    for a in "XYZ"
                ] + [
                    {"kind": "rotation", "axis": a, "lower_deg": -180.0, "upper_deg": 180.0}
                    for a in "XYZ"
                ],
            }
        ],
    }


def test_default_hand_counts(hand):
    assert hand.n_joints == 23
    assert hand.n_dofs == 26


def test_default_hand_dof_split(hand):
    # 6 root DOFs (3 translation + 3 rotation), the rest are joint rotations
    root_dofs = [d for d in range(hand.n_dofs) if hand.dof_joint[d] == 0]
    assert len(root_dofs) == 6
    assert sum(not r for r in hand.dof_is_rotation) == 3
    assert sum(1 for d in range(hand.n_dofs)
               if hand.dof_is_rotation[d] and hand.dof_joint[d] != 0) == 20


def test_default_hand_tips_have_no_dofs(hand):
    for u, name in enumerate(hand.joint_names):
        if name.endswith("_tip"):
            assert hand.joint_dofs[u] == ()


def test_default_hand_finger_depth(hand):
    # root -> wrist -> base -> mid -> end -> tip
    for finger in ("thumb", "index", "middle", "ring", "pinky"):
        u = hand.joint_names.index(f"{finger}_tip")
        depth = 0
        while u >= 0:
            depth += 1
            u = hand.parent_index[u]
        assert depth == 6


def test_default_hand_eval_subset(hand):
    assert len(hand.eval_subset) == 14
    assert all(0 <= i < hand.n_joints for i in hand.eval_subset)


def test_load_single_joint(tmp_path):
    path = tmp_path / "dot.json"
    path.write_text(json.dumps(single_joint_config()))
    skel = sk.load_skeleton(path)
    assert skel.n_joints == 1
    assert skel.n_dofs == 6


def test_self_parent_is_cycle(tmp_path):
    cfg = single_joint_config()
    cfg["joints"].append(
        {"name": "loop", "parent": "loop", "bone_length_mm": 10.0, "dofs": []}
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(sk.SkeletonError, match="cycle"):
        sk.load_skeleton(path)


def test_child_before_parent_rejected():
    joints = [
        {"name": "root"},
        {"name": "late_child", "parent": "mid", "bone_length_mm": 5.0},
        {"name": "mid", "parent": "root", "bone_length_mm": 5.0},
    ]
    with pytest.raises(sk.SkeletonError, match="topological"):
        sk.skeleton_from_dict({"joints": joints})


def test_two_roots_rejected():
    joints = [{"name": "a"}, {"name": "b"}]
    with pytest.raises(sk.SkeletonError, match="root"):
        sk.skeleton_from_dict({"joints": joints})


def test_duplicate_names_rejected():
    joints = [{"name": "a"}, {"name": "a", "parent": "a", "bone_length_mm": 1.0}]
    with pytest.raises(sk.SkeletonError, match="duplicate"):
        sk.skeleton_from_dict({"joints": joints})
    # an eval joint named twice would count twice in the loss and the metrics
    joints = [{"name": "root"}, {"name": "tip", "parent": "root", "bone_length_mm": 1.0}]
    with pytest.raises(sk.SkeletonError, match="eval_subset names joint 'tip' more than once"):
        sk.skeleton_from_dict({"joints": joints, "eval_subset": ["tip", "tip", "root"]})


def test_bad_bounds_rejected():
    def one_dof(lower, upper):
        return {"joints": [{"name": "root", "dofs": [
            {"kind": "rotation", "axis": "X", "lower_deg": lower, "upper_deg": upper}]}]}

    with pytest.raises(sk.SkeletonError, match="lower bound"):
        sk.skeleton_from_dict(one_dof(30.0, -30.0))
    with pytest.raises(sk.SkeletonError, match=r"outside \[-180, 180\]"):
        sk.skeleton_from_dict(one_dof(-57.0, 229.0))


def test_error_names_offending_joint(tmp_path):
    cfg = single_joint_config()
    cfg["joints"].append({
        "name": "elbow", "parent": "root", "bone_length_mm": 10.0,
        "dofs": [{"kind": "rotation", "axis": "Z", "lower_deg": 30.0, "upper_deg": -30.0}],
    })
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(sk.SkeletonError, match="elbow"):
        sk.load_skeleton(path)


def test_parse_failure(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text("{ not json")
    with pytest.raises(sk.SkeletonError, match="JSON"):
        sk.load_skeleton(path)


def test_roundtrip_save_load(hand, tmp_path):
    path = tmp_path / "hand.json"
    sk.save_skeleton(hand, path)
    again = sk.load_skeleton(path)
    assert again.to_dict() == hand.to_dict()
    assert again.n_dofs == hand.n_dofs
    assert np.array_equal(again.dof_lower, hand.dof_lower)
    assert np.array_equal(again.dof_upper, hand.dof_upper)
    assert np.array_equal(again.path_mask, hand.path_mask)


def test_config_survives_save_load(hand, tmp_path):
    # a checkpoint is loaded for a skeleton whose to_dict() equals its stored
    # config, so a saved and loaded skeleton file must give the same config
    bench_skel = bench.benchmark_skeleton()
    for skel in (hand, bench_skel):
        path = tmp_path / f"{skel.name}.json"
        sk.save_skeleton(skel, path)
        assert sk.load_skeleton(path).to_dict() == skel.to_dict()
    assert hand.to_dict()["name"] == "hand23"
    assert hand.to_dict() != bench_skel.to_dict()


def config_sha256(skel) -> str:
    return hashlib.sha256(json.dumps(skel.to_dict(), sort_keys=True).encode()).hexdigest()


def test_fingerprints_are_pinned(hand):
    # every checkpoint stores one of these configs, here by the sha256 of
    # its sorted JSON; a change refuses them all
    assert config_sha256(hand) == \
        "e3433ca590b89df225b16a9191f5c9418fe8955bf78dc9ca4690182945790806"
    assert config_sha256(bench.benchmark_skeleton()) == \
        "f592722546008958a489cd4ae811cd4c27cc7ee633b506a76366d7349bb0021e"


def test_to_dict_is_a_fresh_copy(hand):
    want = hand.to_dict()
    raw = hand.to_dict()
    raw["name"] = "changed"
    raw["joints"][1]["bone_length_mm"] = 1.0
    raw["joints"][0]["dofs"][0]["lower_mm"] = 0.0
    raw["eval_subset"].pop()
    assert hand.to_dict() == want != raw


def test_lower_case_axis_is_written_in_upper_case():
    cfg = single_joint_config()
    for dof in cfg["joints"][0]["dofs"]:
        dof["axis"] = dof["axis"].lower()
    skel = sk.skeleton_from_dict(cfg)
    assert [d["axis"] for d in skel.to_dict()["joints"][0]["dofs"]] == list("XYZXYZ")
    assert skel.to_dict() == sk.skeleton_from_dict(single_joint_config()).to_dict()


def test_default_hand_round_trips_packaged_file(hand):
    # the benchmark skeleton is built from default_hand().to_dict(), so the
    # dict form must reproduce the packaged file exactly
    with open(sk.HAND23_PATH) as fh:
        raw = json.load(fh)
    assert hand.to_dict() == raw


def test_clamp_zero_pose_unchanged(hand):
    theta = np.zeros((1, hand.n_dofs))
    assert np.array_equal(sk.clamp_pose(hand, theta), theta)


def test_clamp_overrun_component(hand):
    theta = np.zeros((1, hand.n_dofs))
    d = 7  # a finger rotation
    theta[0, d] = hand.dof_upper[d] + 0.5
    clamped = sk.clamp_pose(hand, theta)
    assert clamped[0, d] == hand.dof_upper[d]
    mask = np.ones(hand.n_dofs, dtype=bool)
    mask[d] = False
    assert np.array_equal(clamped[:, mask], theta[:, mask])


def test_clamp_in_range_is_fixpoint(hand, rng):
    for _ in range(20):
        theta = sample_in_bounds(hand, rng)[None]
        assert np.array_equal(sk.clamp_pose(hand, theta), theta)


def test_clamp_idempotent(hand, rng):
    theta = rng.normal(scale=5.0, size=(3, hand.n_dofs))
    once = sk.clamp_pose(hand, theta)
    assert np.array_equal(sk.clamp_pose(hand, once), once)


def test_clamp_dimension_mismatch(hand):
    # only a batch of poses (N, D) is clamped
    for shape in ((1, 25), (26,), (2, 1, 26)):
        with pytest.raises(ValueError, match=r"is not a batch \(N, 26\)"):
            sk.clamp_pose(hand, np.zeros(shape))


@pytest.mark.parametrize("skel", [
    sk.skeleton_from_dict({**single_joint_config(), "joints": [{
        **single_joint_config()["joints"][0],
        "dofs": [{"kind": "rotation", "axis": "X", "lower_deg": -178.7,
                  "upper_deg": 12.3}]}]}),
    sk.default_hand(), bench.benchmark_skeleton()], ids=["bound_-178.7", "hand23", "bench"])
def test_skeleton_rebuilt_from_its_config_is_the_same_bit_for_bit(skel):
    # a data file stores the config and its reader rebuilds the skeleton
    # from it: the config keeps each bound as given (-178.7 used to come
    # back as -178.70000000000002), so every table keeps its bits
    again = sk.skeleton_from_dict(skel.to_dict())
    assert again.to_dict() == skel.to_dict()
    for name in ("parent_index", "bone_lengths", "dof_joint", "dof_is_rotation", "dof_axis",
                 "dof_lower", "dof_upper", "path_mask"):
        got, want = getattr(again, name), getattr(skel, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert all((a is None and b is None) or a.tobytes() == b.tobytes()
               for a, b in zip(again.rest_rotations, skel.rest_rotations))
    assert (again.joint_names, again.joint_dofs, again.eval_subset) == \
        (skel.joint_names, skel.joint_dofs, skel.eval_subset)
