import ctypes
import json
import math
import multiprocessing
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from kinedeep import bench, cli, fileio, ik_pso
from kinedeep import kinematics as kin
from kinedeep import regressor as reg
from kinedeep import skeleton as sk
from kinedeep.cli import build_parser, main, reproduce_fit, reproduce_mode
from test_regressor import CHECKPOINT_DAMAGE, checkpoint_parts


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def pose_file(hand, rng, tmp_path):
    poses = rng.uniform(hand.dof_lower, hand.dof_upper, size=(4, hand.n_dofs))
    path = tmp_path / "poses.csv"
    fileio.write_pose_file(path, hand.name, poses)
    return path, poses


def test_fk_roundtrip(hand, pose_file, tmp_path):
    path, poses = pose_file
    out = tmp_path / "joints.csv"
    assert run_cli("fk", "--poses", str(path), "--out", str(out)) == 0
    name, frames = fileio.read_joint_file(out)
    assert np.array_equal(frames, kin.forward_kinematics_batch(hand, poses))
    assert os.path.exists(str(out) + ".manifest.json")


def test_fk_rest_pose_matches_fixture(hand, tmp_path):
    path = tmp_path / "zero.csv"
    fileio.write_pose_file(path, hand.name, np.zeros((1, hand.n_dofs)))
    out = tmp_path / "joints.csv"
    assert run_cli("fk", "--poses", str(path), "--out", str(out)) == 0
    _, frames = fileio.read_joint_file(out)
    table = []
    with open("tests/data/hand23_rest_pose.csv") as fh:
        for line in fh:
            if not line.startswith("#"):
                table.append([float(v) for v in line.strip().split(",")[1:]])
    assert np.allclose(frames[0], np.array(table), atol=1e-9)


def test_fk_empty_pose_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    out = tmp_path / "joints.csv"
    assert run_cli("fk", "--poses", str(path), "--out", str(out)) == 0
    _, frames = fileio.read_joint_file(out)
    assert frames.shape[0] == 0


def test_fk_malformed_line_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("# kinedeep-poses v1 skeleton=hand23 dims=26\n"
                    + ",".join(["0.0"] * 26) + "\n"
                    + ",".join(["0.0"] * 26) + "\n"
                    + "oops\n")
    out = tmp_path / "joints.csv"
    assert run_cli("fk", "--poses", str(path), "--out", str(out)) == 1
    assert "line 4" in capsys.readouterr().err


def test_jacobian_output(hand, pose_file, tmp_path):
    path, poses = pose_file
    out = tmp_path / "jac.csv"
    assert run_cli("jacobian", "--poses", str(path), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + len(poses)
    row = np.array([float(v) for v in lines[1].split(",")])
    _, jac = kin.fk_jacobian_batch(hand, poses[:1])
    assert np.array_equal(row, jac.reshape(-1))


def test_gradcheck_passes(tmp_path):
    assert run_cli("gradcheck", "--trials", "5", "--seed", "3") == 0


def test_gradcheck_rejects_bad_trials():
    assert run_cli("gradcheck", "--trials", "0") == 1


def test_gradcheck_corrupt_skeleton(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{ nope")
    assert run_cli("gradcheck", "--skeleton", str(cfg), "--trials", "2") == 1


def test_skeleton_env_var(tmp_path, monkeypatch, rng):
    # a one-joint skeleton via the environment variable
    cfg = {
        "name": "dot",
        "joints": [{
            "name": "root", "parent": None, "bone_length_mm": 0.0,
            "dofs": [{"kind": "translation", "axis": "X",
                      "lower_mm": -10.0, "upper_mm": 10.0}],
        }],
    }
    cfg_path = tmp_path / "dot.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setenv("KINEDEEP_SKELETON", str(cfg_path))
    poses = tmp_path / "poses.csv"
    fileio.write_pose_file(poses, "dot", np.array([[3.0]]))
    out = tmp_path / "joints.csv"
    assert run_cli("fk", "--poses", str(poses), "--out", str(out)) == 0
    _, frames = fileio.read_joint_file(out)
    assert np.allclose(frames[0, 0], [3.0, 0.0, 0.0])


def test_ik_recovers_pose(hand, rng, tmp_path):
    theta = rng.uniform(hand.dof_lower, hand.dof_upper, size=(1, hand.n_dofs))
    joints = kin.forward_kinematics_batch(hand, theta)
    targets = tmp_path / "targets.csv"
    fileio.write_joint_file(targets, hand.name, joints)  # full joint set
    out = tmp_path / "fit.csv"
    code = run_cli("ik", "--targets", str(targets), "--out", str(out),
                   "--seed", "5")
    assert code == 0
    _, fitted = fileio.read_pose_file(out)
    fit_joints = kin.forward_kinematics_batch(hand, fitted)
    err = np.linalg.norm(
        fit_joints[0][list(hand.eval_subset)] - joints[0][list(hand.eval_subset)],
        axis=1).mean()
    assert err < 1.0
    report = json.loads((tmp_path / "fit.csv.report.json").read_text())
    assert report["frames"] == 1
    assert np.isfinite(report["fit_s"]) and report["fit_s"] >= 0.0
    # per-frame telemetry, one entry per frame like iterations_used
    assert len(report["residual_mm"]) == len(report["iterations_used"]) == 1
    assert report["residual_mm"][0] == report["residual_mean_mm"]
    assert report["converged"] == [report["residual_mm"][0] <= ik_pso.TOL_MM]


def test_ik_no_target_frames_exits_1(hand, tmp_path, capsys):
    targets = tmp_path / "targets.csv"
    targets.write_text(
        f"# kinedeep-joints v1 skeleton={hand.name} joints={hand.n_joints}\n")
    out = tmp_path / "fit.csv"
    assert run_cli("ik", "--targets", str(targets), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {targets}: no frames to fit\n"
    assert "reshape" not in err
    assert not out.exists()


def test_ik_refuses_a_zero_byte_joint_file(tmp_path, capsys):
    targets = tmp_path / "targets.csv"
    targets.write_text("")
    out = tmp_path / "fit.csv"
    assert run_cli("ik", "--targets", str(targets), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {targets}: no frames to fit\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fk", "jacobian"])
def test_kinematics_of_a_header_only_pose_file_writes_no_rows(hand, tmp_path, command):
    poses = tmp_path / "poses.csv"
    fileio.write_pose_file(poses, hand.name, np.zeros((0, hand.n_dofs)))
    out = tmp_path / "out.csv"
    assert run_cli(command, "--poses", str(poses), "--out", str(out)) == 0
    assert out.read_text().count("\n") == 1  # the header line alone


@pytest.mark.parametrize("command", ["fk", "jacobian", "ik"])
def test_non_finite_input_leaves_no_output(hand, tmp_path, capsys, command):
    # the first row is fine and the second holds a NaN: no command may write
    # the first row's result and then fail
    thetas = np.zeros((2, hand.n_dofs))
    path = tmp_path / "in.csv"
    if command == "ik":
        joints = kin.forward_kinematics_batch(hand, thetas)
        joints[1, 3, 0] = np.nan
        fileio.write_joint_file(path, hand.name, joints)
        flag = "--targets"
    else:
        thetas[1, 5] = np.nan
        fileio.write_pose_file(path, hand.name, thetas)
        flag = "--poses"
    out = tmp_path / "out.csv"
    assert run_cli(command, flag, str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {path}: non-finite value on line 3\n"
    assert not out.exists()


def test_ik_refuses_frames_of_another_joint_count(hand, tmp_path, capsys):
    targets = tmp_path / "j5.txt"
    fileio.write_joint_file(targets, hand.name, np.zeros((2, 5, 3)))
    out = tmp_path / "fit.csv"
    assert run_cli("ik", "--targets", str(targets), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {targets}: frames carry 5 joints, expected 14 "
                          f"(eval subset) or 23 (all)"), err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [("--iters", "0", "--iters must be >= 1"),
                                                  ("--swarm", "1", "--swarm must be >= 2")])
def test_ik_refuses_bad_iters_and_swarm_before_reading_targets(hand, tmp_path, capsys,
                                                               flag, value, message):
    # both used to be refused only after the targets were read, by
    # PsoConfig, with a message that did not name the flag
    targets = tmp_path / "targets.csv"
    fileio.write_joint_file(targets, hand.name,
                            kin.forward_kinematics_batch(hand, np.zeros((1, hand.n_dofs))))
    out = tmp_path / "fit.csv"
    for path in (targets, tmp_path / "missing.csv"):  # nothing is read
        assert run_cli("ik", "--targets", str(path), "--out", str(out), flag, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fk", "jacobian"])
def test_kinematics_refuses_pose_file_of_another_skeleton(hand, tmp_path, capsys,
                                                          command):
    poses = tmp_path / "poses.csv"
    fileio.write_pose_file(poses, "some-other-hand", np.zeros((1, hand.n_dofs)))
    out = tmp_path / "out.csv"
    assert run_cli(command, "--poses", str(poses), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {poses}: pose file was made for skeleton 'some-other-hand', "
        f"not 'hand23'\n")
    assert not out.exists()


def test_ik_refuses_joint_file_of_another_skeleton(hand, tmp_path, capsys):
    targets = tmp_path / "targets.csv"
    fileio.write_joint_file(targets, "some-other-hand",
                            kin.forward_kinematics_batch(hand, np.zeros((1, hand.n_dofs))))
    out = tmp_path / "fit.csv"
    assert run_cli("ik", "--targets", str(targets), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {targets}: joint file was made for skeleton 'some-other-hand', "
        f"not 'hand23'\n")
    assert not out.exists()


def test_synth_train_eval_pipeline(tmp_path):
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "64", "--sigma", "5", "--occlusion", "0.0",
                   "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--mode", "ours_no_phy", "--train", str(data),
                   "--epochs", "4", "--batch", "16",
                   "--seed", "2", "--out", str(ckpt)) == 0
    run = reg.load_checkpoint(ckpt)
    assert run.mode == "ours_no_phy"
    assert len(run.history) >= 4  # staged plan rounds each stage up to >= 1
    # the manifest records what ran: the mode's base lr and its forced lambda
    manifest = json.loads((tmp_path / "run.ckpt.json.manifest.json").read_text())
    assert manifest["config"]["lr"] == reg.MODES["ours_no_phy"].base_lr
    assert manifest["config"]["lambda"] == 0.0
    assert manifest["inputs"] == [str(data)]
    assert manifest["peak_rss_mb"] > 0.0  # ru_maxrss, in MiB
    assert isinstance(manifest["minor_faults"], int) and manifest["minor_faults"] > 0
    # the numeric stack, without the build's local paths
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["numpy"] == np.__version__
    assert manifest["blas"] == {key: blas.get(key) for key in
                                ("name", "version", "openblas configuration")}
    report = tmp_path / "report.json"
    curve = tmp_path / "curve.csv"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(report), "--curve-csv", str(curve)) == 0
    payload = json.loads(report.read_text())
    assert payload["n_frames"] == 64
    assert curve.read_text().startswith("threshold_mm")


def test_direct_joint_eval_fits_angles(tmp_path):
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "12", "--sigma", "5", "--occlusion", "0.0",
                   "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "dj.ckpt.json"
    assert run_cli("train", "--mode", "direct_joint", "--train", str(data),
                   "--val", str(data), "--epochs", "2", "--batch", "4",
                   "--seed", "2", "--out", str(ckpt)) == 0
    manifest = json.loads((tmp_path / "dj.ckpt.json.manifest.json").read_text())
    assert manifest["inputs"] == [str(data), str(data)]
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--fit-iters", "5", "--out", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["n_frames"] == 12
    assert np.isfinite(payload["avg_angle_error_deg"])
    assert 0.0 <= payload["invalid_pose_fraction"] <= 1.0


@pytest.mark.parametrize("mode", ["ours", "direct_joint"])
@pytest.mark.parametrize("fit_iters", ["0", "-7"])
def test_eval_refuses_fit_iters_below_one_for_every_mode(tmp_path, capsys, mode, fit_iters):
    # a pose mode used to exit 0, since it fits no IK; direct_joint exited 1
    # only after predicting, with a message that did not name the flag
    data = tmp_path / "data.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--mode", mode, "--train", str(data), "--epochs", "1",
                   "--batch", "16", "--out", str(ckpt)) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    for checkpoint in (ckpt, tmp_path / "missing.ckpt.json"):  # nothing is loaded
        assert run_cli("eval", "--ckpt", str(checkpoint), "--data", str(data),
                       "--fit-iters", fit_iters, "--out", str(report)) == 1
        assert capsys.readouterr().err == "error: --fit-iters must be >= 1\n"
    assert not report.exists()


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("synth", "--n", "32", "--sigma", "3", "--occlusion", "0.2",
                       "--seed", "9", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_writes_exactly_the_path_given(tmp_path):
    out = tmp_path / "data.ds"
    assert run_cli("synth", "--n", "8", "--seed", "1", "--out", str(out)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["data.ds", "data.ds.manifest.json"]
    assert len(fileio.read_dataset(out)) == 8


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_synth_refuses_non_finite_sigma(tmp_path, capsys, sigma):
    out = tmp_path / "data.ds"
    assert run_cli("synth", "--n", "8", "--sigma", sigma, "--out", str(out)) == 1
    assert "noise sigma must be >= 0 and finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_train_and_eval_refuse_text_v1_dataset(tmp_path, capsys):
    good = tmp_path / "good.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(good)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--train", str(good), "--epochs", "1",
                   "--batch", "16", "--out", str(ckpt)) == 0
    old = tmp_path / "old.csv"
    old.write_text("# kinedeep-dataset v1 skeleton=hand23 sigma_mm=1.0 occlusion=0.0 "
                   "seed=1 n=1\n1.0,2.0;3.0;1.0,2.0,3.0\n")
    capsys.readouterr()
    out = tmp_path / "again.ckpt.json"
    assert run_cli("train", "--train", str(old), "--epochs", "1",
                   "--batch", "16", "--out", str(out)) == 1
    assert "re-run synth" in capsys.readouterr().err
    assert run_cli("train", "--train", str(good), "--val", str(old), "--epochs", "1",
                   "--batch", "16", "--out", str(out)) == 1
    assert "re-run synth" in capsys.readouterr().err
    assert not out.exists()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(old),
                   "--out", str(report)) == 1
    assert "re-run synth" in capsys.readouterr().err
    assert not report.exists()


def test_eval_refuses_malformed_npz_dataset(tmp_path, capsys):
    data = tmp_path / "data.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--train", str(data), "--epochs", "1",
                   "--batch", "16", "--out", str(ckpt)) == 0
    with np.load(data) as npz:
        members = dict(npz)
    members["thetas"] = members["thetas"][:-1]
    with open(data, "wb") as fh:
        np.savez(fh, **members)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(report)) == 1
    assert "row counts" in capsys.readouterr().err
    assert not report.exists()


def synth_and_train(tmp_path):
    """A 16-sample hand23 dataset, and a checkpoint trained on it."""
    data = tmp_path / "data.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--train", str(data), "--epochs", "1",
                   "--batch", "16", "--out", str(ckpt)) == 0
    with np.load(data) as npz:
        members = dict(npz)
    return data, ckpt, members


def assert_train_and_eval_refuse(tmp_path, capsys, data, ckpt, *messages):
    capsys.readouterr()
    out = tmp_path / "again.ckpt.json"
    assert run_cli("train", "--mode", "ours", "--train", str(data), "--epochs", "1",
                   "--batch", "16", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
    assert not out.exists()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(report)) == 1
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
    assert not report.exists()


@pytest.mark.parametrize("case", CHECKPOINT_DAMAGE)
def test_eval_refuses_damaged_checkpoint(tmp_path, capsys, case):
    damage, message = CHECKPOINT_DAMAGE[case]
    data, ckpt, _ = synth_and_train(tmp_path)
    ckpt.write_bytes(damage(checkpoint_parts(ckpt)))
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(report)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and message in err, err
    assert "Traceback" not in err and not report.exists()


@pytest.mark.parametrize("key, width", [("features", 42), ("thetas", 26)])
def test_train_and_eval_refuse_dataset_widths_of_another_skeleton(
        tmp_path, capsys, key, width):
    # a 41-wide features array used to train and evaluate (exit 0), and a
    # 25-wide thetas array to train, then fail with an IndexError traceback
    data, ckpt, members = synth_and_train(tmp_path)
    members[key] = members[key][:, :-1]
    with open(data, "wb") as fh:
        np.savez(fh, **members)
    assert_train_and_eval_refuse(tmp_path, capsys, data, ckpt,
                                 f"{key} are {width - 1} wide", f"needs {width}")


@pytest.mark.parametrize("key, value", [("features", np.inf), ("thetas", np.nan)])
def test_train_and_eval_refuse_non_finite_dataset(tmp_path, capsys, key, value):
    # unrefused, an inf feature is clipped to +-input_clip_abs and scored
    data, ckpt, members = synth_and_train(tmp_path)
    members[key][3, 5] = value
    with open(data, "wb") as fh:
        np.savez(fh, **members)
    assert_train_and_eval_refuse(tmp_path, capsys, data, ckpt,
                                 f"{data}: {key} holds non-finite values")


@pytest.mark.parametrize("mode", ["ours", "direct_joint"])
def test_eval_of_non_finite_network_output_exits_2(hand, tmp_path, capsys, mode):
    # the check is on the network output, not on the poses or IK targets
    # made from it, which would blame the wrong input with exit 1
    data = tmp_path / "data.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--mode", mode, "--train", str(data), "--epochs", "1",
                   "--batch", "16", "--out", str(ckpt)) == 0
    run = reg.load_checkpoint(ckpt)
    run.biases[-1][0] = np.nan
    reg.save_checkpoint(run, ckpt, hand)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(report)) == 2
    assert capsys.readouterr().err == "numerical failure: non-finite network output\n"
    assert not report.exists()


def test_train_and_eval_refuse_v2_dataset_with_joints(hand, tmp_path, capsys):
    data, ckpt, members = synth_and_train(tmp_path)
    meta = json.loads(str(members["meta"][()]))
    meta["version"] = 2
    members["meta"] = np.array(json.dumps(meta))
    members["joints"] = kin.forward_kinematics_batch(hand, members["thetas"]).reshape(16, -1)
    with open(data, "wb") as fh:
        np.savez(fh, **members)
    assert_train_and_eval_refuse(tmp_path, capsys, data, ckpt, "re-run synth")


def _palm(**fields):
    """A two-joint config whose second joint, 'palm', has the given fields;
    with sound fields it passes gradcheck."""
    rot_z = {"kind": "rotation", "axis": "Z", "lower_deg": -90.0, "upper_deg": 90.0}
    return {"joints": [{"name": "root", "dofs": [rot_z]},
                       {"name": "palm", "parent": "root", "bone_length_mm": 30.0,
                        **fields}]}


def _palm_dof(**fields):
    return _palm(dofs=[{"kind": "rotation", "axis": "X", "lower_deg": -10.0,
                        "upper_deg": 10.0, **fields}])


# configs that name their fault's joint ('palm') and key -> (config, key)
BAD_FIELDS = {
    "nan_bone": (_palm(bone_length_mm=math.nan), "bone_length_mm"),
    "inf_bone": (_palm(bone_length_mm=math.inf), "bone_length_mm"),
    "string_bone": (_palm(bone_length_mm="12.5"), "bone_length_mm"),
    "true_bone": (_palm(bone_length_mm=True), "bone_length_mm"),
    "nan_rest": (_palm(rest_offset_deg=[0.0, math.nan, 0.0]), "rest_offset_deg[1]"),
    "inf_rest": (_palm(rest_offset_deg=[math.inf, 0.0, 0.0]), "rest_offset_deg[0]"),
    "true_rest": (_palm(rest_offset_deg=[0.0, 0.0, True]), "rest_offset_deg[2]"),
    "string_bound": (_palm_dof(upper_deg="12.5"), "dofs[0].upper_deg"),
    "true_bound": (_palm_dof(lower_deg=True), "dofs[0].lower_deg"),
    "nan_bound": (_palm_dof(lower_deg=math.nan), "dofs[0].lower_deg"),
    "float_axis": (_palm_dof(axis=2.7), "dofs[0].axis"),
    "true_axis": (_palm_dof(axis=True), "dofs[0].axis"),
    "int_axis": (_palm_dof(axis=2), "dofs[0].axis"),
}


@pytest.mark.parametrize("cfg", [
    {"joints": [1]},
    {"joints": [{"name": "root", "dofs": "xy"}]},
    {"joints": [{"name": "root", "dofs": [1]}]},
    {"joints": [{"name": "root"}], "eval_subset": 5},
    5,
    {"joints": [{"name": ["root"]}]},
    {"joints": [{"name": "root"}, {"name": "tip", "parent": ["root"]}]},
    {"joints": [{"name": "root"}], "eval_subset": [["root"]]},
    {"joints": [{"name": "root", "bone_length_mm": [1.0]}]},
    {"joints": [{"name": "root", "dofs": [{"kind": "rotation", "axis": "X",
                                           "lower_deg": [0.0], "upper_deg": 10.0}]}]},
    {"joints": [{"name": "root", "rest_offset_deg": 5}]},
    {"joints": [{"name": "root", "rest_offset_deg": [[1.0], 0.0, 0.0]}]},
    {"joints": [{"name": "root", "dofs": [{"kind": "rotation", "axis": ["X"],
                                           "lower_deg": 0.0, "upper_deg": 10.0}]}]},
    *(pytest.param(cfg, id=case) for case, (cfg, _) in BAD_FIELDS.items()),
])
def test_malformed_skeleton_json_exits_1(tmp_path, capsys, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("gradcheck", "--skeleton", str(path), "--trials", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("case", BAD_FIELDS)
def test_skeleton_refusal_names_joint_and_key(case):
    cfg, key = BAD_FIELDS[case]
    with pytest.raises(sk.SkeletonError) as refused:
        sk.skeleton_from_dict(cfg)
    message = str(refused.value)
    assert message.startswith("joint 'palm': ") and key in message, message


def test_fk_refuses_non_finite_bone_and_writes_nothing(hand, pose_file, tmp_path, capsys):
    # unrefused, the palm's NaN bone reaches every joint below it
    path, _ = pose_file
    cfg = hand.to_dict()
    cfg["joints"][1]["bone_length_mm"] = math.nan
    skel_path = tmp_path / "nan_bone.json"
    skel_path.write_text(json.dumps(cfg))
    out = tmp_path / "joints.csv"
    assert run_cli("fk", "--skeleton", str(skel_path), "--poses", str(path),
                   "--out", str(out)) == 1
    assert "bone_length_mm" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == sorted([path.name, skel_path.name])


def test_fk_leaves_hashlib_unloaded(pose_file, tmp_path):
    # hashlib loads OpenSSL's libcrypto; only the skeleton fingerprint, which
    # fk never computes, needs it
    path, _ = pose_file
    script = ("import sys\n"
              "from kinedeep.cli import main\n"
              f"assert main(['fk', '--poses', {str(path)!r}, "
              f"'--out', {str(tmp_path / 'joints.csv')!r}]) == 0\n"
              "print('loaded' if '_hashlib' in sys.modules else 'unloaded')\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "unloaded"


def test_train_prints_last_epoch_without_second_validation_pass(
        tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "24", "--sigma", "5", "--occlusion", "0.0",
                   "--seed", "4", "--out", str(data)) == 0
    real = reg.validation_stats
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(reg, "validation_stats", counting)
    ckpt = tmp_path / "run.ckpt.json"
    capsys.readouterr()
    assert run_cli("train", "--train", str(data), "--val", str(data),
                   "--epochs", "3", "--batch", "8", "--seed", "2",
                   "--out", str(ckpt)) == 0
    run = reg.load_checkpoint(ckpt)
    assert len(calls) == len(run.history)  # one pass per epoch, none after
    last = run.history[-1]
    assert (f"val joint error {last.val_joint_err_mm!r} mm, angle error "
            f"{last.val_angle_err_deg!r} deg, invalid fraction "
            f"{last.val_invalid_frac!r}") in capsys.readouterr().out
    # one epoch record per history row, listed in the manifest
    epochs = tmp_path / "run.ckpt.json.epochs.jsonl"
    records = [json.loads(line) for line in epochs.read_text().splitlines()]
    assert [r["epoch"] for r in records] == list(range(len(run.history)))
    assert [r["train_loss"] for r in records] == [h.train_loss for h in run.history]
    assert [r["val_joint_err_mm"] for r in records] == \
        [h.val_joint_err_mm for h in run.history]
    manifest = json.loads((tmp_path / "run.ckpt.json.manifest.json").read_text())
    assert manifest["outputs"] == [str(ckpt), str(epochs)]


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning",
                            "ignore:invalid value encountered in matmul:RuntimeWarning")
def test_train_numerical_failure_exit_code(tmp_path):
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "32", "--sigma", "5", "--occlusion", "0.0",
                   "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    code = run_cli("train", "--mode", "ours", "--train", str(data),
                   "--epochs", "3", "--batch", "8", "--lr", "10.0",
                   "--flat-lr", "--seed", "2", "--out", str(ckpt))
    assert code == 2


@pytest.mark.parametrize("flag, message", [
    ("--lambda", "lambda must be >= 0 and finite"),
    ("--lr", "learning_rate must be positive and finite"),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_refuses_non_finite_rates_before_training(tmp_path, capsys, flag,
                                                        message, value):
    # unrefused, these train and then fail as a numerical failure (exit 2),
    # leaving a partial epoch record behind
    data = tmp_path / "data.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(data)) == 0
    capsys.readouterr()
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--train", str(data), "--epochs", "1", "--batch", "16",
                   flag, value, "--out", str(ckpt)) == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["data.ds", "data.ds.manifest.json"]


def test_train_non_finite_gradient_exits_2(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "32", "--sigma", "5", "--occlusion", "0.0",
                   "--seed", "4", "--out", str(data)) == 0
    real = reg.backward_through_model
    calls = []

    def overflowing(*args, **kwargs):
        value, (grads_w, grads_b) = real(*args, **kwargs)
        calls.append(value)
        if len(calls) == 2:  # epoch 0, batch 1
            grads_w[-1][0, 0] = np.inf
        return value, (grads_w, grads_b)

    monkeypatch.setattr(reg, "backward_through_model", overflowing)
    ckpt = tmp_path / "run.ckpt.json"
    code = run_cli("train", "--mode", "ours", "--train", str(data),
                   "--epochs", "3", "--batch", "8", "--seed", "2",
                   "--out", str(ckpt))
    assert code == 2
    assert "non-finite gradient at epoch 0 batch 1" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_non_finite_gradient_names_history_epoch(tmp_path, monkeypatch, capsys):
    # with the staged schedule the error names the epoch by its index in the
    # run's history, not by its index within the stage
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "32", "--sigma", "5", "--occlusion", "0.0",
                   "--seed", "4", "--out", str(data)) == 0
    real = reg.backward_through_model
    calls = []

    def overflowing(*args, **kwargs):
        value, (grads_w, grads_b) = real(*args, **kwargs)
        calls.append(value)
        if len(calls) == 18:  # 4 batches an epoch: epoch 4 (stage 5), batch 1
            grads_w[-1][0, 0] = np.inf
        return value, (grads_w, grads_b)

    monkeypatch.setattr(reg, "backward_through_model", overflowing)
    ckpt = tmp_path / "run.ckpt.json"
    code = run_cli("train", "--mode", "ours", "--train", str(data),
                   "--epochs", "3", "--batch", "8", "--seed", "2",
                   "--out", str(ckpt))
    assert code == 2
    assert "non-finite gradient at epoch 4 batch 1" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning",
                            "ignore:invalid value encountered in matmul:RuntimeWarning")
def test_train_validation_overflow_exits_2(tmp_path, capsys):
    # epoch 0 ends with finite loss, gradients and weights, but weights so
    # large that the validation forward pass overflows
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "24", "--sigma", "5", "--occlusion", "0",
                   "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    code = run_cli("train", "--train", str(data), "--val", str(data),
                   "--epochs", "3", "--batch", "8", "--lr", "1.0",
                   "--flat-lr", "--seed", "2", "--out", str(ckpt))
    assert code == 2
    assert "non-finite network output on the validation set after epoch 0" \
        in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.fixture()
def bench_dataset(tmp_path):
    """A dataset made for the benchmark skeleton, and that skeleton's file."""
    skel_path = tmp_path / "bench.json"
    sk.save_skeleton(bench.benchmark_skeleton(), skel_path)
    data = tmp_path / "bench.ds"
    assert run_cli("synth", "--skeleton", str(skel_path), "--n", "16",
                   "--seed", "4", "--out", str(data)) == 0
    return skel_path, data


def test_train_refuses_dataset_of_another_skeleton(bench_dataset, tmp_path, capsys):
    _, data = bench_dataset
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--train", str(data), "--epochs", "1",
                   "--batch", "16", "--out", str(ckpt)) == 1
    err = capsys.readouterr().err
    assert "'hand23-bench'" in err and "'hand23'" in err
    assert not ckpt.exists()


def test_eval_refuses_dataset_of_another_skeleton(bench_dataset, tmp_path, capsys):
    skel_path, data = bench_dataset
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--skeleton", str(skel_path), "--train", str(data),
                   "--epochs", "1", "--batch", "16", "--out", str(ckpt)) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(report)) == 1
    err = capsys.readouterr().err
    assert "'hand23-bench'" in err and "'hand23'" in err
    assert not report.exists()


def test_eval_refuses_checkpoint_of_another_skeleton(bench_dataset, tmp_path, capsys):
    # both skeletons emit the same widths, so only the fingerprint tells
    skel_path, bench_data = bench_dataset
    data = tmp_path / "hand.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--train", str(data), "--epochs", "1",
                   "--batch", "16", "--out", str(ckpt)) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--skeleton", str(skel_path), "--ckpt", str(ckpt),
                   "--data", str(bench_data), "--out", str(report)) == 1
    err = capsys.readouterr().err
    assert "checkpoint was trained for skeleton 'hand23'" in err
    assert "not 'hand23-bench'" in err
    assert not report.exists()


def test_unknown_flag_exits_1(capsys):
    assert run_cli("fk", "--nonsense") == 1
    assert capsys.readouterr().err.startswith("error: kinedeep fk: ")
    assert run_cli("ik", "--targets", "t.csv", "--out", "fit.csv", "--warm-start") == 1
    assert capsys.readouterr().err == \
        "error: kinedeep: unrecognized arguments: --warm-start\n"


@pytest.mark.parametrize("fit_frames", ["0", "-3"])
def test_reproduce_refuses_fit_frames_below_1_before_training(tmp_path, capsys,
                                                              fit_frames):
    out = tmp_path / "run"
    assert run_cli("reproduce", "--train-n", "50", "--val-n", "20", "--epochs", "1",
                   "--fit-frames", fit_frames, "--out", str(out)) == 1
    assert "--fit-frames must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/*.ckpt.json"))


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "0", "epochs must be >= 1"),
    ("--batch", "0", "batch_size must be >= 1"),
    ("--lambda", "-1", "lambda must be >= 0"),
])
def test_reproduce_refuses_bad_training_settings_before_datasets(tmp_path, capsys,
                                                                 flag, value, message):
    out = tmp_path / "run"
    assert run_cli("reproduce", "--train-n", "50", "--val-n", "20", "--epochs", "1",
                   flag, value, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "datasets:" not in captured.out and "worker processes" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--train-n", "0", "dataset size must be >= 1"),
    ("--val-n", "0", "dataset size must be >= 1"),
    ("--sigma", "-1", "noise sigma must be >= 0"),
    ("--sigma", "nan", "noise sigma must be >= 0 and finite"),
    ("--lambda", "nan", "lambda must be >= 0 and finite"),
    ("--occlusion", "1.5", "occlusion probability must lie in [0, 1)"),
    ("--skeleton", "missing.json", "No such file or directory"),
])
def test_reproduce_refuses_bad_inputs_without_making_the_out_dir(
        tmp_path, capsys, monkeypatch, flag, value, message):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    assert run_cli("reproduce", "--train-n", "50", "--val-n", "20", "--epochs", "1",
                   flag, value, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not out.exists()


def test_reproduce_smoke(tmp_path):
    # tiny-budget smoke run: pipeline mechanics and determinism, not quality
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["reproduce", "--seed", "3", "--train-n", "96", "--val-n", "24",
            "--epochs", "6", "--batch", "32", "--fit-frames", "2"]
    code_a = run_cli(*args, "--out", str(out_a))
    code_b = run_cli(*args, "--out", str(out_b))
    assert code_a in (0, 3) and code_b == code_a  # orderings may fail at toy scale
    table_a = (out_a / "table.txt").read_bytes()
    table_b = (out_b / "table.txt").read_bytes()
    assert table_a == table_b
    payload = json.loads((out_a / "table.json").read_text())
    assert set(payload["modes"]) == set(reg.MODES)
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert "stages_s" not in manifest  # the tasks timeline is the one timing record
    # one training worker per CPU, at most one per mode, and one for the IK fit
    cpus = min(len(reg.MODES), len(os.sched_getaffinity(0)))
    assert manifest["workers"] == cpus + 1
    # the timeline follows from the dispatch order, not from timing
    tasks = manifest["tasks"]
    assert sorted(t["task"] for t in tasks) == sorted([*reg.MODES, "ik_fit"])
    assert all(0.0 <= t["start_s"] <= t["end_s"] <= manifest["duration_s"]
               and isinstance(t["pid"], int) for t in tasks)
    # no upper bound: BLAS threads that are not pinned can outrun wall time
    assert all(np.isfinite(t["cpu_s"]) and t["cpu_s"] >= 0.0 for t in tasks)
    by_task = {t["task"]: t for t in tasks}
    assert by_task["ik_fit"]["start_s"] >= by_task["direct_joint"]["end_s"]
    training = [t for t in tasks if t["task"] in reg.MODES]
    for t in training:  # the most training tasks in flight is at a start
        assert sum(u["start_s"] <= t["start_s"] < u["end_s"] for u in training) <= cpus
    rss = manifest["peak_rss_mb"]
    assert set(rss) == {"parent", "workers"} and min(rss.values()) > 0.0
    faults = manifest["minor_faults"]  # the workers' is a sum over them
    assert set(faults) == {"parent", "workers"}
    assert all(isinstance(v, int) and v > 0 for v in faults.values())
    assert manifest["config"]["skeleton"] == "hand23-bench"
    assert manifest["config"]["interior_margin"] == bench.benchmark_interior_margin()
    for mode in reg.MODES:
        ckpt = out_a / f"{mode}.ckpt.json"
        assert (out_b / f"{mode}.ckpt.json").read_bytes() == ckpt.read_bytes()
        epochs = (out_a / f"{mode}.ckpt.json.epochs.jsonl").read_text().splitlines()
        assert len(epochs) == len(reg.load_checkpoint(ckpt).history)
        assert f"{ckpt}.epochs.jsonl" in manifest["outputs"]


def test_reproduce_skeleton_file_samples_whole_ranges(tmp_path):
    # the interior margin undoes the benchmark skeleton's bound expansion;
    # a skeleton file's bounds are not expanded, so it samples them whole
    out = tmp_path / "run"
    code = run_cli("reproduce", "--skeleton", sk.HAND23_PATH, "--seed", "3",
                   "--train-n", "16", "--val-n", "4", "--epochs", "1",
                   "--batch", "16", "--fit-frames", "1", "--out", str(out))
    assert code in (0, 3)  # orderings may fail at toy scale
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["skeleton"] == "hand23"
    assert manifest["config"]["interior_margin"] == 0.0


REPRODUCE_TINY = ["reproduce", "--seed", "3", "--train-n", "64", "--val-n", "16",
                  "--epochs", "3", "--batch", "32", "--fit-frames", "2"]


def test_reproduce_pool_matches_in_process_modes(tmp_path):
    # the pool's table and checkpoints equal reproduce_mode (and, for
    # direct_joint, reproduce_fit) run here, mode by mode
    pooled = tmp_path / "pooled"
    assert run_cli(*REPRODUCE_TINY, "--out", str(pooled)) in (0, 3)
    table = json.loads((pooled / "table.json").read_text())
    args = build_parser().parse_args(REPRODUCE_TINY + ["--out", str(tmp_path / "here")])
    os.makedirs(args.out)
    skel, margin = bench.benchmark_skeleton(), bench.benchmark_interior_margin()
    train_data, val_data = (
        bench.make_dataset(skel, n=n, noise_sigma_mm=args.sigma,
                           occlusion_prob=args.occlusion, seed=args.seed + i,
                           interior_margin=margin, pose_shape="central")
        for i, n in enumerate((args.train_n, args.val_n)))
    for mode in reg.MODES:
        report = reproduce_mode(mode, skel, train_data, val_data, args)
        if mode == "direct_joint":  # scored from its saved checkpoint
            assert report is None
            report = reproduce_fit(skel, val_data, args)
        assert json.dumps(table["modes"][mode], sort_keys=True) == \
            json.dumps(report.to_dict(), sort_keys=True)
        name = f"{mode}.ckpt.json"
        assert (pooled / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_eval_of_each_reproduce_checkpoint_gives_its_table_entry(tmp_path):
    # one scoring path: eval on reproduce's val set, written to a file, gives
    # each mode's table entry, direct_joint's IK fit over every val row
    # included (--fit-frames above --val-n fits them all)
    argv = REPRODUCE_TINY + ["--fit-frames", "32"]
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", str(out)) in (0, 3)
    table = json.loads((out / "table.json").read_text())
    args = build_parser().parse_args(argv + ["--out", str(out)])
    skel = bench.benchmark_skeleton()
    skel_path, val = tmp_path / "bench.json", tmp_path / "val.ds"
    sk.save_skeleton(skel, skel_path)
    fileio.write_dataset(val, bench.make_dataset(
        skel, n=args.val_n, noise_sigma_mm=args.sigma, occlusion_prob=args.occlusion,
        seed=args.seed + 1, interior_margin=bench.benchmark_interior_margin(),
        pose_shape="central"))
    assert table["modes"]["direct_joint"]["n_frames"] == args.val_n
    for mode in reg.MODES:
        report = tmp_path / f"{mode}.json"
        assert run_cli("eval", "--seed", str(args.seed), "--skeleton", str(skel_path),
                       "--ckpt", str(out / f"{mode}.ckpt.json"), "--data", str(val),
                       "--out", str(report)) == 0
        assert json.loads(report.read_text()) == table["modes"][mode]


def test_reproduce_numerical_failure_in_a_worker_exits_2(tmp_path, monkeypatch, capsys):
    # the workers are forked, so they train with the patched reg.train
    real = reg.train

    def failing(run, *args, **kwargs):
        if run.mode == "ours_no_phy":
            raise reg.NumericalError("non-finite loss at epoch 1 batch 0")
        return real(run, *args, **kwargs)

    monkeypatch.setattr(reg, "train", failing)
    out = tmp_path / "run"
    assert run_cli(*REPRODUCE_TINY, "--out", str(out)) == 2
    assert "numerical failure: ours_no_phy: non-finite loss at epoch 1 batch 0" \
        in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert not (out / "table.json").exists()


# --- allocator ------------------------------------------------------------------

def fake_libc(calls):
    """A C library whose mallopt records its (parameter, value) calls."""
    def mallopt(param, value):
        calls.append((param, value))
        return 1
    return types.SimpleNamespace(mallopt=mallopt)


def test_malloc_thresholds_set_exactly_mmap_and_trim(monkeypatch):
    calls = []
    libc = fake_libc(calls)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    cli._set_malloc_thresholds()
    # glibc's M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1
    assert calls == [(-3, 4 * 2**20), (-1, 32 * 2**20)]
    assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def test_malloc_thresholds_without_mallopt_do_nothing(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    cli._set_malloc_thresholds()

    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    cli._set_malloc_thresholds()


def test_main_sets_the_same_thresholds_on_every_call(monkeypatch, capsys):
    # tests call main in one process many times; each call sets the same
    # two values again, and nothing else
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: fake_libc(calls))
    for _ in range(3):
        assert run_cli("fk", "--nonsense") == 1
    assert calls == [(-3, 4 * 2**20), (-1, 32 * 2**20)] * 3
    monkeypatch.undo()
    for _ in range(3):  # and the process's own C library takes it again
        cli._set_malloc_thresholds()
