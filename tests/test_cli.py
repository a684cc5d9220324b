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

from kinedeep import bench, cli, fileio, ik_pso, reproduce
from kinedeep import kinematics as kin
from kinedeep import regressor as reg
from kinedeep import skeleton as sk
from kinedeep.cli import build_parser, main
from kinedeep.reproduce import reproduce_fit, reproduce_mode
from test_fileio import (NOT_A_DATASET, NOT_JOINTS, NOT_POSES, POSES, header_line,
                         header_of, npy_bytes, npy_header, write_dataset_file,
                         write_record_file)
from test_regressor import CHECKPOINT_DAMAGE, checkpoint_parts
from test_reproduce import ORDERINGS


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def pose_file(hand, rng, tmp_path):
    poses = rng.uniform(hand.dof_lower, hand.dof_upper, size=(4, hand.n_dofs))
    path = tmp_path / "poses.csv"
    fileio.write_pose_file(path, hand, poses)
    return path, poses


def test_fk_roundtrip(hand, pose_file, tmp_path):
    path, poses = pose_file
    out = tmp_path / "joints.csv"
    assert run_cli("fk", "--poses", str(path), "--out", str(out)) == 0
    skel, frames = fileio.read_joint_file(out)
    assert skel.to_dict() == hand.to_dict()
    assert np.array_equal(frames, kin.forward_kinematics_batch(hand, poses))
    assert os.path.exists(str(out) + ".manifest.json")


def test_fk_rest_pose_matches_fixture(hand, tmp_path):
    path = tmp_path / "zero.csv"
    fileio.write_pose_file(path, hand, np.zeros((1, hand.n_dofs)))
    out = tmp_path / "joints.csv"
    assert run_cli("fk", "--poses", str(path), "--out", str(out)) == 0
    _, frames = fileio.read_joint_file(out)
    table = []
    with open("tests/data/hand23_rest_pose.csv") as fh:
        for line in fh:
            if not line.startswith("#"):
                table.append([float(v) for v in line.strip().split(",")[1:]])
    assert np.allclose(frames[0], np.array(table), atol=1e-9)


def test_fk_empty_pose_file(tmp_path, capsys):
    # a zero-byte file has no header; it used to read as zero poses
    path = tmp_path / "empty.csv"
    path.write_text("")
    out = tmp_path / "joints.csv"
    assert run_cli("fk", "--poses", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {path}: {NOT_POSES}\n"
    assert not out.exists()


HAND23_POSES = {**POSES, "skeleton": sk.default_hand().to_dict()}


@pytest.mark.parametrize("content, names", [
    (header_line({"format": "kinedeep-poses", "version": 3})
     + npy_bytes(np.zeros((1, 26))), "header fields must be exactly"),
    (header_line({**HAND23_POSES, "dimz": 26}) + npy_bytes(np.zeros((1, 26))),
     "header fields must be exactly"),
    (header_line(HAND23_POSES) + npy_header((1, -2)),
     "poses are float64 (1, -2), expected float64 (N, 26)"),
    (header_line(HAND23_POSES)[:-2] + b', "skeleton": "hand23"}\n'
     + npy_bytes(np.zeros((1, 26))), NOT_POSES),
], ids=["no_skeleton", "misspelt_dims", "negative_dims", "repeated_skeleton"])
def test_fk_refuses_a_malformed_pose_header(tmp_path, capsys, content, names):
    # a header without the skeleton or with another field, a record of
    # another width, and a header that repeats a key: each exits 1, naming
    # the path, and writes nothing
    path = tmp_path / "poses.csv"
    path.write_bytes(content)
    out = tmp_path / "joints.csv"
    assert run_cli("fk", "--poses", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and names in err, err
    assert not out.exists()


def test_jacobian_output(hand, pose_file, tmp_path):
    path, poses = pose_file
    out = tmp_path / "jac.csv"
    assert run_cli("jacobian", "--poses", str(path), "--out", str(out)) == 0
    _, jac = kin.fk_jacobian_batch(hand, poses)
    with open(out, "rb") as fh:
        assert json.loads(fh.readline()) == {
            "format": "kinedeep-jacobian", "version": 3, "skeleton": hand.to_dict()}
        for want in jac:  # one (3J, D) record per pose
            assert np.array_equal(np.lib.format.read_array(fh), want)
        assert fh.read() == b""


def test_gradcheck_passes(tmp_path):
    assert run_cli("gradcheck", "--trials", "5", "--seed", "3") == 0


def assert_gradcheck_fails_the_network_only(capsys):
    """gradcheck exited 3 on the network check alone."""
    lines = capsys.readouterr().out.splitlines()
    fk_err, loss_err, net_err = (float(line.split()[4]) for line in lines[:3])
    assert fk_err < 1e-6 and loss_err < 1e-6 and net_err >= 1e-5
    assert lines[3] == "gradcheck: FAIL"


@pytest.mark.parametrize("fault", ["output-gain", "input-scale"])
def test_gradcheck_fails_a_backward_pass_that_skips_a_step(monkeypatch, capsys, fault):
    # the network check runs the trained networks' input scale and output
    # gains: a backward pass that leaves either out fails it, exit 3
    real = reg._backprop

    def faulty(run, acts, delta):
        if fault == "output-gain":
            return real(run, acts, delta / np.asarray(run.output_scale))
        return real(run, [acts[0] / reg.INPUT_SCALE] + acts[1:], delta)

    monkeypatch.setattr(reg, "_backprop", faulty)
    assert run_cli("gradcheck", "--trials", "2", "--seed", "3") == 3
    assert_gradcheck_fails_the_network_only(capsys)


def test_gradcheck_fails_a_gradient_off_by_1e_3_in_the_hidden_layer(monkeypatch, capsys):
    # the 256 x 256 layer's weight gradient 0.1 % too large: a sample of
    # its coordinates finds it
    real = reg._backprop

    def faulty(run, acts, delta):
        grads_w, grads_b = real(run, acts, delta)
        assert grads_w[1].shape == (256, 256)
        grads_w[1] *= 1.0 + 1e-3
        return grads_w, grads_b

    monkeypatch.setattr(reg, "_backprop", faulty)
    assert run_cli("gradcheck", "--seed", "0") == 3
    assert_gradcheck_fails_the_network_only(capsys)


def test_gradcheck_checks_the_network_train_writes(tmp_path, capsys):
    # the net line names the layer widths of a checkpoint train writes at
    # its defaults, and the sample
    data, ckpt = tmp_path / "data.ds", tmp_path / "run.ckpt.json"
    assert run_cli("synth", "--n", "8", "--out", str(data)) == 0
    assert run_cli("train", "--train", str(data), "--epochs", "1", "--out", str(ckpt)) == 0
    run = reg.load_checkpoint(ckpt)
    widths = [len(run.weights[0])] + [w.shape[1] for w in run.weights]
    capsys.readouterr()
    assert run_cli("gradcheck", "--trials", "2") == 0
    net = capsys.readouterr().out.splitlines()[2]
    assert net.split("  ")[2:] == [
        f"ours {'-'.join(map(str, widths))}, 64 coordinates per weight and bias array, "
        f"0 redrawn at a kink"]


def test_gradcheck_rejects_bad_trials():
    assert run_cli("gradcheck", "--trials", "0") == 1


def test_gradcheck_corrupt_skeleton(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{ nope")
    assert run_cli("gradcheck", "--skeleton", str(cfg), "--trials", "2") == 1


def test_ik_recovers_pose(hand, rng, tmp_path):
    theta = rng.uniform(hand.dof_lower, hand.dof_upper, size=(1, hand.n_dofs))
    joints = kin.forward_kinematics_batch(hand, theta)
    targets = tmp_path / "targets.csv"
    fileio.write_joint_file(targets, hand, joints)  # full joint set
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
    manifest = json.loads((tmp_path / "fit.csv.manifest.json").read_text())
    assert manifest["config"]["swarm"] == ik_pso.SWARM_SIZE == 64


def test_ik_no_target_frames_exits_1(hand, tmp_path, capsys):
    targets = tmp_path / "targets.csv"
    fileio.write_joint_file(targets, hand, np.zeros((0, hand.n_joints, 3)))
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
    assert capsys.readouterr().err == f"error: {targets}: {NOT_JOINTS}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fk", "jacobian"])
def test_kinematics_of_a_header_only_pose_file_writes_no_rows(hand, tmp_path, command):
    poses = tmp_path / "poses.csv"
    fileio.write_pose_file(poses, hand, np.zeros((0, hand.n_dofs)))
    out = tmp_path / "out.csv"
    assert run_cli(command, "--poses", str(poses), "--out", str(out)) == 0
    if command == "fk":
        assert fileio.read_joint_file(out)[1].shape == (0, hand.n_joints, 3)
    else:  # the header line alone
        assert out.read_bytes().count(b"\n") == 1 and out.read_bytes().endswith(b"}\n")


@pytest.mark.parametrize("command", ["fk", "jacobian", "ik"])
def test_non_finite_input_leaves_no_output(hand, tmp_path, capsys, command):
    # the first row is fine and the second holds a NaN: no command may write
    # the first row's result and then fail
    thetas = np.zeros((2, hand.n_dofs))
    path = tmp_path / "in.csv"
    if command == "ik":
        joints = kin.forward_kinematics_batch(hand, thetas)
        joints[1, 3, 0] = np.nan
        fileio.write_joint_file(path, hand, joints)
        flag, what = "--targets", "frames"
    else:
        thetas[1, 5] = np.nan
        fileio.write_pose_file(path, hand, thetas)
        flag, what = "--poses", "poses"
    out = tmp_path / "out.csv"
    assert run_cli(command, flag, str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == \
        f"error: {path}: {what} holds non-finite values, first in row 1\n"
    assert not out.exists()


def test_ik_refuses_frames_of_another_joint_count(hand, tmp_path, capsys):
    # the header's skeleton has 23 joints, so the reader refuses frames of
    # 5, and of the eval subset alone (14), which no command writes
    targets, out = tmp_path / "j5.txt", tmp_path / "fit.csv"
    header = {"format": "kinedeep-joints", "version": 3, "skeleton": hand.to_dict()}
    for joints in (5, len(hand.eval_subset)):
        write_record_file(targets, header, [np.zeros((2, joints, 3))])
        assert run_cli("ik", "--targets", str(targets), "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"error: {targets}: frames are float64 "
                                           f"(2, {joints}, 3), expected float64 (N, 23, 3)\n")
        assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    ("train --train {missing} --epochs 0 --out {tmp}/run.ckpt", "--epochs"),
    ("reproduce --train-n 50 --val-n 20 --epochs 0 --out {tmp}/run", "--epochs"),
    ("gradcheck --skeleton {missing} --trials 0", "--trials"),
    ("ik --targets {missing} --iters 0 --out {tmp}/fit.csv", "--iters"),
    ("synth --skeleton {missing} --n 0 --out {tmp}/data.ds", "--n"),
], ids=["train-epochs", "reproduce-epochs", "gradcheck-trials", "ik-iters", "synth-n"])
def test_count_flag_below_1_exits_1_before_any_input(tmp_path, capsys, argv, flag):
    # the parser refuses it, naming the flag, before any file is read, any
    # dataset made or any output written
    argv = argv.format(missing=tmp_path / "missing", tmp=tmp_path).split()
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: kinedeep {argv[0]}: argument {flag}: must be >= 1, not 0\n"
    assert captured.out == "" and not list(tmp_path.iterdir())


def test_train_and_reproduce_share_the_epoch_default_and_eval_the_fit_budget():
    parser = build_parser()
    for argv in (["train", "--train", "t.ds", "--out", "t.ckpt"], ["reproduce", "--out", "r"]):
        assert parser.parse_args(argv).epochs == reproduce.EPOCHS
    args = parser.parse_args(["eval", "--ckpt", "t.ckpt", "--data", "t.ds", "--out", "e.json"])
    assert args.fit_iters == reproduce.FIT_ITERATIONS
    # synth and reproduce draw the same noise by default
    for argv in (["synth", "--n", "4", "--out", "s.ds"], ["reproduce", "--out", "r"]):
        args = parser.parse_args(argv)
        assert (args.sigma, args.occlusion) == (bench.NOISE_SIGMA_MM, bench.OCCLUSION_PROB)


# the files each command writes beside --out, and reproduce's in its --out
# directory (one mode's checkpoint and epoch records stand for all four)
SIDE_FILES = {"eval": [".manifest.json"], "ik": [".report.json", ".manifest.json"],
              "train": [".epochs.jsonl", ".manifest.json"], "synth": [".manifest.json"],
              "fk": [".manifest.json"], "jacobian": [".manifest.json"],
              "reproduce": ["/ours.ckpt.json", "/ours.ckpt.json.epochs.jsonl",
                            "/skeleton.json", "/table.txt", "/table.json", "/manifest.json"]}


@pytest.mark.parametrize("command, blocked", [
    (command, blocked) for command, sides in SIDE_FILES.items()
    for blocked in [*(["file", "in-file"] if command == "reproduce"
                      else ["dir", "missing-dir"]), *sides]],
    ids=lambda value: value.lstrip("./").removesuffix(".json").removesuffix(".jsonl"))
def test_unwritable_out_exits_1_before_the_work(hand, pose_file, tmp_path, capsys,
                                                monkeypatch, command, blocked):
    # each command does its work (scores, fits, trains, makes a dataset or
    # runs the kinematics) only once --out and every file it writes beside
    # --out are known to be writable, and writes nothing on refusal: no
    # checkpoint and no epoch records either. `blocked` is --out itself (a
    # directory, or in a missing one; for reproduce, a regular file or in
    # one) or a side file, where a directory stands
    data, ckpt, _ = synth_and_train(tmp_path)
    targets = tmp_path / "targets.csv"
    fileio.write_joint_file(targets, hand, np.zeros((2, hand.n_joints, 3)))
    argv = {"eval": ["--ckpt", str(ckpt), "--data", str(data)],
            "ik": ["--targets", str(targets)],
            "train": ["--train", str(data)],
            "synth": ["--n", "4"],
            "fk": ["--poses", str(pose_file[0])],
            "jacobian": ["--poses", str(pose_file[0])],
            "reproduce": ["--train-n", "64", "--val-n", "8", "--epochs", "1",
                          "--fit-frames", "2"]}[command]
    calls = []

    def work(*args, **kwargs):
        calls.append(args)
        raise ValueError("the work ran")

    for module, name in ((reproduce, "score"), (ik_pso, "fit_batch"),
                         (reproduce, "train_mode"), (bench, "make_dataset"),
                         (reproduce, "run"),
                         (kin, "forward_kinematics_batch"), (kin, "fk_jacobian_batch")):
        monkeypatch.setattr(module, name, work)
    out = {"dir": str(tmp_path), "missing-dir": f"{tmp_path}/nodir/out",
           "in-file": f"{tmp_path}/file/out"}.get(blocked, f"{tmp_path}/out")
    unwritable = out + blocked if blocked[0] in "./" else out
    if unwritable != out:
        os.makedirs(unwritable)
    elif blocked in ("file", "in-file"):
        open(out if blocked == "file" else os.path.dirname(out), "w").close()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run_cli(command, *argv, "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"error: {unwritable}: cannot be written")
    assert calls == [] and sorted(tmp_path.rglob("*")) == before
    assert not os.path.exists(reproduce.epochs_path(out)) or blocked == ".epochs.jsonl"


def test_fk_ik_fk_round_trip_works_on_the_files_skeleton(rng, tmp_path):
    # each command works on the skeleton its input file was made for, here
    # the benchmark skeleton, and writes that skeleton into its output
    skel = bench.benchmark_skeleton()
    poses = tmp_path / "poses.rec"
    thetas = rng.uniform(skel.dof_lower, skel.dof_upper, size=(2, skel.n_dofs))
    fileio.write_pose_file(poses, skel, thetas)
    joints, fitted, again = (tmp_path / name for name in ("j.rec", "fit.rec", "again.rec"))
    assert run_cli("fk", "--poses", str(poses), "--out", str(joints)) == 0
    assert run_cli("ik", "--targets", str(joints), "--out", str(fitted), "--iters", "2") == 0
    assert run_cli("fk", "--poses", str(fitted), "--out", str(again)) == 0
    assert run_cli("jacobian", "--poses", str(fitted), "--out", str(tmp_path / "jac.rec")) == 0
    for path in (joints, again):
        made_for, frames = fileio.read_joint_file(path)
        assert made_for.to_dict() == skel.to_dict() and frames.shape == (2, 23, 3)
    made_for, poses_fitted = fileio.read_pose_file(fitted)
    assert made_for.to_dict() == skel.to_dict()
    assert np.array_equal(fileio.read_joint_file(again)[1],
                          kin.forward_kinematics_batch(skel, poses_fitted))
    with open(tmp_path / "jac.rec", "rb") as fh:
        assert json.loads(fh.readline())["skeleton"] == skel.to_dict()


@pytest.mark.parametrize("command", ["fk", "jacobian", "ik", "eval"])
def test_commands_that_read_a_data_file_take_no_skeleton_flag(tmp_path, capsys, command):
    # the file's own skeleton is the one used: --skeleton is a usage error
    argv = {"fk": ["--poses", "p.rec"], "jacobian": ["--poses", "p.rec"],
            "ik": ["--targets", "j.rec"],
            "eval": ["--ckpt", "r.ckpt", "--data", "d.ds"]}[command]
    assert run_cli(command, "--skeleton", sk.HAND23_PATH, *argv,
                   "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == \
        f"error: kinedeep: unrecognized arguments: --skeleton {sk.HAND23_PATH}\n"
    assert not list(tmp_path.iterdir())


def test_synth_train_eval_pipeline(tmp_path, monkeypatch):
    monkeypatch.setattr(reg, "BATCH_SIZE", 16)
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "64", "--sigma", "5", "--occlusion", "0.0",
                   "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--mode", "ours_no_phy", "--train", str(data),
                   "--epochs", "4", "--seed", "2", "--out", str(ckpt)) == 0
    run = reg.load_checkpoint(ckpt)
    assert run.mode == "ours_no_phy"
    assert len(run.history) >= 4  # staged plan rounds each stage up to >= 1
    # the manifest records what ran: its mode's base lr and penalty weight
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
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["n_frames"] == 64
    # the max-error curve, one point per threshold, is part of the report
    assert [t for t, _ in payload["max_error_curve"]] == \
        [float(t) for t in bench.THRESHOLDS_MM]


def test_direct_joint_eval_fits_angles(tmp_path, monkeypatch):
    monkeypatch.setattr(reg, "BATCH_SIZE", 4)
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "12", "--sigma", "5", "--occlusion", "0.0",
                   "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "dj.ckpt.json"
    assert run_cli("train", "--mode", "direct_joint", "--train", str(data),
                   "--val", str(data), "--epochs", "2", "--seed", "2",
                   "--out", str(ckpt)) == 0
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
                   "--out", str(ckpt)) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    for checkpoint in (ckpt, tmp_path / "missing.ckpt.json"):  # nothing is loaded
        assert run_cli("eval", "--ckpt", str(checkpoint), "--data", str(data),
                       "--fit-iters", fit_iters, "--out", str(report)) == 1
        assert capsys.readouterr().err == \
            f"error: kinedeep eval: argument --fit-iters: must be >= 1, not {fit_iters}\n"
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
    # the first dataset format was a text table
    good = tmp_path / "good.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(good)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--train", str(good), "--epochs", "1",
                   "--out", str(ckpt)) == 0
    old = tmp_path / "old.csv"
    old.write_text("# kinedeep-dataset v1 skeleton=hand23 sigma_mm=1.0 occlusion=0.0 "
                   "seed=1 n=1\n1.0,2.0;3.0;1.0,2.0,3.0\n")
    capsys.readouterr()
    out = tmp_path / "again.ckpt.json"
    assert run_cli("train", "--train", str(old), "--epochs", "1",
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {old}: {NOT_A_DATASET}\n"
    assert run_cli("train", "--train", str(good), "--val", str(old), "--epochs", "1",
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {old}: {NOT_A_DATASET}\n"
    assert not out.exists()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(old),
                   "--out", str(report)) == 1
    assert capsys.readouterr().err == f"error: {old}: {NOT_A_DATASET}\n"
    assert not report.exists()


# the header of synth's default datasets
HAND23 = header_of(skeleton=sk.default_hand().to_dict())


def synth_and_train(tmp_path):
    """A 16-sample hand23 dataset, a checkpoint trained on it, and the
    dataset's records by name."""
    data = tmp_path / "data.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--train", str(data), "--epochs", "1",
                   "--out", str(ckpt)) == 0
    dataset = fileio.read_dataset(data)
    return data, ckpt, {"features": dataset.features, "thetas": dataset.thetas}


def assert_train_and_eval_refuse(tmp_path, capsys, data, ckpt, *messages):
    capsys.readouterr()
    out = tmp_path / "again.ckpt.json"
    assert run_cli("train", "--mode", "ours", "--train", str(data), "--epochs", "1",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
    assert not out.exists()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(report)) == 1
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
    assert not report.exists()


def test_eval_refuses_dataset_with_unequal_row_counts(tmp_path, capsys):
    data, ckpt, records = synth_and_train(tmp_path)
    write_dataset_file(data, HAND23, features=records["features"],
                       thetas=records["thetas"][:-1])
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(report)) == 1
    assert "row counts" in capsys.readouterr().err
    assert not report.exists()


def test_train_and_eval_refuse_dataset_record_larger_than_the_file(tmp_path, capsys):
    # a features record whose .npy header claims 10**11 rows (30.6 TiB) is
    # refused before anything is allocated, not with a MemoryError
    data, ckpt, records = synth_and_train(tmp_path)
    write_dataset_file(data, HAND23, features=npy_header((10**11, 42))
                       + records["features"].tobytes(), thetas=records["thetas"])
    assert_train_and_eval_refuse(tmp_path, capsys, data, ckpt,
                                 f"error: {data}: features: the file ends inside the record")


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
    # 25-wide thetas array to train, then fail with an IndexError traceback;
    # the header's skeleton fixes the widths, and the reader refuses others
    data, ckpt, records = synth_and_train(tmp_path)
    records[key] = records[key][:, :-1]
    write_dataset_file(data, HAND23, **records)
    assert_train_and_eval_refuse(tmp_path, capsys, data, ckpt, f"error: {data}: {key} are "
                                 f"float64 (16, {width - 1}), expected float64 (N, {width})")


@pytest.mark.parametrize("key, value", [("features", np.inf), ("thetas", np.nan)])
def test_train_and_eval_refuse_non_finite_dataset(tmp_path, capsys, key, value):
    # unrefused, an inf feature is clipped to +-INPUT_CLIP_MM and scored
    data, ckpt, records = synth_and_train(tmp_path)
    records[key][3, 5] = value
    write_dataset_file(data, HAND23, **records)
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
                   "--out", str(ckpt)) == 0
    run = reg.load_checkpoint(ckpt)
    run.biases[-1][0] = np.nan
    reg.save_checkpoint(run, ckpt)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(report)) == 2
    assert capsys.readouterr().err == "numerical failure: non-finite network output\n"
    assert not report.exists()


def write_npz(path, version, **arrays):
    """A hand23 dataset in the .npz format of dataset versions 2 to 4: the
    arrays and a JSON meta member."""
    meta = {"magic": "kinedeep-dataset", "version": version, "skeleton": "hand23"}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


def test_train_and_eval_refuse_v2_dataset_with_joints(hand, tmp_path, capsys):
    data, ckpt, records = synth_and_train(tmp_path)
    joints = kin.forward_kinematics_batch(hand, records["thetas"]).reshape(16, -1)
    write_npz(data, 2, joints=joints, **records)
    assert_train_and_eval_refuse(tmp_path, capsys, data, ckpt, f"{data}: {NOT_A_DATASET}")


def test_train_and_eval_refuse_npz_dataset_of_version_4(tmp_path, capsys):
    # the format before the record file
    data, ckpt, records = synth_and_train(tmp_path)
    write_npz(data, 4, **records)
    assert_train_and_eval_refuse(tmp_path, capsys, data, ckpt, f"{data}: {NOT_A_DATASET}")


@pytest.mark.parametrize("change, refusal", [
    ({"version": 3, "sigma_mm": 10.0, "occlusion": 0.1, "seed": 4, "n": 16},
     "unsupported kinedeep-dataset version 3 (this reader reads version 6); re-run synth"),
    ({"version": 5, "skeleton": "hand23"},
     "unsupported kinedeep-dataset version 5 (this reader reads version 6); re-run synth"),
    ({"sigma_mm": 10.0}, "header fields must be exactly format, version and skeleton; "
                         "re-run synth"),
], ids=["v3", "v5", "extra-key"])
def test_train_and_eval_refuse_dataset_header_beyond_version_5(
        tmp_path, capsys, change, refusal):
    # version 3 also stored the noise, occlusion, seed and sample count,
    # which synth's manifest records, and version 5 the skeleton's name
    # only; a version-6 header holds three keys, the skeleton's config one
    data, ckpt, records = synth_and_train(tmp_path)
    write_dataset_file(data, {**HAND23, **change}, **records)
    assert_train_and_eval_refuse(tmp_path, capsys, data, ckpt, f"{data}: {refusal}")


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
    "misspelt_bone": (_palm(bone_lenght_mm=30.0), "bone_lenght_mm"),
    "misspelt_bound": (_palm_dof(uper_deg=10.0), "uper_deg"),
    "mm_bound_on_rotation": (_palm_dof(lower_mm=-10.0), "lower_mm"),
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
    pytest.param({"joints": [{"name": "root"}], "eval_subsets": ["root"]},
                 id="misspelt_eval_subset"),
    pytest.param({"joints": [{"name": "root"}, {"name": "tip", "parent": "root"}],
                  "eval_subset": ["tip", "tip", "root"]}, id="repeated_eval_subset_name"),
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


def test_fk_refuses_non_finite_bone_and_writes_nothing(hand, tmp_path, capsys):
    # unrefused, the palm's NaN bone in the pose file's skeleton would reach
    # every joint below it
    cfg = hand.to_dict()
    cfg["joints"][1]["bone_length_mm"] = math.nan
    path = write_record_file(tmp_path / "poses.rec", {**HAND23_POSES, "skeleton": cfg},
                             [np.zeros((1, hand.n_dofs))])
    out = tmp_path / "joints.csv"
    assert run_cli("fk", "--poses", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: header field skeleton is not a skeleton config: joint "
        f"'wrist_palm': bone_length_mm must be a finite number, not nan\n")
    assert os.listdir(tmp_path) == [path.name]


@pytest.mark.parametrize("argv, unloaded", [
    ("fk --poses {poses} --out {tmp}/joints.csv", ["hashlib", "_hashlib"]),
    ("synth --n 8 --out {tmp}/new.ds", ["multiprocessing", "concurrent.futures"]),
    ("train --train {data} --epochs 1 --out {tmp}/run.ckpt",
     ["multiprocessing", "concurrent.futures"]),
], ids=["fk", "synth", "train"])
def test_command_leaves_modules_unloaded(pose_file, tmp_path, argv, unloaded):
    # no kinedeep module imports hashlib, which loads OpenSSL's libcrypto,
    # and fk draws no random numbers (numpy.random loads it too); only
    # reproduce starts processes, and the process modules would add start-up
    # time and memory to every command
    data = tmp_path / "data.ds"
    assert run_cli("synth", "--n", "8", "--seed", "4", "--out", str(data)) == 0
    argv = argv.format(poses=pose_file[0], tmp=tmp_path, data=data).split()
    script = ("import sys\n"
              "from kinedeep.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              f"print([m for m in {unloaded!r} if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_train_prints_last_epoch_without_second_validation_pass(
        tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "24", "--sigma", "5", "--occlusion", "0.0",
                   "--seed", "4", "--out", str(data)) == 0
    real = reg.validation_stats
    calls = []

    def counting(run, dataset, skel):
        calls.append(1)
        return real(run, dataset, skel)

    monkeypatch.setattr(reg, "validation_stats", counting)
    monkeypatch.setattr(reg, "BATCH_SIZE", 8)
    ckpt = tmp_path / "run.ckpt.json"
    capsys.readouterr()
    assert run_cli("train", "--train", str(data), "--val", str(data),
                   "--epochs", "3", "--seed", "2", "--out", str(ckpt)) == 0
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


@pytest.mark.parametrize("mode", reg.MODES)
def test_train_manifest_records_the_mode_row(tmp_path, mode):
    # the rate and the penalty weight that train ran with are its mode's row
    data = tmp_path / "data.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--mode", mode, "--train", str(data), "--epochs", "1",
                   "--out", str(ckpt)) == 0
    config = json.loads((tmp_path / "run.ckpt.json.manifest.json").read_text())["config"]
    assert (config["lr"], config["lambda"]) == (reg.MODES[mode].base_lr,
                                                reg.MODES[mode].penalty)
    assert config["batch"] == reg.BATCH_SIZE == 64
    records = [json.loads(line) for line in
               (tmp_path / "run.ckpt.json.epochs.jsonl").read_text().splitlines()]
    assert [r["lr"] for r in records] == [reg.MODES[mode].base_lr * f for f, _ in reg.STAGES]


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning",
                            "ignore:invalid value encountered in matmul:RuntimeWarning")
def test_train_numerical_failure_exit_code(tmp_path, monkeypatch):
    # one stage at 1e7 times ours's base rate (lr 10) from the first epoch
    monkeypatch.setattr(reg, "STAGES", ((1e7, 1.0),))
    monkeypatch.setattr(reg, "BATCH_SIZE", 8)
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "32", "--sigma", "5", "--occlusion", "0.0",
                   "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    code = run_cli("train", "--mode", "ours", "--train", str(data),
                   "--epochs", "3", "--seed", "2", "--out", str(ckpt))
    assert code == 2


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
    monkeypatch.setattr(reg, "BATCH_SIZE", 8)
    ckpt = tmp_path / "run.ckpt.json"
    code = run_cli("train", "--mode", "ours", "--train", str(data),
                   "--epochs", "3", "--seed", "2", "--out", str(ckpt))
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
    monkeypatch.setattr(reg, "BATCH_SIZE", 8)
    ckpt = tmp_path / "run.ckpt.json"
    code = run_cli("train", "--mode", "ours", "--train", str(data),
                   "--epochs", "3", "--seed", "2", "--out", str(ckpt))
    assert code == 2
    assert "non-finite gradient at epoch 4 batch 1" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning",
                            "ignore:invalid value encountered in matmul:RuntimeWarning")
def test_train_validation_overflow_exits_2(tmp_path, monkeypatch, capsys):
    # epoch 0 ends with finite loss, gradients and weights, but weights so
    # large that the validation forward pass overflows: one stage at 1e6
    # times ours's base rate (lr 1) from the first epoch
    monkeypatch.setattr(reg, "STAGES", ((1e6, 1.0),))
    monkeypatch.setattr(reg, "BATCH_SIZE", 8)
    data = tmp_path / "data.csv"
    assert run_cli("synth", "--n", "24", "--sigma", "5", "--occlusion", "0",
                   "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    code = run_cli("train", "--train", str(data), "--val", str(data),
                   "--epochs", "3", "--seed", "2", "--out", str(ckpt))
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


@pytest.fixture()
def longer_thumb_dataset(hand, tmp_path):
    """A dataset made for a hand23 whose thumb_base bone is 5 mm longer:
    the same name and widths, another config; and that config's file."""
    cfg = hand.to_dict()
    thumb = next(j for j in cfg["joints"] if j["name"] == "thumb_base")
    thumb["bone_length_mm"] += 5.0
    skel_path = tmp_path / "longer_thumb.json"
    skel_path.write_text(json.dumps(cfg))
    data = tmp_path / "longer_thumb.ds"
    assert run_cli("synth", "--skeleton", str(skel_path), "--n", "16",
                   "--seed", "4", "--out", str(data)) == 0
    return skel_path, data


SAME_NAME = "(same name, but the configs differ)"


def test_train_refuses_dataset_of_another_skeleton(bench_dataset, longer_thumb_dataset,
                                                   tmp_path, capsys):
    # train trains on its training set's skeleton: --val, and --skeleton
    # when given, name one that the datasets must have been made for
    bench_path, bench_data = bench_dataset
    thumb_path, thumb_data = longer_thumb_dataset
    data = tmp_path / "hand.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(data)) == 0
    ckpt = tmp_path / "run.ckpt.json"
    capsys.readouterr()
    for argv, refusal in (
            (["--skeleton", sk.HAND23_PATH, "--train", str(bench_data)],
             f"{bench_data}: dataset was made for skeleton 'hand23-bench', not 'hand23'"),
            (["--train", str(data), "--val", str(bench_data)],
             f"{bench_data}: dataset was made for skeleton 'hand23-bench', not 'hand23'"),
            (["--skeleton", sk.HAND23_PATH, "--train", str(thumb_data)],
             f"{thumb_data}: dataset was made for skeleton 'hand23', not 'hand23' "
             + SAME_NAME),
            (["--skeleton", str(thumb_path), "--train", str(data)],
             f"{data}: dataset was made for skeleton 'hand23', not 'hand23' " + SAME_NAME),
            (["--train", str(data), "--val", str(thumb_data)],
             f"{thumb_data}: dataset was made for skeleton 'hand23', not 'hand23' "
             + SAME_NAME)):
        assert run_cli("train", *argv, "--epochs", "1", "--out", str(ckpt)) == 1
        assert capsys.readouterr().err == f"error: {refusal}\n"
        assert not ckpt.exists()
    # without --skeleton, the benchmark skeleton's dataset trains its network
    assert run_cli("train", "--train", str(bench_data), "--val", str(bench_data),
                   "--epochs", "1", "--out", str(ckpt)) == 0
    assert reg.load_checkpoint(ckpt).skeleton.to_dict() == \
        sk.load_skeleton(bench_path).to_dict()


def test_eval_refuses_dataset_of_another_skeleton(bench_dataset, tmp_path, capsys):
    # eval scores with the checkpoint's skeleton, here the benchmark's
    _, bench_data = bench_dataset
    ckpt = tmp_path / "run.ckpt.json"
    assert run_cli("train", "--train", str(bench_data), "--epochs", "1",
                   "--out", str(ckpt)) == 0
    data = tmp_path / "hand.ds"
    assert run_cli("synth", "--n", "16", "--seed", "4", "--out", str(data)) == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(data),
                   "--out", str(report)) == 1
    assert capsys.readouterr().err == \
        f"error: {data}: dataset was made for skeleton 'hand23', not 'hand23-bench'\n"
    assert not report.exists()


def test_eval_refuses_checkpoint_of_another_skeleton(bench_dataset, tmp_path, capsys):
    # both skeletons emit the same widths, so only the stored configs tell
    _, bench_data = bench_dataset
    data, ckpt, _ = synth_and_train(tmp_path)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(bench_data),
                   "--out", str(report)) == 1
    assert capsys.readouterr().err == \
        f"error: {bench_data}: dataset was made for skeleton 'hand23-bench', not 'hand23'\n"
    assert not report.exists()


def test_eval_refuses_checkpoint_of_another_config_of_the_same_name(
        longer_thumb_dataset, tmp_path, capsys):
    # a default-hand checkpoint scored a dataset of a longer thumb, exit 0
    _, thumb_data = longer_thumb_dataset
    data, ckpt, _ = synth_and_train(tmp_path)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert run_cli("eval", "--ckpt", str(ckpt), "--data", str(thumb_data),
                   "--out", str(report)) == 1
    assert capsys.readouterr().err == (
        f"error: {thumb_data}: dataset was made for skeleton 'hand23', not 'hand23' "
        f"{SAME_NAME}\n")
    assert not report.exists()


def test_unknown_flag_exits_1(capsys):
    assert run_cli("fk", "--nonsense") == 1
    assert capsys.readouterr().err.startswith("error: kinedeep fk: ")
    # removed flags; the training recipe is regressor's (a mode's row in
    # reg.MODES, STAGES, MOMENTUM and BATCH_SIZE) and the fitting recipe
    # ik_pso's (SWARM_SIZE, PHASE_ITERATIONS and POLISH_STEPS)
    ik = ["ik", "--targets", "t.csv", "--out", "fit.csv"]
    train = ["train", "--train", "t.ds", "--out", "run.ckpt"]
    reproduce = ["reproduce", "--out", "run"]
    for argv, removed in ((ik, ["--warm-start"]), (ik, ["--polish"]),
                          (ik, ["--no-polish"]), (ik, ["--report", "r.json"]),
                          (ik, ["--swarm", "64"]), (train, ["--flat-lr"]),
                          (train, ["--lr", "1e-6"]), (train, ["--lambda", "0"]),
                          (train, ["--batch", "64"]), (reproduce, ["--lambda", "0"]),
                          (reproduce, ["--batch", "64"])):
        assert run_cli(*argv, *removed) == 1
        assert capsys.readouterr().err == \
            f"error: kinedeep: unrecognized arguments: {' '.join(removed)}\n"


@pytest.mark.parametrize("fit_frames", ["0", "-3"])
def test_reproduce_refuses_fit_frames_below_1_before_training(tmp_path, capsys,
                                                              fit_frames):
    out = tmp_path / "run"
    assert run_cli("reproduce", "--train-n", "50", "--val-n", "20", "--epochs", "1",
                   "--fit-frames", fit_frames, "--out", str(out)) == 1
    assert capsys.readouterr().err == (f"error: kinedeep reproduce: argument "
                                       f"--fit-frames: must be >= 1, not {fit_frames}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value, message", [
    ("--train-n", "0", "argument --train-n: must be >= 1, not 0"),
    ("--val-n", "0", "argument --val-n: must be >= 1, not 0"),
    ("--sigma", "-1", "noise sigma must be >= 0"),
    ("--sigma", "nan", "noise sigma must be >= 0 and finite"),
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


def test_reproduce_runs_where_os_has_no_sched_getaffinity(tmp_path, monkeypatch):
    # as on macOS: every CPU counts as available
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(reg, "BATCH_SIZE", 16)
    out = tmp_path / "run"
    assert run_cli("reproduce", "--train-n", "48", "--val-n", "16", "--epochs", "1",
                   "--fit-frames", "2", "--out", str(out)) in (0, 3)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["workers"] == min(len(reg.MODES), os.cpu_count()) + 1


@pytest.fixture()
def batches_of_32(monkeypatch):
    """reproduce's modes train in mini-batches of 32."""
    monkeypatch.setattr(reg, "BATCH_SIZE", 32)


@pytest.mark.usefixtures("batches_of_32")
def test_reproduce_smoke(tmp_path):
    # tiny-budget smoke run: pipeline mechanics and determinism, not quality
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["reproduce", "--seed", "3", "--train-n", "96", "--val-n", "24",
            "--epochs", "6", "--fit-frames", "2"]
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
    assert manifest["config"]["batch"] == 32  # the recipe that ran
    assert str(out_a / "skeleton.json") in manifest["outputs"]
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
                   "--fit-frames", "1", "--out", str(out))
    assert code in (0, 3)  # orderings may fail at toy scale
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["skeleton"] == "hand23"
    assert manifest["config"]["interior_margin"] == 0.0


# run with batches_of_32
REPRODUCE_TINY = ["reproduce", "--seed", "3", "--train-n", "64", "--val-n", "16",
                  "--epochs", "3", "--fit-frames", "2"]


@pytest.mark.usefixtures("batches_of_32")
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


@pytest.mark.parametrize("failing", [None, "ours_invalid_lt_no_phy"])
@pytest.mark.usefixtures("batches_of_32")
def test_reproduce_exits_0_exactly_when_every_ordering_passes(tmp_path, monkeypatch,
                                                             failing):
    # the parent computes the orderings once the workers are done, so the
    # forked workers are unaffected
    checks = {name: name != failing for name in ORDERINGS}
    tables = []
    monkeypatch.setattr(reproduce, "orderings",
                        lambda table: tables.append(table) or checks)
    out = tmp_path / "run"
    assert run_cli(*REPRODUCE_TINY, "--out", str(out)) == (0 if failing is None else 3)
    assert [set(table) for table in tables] == [set(reg.MODES)]
    assert json.loads((out / "table.json").read_text())["orderings"] == checks


@pytest.mark.usefixtures("batches_of_32")
def test_eval_of_each_reproduce_checkpoint_gives_its_table_entry(tmp_path):
    # one scoring path: eval on reproduce's val set, written to a file, gives
    # each mode's table entry, direct_joint's IK fit over every val row
    # included (--fit-frames above --val-n fits them all)
    argv = REPRODUCE_TINY + ["--fit-frames", "32"]
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", str(out)) in (0, 3)
    table = json.loads((out / "table.json").read_text())
    args = build_parser().parse_args(argv + ["--out", str(out)])
    # the skeleton reproduce trained on, as it wrote it; eval takes the
    # checkpoint's, which must be the dataset's
    skel_path, val = out / "skeleton.json", tmp_path / "val.ds"
    skel = sk.load_skeleton(skel_path)
    fileio.write_dataset(val, bench.make_dataset(
        skel, n=args.val_n, noise_sigma_mm=args.sigma, occlusion_prob=args.occlusion,
        seed=args.seed + 1, interior_margin=bench.benchmark_interior_margin(),
        pose_shape="central"))
    assert table["modes"]["direct_joint"]["n_frames"] == args.val_n
    for mode in reg.MODES:
        report = tmp_path / f"{mode}.json"
        assert run_cli("eval", "--seed", str(args.seed),
                       "--ckpt", str(out / f"{mode}.ckpt.json"), "--data", str(val),
                       "--out", str(report)) == 0
        assert json.loads(report.read_text()) == table["modes"][mode]


@pytest.mark.usefixtures("batches_of_32")
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
