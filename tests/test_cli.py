import json
import multiprocessing
import os

import numpy as np
import pytest

from kinedeep import bench, fileio, ik_pso
from kinedeep import kinematics as kin
from kinedeep import regressor as reg
from kinedeep import skeleton as sk
from kinedeep.cli import build_parser, main, reproduce_mode


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
    assert "at least one target frame" in err
    assert "reshape" not in err
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


@pytest.mark.parametrize("fit_frames", ["0", "-3"])
def test_reproduce_refuses_fit_frames_below_1_before_training(tmp_path, capsys,
                                                              fit_frames):
    out = tmp_path / "run"
    assert run_cli("reproduce", "--train-n", "50", "--val-n", "20", "--epochs", "1",
                   "--fit-frames", fit_frames, "--out", str(out)) == 1
    assert "--fit-frames must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/*.ckpt.json"))


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
    stages = manifest["stages_s"]
    assert set(stages) == {"datasets", "ik_fit", "evaluate",
                           *(f"train_{mode}" for mode in reg.MODES)}
    assert all(np.isfinite(v) and v >= 0.0 for v in stages.values())
    assert manifest["workers"] == min(len(reg.MODES), len(os.sched_getaffinity(0)))
    rss = manifest["peak_rss_mb"]
    assert set(rss) == {"parent", "workers"} and min(rss.values()) > 0.0
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
    # the pool's table and checkpoints equal reproduce_mode run here, mode by mode
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
        report, stages = reproduce_mode(mode, skel, train_data, val_data, args)
        assert set(stages) == {f"train_{mode}", "ik_fit", "evaluate"}
        assert json.dumps(table["modes"][mode], sort_keys=True) == \
            json.dumps(report.to_dict(), sort_keys=True)
        name = f"{mode}.ckpt.json"
        assert (pooled / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


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
