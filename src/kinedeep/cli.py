"""Command-line entry point.

One binary with subcommands: fk, jacobian, gradcheck, ik, synth, train,
eval, reproduce. Every run that writes artifacts also writes a JSON
manifest next to them (resolved configuration, seed, inputs, outputs, tool
version, wall-clock duration); re-running a command with the same seed
reproduces its outputs byte for byte. The manifest and the other run
records are the exception, because they hold wall times and, for train
and reproduce, the peak resident memory in MiB (peak_rss_mb) and the minor
page faults (minor_faults). train and reproduce write one JSON line per
epoch beside each checkpoint (<checkpoint>.epochs.jsonl: stage learning
rate, train loss, last-batch gradient norm, validation metrics when there
is a validation set, seconds). Validation is recorded per epoch and never
changes the weights or the epoch count: train at its defaults, with or
without --val, trains reproduce's network. Before any work, a command
refuses an --out, or a file it writes beside --out, that cannot be written;
reproduce refuses an --out that is not a directory and cannot be made one,
or a file it writes in --out that is a directory.

reproduce runs the comparison that the reproduce module defines (the
worker processes, their schedule and the claims), then writes its table
and manifest; the manifest's tasks list records which worker ran what,
when, and its CPU seconds. main first fixes glibc's malloc thresholds
(_set_malloc_thresholds), which reproduce's forked pool workers inherit.

The network architecture and training recipe of each mode are regressor's
and the fitting recipe ik_pso's: module constants, which no flag overrides.
A command sets only the epoch count, the fit budget (ik --iters, eval
--fit-iters), sizes and seeds. The parser refuses a count flag (--epochs, --trials, --iters,
--fit-iters, --fit-frames and the dataset sizes --n, --train-n, --val-n)
below 1 before any file is read.

gradcheck checks the ours network that reproduce trains (regressor.init:
42-256-256-26 on the default hand) on make_dataset's features at the
default noise and occlusion, in NET_COORDINATES seeded coordinates of every
weight and bias array. One whose +h or -h network differs from the
unperturbed one in a hidden ReLU mask, or in which rotation DOFs lie outside
their bounds, spans a kink and is redrawn; its line names widths and redraws.

Exit codes: 0 success; 1 validation or parse error; 2 numerical failure
(non-finite values); 3 an acceptance-style check failed (gradcheck
tolerance or a reproduce ordering).

Every data file is a record file of fileio's one format, whatever its
suffix, and holds the config of the skeleton it was made for: fk and
jacobian read a pose file and write a joint file or a Jacobian file; ik
reads a joint file of all joints, as fk writes it, and writes a pose file;
synth writes a dataset, which train and eval read, and train a checkpoint,
which eval reads. A command works on its input file's skeleton: fk,
jacobian, ik and eval take no --skeleton, train trains on its training
set's, and eval scores with its checkpoint's. An input made for another
config (train's --val, eval's --data), of the same name or not, is refused.

synth, gradcheck and reproduce make data for --skeleton, a config file;
the default is the built-in 23-joint hand (hand23.json, shipped inside the
package), for reproduce the benchmark skeleton. reproduce writes the one it
trained on as <out>/skeleton.json, for synth --skeleton. train --skeleton
selects nothing: it names the skeleton both datasets must be made for.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time

import numpy as np

from . import __version__, bench, fileio, ik_pso
from . import kinematics as kin
from . import loss as loss_mod
from . import regressor as reg
from . import reproduce as rp
from . import skeleton as sk

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3

NET_COORDINATES = 64  # gradcheck's sample of each weight and bias array


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; here 1 means "bad input"
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def count(text) -> int:
    """The argparse type of a count flag: an integer, at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def _resolve_skeleton(path) -> sk.Skeleton:
    if path is None:
        return sk.default_hand()
    return sk.load_skeleton(path)


def _check_writable(*paths) -> None:
    """Refuse output files, --out and every file written beside it, if one
    cannot be written, before any work (they are still written last, so a
    failed run leaves none)."""
    for path in paths:
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not os.access(folder, os.W_OK):
            raise ValueError(f"{path}: cannot be written: it is a directory, or its "
                             f"directory is missing or read-only")


def _check_out_dir(out, files) -> None:
    """Refuse reproduce's --out before any work unless it is a directory
    whose `files` can be written, or can be made one (os.makedirs makes
    every missing directory on its path)."""
    if os.path.isdir(out):
        _check_writable(*files)
        return
    parent = os.path.abspath(out)
    while not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if parent == os.path.abspath(out) or not (os.path.isdir(parent)
                                              and os.access(parent, os.W_OK)):
        raise ValueError(f"{out}: cannot be written: it is not a directory, and "
                         f"cannot be made one")


def _manifest_path(out_path) -> str:
    return str(out_path) + ".manifest.json"


def _memory_use(who=resource.RUSAGE_SELF) -> dict:
    """Peak resident set size in MiB (ru_maxrss is in KiB) and minor page
    faults: of this process, or with RUSAGE_CHILDREN of its waited-for
    children, whose peak is the largest child's and whose faults are the
    sum over all of them."""
    usage = resource.getrusage(who)
    return {"peak_rss_mb": usage.ru_maxrss / 1024.0,
            "minor_faults": usage.ru_minflt}


def _write_manifest(path, subcommand, config, seed, inputs, outputs, started,
                    **record):
    # the BLAS numpy was built against, less its local paths
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    payload = {
        "tool": "kinedeep",
        "version": __version__,
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "duration_s": time.monotonic() - started,
    }
    payload.update(record)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_kinematics(args) -> int:
    """fk and jacobian: a joint file of every pose's frame, or a Jacobian
    file of one record per pose."""
    started = time.monotonic()
    _check_writable(args.out, _manifest_path(args.out))
    skel, poses = fileio.read_pose_file(args.poses)
    if args.command == "fk":
        fileio.write_joint_file(args.out, skel, kin.forward_kinematics_batch(skel, poses))
    else:
        # one pose at a time: a Jacobian is 3*J*D values, so memory stays
        # flat in the number of poses
        fileio.write_jacobian_file(
            args.out, skel,
            (kin.fk_jacobian_batch(skel, pose[None])[1][0] for pose in poses))
    _write_manifest(_manifest_path(args.out), args.command,
                    {"skeleton": skel.name, "frames": int(len(poses))},
                    None, [args.poses], [args.out], started)
    print(f"{args.command}: {len(poses)} poses -> {args.out}")
    return EXIT_OK


def _gradcheck_fk(skel, rng, trials):
    worst = 0.0
    eps = np.eye(skel.n_dofs) * 1e-5
    for _ in range(trials):
        theta = rng.uniform(skel.dof_lower, skel.dof_upper)
        jac = kin.fk_jacobian_batch(skel, theta[None])[1][0]
        plus = kin.forward_kinematics_batch(skel, theta[None, :] + eps)
        minus = kin.forward_kinematics_batch(skel, theta[None, :] - eps)
        fd = (plus - minus).reshape(skel.n_dofs, -1).T / 2e-5
        worst = max(worst, float(np.max(np.abs(jac - fd) / (1.0 + np.abs(fd)))))
    return worst


def _gradcheck_loss(skel, rng, trials):
    """Joint loss plus the range penalty (lambda 1): analytic gradient against
    central differences, each trial's centre and its +-h poses in one batch."""
    span = skel.dof_upper - skel.dof_lower
    worst = 0.0
    ev = list(skel.eval_subset)
    D = skel.n_dofs
    steps = np.eye(D) * 1e-5
    for _ in range(trials):
        theta = rng.uniform(skel.dof_lower + 0.01 * span,
                            skel.dof_upper - 0.01 * span)
        near = theta + rng.normal(scale=0.02, size=theta.shape)
        target = kin.forward_kinematics_batch(skel, near[None], joint_indices=ev)
        thetas = np.vstack([theta, theta + steps, theta - steps])
        jt, jt_grad = loss_mod.joint_loss_batch(
            skel, thetas, np.repeat(target, len(thetas), axis=0))
        phy, phy_grad = loss_mod.phy_loss_batch(skel, thetas)
        total = jt + phy
        grad = jt_grad[0] + phy_grad[0]
        fd = (total[1:D + 1] - total[D + 1:]) / 2e-5
        worst = max(worst, float(np.max(np.abs(grad - fd) / (1.0 + np.abs(fd)))))
    return worst


def _gradcheck_net(skel, rng, rows):
    """The network check of the module docstring on `rows` feature rows:
    (max relative error, layer widths, coordinates redrawn)."""
    run = reg.init(skel, rp.OURS, int(rng.integers(2**31)))
    data = bench.make_dataset(skel, rows, bench.NOISE_SIGMA_MM, bench.OCCLUSION_PROB,
                              int(rng.integers(2**31)), 0.0, "uniform")
    feats, targets = data.features, bench.eval_joints(skel, data.thetas)
    rot = skel.dof_is_rotation
    lower, upper = skel.dof_lower[rot], skel.dof_upper[rot]

    def kinks(acts):  # each hidden ReLU mask, and the rotation outputs out of bounds
        _, *hidden, out = acts
        return [a > 0.0 for a in hidden] + [(out[:, rot] < lower) | (out[:, rot] > upper)]

    _, (gw, gb) = reg.backward_through_model(run, feats, targets, skel)
    unperturbed = kinks(list(reg._layers(run, feats)))
    worst, redrawn, h = 0.0, 0, 1e-5
    for array, grad in zip(run.weights + run.biases, gw + gb):
        checked = 0
        while checked < NET_COORDINATES:
            i = np.unravel_index(rng.integers(array.size), array.shape)
            orig, values, smooth = array[i], [], True
            for step in (h, -h):
                array[i] = orig + step
                value, acts, _ = reg._loss_through_model(run, feats, targets, skel)
                values.append(value)
                smooth &= all(map(np.array_equal, kinks(acts), unperturbed))
            array[i] = orig
            if not smooth:
                redrawn += 1
                continue
            fd = (values[0] - values[1]) / (2 * h)
            worst = max(worst, abs(grad[i] - fd) / (1.0 + abs(fd)))
            checked += 1
    return worst, [len(run.weights[0])] + [w.shape[1] for w in run.weights], redrawn


def cmd_gradcheck(args) -> int:
    skel = _resolve_skeleton(args.skeleton)
    rng = np.random.default_rng(args.seed)
    fk_err = _gradcheck_fk(skel, rng, args.trials)
    loss_err = _gradcheck_loss(skel, rng, min(args.trials, 20))
    net_err, widths, redrawn = _gradcheck_net(skel, rng, min(args.trials, 16))
    print(f"fk-jacobian   max rel err {fk_err:.3e}  (tolerance 1e-06)")
    print(f"loss-gradient max rel err {loss_err:.3e}  (tolerance 1e-06)")
    print(f"net-through-model max rel err {net_err:.3e}  (tolerance 1e-05)  "
          f"{rp.OURS} {'-'.join(map(str, widths))}, {NET_COORDINATES} coordinates "
          f"per weight and bias array, {redrawn} redrawn at a kink")
    if fk_err < 1e-6 and loss_err < 1e-6 and net_err < 1e-5:
        print("gradcheck: PASS")
        return EXIT_OK
    print("gradcheck: FAIL")
    return EXIT_CHECK_FAILED


def cmd_ik(args) -> int:
    started = time.monotonic()
    report_path = str(args.out) + ".report.json"
    _check_writable(args.out, report_path, _manifest_path(args.out))
    skel, frames = fileio.read_joint_file(args.targets)
    if not len(frames):
        raise ValueError(f"{args.targets}: no frames to fit")
    frames = frames[:, list(skel.eval_subset), :]
    fit_started = time.monotonic()
    result = ik_pso.fit_batch(skel, frames, args.iters, args.seed)
    fit_s = time.monotonic() - fit_started
    fileio.write_pose_file(args.out, skel, result.theta)
    mean, var = ik_pso.residual_stats(result)
    report = {
        "frames": len(result.theta),
        "residual_mean_mm": mean,
        "residual_variance_mm2": var,
        "residual_mm": result.residual_mm.tolist(),
        "converged": (result.residual_mm <= ik_pso.TOL_MM).tolist(),
        "iterations_used": result.iterations_used.tolist(),
        "fit_s": fit_s,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _write_manifest(_manifest_path(args.out), "ik",
                    {"skeleton": skel.name, "swarm": ik_pso.SWARM_SIZE,
                     "iters": args.iters},
                    args.seed, [args.targets], [args.out, report_path], started)
    print(f"ik: {len(result.theta)} frames, residual mean {mean!r} mm, "
          f"variance {var!r} mm^2")
    return EXIT_OK


def cmd_synth(args) -> int:
    started = time.monotonic()
    _check_writable(args.out, _manifest_path(args.out))
    skel = _resolve_skeleton(args.skeleton)
    data = bench.make_dataset(skel, n=args.n, noise_sigma_mm=args.sigma,
                              occlusion_prob=args.occlusion, seed=args.seed,
                              interior_margin=args.interior_margin,
                              pose_shape=args.pose_shape)
    fileio.write_dataset(args.out, data)
    _write_manifest(_manifest_path(args.out), "synth",
                    {"skeleton": skel.name, "n": args.n, "sigma": args.sigma,
                     "occlusion": args.occlusion,
                     "interior_margin": args.interior_margin,
                     "pose_shape": args.pose_shape},
                    args.seed, [], [args.out], started)
    print(f"synth: {args.n} samples -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.monotonic()
    _check_writable(args.out, rp.epochs_path(args.out), _manifest_path(args.out))
    train_data = fileio.read_dataset(args.train)
    skel = train_data.skeleton
    if args.skeleton:
        fileio.check_made_for(args.train, "dataset", skel, sk.load_skeleton(args.skeleton))
    val_data = fileio.read_dataset(args.val) if args.val else None
    if val_data is not None:
        fileio.check_made_for(args.val, "dataset", val_data.skeleton, skel)
    spec = reg.MODES[args.mode]
    run = rp.train_mode(skel, args.mode, train_data, val_data, args.epochs, args.seed,
                        args.out)
    reg.save_checkpoint(run, args.out)
    if val_data is not None:
        last = run.history[-1]  # the validation stats of the saved weights
        print(f"val joint error {last.val_joint_err_mm!r} mm, angle error "
              f"{last.val_angle_err_deg!r} deg, invalid fraction "
              f"{last.val_invalid_frac!r}")
    _write_manifest(_manifest_path(args.out), "train",
                    {"skeleton": skel.name, "mode": args.mode, "lr": spec.base_lr,
                     "batch": reg.BATCH_SIZE, "epochs": args.epochs,
                     "lambda": spec.penalty},
                    args.seed, [args.train] + ([args.val] if args.val else []),
                    [args.out, rp.epochs_path(args.out)], started,
                    **_memory_use())
    print(f"train: mode {args.mode}, {len(run.history)} epochs -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.monotonic()
    _check_writable(args.out, _manifest_path(args.out))
    run = reg.load_checkpoint(args.ckpt)
    skel, data = run.skeleton, fileio.read_dataset(args.data)
    fileio.check_made_for(args.data, "dataset", data.skeleton, skel)
    report = rp.score(run, skel, data, args.seed, args.fit_iters)
    with open(args.out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    print(report.to_text())
    _write_manifest(_manifest_path(args.out), "eval",
                    {"skeleton": skel.name, "mode": run.mode,
                     "fit_iters": args.fit_iters},
                    args.seed, [args.ckpt, args.data], [args.out], started)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    started = time.monotonic()
    skeleton_json, table_txt, table_json, manifest_json = (
        os.path.join(args.out, name)
        for name in ("skeleton.json", "table.txt", "table.json", "manifest.json"))
    outputs = [path for mode in reg.MODES
               for path in (rp.mode_checkpoint(args.out, mode),
                            rp.epochs_path(rp.mode_checkpoint(args.out, mode)))]
    outputs += [skeleton_json, table_txt, table_json]
    _check_out_dir(args.out, outputs + [manifest_json])
    # the interior margin undoes the benchmark skeleton's bound expansion;
    # a skeleton file's bounds are sampled whole
    if args.skeleton:
        skel, margin = sk.load_skeleton(args.skeleton), 0.0
    else:
        skel, margin = bench.benchmark_skeleton(), bench.benchmark_interior_margin()
    table, tasks, workers = rp.run(skel, margin, args, started)
    text, checks = rp.table_text(table), rp.orderings(table)

    sk.save_skeleton(skel, skeleton_json)
    with open(table_txt, "w") as fh:
        fh.write(text)
    with open(table_json, "w") as fh:
        json.dump({
            "modes": {m: table[m].to_dict() for m in reg.MODES},
            "orderings": checks,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    parent, children = _memory_use(), _memory_use(resource.RUSAGE_CHILDREN)
    _write_manifest(manifest_json, "reproduce",
                    {"skeleton": skel.name, "train_n": args.train_n,
                     "val_n": args.val_n, "sigma": args.sigma,
                     "occlusion": args.occlusion, "epochs": args.epochs,
                     "batch": reg.BATCH_SIZE, "fit_frames": args.fit_frames,
                     "interior_margin": margin, "pose_shape": "central"},
                    args.seed, [], outputs, started, workers=workers, tasks=tasks,
                    peak_rss_mb={"parent": parent["peak_rss_mb"],
                                 "workers": children["peak_rss_mb"]},
                    minor_faults={"parent": parent["minor_faults"],
                                  "workers": children["minor_faults"]})

    print(text)
    for name, ok in checks.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="kinedeep",
                     description="Differentiable hand kinematics toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_skeleton(p):
        p.add_argument("--skeleton", default=None,
                       help="skeleton config (default: the packaged hand23.json)")

    p = sub.add_parser("fk", help="forward kinematics over a pose file")
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kinematics)

    p = sub.add_parser("jacobian", help="analytic Jacobians over a pose file")
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kinematics)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks",
                       description=f"The network check samples {NET_COORDINATES} "
                                   "coordinates of each array of the ours network "
                                   "reproduce trains, redrawing one whose +-h step "
                                   "changes a ReLU mask or the DOFs out of bounds.")
    add_skeleton(p)
    p.add_argument("--trials", type=count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ik", help="fit poses to target joint frames")
    p.add_argument("--targets", required=True, help="joint file of all joints (fk output)")
    p.add_argument("--out", required=True, help="pose file to write")
    p.add_argument("--iters", type=count, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ik)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_skeleton(p)
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--sigma", type=float, default=bench.NOISE_SIGMA_MM,
                   help="noise sigma, mm")
    p.add_argument("--occlusion", type=float, default=bench.OCCLUSION_PROB)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interior-margin", type=float, default=0.0)
    p.add_argument("--pose-shape", choices=("uniform", "central"),
                   default="uniform")
    p.add_argument("--out", required=True,
                   help="dataset path; the file is a kinedeep-dataset record file "
                        "(fileio), whatever its suffix")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a regressor on a dataset",
                       description="Train one mode's regressor on a dataset. The "
                                   "mode fixes the base learning rate and the "
                                   "angle-range penalty weight (lambda): "
                                   + ", ".join(f"{m} {s.base_lr:g} and {s.penalty:g}"
                                               for m, s in reg.MODES.items())
                                   + f". Every mode runs the same staged schedule "
                                   f"in mini-batches of {reg.BATCH_SIZE} with "
                                   f"momentum {reg.MOMENTUM:g}; only the epoch "
                                   f"count is set here. Validation is recorded "
                                   f"per epoch and never changes the weights or "
                                   f"the epoch count.")
    p.add_argument("--skeleton", default=None,
                   help="a skeleton config that both datasets must have been made for; "
                        "training uses the training set's skeleton either way")
    p.add_argument("--mode", choices=reg.MODES, default="ours")
    p.add_argument("--train", required=True, help="training dataset file")
    p.add_argument("--val", default=None,
                   help="validation dataset file, scored after every epoch; it "
                        "never changes the weights or the epoch count")
    p.add_argument("--epochs", type=count, default=rp.EPOCHS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset",
                       description="Score a checkpoint on a dataset made for the "
                                   "checkpoint's skeleton.")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit-iters", type=count, default=rp.FIT_ITERATIONS,
                   help="swarm iterations for direct_joint angle fitting")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reproduce",
                       help="train all four modes and print the comparison table",
                       description="Train all four modes and print the comparison "
                                   "table. The modes train in parallel, one worker "
                                   "process per available CPU, plus one worker for "
                                   "direct_joint's IK fit; pin BLAS to one thread "
                                   "(OPENBLAS_NUM_THREADS=1) to avoid "
                                   "oversubscribing the CPUs. The skeleton trained "
                                   "on is written as <out>/skeleton.json, for synth "
                                   "--skeleton to make more data for the checkpoints.")
    p.add_argument("--skeleton", default=None,
                   help="skeleton config to train on (default: the benchmark skeleton)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-n", type=count, default=20000)
    p.add_argument("--val-n", type=count, default=2000)
    p.add_argument("--sigma", type=float, default=bench.NOISE_SIGMA_MM)
    p.add_argument("--occlusion", type=float, default=bench.OCCLUSION_PROB)
    p.add_argument("--epochs", type=count, default=rp.EPOCHS)
    p.add_argument("--fit-frames", type=count, default=2000,
                   help="val frames to fit for direct_joint angle metrics")
    p.set_defaults(func=cmd_reproduce)

    return parser


# glibc mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _set_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 4 MiB and its trim threshold at 32 MiB.

    glibc's own mmap threshold starts at 128 KiB and rises only to the
    largest mapped block freed so far. Until then, an IK swarm's per-call
    FK temporaries (up to ~2.3 MB, at a 4096-particle chunk) are mapped, or
    trimmed off the heap top, and faulted in afresh on every call. Fixed
    thresholds keep them in the heap. Calling this again changes nothing;
    where the C library has no mallopt it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 4 << 20)
    mallopt(M_TRIM_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    _set_malloc_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as e:  # SkeletonError and FileFormatError included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except reg.NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
