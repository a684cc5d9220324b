"""Command-line entry point.

One binary with subcommands: fk, jacobian, gradcheck, ik, synth, train,
eval, reproduce. Every run that writes artifacts also writes a JSON
manifest next to them (resolved configuration, seed, inputs, outputs, tool
version, wall-clock duration); re-running a command with the same seed
reproduces its outputs byte for byte. The manifest and the other run
records are the exception, because they hold wall times and, for train
and reproduce, the peak resident memory in MiB (peak_rss_mb). train and
reproduce write one JSON line per epoch beside each checkpoint
(<checkpoint>.epochs.jsonl: stage learning rate, train loss, last-batch
gradient norm, validation metrics when there is a validation set, seconds).

reproduce trains its four modes in parallel, one worker process per
available CPU, at most one per mode. Pin BLAS to one thread
(OPENBLAS_NUM_THREADS=1 or the like): each worker keeps a CPU busy, and
BLAS threads on top of the workers oversubscribe the CPUs.

Exit codes: 0 success; 1 validation or parse error; 2 numerical failure
(non-finite values); 3 an acceptance-style check failed (gradcheck
tolerance or a reproduce ordering).

The default skeleton is the built-in 23-joint hand, the config file
hand23.json shipped inside the package; --skeleton or the KINEDEEP_SKELETON
environment variable select another config file. train and eval refuse a
dataset whose metadata names a different skeleton, and eval a checkpoint
whose recorded skeleton fingerprint differs.
"""
from __future__ import annotations

import argparse
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
from . import skeleton as sk

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3

SKELETON_ENV = "KINEDEEP_SKELETON"

# The paper's network, its ablation without the angle-range penalty and the
# two direct-regression baselines, by their place in the mode table.
OURS, OURS_NO_PHY, DIRECT_JOINT, DIRECT_PARAMETER = reg.MODES


class _CliError(Exception):
    def __init__(self, message, code=EXIT_INVALID):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; here 1 means "bad input"
    def error(self, message):
        raise _CliError(f"{self.prog}: {message}")


def _resolve_skeleton(path) -> sk.Skeleton:
    path = path or os.environ.get(SKELETON_ENV)
    if path is None:
        return sk.default_hand()
    return sk.load_skeleton(path)


def _read_dataset(path, skel) -> bench.Dataset:
    """A dataset file, refused unless it was made for `skel`."""
    data = fileio.read_dataset(path)
    if data.skeleton_name != skel.name:
        raise _CliError(f"{path}: dataset was made for skeleton "
                        f"{data.skeleton_name!r}, not {skel.name!r}")
    return data


def _load_checkpoint(path, skel) -> reg.TrainRun:
    """A checkpoint, refused unless it was trained for `skel`."""
    run, want = reg.load_checkpoint(path), skel.fingerprint()
    if run.skeleton != want:
        raise _CliError(f"{path}: checkpoint was trained for skeleton "
                        f"{run.skeleton['name']!r}, not {want['name']!r} (sha256 "
                        f"{run.skeleton['sha256'][:12]} vs {want['sha256'][:12]})")
    return run


def _manifest_path(out_path) -> str:
    return str(out_path) + ".manifest.json"


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB: of this process, or with
    RUSAGE_CHILDREN of its largest waited-for child (ru_maxrss is in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _write_manifest(path, subcommand, config, seed, inputs, outputs, started,
                    **record):
    payload = {
        "tool": "kinedeep",
        "version": __version__,
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
    """fk and jacobian: one row of joints, or of Jacobian entries, per pose."""
    started = time.monotonic()
    skel = _resolve_skeleton(args.skeleton)
    _, poses = fileio.read_pose_file(args.poses, expected_dims=skel.n_dofs)
    if args.command == "fk":
        fileio.write_joint_file(args.out, skel.name,
                                kin.forward_kinematics_batch(skel, poses))
    else:
        # one pose at a time: a Jacobian is 3*J*D values, so memory stays
        # flat in the number of poses
        fileio.write_jacobian_file(
            args.out, skel.name, (3 * skel.n_joints, skel.n_dofs),
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


def _gradcheck_net(skel, rng, samples):
    run = reg.init(reg.MlpConfig((6, 8, skel.n_dofs), seed=int(rng.integers(2**31))),
                   OURS)
    feats = rng.normal(size=(samples, 6))
    thetas = rng.uniform(skel.dof_lower, skel.dof_upper, size=(samples, skel.n_dofs))
    targets = kin.forward_kinematics_batch(skel, thetas,
                                           joint_indices=list(skel.eval_subset))
    _, (gw, gb) = reg.backward_through_model(run, feats, targets, skel, lam=1.0)
    worst = 0.0
    h = 1e-5
    for li, mat in enumerate(run.weights):
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = mat[i]
            mat[i] = orig + h
            up, _ = reg.backward_through_model(run, feats, targets, skel, lam=1.0)
            mat[i] = orig - h
            dn, _ = reg.backward_through_model(run, feats, targets, skel, lam=1.0)
            mat[i] = orig
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(gw[li][i] - fd) / (1.0 + abs(fd)))
    return worst


def cmd_gradcheck(args) -> int:
    skel = _resolve_skeleton(args.skeleton)
    if args.trials < 1:
        raise _CliError("--trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    fk_err = _gradcheck_fk(skel, rng, args.trials)
    loss_err = _gradcheck_loss(skel, rng, min(args.trials, 20))
    net_err = _gradcheck_net(skel, rng, min(args.trials, 16))
    print(f"fk-jacobian   max rel err {fk_err:.3e}  (tolerance 1e-06)")
    print(f"loss-gradient max rel err {loss_err:.3e}  (tolerance 1e-06)")
    print(f"net-through-model max rel err {net_err:.3e}  (tolerance 1e-05)")
    if fk_err < 1e-6 and loss_err < 1e-6 and net_err < 1e-5:
        print("gradcheck: PASS")
        return EXIT_OK
    print("gradcheck: FAIL")
    return EXIT_CHECK_FAILED


def cmd_ik(args) -> int:
    started = time.monotonic()
    skel = _resolve_skeleton(args.skeleton)
    name, frames = fileio.read_joint_file(args.targets)
    n_eval = len(skel.eval_subset)
    if frames.shape[0] and frames.shape[1] == skel.n_joints:
        frames = frames[:, list(skel.eval_subset), :]
    elif frames.shape[0] and frames.shape[1] != n_eval:
        raise _CliError(
            f"{args.targets}: frames carry {frames.shape[1]} joints, expected "
            f"{n_eval} (eval subset) or {skel.n_joints} (all)"
        )
    config = ik_pso.PsoConfig(
        swarm_size=args.swarm, iterations=args.iters, seed=args.seed,
        polish_steps=50 if args.polish else 0,
    )
    fit_started = time.monotonic()
    results = ik_pso.fit_batch(skel, frames, config, warm_start=args.warm_start)
    fit_s = time.monotonic() - fit_started
    fileio.write_pose_file(args.out, skel.name, np.stack([r.theta for r in results]))
    mean, var = ik_pso.residual_stats(results)
    report = {
        "frames": len(results),
        "residual_mean_mm": mean,
        "residual_variance_mm2": var,
        "residual_mm": [r.residual_mm for r in results],
        "converged": [r.converged for r in results],
        "iterations_used": [r.iterations_used for r in results],
        "fit_s": fit_s,
    }
    report_path = args.report or str(args.out) + ".report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _write_manifest(_manifest_path(args.out), "ik",
                    {"skeleton": skel.name, "swarm": args.swarm,
                     "iters": args.iters, "warm_start": args.warm_start,
                     "polish": args.polish},
                    args.seed, [args.targets], [args.out, report_path], started)
    print(f"ik: {len(results)} frames, residual mean {mean!r} mm, "
          f"variance {var!r} mm^2")
    return EXIT_OK


def cmd_synth(args) -> int:
    started = time.monotonic()
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


def _epochs_path(ckpt_path) -> str:
    return str(ckpt_path) + ".epochs.jsonl"


def _train_mode(skel, mode, train_data, val_data, sgd, seed, ckpt_path):
    """A fresh network of `mode`, trained by `sgd`, its epochs recorded one
    JSON line each beside the checkpoint path."""
    spec = reg.MODES[mode]
    cfg = reg.MlpConfig(
        layer_widths=(train_data.features.shape[1], 256, 256, spec.output_width(skel)),
        seed=seed, input_scale=0.01, input_clip_abs=400.0,
        output_scale=spec.output_scale(skel),
    )
    # line-buffered: each epoch is on disk when it ends
    with open(_epochs_path(ckpt_path), "w", buffering=1) as fh:
        return reg.train(reg.init(cfg, mode), train_data, skel, sgd, val=val_data,
                         on_epoch=lambda record: fh.write(json.dumps(record) + "\n"))


def cmd_train(args) -> int:
    started = time.monotonic()
    skel = _resolve_skeleton(args.skeleton)
    train_data = _read_dataset(args.train, skel)
    val_data = _read_dataset(args.val, skel) if args.val else None
    spec = reg.MODES[args.mode]
    base_lr = args.lr if args.lr is not None else spec.base_lr
    sgd = reg.SgdConfig(batch_size=args.batch, learning_rate=base_lr,
                        epochs=args.epochs, lam=args.lam, staged=not args.flat_lr)
    run = _train_mode(skel, args.mode, train_data, val_data, sgd, args.seed, args.out)
    reg.save_checkpoint(run, args.out, skel)
    if val_data is not None:
        last = run.history[-1]  # the validation stats of the saved weights
        print(f"val joint error {last.val_joint_err_mm!r} mm, angle error "
              f"{last.val_angle_err_deg!r} deg, invalid fraction "
              f"{last.val_invalid_frac!r}")
    _write_manifest(_manifest_path(args.out), "train",
                    {"skeleton": skel.name, "mode": args.mode, "lr": base_lr,
                     "batch": args.batch, "epochs": args.epochs,
                     "lambda": spec.penalty_weight(args.lam),
                     "flat_lr": args.flat_lr},
                    args.seed, [args.train] + ([args.val] if args.val else []),
                    [args.out, _epochs_path(args.out)], started,
                    peak_rss_mb=_peak_rss_mb())
    print(f"train: mode {args.mode}, {len(run.history)} epochs -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    started = time.monotonic()
    skel = _resolve_skeleton(args.skeleton)
    run = _load_checkpoint(args.ckpt, skel)
    data = _read_dataset(args.data, skel)
    predictions = reg.predict(run, data.features, skel)
    fitted = None
    if not reg.MODES[run.mode].emits_pose:
        fit_cfg = ik_pso.PsoConfig(seed=args.seed, iterations=args.fit_iters)
        fitted = np.stack([r.theta for r in ik_pso.fit_batch(skel, predictions, fit_cfg)])
    report = bench.evaluate(skel, predictions, data, fitted_poses=fitted)
    with open(args.out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    if args.curve_csv:
        with open(args.curve_csv, "w") as fh:
            fh.write(report.curve_csv())
    print(report.to_text())
    _write_manifest(_manifest_path(args.out), "eval",
                    {"skeleton": skel.name, "mode": run.mode,
                     "fit_iters": args.fit_iters},
                    args.seed, [args.ckpt, args.data],
                    [args.out] + ([args.curve_csv] if args.curve_csv else []),
                    started)
    return EXIT_OK


# Published reference errors on the NYU protocol; a different data domain,
# printed for context only and never compared against.
_NYU_REFERENCE = (
    (DIRECT_JOINT, 17.2, 21.4, None),
    (DIRECT_PARAMETER, 26.7, 12.2, None),
    (OURS_NO_PHY, 16.9, 12.0, 0.186),
    (OURS, 16.9, 12.2, 0.009),
)


def _format_table(rows) -> str:
    lines = [f"{'mode':18s} {'joint err (mm)':>16s} {'angle err (deg)':>16s} "
             f"{'invalid frac':>13s}"]
    for mode, joint, angle, invalid in rows:
        inv = "-" if invalid is None or np.isnan(invalid) else repr(round(invalid, 6))
        lines.append(f"{mode:18s} {round(joint, 4)!r:>16} {round(angle, 4)!r:>16} "
                     f"{inv:>13s}")
    return "\n".join(lines)


def _mode_checkpoint(out_dir, mode) -> str:
    return os.path.join(out_dir, f"{mode}.ckpt.json")


def reproduce_mode(mode, skel, train_data, val_data, args):
    """One mode of `reproduce`, start to end.

    Trains the mode on `train_data`, saves its checkpoint (and its epoch
    records) in args.out, predicts `val_data`, fits angles by IK to the
    first args.fit_frames predictions of a joint-emitting mode, and scores.
    Returns the MetricsReport and the mode's stage seconds: train_<mode>
    (training and checkpoint write), ik_fit (0 unless the mode emits
    joints) and evaluate (val forward pass and metrics).
    """
    spec = reg.MODES[mode]
    started = time.monotonic()
    sgd = reg.SgdConfig(batch_size=args.batch, learning_rate=spec.base_lr,
                        epochs=args.epochs, lam=args.lam)
    ckpt = _mode_checkpoint(args.out, mode)
    run = _train_mode(skel, mode, train_data, None, sgd, args.seed, ckpt)
    reg.save_checkpoint(run, ckpt, skel)
    trained = time.monotonic()
    stages_s = {f"train_{mode}": trained - started, "ik_fit": 0.0}
    predictions = reg.predict(run, val_data.features, skel)
    fitted = None
    if not spec.emits_pose:
        n_fit = min(args.fit_frames, len(val_data))
        predictions, val_data = predictions[:n_fit], val_data.subset(range(n_fit))
        fit_cfg = ik_pso.PsoConfig(seed=args.seed, iterations=150,
                                   phase_iterations=75)
        fit_started = time.monotonic()
        fitted = np.stack([r.theta for r in ik_pso.fit_batch(
            skel, predictions, fit_cfg)])
        stages_s["ik_fit"] = time.monotonic() - fit_started
    report = bench.evaluate(skel, predictions, val_data, fitted_poses=fitted)
    stages_s["evaluate"] = time.monotonic() - trained - stages_s["ik_fit"]
    return report, stages_s


# reproduce_mode's arguments after the mode, set in each pool worker (never
# in the parent) by the pool's initializer. Fork passes an initializer's
# arguments without pickling, so the workers share the parent's datasets
# instead of holding copies.
_worker_inputs = ()


def _set_worker_inputs(*inputs):
    global _worker_inputs
    _worker_inputs = inputs


def _reproduce_mode_in_worker(mode):
    return reproduce_mode(mode, *_worker_inputs)


def cmd_reproduce(args) -> int:
    if args.fit_frames < 1:
        raise _CliError("--fit-frames must be >= 1")
    # imported here, because only reproduce starts processes: at module level
    # they would add ~15 ms to the start-up of every subcommand
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor, as_completed

    started = time.monotonic()
    os.makedirs(args.out, exist_ok=True)
    # the interior margin undoes the benchmark skeleton's bound expansion;
    # a skeleton file's bounds are sampled whole
    if args.skeleton:
        skel, margin = sk.load_skeleton(args.skeleton), 0.0
    else:
        skel, margin = bench.benchmark_skeleton(), bench.benchmark_interior_margin()

    def log(msg):
        print(f"[{time.monotonic()-started:7.1f}s] {msg}", flush=True)

    log(f"skeleton {skel.name}: J={skel.n_joints} D={skel.n_dofs}")
    train_data = bench.make_dataset(skel, n=args.train_n, noise_sigma_mm=args.sigma,
                                    occlusion_prob=args.occlusion, seed=args.seed,
                                    interior_margin=margin, pose_shape="central")
    val_data = bench.make_dataset(skel, n=args.val_n, noise_sigma_mm=args.sigma,
                                  occlusion_prob=args.occlusion, seed=args.seed + 1,
                                  interior_margin=margin, pose_shape="central")
    # seconds per stage, for the manifest: the modes' stages are summed over
    # the modes and run in parallel, so they overlap in wall time
    stages_s = {"datasets": time.monotonic() - started}
    log(f"datasets: {args.train_n} train / {args.val_n} val, sigma "
        f"{args.sigma} mm, occlusion {args.occlusion}")

    # The modes share only the read-only datasets, and each trains
    # deterministically (and single-threaded, with BLAS pinned), so they run
    # in parallel, one worker process per available CPU. The pool forks all
    # its workers at the first submit, before it starts its own thread. The
    # IK mode is the longest, so it goes first.
    workers = min(len(reg.MODES), len(os.sched_getaffinity(0)))
    log(f"training {len(reg.MODES)} modes on {workers} worker processes")
    table = {}
    with ProcessPoolExecutor(workers, mp_context=mp.get_context("fork"),
                             initializer=_set_worker_inputs,
                             initargs=(skel, train_data, val_data, args)) as pool:
        futures = {pool.submit(_reproduce_mode_in_worker, mode): mode
                   for mode in sorted(reg.MODES, key=lambda m: reg.MODES[m].emits_pose)}
        try:
            for future in as_completed(futures):
                mode = futures[future]
                try:
                    report, mode_stages_s = future.result()
                except reg.NumericalError as e:
                    raise reg.NumericalError(f"{mode}: {e}") from None
                for stage, seconds in mode_stages_s.items():
                    stages_s[stage] = stages_s.get(stage, 0.0) + seconds
                table[mode] = report
                log(f"{mode}: joint {report.avg_joint_error_mm:.2f} mm, angle "
                    f"{report.avg_angle_error_deg:.2f} deg, invalid "
                    f"{report.invalid_pose_fraction:.4f}")
        except BaseException:
            # a failed mode fails the run: start no mode still queued
            pool.shutdown(cancel_futures=True)
            raise

    rows = [(m, table[m].avg_joint_error_mm, table[m].avg_angle_error_deg,
             table[m].invalid_pose_fraction) for m in reg.MODES]
    text = _format_table(rows)
    text += ("\n\ncontext: published NYU-protocol reference errors "
             "(different data domain, not comparable):\n")
    text += _format_table(_NYU_REFERENCE)
    text += "\n"

    ours = table[OURS]
    checks = {
        "ours_joint_le_direct_parameter": bool(
            ours.avg_joint_error_mm <= table[DIRECT_PARAMETER].avg_joint_error_mm),
        "ours_angle_lt_direct_joint_ik": bool(
            ours.avg_angle_error_deg < table[DIRECT_JOINT].avg_angle_error_deg),
        "ours_invalid_le_1pct": bool(ours.invalid_pose_fraction <= 0.01),
        "ours_invalid_lt_no_phy": bool(
            ours.invalid_pose_fraction < table[OURS_NO_PHY].invalid_pose_fraction),
    }

    table_txt = os.path.join(args.out, "table.txt")
    with open(table_txt, "w") as fh:
        fh.write(text)
    table_json = os.path.join(args.out, "table.json")
    with open(table_json, "w") as fh:
        json.dump({
            "modes": {m: table[m].to_dict() for m in reg.MODES},
            "orderings": checks,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs = [path for mode in reg.MODES
               for path in (_mode_checkpoint(args.out, mode),
                            _epochs_path(_mode_checkpoint(args.out, mode)))]
    outputs += [table_txt, table_json]
    _write_manifest(os.path.join(args.out, "manifest.json"), "reproduce",
                    {"skeleton": skel.name, "train_n": args.train_n,
                     "val_n": args.val_n, "sigma": args.sigma,
                     "occlusion": args.occlusion, "epochs": args.epochs,
                     "batch": args.batch, "lambda": args.lam,
                     "fit_frames": args.fit_frames,
                     "interior_margin": margin, "pose_shape": "central"},
                    args.seed, [], outputs, started, stages_s=stages_s,
                    workers=workers,
                    peak_rss_mb={"parent": _peak_rss_mb(),
                                 "workers": _peak_rss_mb(resource.RUSAGE_CHILDREN)})

    print(text)
    for name, ok in checks.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")
    if all(checks.values()):
        return EXIT_OK
    return EXIT_CHECK_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="kinedeep",
                     description="Differentiable hand kinematics toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_skeleton(p):
        p.add_argument("--skeleton", default=None,
                       help=f"skeleton config (default: ${SKELETON_ENV}, "
                            f"else the packaged hand23.json)")

    p = sub.add_parser("fk", help="forward kinematics over a pose file")
    add_skeleton(p)
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kinematics)

    p = sub.add_parser("jacobian", help="analytic Jacobians over a pose file")
    add_skeleton(p)
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kinematics)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    add_skeleton(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ik", help="fit poses to target joint frames")
    add_skeleton(p)
    p.add_argument("--targets", required=True, help="joint file")
    p.add_argument("--out", required=True, help="pose file to write")
    p.add_argument("--swarm", type=int, default=64)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warm-start", action="store_true")
    p.add_argument("--polish", action=argparse.BooleanOptionalAction, default=True,
                   help="gradient polish after each swarm phase")
    p.add_argument("--report", default=None, help="JSON report path")
    p.set_defaults(func=cmd_ik)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_skeleton(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, default=10.0, help="noise sigma, mm")
    p.add_argument("--occlusion", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--interior-margin", type=float, default=0.0)
    p.add_argument("--pose-shape", choices=("uniform", "central"),
                   default="uniform")
    p.add_argument("--out", required=True,
                   help="dataset path; the file is a .npz dataset, whatever its suffix")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a regressor on a dataset")
    add_skeleton(p)
    p.add_argument("--mode", choices=reg.MODES, default="ours")
    p.add_argument("--train", required=True, help="training dataset file")
    p.add_argument("--val", default=None, help="validation dataset file")
    p.add_argument("--lr", type=float, default=None,
                   help="base learning rate (default per mode)")
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flat-lr", action="store_true",
                   help="single flat learning rate instead of the staged plan")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    add_skeleton(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--curve-csv", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fit-iters", type=int, default=150,
                   help="swarm iterations for direct_joint angle fitting")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reproduce",
                       help="train all four modes and print the comparison table",
                       description="Train all four modes and print the comparison "
                                   "table. The modes run in parallel, one worker "
                                   "process per available CPU; pin BLAS to one "
                                   "thread (OPENBLAS_NUM_THREADS=1) to avoid "
                                   "oversubscribing the CPUs.")
    p.add_argument("--skeleton", default=None,
                   help="override the benchmark skeleton")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-n", type=int, default=20000)
    p.add_argument("--val-n", type=int, default=2000)
    p.add_argument("--sigma", type=float, default=10.0)
    p.add_argument("--occlusion", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--fit-frames", type=int, default=2000,
                   help="val frames to fit for direct_joint angle metrics")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as e:
        print(str(e), file=sys.stderr)
        return e.code
    except (sk.SkeletonError, fileio.FileFormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except reg.NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
