"""The paper's comparison: the four training modes on synthetic data, and
the claims their metrics must bear out.

run makes a training and a validation set for a skeleton and trains the
four modes of regressor.MODES on them in parallel: one training worker
process per available CPU (at most one per mode), plus one worker that, as
soon as direct_joint's checkpoint is saved, reads it and fits IK to its
predictions. It returns each mode's MetricsReport on the validation set and
the tasks timeline: which worker ran what, when, and its CPU seconds. Pin
BLAS to one thread (OPENBLAS_NUM_THREADS=1 or the like): each worker keeps
a CPU busy, and BLAS threads on top of the workers oversubscribe the CPUs.

orderings turns the four reports into the paper's claims, four named
booleans, and table_text prints them beside the published NYU reference
errors. Both are pure functions of the reports.

train_mode and score are the training and scoring steps that the train
and eval commands share with run.
The training and fitting recipes are regressor's and ik_pso's constants;
run sets only the epoch count, the fit budget (FIT_ITERATIONS), the number
of frames fitted, the dataset sizes, the noise sigma and occlusion
probability of both datasets, and the seed.
"""
from __future__ import annotations

import json
import os
import resource
import time

import numpy as np

from . import bench, fileio, ik_pso
from . import regressor as reg

# The paper's network, its ablation without the angle-range penalty and the
# two direct-regression baselines, by their place in the mode table.
OURS, OURS_NO_PHY, DIRECT_JOINT, DIRECT_PARAMETER = reg.MODES

# the default epoch budget of train --epochs and reproduce --epochs
EPOCHS = 300

# reproduce's IK fit iterations, and eval's default --fit-iters
FIT_ITERATIONS = 150

# The name of the IK-fit task, beside the modes' training tasks.
IK_FIT = "ik_fit"


def epochs_path(ckpt_path) -> str:
    return str(ckpt_path) + ".epochs.jsonl"


def mode_checkpoint(out_dir, mode) -> str:
    return os.path.join(out_dir, f"{mode}.ckpt.json")


def train_mode(skel, mode, train_data, val_data, epochs, seed, ckpt_path):
    """A fresh network of `mode`, trained for `epochs` by the mode's
    recipe, its epochs recorded one JSON line each beside the checkpoint
    path."""
    # line-buffered: each epoch is on disk when it ends
    with open(epochs_path(ckpt_path), "w", buffering=1) as fh:
        return reg.train(reg.init(skel, mode, seed), train_data, skel, epochs, seed,
                         val=val_data,
                         on_epoch=lambda record: fh.write(json.dumps(record) + "\n"))


def score(run, skel, data, seed, fit_iterations, fit_frames=None) -> bench.MetricsReport:
    """The metrics of a trained run on `data`: of every row for a pose mode;
    for a joint-emitting mode, of the first `fit_frames` rows (default all),
    with the angle metrics of the poses IK fits to its predictions."""
    # all rows in one call, then the slice: under ~200 rows BLAS takes
    # another kernel, which changes the predictions' bits
    predictions = reg.predict(run, data.features, skel)
    if reg.MODES[run.mode].emits_pose:
        return bench.evaluate(skel, predictions, data.thetas)
    # the unfitted rows do not stay alive through the fit
    predictions = predictions[:fit_frames].copy()
    fitted = ik_pso.fit_batch(skel, predictions, fit_iterations, seed).theta
    return bench.evaluate(skel, predictions, data.thetas[:len(predictions)],
                          fitted_poses=fitted)


def reproduce_mode(mode, skel, train_data, val_data, args):
    """One mode of `reproduce`: train on `train_data` and save the
    checkpoint (and its epoch records) in args.out. Returns a pose mode's
    MetricsReport on `val_data`, or None for a joint-emitting mode, which
    reproduce_fit scores from its checkpoint.
    """
    ckpt = mode_checkpoint(args.out, mode)
    run = train_mode(skel, mode, train_data, None, args.epochs, args.seed, ckpt)
    reg.save_checkpoint(run, ckpt)
    if reg.MODES[mode].emits_pose:
        return score(run, skel, val_data, args.seed, FIT_ITERATIONS)
    return None


def reproduce_fit(skel, val_data, args):
    """Score direct_joint's saved checkpoint on the first args.fit_frames
    val rows, with angles fitted by IK."""
    path = mode_checkpoint(args.out, DIRECT_JOINT)
    run = reg.load_checkpoint(path)
    fileio.check_made_for(path, "checkpoint", run.skeleton, skel)
    return score(run, skel, val_data, args.seed, FIT_ITERATIONS, args.fit_frames)


# (run start, then reproduce_mode's arguments after the mode), set in each
# pool worker (never in the parent) by the pool's initializer. Fork passes an
# initializer's arguments without pickling, so the workers share the
# parent's datasets instead of holding copies.
_worker_inputs = ()


def _set_worker_inputs(*inputs):
    global _worker_inputs
    _worker_inputs = inputs


def _task_in_worker(task):
    """reproduce_mode(task), or reproduce_fit for IK_FIT, run in a pool
    worker. Returns its MetricsReport (None for a joint-emitting mode) and
    the task's timeline entry: the worker's pid, the task's start and end,
    in seconds from the run's start (time.monotonic is one clock for every
    process), and the worker's user plus system CPU seconds over the task
    (cpu_s: work, not waiting)."""
    run_started, skel, train_data, val_data, args = _worker_inputs
    started, before = time.monotonic(), resource.getrusage(resource.RUSAGE_SELF)
    if task == IK_FIT:
        result = reproduce_fit(skel, val_data, args)
    else:
        result = reproduce_mode(task, skel, train_data, val_data, args)
    after = resource.getrusage(resource.RUSAGE_SELF)
    return result, {"task": task, "pid": os.getpid(), "start_s": started - run_started,
                    "end_s": time.monotonic() - run_started,
                    "cpu_s": (after.ru_utime + after.ru_stime
                              - before.ru_utime - before.ru_stime)}


def run(skel, margin, args, started):
    """Make the datasets (sampled with `margin`), train every mode on
    args.out's checkpoints and score it on the validation set. args.out is
    made only once both datasets are. Returns (mode -> MetricsReport, the
    tasks timeline in start order, the number of worker processes)."""
    # imported here, because only reproduce starts processes: at module level
    # they would add ~15 ms to the start-up of every subcommand
    import multiprocessing as mp
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    def log(msg):
        print(f"[{time.monotonic()-started:7.1f}s] {msg}", flush=True)

    log(f"skeleton {skel.name}: J={skel.n_joints} D={skel.n_dofs}")
    train_data = bench.make_dataset(skel, n=args.train_n, noise_sigma_mm=args.sigma,
                                    occlusion_prob=args.occlusion, seed=args.seed,
                                    interior_margin=margin, pose_shape="central")
    val_data = bench.make_dataset(skel, n=args.val_n, noise_sigma_mm=args.sigma,
                                  occlusion_prob=args.occlusion, seed=args.seed + 1,
                                  interior_margin=margin, pose_shape="central")
    os.makedirs(args.out, exist_ok=True)  # only once every input is accepted
    log(f"datasets: {args.train_n} train / {args.val_n} val, sigma "
        f"{args.sigma} mm, occlusion {args.occlusion}")

    # The tasks share only the read-only datasets and the checkpoints, and
    # each runs deterministically (and single-threaded, with BLAS pinned), so
    # they run in parallel: at most one training task per available CPU, and
    # the IK fit of the joint-emitting mode on one more worker, from the
    # moment that mode's checkpoint is saved. The pool forks all its workers at the
    # first submit, before it starts its own thread. The joint-emitting mode
    # trains first, so its fit starts early. Where os has no
    # sched_getaffinity (macOS), every CPU counts as available.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    slots = min(len(reg.MODES), cpus)
    workers = slots + 1
    log(f"training {len(reg.MODES)} modes on {slots} worker processes, "
        f"fitting IK on one more")
    queue = sorted(reg.MODES, key=lambda m: reg.MODES[m].emits_pose)
    table, tasks = {}, []
    with ProcessPoolExecutor(workers, mp_context=mp.get_context("fork"),
                             initializer=_set_worker_inputs,
                             initargs=(started, skel, train_data, val_data, args)) as pool:
        pending = {}

        def submit(task):
            pending[pool.submit(_task_in_worker, task)] = task

        try:
            for _ in range(slots):
                submit(queue.pop(0))
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    task = pending.pop(future)
                    try:
                        outcome, entry = future.result()
                    except reg.NumericalError as e:
                        raise reg.NumericalError(f"{task}: {e}") from None
                    tasks.append(entry)
                    if task != IK_FIT and queue:
                        submit(queue.pop(0))  # the task's CPU is free
                    if task == DIRECT_JOINT:  # its checkpoint is saved
                        submit(IK_FIT)
                        continue
                    mode = DIRECT_JOINT if task == IK_FIT else task
                    table[mode] = outcome
                    log(f"{mode}: joint {outcome.avg_joint_error_mm:.2f} mm, angle "
                        f"{outcome.avg_angle_error_deg:.2f} deg, invalid "
                        f"{outcome.invalid_pose_fraction:.4f}")
        except BaseException:
            # a failed task fails the run: start no task still queued
            pool.shutdown(cancel_futures=True)
            raise
    return table, sorted(tasks, key=lambda entry: entry["start_s"]), workers


def orderings(table) -> dict:
    """The paper's claims over `table` (mode -> MetricsReport), by name:
    ours is no worse on joints than direct_parameter, better on angles than
    direct_joint fitted by IK, invalid in at most 1 % of frames, and invalid
    less often than ours without the penalty."""
    ours = table[OURS]
    return {
        "ours_joint_le_direct_parameter": bool(
            ours.avg_joint_error_mm <= table[DIRECT_PARAMETER].avg_joint_error_mm),
        "ours_angle_lt_direct_joint_ik": bool(
            ours.avg_angle_error_deg < table[DIRECT_JOINT].avg_angle_error_deg),
        "ours_invalid_le_1pct": bool(ours.invalid_pose_fraction <= 0.01),
        "ours_invalid_lt_no_phy": bool(
            ours.invalid_pose_fraction < table[OURS_NO_PHY].invalid_pose_fraction),
    }


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


def table_text(table) -> str:
    """`table`'s rows in mode order, then the NYU reference rows."""
    rows = [(m, table[m].avg_joint_error_mm, table[m].avg_angle_error_deg,
             table[m].invalid_pose_fraction) for m in reg.MODES]
    return (_format_table(rows) + "\n\ncontext: published NYU-protocol reference "
            "errors (different data domain, not comparable):\n"
            + _format_table(_NYU_REFERENCE) + "\n")
