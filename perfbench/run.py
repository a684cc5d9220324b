"""kinedeep benchmark: one workload per process, every metric on one JSON line.

    python3 perfbench/run.py --workload {reproduce,train} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The program is used from ./src exactly as a
user runs it: each step is its own `kinedeep` CLI process (see child.py).
The seed makes the inputs; the same seed gives the same inputs and
byte-identical outputs, which the run checks.

--trace 0 sets the inputs up SETUP_REPEATS times before and again after
the timed calls, so that setup_s samples the machine over the whole run.
It runs the timed CLI call until S seconds have passed and at least
MIN_REPEATS calls have run, one call at a time; outputs are checked
between calls, never while one runs. Each end-to-end figure is the median
over all set-ups (setup_s) or all timed calls of the run.
--trace 1 sets up once and runs the timed call once untraced and once
traced, and reports the per-layer metrics of the traced set-up
and call (trace_layers.py), with the tracing overhead as traced minus
untraced wall time.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is {"info": ...}, with the environment, the sizes and
the raw per-call times. A failed CLI call (exit code outside the
workload's accepted set, or a timeout) or a failed output check stops the
run: it prints correct=false, exits 1 and keeps its work directory.
README.md says why each workload exists and which layer metric should
move which end-to-end metric.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SPAWN = os.path.join(HERE, "spawn.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
MIN_REPEATS = 2        # the byte-identity check needs two timed calls
CHILD_TIMEOUT_S = 120.0

# BLAS pinned to one thread: on a small shared machine a second BLAS thread
# for these matrix sizes costs more in contention than it gains (train:
# 5.45 s with two threads against 4.38 s with one) and makes times noisier.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Value of an end-to-end metric the workload does not exercise. The result
# line carries every metric on every workload; README.md lists which apply.
NOT_EXERCISED = 1.0

SIZES = {
    "reproduce": {"train_n": 2000, "val_n": 2000, "epochs": 10,
                  "fit_frames": 24},
    "train": {"train_n": 4000, "val_n": 500, "epochs": 12},
}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "samples_per_s": "samples/s", "val_joint_err_mm": "mm",
    "ours_joint_err_mm": "mm", "ours_angle_err_deg": "deg",
    "ours_invalid_frac": "fraction", "dj_ik_angle_err_deg": "deg",
    "orderings_passed": "count",
}


class RunFailed(Exception):
    """A CLI call failed or an output check did not hold."""


def check(condition, message):
    if not condition:
        raise RunFailed(f"check failed: {message}")


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def median(values):
    return float(statistics.median(values))


Invocation = collections.namedtuple("Invocation", "wall_s peak_rss_mb code")


class Runner:
    """Starts CLI calls in one work directory, counts them and keeps their
    Invocations. The calls go through spawn.py; close() stops it."""

    def __init__(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.attempted = 0
        self.invocations = []
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "KINEDEEP_SKELETON")}
        self.env.update(THREAD_ENV, PYTHONPATH=SRC)
        self.spawner = subprocess.Popen([sys.executable, SPAWN],
                                        stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Waits for the call in progress, if any, and stops spawn.py."""
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def path(self, name):
        return os.path.join(self.workdir, name)

    def run(self, args, trace_to=None, ok_codes=(0,)):
        """Run one call and wait for it; returns its Invocation.

        Wall time and peak RSS come from the call's own rusage.
        """
        self.attempted += 1
        cmd = [sys.executable, CHILD]
        if trace_to is not None:
            cmd += ["--trace", trace_to]
        cmd += [str(a) for a in args]
        log_path = self.path(f"call{self.attempted:03d}.log")
        self.spawner.stdin.write(json.dumps({
            "cmd": cmd, "cwd": self.workdir, "env": self.env, "log": log_path,
            "timeout_s": CHILD_TIMEOUT_S}) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RunFailed(f"spawn.py ended before {' '.join(cmd[2:])} did")
        reply = json.loads(reply)
        code = reply["code"]
        if code not in ok_codes:
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            reason = "timed out or killed" if code == -9 else f"exited {code}"
            raise RunFailed(f"{' '.join(cmd[2:])} {reason}:\n{tail}")
        # ru_maxrss is in KiB on Linux
        inv = Invocation(reply["wall_s"], reply["maxrss_kb"] / 1024.0, code)
        self.invocations.append(inv)
        return inv


def derived_seeds(seed, count):
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class Workload:
    """Inputs, the timed call and its checks for one workload."""

    name = ""
    ok_codes = (0,)

    def __init__(self, seed, sizes):
        self.seed = seed
        self.sizes = sizes

    def setup(self, r, trace_to):
        """Make the inputs; returns the files to compare across set-ups."""
        raise NotImplementedError

    def command(self, tag):
        raise NotImplementedError

    def outputs(self, tag):
        """Files of the timed call that must repeat byte for byte."""
        raise NotImplementedError

    def measure(self, r, tag, inv):
        """Check the call's outputs; returns its workload metrics."""
        raise NotImplementedError

    def save_skeleton(self, r, trace_to):
        r.run(["save-bench-skeleton", "skeleton.json"], trace_to("skel"))


class Reproduce(Workload):
    name = "reproduce"
    ok_codes = (0, 3)  # 3 only reports failed orderings
    MODES = ("ours", "ours_no_phy", "direct_joint", "direct_parameter")

    def setup(self, r, trace_to):
        # reproduce makes its own datasets from its seed; the skeleton file
        # is for the checks
        self.save_skeleton(r, trace_to)
        return ["skeleton.json"]

    def command(self, tag):
        s = self.sizes
        return ["reproduce", "--out", f"rep_{tag}", "--seed", self.seed,
                "--train-n", s["train_n"], "--val-n", s["val_n"],
                "--epochs", s["epochs"], "--fit-frames", s["fit_frames"]]

    def outputs(self, tag):
        return ([f"rep_{tag}/{m}.ckpt.json" for m in self.MODES]
                + [f"rep_{tag}/table.json", f"rep_{tag}/table.txt"])

    def measure(self, r, tag, inv):
        with open(r.path(f"rep_{tag}/table.json")) as fh:
            table = json.load(fh)
        modes, orderings = table.get("modes", {}), table.get("orderings", {})
        check(sorted(modes) == sorted(self.MODES), f"table modes {sorted(modes)}")
        check(len(orderings) == 4 and all(isinstance(v, bool)
                                          for v in orderings.values()),
              f"orderings {orderings}")
        for mode, report in modes.items():
            want = (min(self.sizes["fit_frames"], self.sizes["val_n"])
                    if mode == "direct_joint" else self.sizes["val_n"])
            check(report["n_frames"] == want, f"{mode} n_frames")
            values = [report["avg_joint_error_mm"], report["avg_angle_error_deg"],
                      report["invalid_pose_fraction"]]
            values += [v for pair in report["max_error_curve"] for v in pair]
            check(all(math.isfinite(v) for v in values), f"{mode} non-finite")
        passed = sum(orderings.values())
        check((inv.code == 0) == (passed == 4),
              f"exit {inv.code} with {passed} of 4 orderings")
        ours = modes["ours"]
        return {
            "ours_joint_err_mm": ours["avg_joint_error_mm"],
            "ours_angle_err_deg": ours["avg_angle_error_deg"],
            "ours_invalid_frac": ours["invalid_pose_fraction"],
            "dj_ik_angle_err_deg": modes["direct_joint"]["avg_angle_error_deg"],
            "orderings_passed": passed,
        }


class Train(Workload):
    name = "train"

    def setup(self, r, trace_to):
        from kinedeep import bench

        self.save_skeleton(r, trace_to)
        margin = repr(bench.benchmark_interior_margin())
        train_seed, val_seed = derived_seeds(self.seed, 2)
        for part, n, seed in (("train", self.sizes["train_n"], train_seed),
                              ("val", self.sizes["val_n"], val_seed)):
            # reproduce's sampling: core ranges, central pose shape
            r.run(["synth", "--skeleton", "skeleton.json", "--n", n,
                   "--interior-margin", margin, "--pose-shape", "central",
                   "--seed", seed, "--out", f"{part}.ds"], trace_to(part))
        return ["skeleton.json", "train.ds", "val.ds"]

    def command(self, tag):
        return ["train", "--skeleton", "skeleton.json", "--mode", "ours",
                "--train", "train.ds", "--val", "val.ds",
                "--epochs", self.sizes["epochs"], "--out", f"model_{tag}.ckpt"]

    def outputs(self, tag):
        return [f"model_{tag}.ckpt"]

    def measure(self, r, tag, inv):
        import numpy as np
        from kinedeep import fileio
        from kinedeep import regressor as reg

        run = reg.load_checkpoint(r.path(f"model_{tag}.ckpt"))
        val = fileio.read_dataset(r.path("val.ds"))
        out = reg.forward(run, val.features)
        check(out.shape == val.thetas.shape, f"output shape {out.shape}")
        check(bool(np.all(np.isfinite(out))), "non-finite model output")
        check(len(run.history) > 0, "empty training history")
        val_err = run.history[-1].val_joint_err_mm
        check(math.isfinite(val_err), "non-finite validation error")
        return {
            "samples_per_s": len(run.history) * self.sizes["train_n"] / inv.wall_s,
            "val_joint_err_mm": val_err,
        }


WORKLOADS = {w.name: w for w in (Reproduce, Train)}


def run_workload(workload, seconds, trace, workdir):
    """Set up, time and check one workload; returns (metrics, info, calls
    attempted). A RunFailed raised here carries `attempted` too."""
    with Runner(workdir) as r:
        try:
            out, info = (run_traced(workload, r) if trace
                         else run_timed(workload, seconds, r))
        except RunFailed as e:
            e.attempted = r.attempted
            raise
        except Exception as e:  # an exception in the harness or a check
            failure = RunFailed(traceback.format_exc())
            failure.attempted = r.attempted
            raise failure from e
    return out, info, r.attempted


def run_timed(workload, seconds, r):
    """Set-ups, timed calls one after the other, then set-ups again.

    setup_s counts only the set-up's CLI calls, not the harness work
    between them. Each call's outputs are hashed and checked after it has
    ended, before the next call starts.
    """
    info = {"setup_s": [], "wall_s": []}
    reference = {}

    def same_as_before(key, files, message):
        hashes = [sha256(r.path(f)) for f in files]
        check(reference.setdefault(key, hashes) == hashes,
              f"{message} differ between runs with the same seed")

    def set_up():
        for _ in range(SETUP_REPEATS):
            first = len(r.invocations)
            files = workload.setup(r, lambda label: None)
            info["setup_s"].append(sum(inv.wall_s
                                       for inv in r.invocations[first:]))
            same_as_before("setup", files, "set-up outputs")

    set_up()
    calls = []
    start = time.perf_counter()
    while len(calls) < MIN_REPEATS or time.perf_counter() - start < seconds:
        tag = len(calls)
        inv = r.run(workload.command(tag), None, workload.ok_codes)
        same_as_before("call", workload.outputs(tag), "outputs")
        metrics = workload.measure(r, tag, inv)
        metrics.update(wall_s=inv.wall_s, peak_rss_mb=inv.peak_rss_mb)
        info["wall_s"].append(inv.wall_s)
        calls.append(metrics)
    set_up()

    out = {}
    for name, unit in END_TO_END_UNITS.items():
        if name == "setup_s":
            value = median(info["setup_s"])
        elif name in calls[0]:
            value = median([m[name] for m in calls])
        else:
            value = NOT_EXERCISED
        out[name] = {"value": value, "unit": unit}
    return out, info


def run_traced(workload, r):
    """Traced set-up, then the timed call untraced and traced, one after
    the other."""
    from layer_metrics import layer_metrics

    workload.setup(r, lambda label: f"spans_setup_{label}.json")
    walls, hashes = [], []
    for tag, spans in enumerate((None, "spans_call.json")):
        inv = r.run(workload.command(tag), spans, workload.ok_codes)
        walls.append(inv.wall_s)
        hashes.append([sha256(r.path(f)) for f in workload.outputs(tag)])
        workload.measure(r, tag, inv)
    check(hashes[0] == hashes[1], "traced and untraced outputs differ")
    spans = [r.path(f) for f in sorted(os.listdir(r.workdir))
             if f.startswith("spans_")]
    out, missing = layer_metrics(spans, untraced_wall_s=walls[0],
                                 traced_wall_s=walls[1])
    info = {"wall_s": walls, "missing_names": missing}
    return out, info


def environment():
    import numpy as np

    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREAD_ENV,
        "nproc": len(os.sched_getaffinity(0)),  # as `nproc` counts
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "kinedeep", "cli.py")):
        print(f"error: no kinedeep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kinedeep

    if not os.path.abspath(kinedeep.__file__).startswith(SRC + os.sep):
        print(f"error: imported kinedeep from {kinedeep.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    sizes = SIZES[args.workload]
    workload = WORKLOADS[args.workload](args.seed, sizes)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-"
                                      f"trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "sizes": sizes,
            **environment()}
    failed, metrics, error = 0, {}, None
    try:
        metrics, timings, attempted = run_workload(workload, args.seconds,
                                                   bool(args.trace), workdir)
        info.update(timings)
    except RunFailed as e:
        failed, error, attempted = 1, str(e), e.attempted
    attempted = max(1, attempted)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if failed:
        print(f"{args.workload}: {error}\nwork directory kept: {workdir}",
              file=sys.stderr)
        return 1
    shutil.rmtree(workdir)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:  # another run's directory is still there
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
