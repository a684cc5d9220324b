"""Per-layer metrics from the span files of one traced run.

The spans of every traced call in the run (set-up and the timed call) are
pooled. Times named `.s` are inclusive (the span's whole duration),
`.self_s` exclude the wrapped functions the span encloses. A layer that
never ran reports 0. README.md maps each metric to the end-to-end metric it
should move.
"""
from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

FK = {"fk": "kinematics.forward_kinematics_batch",
      "fk_jac": "kinematics.fk_jacobian_batch"}
TRAIN_MODES = ("ours", "ours_no_phy", "direct_joint", "direct_parameter")
READS = ("fileio.read_pose_file", "fileio.read_joint_file",
         "fileio.read_dataset")
WRITES = ("fileio.write_pose_file", "fileio.write_joint_file",
          "fileio.write_dataset")

def _metric(out, name, value, unit):
    out[name] = {"value": float(value), "unit": unit}


def _bucket(n):
    return "b1" if n == 1 else "b2_256" if n <= 256 else "b257up"


def layer_metrics(span_files, untraced_wall_s, traced_wall_s):
    """Returns (metrics, names the tracer could not find)."""
    spans, missing = [], set()
    for path in span_files:
        with open(path) as fh:
            payload = json.load(fh)
        spans += payload["spans"]
        missing.update(payload["missing"])

    by_name = defaultdict(list)
    for name, _start, duration, self_s, _parent, info in spans:
        by_name[name].append((duration, self_s, info))

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(d for d, _, _ in by_name[name])

    def self_total(name):
        return sum(s for _, s, _ in by_name[name])

    out = {}
    for short, name in FK.items():
        prefix = f"kinematics.{short}"
        _metric(out, f"{prefix}.calls", calls(name), "count")
        _metric(out, f"{prefix}.poses", sum(i for _, _, i in by_name[name]),
                "count")
        _metric(out, f"{prefix}.self_s", self_total(name), "s")
        time_in, poses_in = defaultdict(float), defaultdict(int)
        for _, self_s, n in by_name[name]:
            time_in[_bucket(n)] += self_s
            poses_in[_bucket(n)] += n
        for bucket in ("b1", "b2_256", "b257up"):
            per_pose = (1e6 * time_in[bucket] / poses_in[bucket]
                        if poses_in[bucket] else 0.0)
            _metric(out, f"{prefix}.us_per_pose.{bucket}", per_pose, "us")

    _metric(out, "loss.joint_loss_batch.calls", calls("loss.joint_loss_batch"),
            "count")
    _metric(out, "loss.joint_loss_batch.self_s",
            self_total("loss.joint_loss_batch"), "s")
    _metric(out, "loss.phy_loss_batch.self_s", self_total("loss.phy_loss_batch"),
            "s")

    _metric(out, "regressor.backward_through_model.self_s",
            self_total("regressor.backward_through_model"), "s")
    _metric(out, "regressor.backward_direct.self_s",
            self_total("regressor.backward_direct"), "s")
    _metric(out, "regressor.sgd_step.calls", calls("regressor.sgd_step"), "count")
    _metric(out, "regressor.sgd_step.self_s", self_total("regressor.sgd_step"), "s")
    train_s = defaultdict(float)
    for duration, _, mode in by_name["regressor.train"]:
        train_s[mode] += duration
    for mode in TRAIN_MODES:
        _metric(out, f"regressor.train.{mode}.s", train_s[mode], "s")
    _metric(out, "regressor.validation_stats.s", total("regressor.validation_stats"),
            "s")
    _metric(out, "regressor.forward.s", total("regressor.forward"), "s")
    _metric(out, "regressor.checkpoint_io.s",
            total("regressor.save_checkpoint") + total("regressor.load_checkpoint"),
            "s")

    fits = by_name["ik_pso.fit_pose"]
    fit_ms = [1e3 * d for d, _, _ in fits]
    _metric(out, "ik_pso.fit_pose.calls", len(fits), "count")
    _metric(out, "ik_pso.fit_pose.self_s", self_total("ik_pso.fit_pose"), "s")
    _metric(out, "ik_pso.fit_pose.ms_p50",
            np.percentile(fit_ms, 50) if fits else 0.0, "ms")
    _metric(out, "ik_pso.fit_pose.ms_p90",
            np.percentile(fit_ms, 90) if fits else 0.0, "ms")
    _metric(out, "ik_pso.fit_batch.s", total("ik_pso.fit_batch"), "s")
    used = sum(i[0] for _, _, i in fits)
    budget = sum(i[1] for _, _, i in fits)
    _metric(out, "ik_pso.iterations_used_frac", used / budget if budget else 0.0,
            "fraction")
    _metric(out, "ik_pso.converged_frac",
            sum(i[2] for _, _, i in fits) / len(fits) if fits else 0.0, "fraction")

    _metric(out, "skeleton.clamp_pose.calls", calls("skeleton.clamp_pose"), "count")
    _metric(out, "skeleton.clamp_pose.self_s", self_total("skeleton.clamp_pose"), "s")
    _metric(out, "skeleton.load_skeleton.s", total("skeleton.load_skeleton"), "s")

    _metric(out, "bench.make_dataset.s", total("bench.make_dataset"), "s")
    _metric(out, "bench.evaluate.s", total("bench.evaluate"), "s")

    _metric(out, "fileio.read.s", sum(total(n) for n in READS), "s")
    _metric(out, "fileio.read.bytes",
            sum(i for n in READS for _, _, i in by_name[n]), "bytes")
    _metric(out, "fileio.write.s", sum(total(n) for n in WRITES), "s")

    _metric(out, "cli.self_s", self_total("cli"), "s")

    _metric(out, "trace.wall_s", traced_wall_s, "s")
    _metric(out, "trace.overhead_s", traced_wall_s - untraced_wall_s, "s")
    _metric(out, "trace.spans", len(spans), "count")
    _metric(out, "trace.missing_names", len(missing), "count")
    return out, sorted(missing)
