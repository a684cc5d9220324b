"""Smoke test of the benchmark at tiny scale.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload, untraced and traced, must emit each metric BENCHMARK.json
names with that metric's unit, and a corrupted output must fail the
workload's check. Takes about 30 s.
"""
from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

TINY = {
    "reproduce": {"train_n": 64, "val_n": 16, "epochs": 1, "fit_frames": 2},
    "train": {"train_n": 64, "val_n": 16, "epochs": 1},
}

# end-to-end metrics each workload exercises besides setup_s, wall_s and
# peak_rss_mb; the others must read run.NOT_EXERCISED
EXERCISED = {
    "reproduce": {"ours_joint_err_mm", "ours_angle_err_deg", "ours_invalid_frac",
                  "dj_ik_angle_err_deg", "orderings_passed"},
    "train": {"samples_per_s", "val_joint_err_mm"},
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert {w["name"] for w in s["workloads"]} == set(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in s["workloads"])
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.END_TO_END_UNITS
    names = [m["name"] for m in s["workloads"] + s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in s["end_to_end"] + s["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in s["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    workload = run.WORKLOADS[name](3, TINY[name])
    metrics, info, _ = run.run_workload(workload, 0.0, trace, str(tmp_path))
    wanted = {m["name"]: m["unit"]
              for m in spec()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == wanted
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    if trace:
        assert info["missing_names"] == []
        assert metrics["cli.self_s"]["value"] > 0
    else:
        assert metrics["wall_s"]["value"] > 0 and metrics["setup_s"]["value"] > 0
        unused = set(metrics) - EXERCISED[name] - {"setup_s", "wall_s", "peak_rss_mb"}
        assert all(metrics[m]["value"] == run.NOT_EXERCISED for m in unused)


def timed_call(name, tmp_path):
    """A tiny workload set up and called once; its outputs pass the check."""
    workload = run.WORKLOADS[name](3, TINY[name])
    with run.Runner(str(tmp_path)) as r:
        workload.setup(r, lambda label: None)
        inv = r.run(workload.command(0), ok_codes=workload.ok_codes)
    workload.measure(r, 0, inv)
    return workload, r, inv


def test_checkpoint_with_a_nan_weight_fails_the_check(tmp_path):
    workload, r, inv = timed_call("train", tmp_path)
    with open(r.path("model_0.ckpt")) as fh:
        ckpt = json.load(fh)
    ckpt["biases"][-1][0] = float("nan")
    with open(r.path("model_0.ckpt"), "w") as fh:
        json.dump(ckpt, fh)
    with pytest.raises(run.RunFailed, match="non-finite model output"):
        workload.measure(r, 0, inv)


def test_table_with_a_nan_error_fails_the_check(tmp_path):
    workload, r, inv = timed_call("reproduce", tmp_path)
    with open(r.path("rep_0/table.json")) as fh:
        table = json.load(fh)
    table["modes"]["ours"]["avg_angle_error_deg"] = float("nan")
    with open(r.path("rep_0/table.json"), "w") as fh:
        json.dump(table, fh)
    with pytest.raises(run.RunFailed, match="ours non-finite"):
        workload.measure(r, 0, inv)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_peak_rss_is_the_calls_own(tmp_path):
    import numpy as np

    ballast = np.ones(150 * 2**20 // 8)  # raises this process's high-water mark
    with run.Runner(str(tmp_path)) as r:
        inv = r.run(["save-bench-skeleton", "skeleton.json"])
    assert ballast.sum() > 0
    assert inv.peak_rss_mb < 100
