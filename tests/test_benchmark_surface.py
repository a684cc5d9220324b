"""What the benchmark harness in perfbench/ uses of kinedeep still exists.

The harness runs each workload as kinedeep CLI calls and reads their
outputs through the library, so a renamed flag, command or function would
first show as a refused benchmark run. Here each workload's set-up and
timed call run through a fake runner that records their argv, every
kinedeep argv must parse, the train workload's output check runs on a tiny
synth + train output, and every layer function the tracer wraps must exist.
Nothing under perfbench/ is changed and no time is measured.
"""
import importlib.util
import inspect
import math
import os

import pytest

from kinedeep import bench, cli
from kinedeep import skeleton as sk

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load(name):
    """perfbench/<name>.py as a module of its own, which imports nothing
    else of perfbench and runs nothing at import."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


benchrun = load("run")
TINY = {"reproduce": {"train_n": 64, "val_n": 16, "epochs": 1, "fit_frames": 2},
        "train": {"train_n": 64, "val_n": 16, "epochs": 1}}


class FakeRunner:
    """The harness's Runner, in one directory: it records each call's argv
    and, if `execute`, runs it in this process as perfbench/child.py would."""

    def __init__(self, workdir, execute):
        self.workdir, self.execute, self.calls = workdir, execute, []

    def path(self, name):
        return os.path.join(self.workdir, name)

    def run(self, args, trace_to=None, ok_codes=(0,)):
        argv = [str(a) for a in args]
        self.calls.append(argv)
        code = 0
        if self.execute and argv[0] == "save-bench-skeleton":
            sk.save_skeleton(bench.benchmark_skeleton(), self.path(argv[1]))
        elif self.execute:
            code = cli.main(argv)
        assert code in ok_codes, argv
        return benchrun.Invocation(1.0, 0.0, code)


@pytest.mark.parametrize("name", sorted(benchrun.WORKLOADS))
def test_every_kinedeep_call_of_each_workload_parses(tmp_path, name):
    workload = benchrun.WORKLOADS[name](0, TINY[name])
    runner = FakeRunner(str(tmp_path), execute=False)
    workload.setup(runner, lambda label: None)
    runner.run(workload.command(0), None, workload.ok_codes)
    parser = cli.build_parser()
    commands = [argv[0] for argv in runner.calls]
    assert commands[-1] == name and "save-bench-skeleton" in commands
    for argv in runner.calls:
        if argv[0] != "save-bench-skeleton":  # child.py's own command
            parser.parse_args(argv)


def test_train_workload_checks_a_tiny_synth_and_train_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the workload's paths are relative to its directory
    workload = benchrun.WORKLOADS["train"](0, TINY["train"])
    runner = FakeRunner(str(tmp_path), execute=True)
    workload.setup(runner, lambda label: None)
    inv = runner.run(workload.command(0), None, workload.ok_codes)
    assert all(os.path.exists(runner.path(f)) for f in workload.outputs(0))
    metrics = workload.measure(runner, 0, inv)
    assert set(metrics) == {"samples_per_s", "val_joint_err_mm"}
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())


# traced names the library no longer has; the tracer reports them as
# missing, and the benchmark's smoke test fails on them until perfbench/
# drops them
GONE = {"ik_pso.fit_pose", "ik_pso.angles_from_joints"}


def test_no_other_traced_layer_function_is_gone():
    # the tracer lists a missing name rather than failing; a reader's
    # first argument is the path whose size its span records
    trace_layers = load("trace_layers")
    missing = {f"{layer}.{attr}" for layer, names in trace_layers.LAYERS.items()
               for attr in names
               if not callable(getattr(importlib.import_module(f"kinedeep.{layer}"), attr,
                                       None))}
    assert missing == GONE
    for name, describe in trace_layers._INFO.items():
        if describe is trace_layers._file_bytes:
            layer, attr = name.split(".")
            fn = getattr(importlib.import_module(f"kinedeep.{layer}"), attr)
            assert next(iter(inspect.signature(fn).parameters)) == "path", name
