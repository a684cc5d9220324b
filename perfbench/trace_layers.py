"""Spans around the public functions of each kinedeep layer, from outside.

Tracer.install() replaces every wrapped function in every kinedeep module
namespace that holds it, so calls are caught wherever the name is looked
up: `ik_pso`, `loss`, `bench` and `regressor` bind the kinematics functions
by name at import, `ik_pso` binds `clamp_pose`, and `cli` reaches the rest
through module attributes. A name in LAYERS that a module no longer has is
listed under "missing" in the output, never skipped silently.

Each span is (name, start_s, duration_s, self_s, parent, info). Self time
comes from a span stack: a span's duration minus the durations of the
spans it directly encloses. Spans stay in memory until write().
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = {
    "skeleton": ("load_skeleton", "save_skeleton", "skeleton_from_dict",
                 "default_hand", "clamp_pose"),
    "kinematics": ("forward_kinematics_batch", "fk_jacobian_batch"),
    "loss": ("joint_loss_batch", "phy_loss_batch"),
    "regressor": ("init", "forward", "backward_through_model",
                  "backward_direct", "sgd_step", "validation_stats", "train",
                  "save_checkpoint", "load_checkpoint", "pose_output_scale"),
    "ik_pso": ("fit_batch", "fit_pose", "angles_from_joints",
               "residual_stats"),
    "bench": ("benchmark_skeleton", "make_dataset", "evaluate"),
    "fileio": ("read_pose_file", "read_joint_file", "read_dataset",
               "write_pose_file", "write_joint_file", "write_dataset"),
}


def _batch_size(args, kwargs, result):
    thetas = args[1] if len(args) > 1 else kwargs["thetas"]
    return 1 if np.ndim(thetas) == 1 else len(thetas)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _fit_outcome(args, kwargs, result):
    from kinedeep import ik_pso

    config = (args[2] if len(args) > 2 else kwargs.get("config")) \
        or ik_pso.PsoConfig()
    return [result.iterations_used, config.iterations, bool(result.converged)]


def _train_mode(args, kwargs, result):
    return result.mode


# what each span records besides its times, by span name
_INFO = {
    "kinematics.forward_kinematics_batch": _batch_size,
    "kinematics.fk_jacobian_batch": _batch_size,
    "fileio.read_pose_file": _file_bytes,
    "fileio.read_joint_file": _file_bytes,
    "fileio.read_dataset": _file_bytes,
    "ik_pso.fit_pose": _fit_outcome,
    "regressor.train": _train_mode,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.wrapped = []
        self._stack = []  # [name, time spent in enclosed spans]

    def _close(self, frame, start, info):
        duration = time.perf_counter() - start
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append((frame[0], start, duration, duration - frame[1],
                           parent[0] if parent else None, info))

    @contextmanager
    def span(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, None)

    def _wrap(self, name, fn):
        describe = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            info = None
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    info = describe(args, kwargs, result)
                return result
            finally:
                self._close(frame, start, info)

        return wrapper

    def install(self):
        importlib.import_module("kinedeep.cli")
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"kinedeep.{layer}")
            for attr in names:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{layer}.{attr}")
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "kinedeep" and not mod_name.startswith("kinedeep."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                self.wrapped.append(f"{layer}.{attr}")

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"wrapped": self.wrapped, "missing": self.missing,
                       "spans": self.spans}, fh)
