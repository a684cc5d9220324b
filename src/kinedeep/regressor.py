"""Feedforward pose regressor trained through the kinematic layer.

The network is a plain ReLU MLP (linear output). The paper's four training
modes differ only in how that output is read and trained; ``MODES`` below is
the one place that describes them.

Optimization is stochastic gradient descent with momentum, single-threaded
and bitwise deterministic given (seed, data, config). ``input_scale``
rescales raw mm features once at the input; it is part of the architecture
and of checkpoints (raw joint coordinates span hundreds of mm, which makes
first-layer steps disproportionate at any single learning rate).

One layer loop, ``_layers``, serves inference and training. Inference
(``forward``, hence ``predict`` and ``validation_stats``) runs it over row
blocks of FORWARD_BLOCK_ROWS (192) to 2 * FORWARD_BLOCK_ROWS - 1 rows, and
keeps only two layers of one block alive: the one being computed and the one
feeding it. A row gets the bits of one pass over all rows in any block of at
least 151 rows on the 256 -> 26 output layer and 94 rows on a 256 -> 42 one
(OpenBLAS 0.3.31, measured; shorter blocks take its small-matrix kernel).
Training keeps every layer's output for the backward pass, and takes each
ReLU mask from those outputs; no pre-activation is stored. It holds one
step's gradients at a time, and none while it validates.
A checkpoint is one JSON header line followed by each layer's weights and
biases as .npy records (save_checkpoint).
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import bench
from . import loss as loss_mod
from .kinematics import fk_jacobian_batch
from .skeleton import Skeleton

CHECKPOINT_FORMAT = "kinedeep-checkpoint"
CHECKPOINT_VERSION = 3  # 3: .npy layer records; 2: all JSON; 1: no skeleton
OUTPUT_GAIN = 50.0  # fixed output gain of the pose- and joint-regressing modes
MOMENTUM = 0.9  # SGD momentum of every mode and stage
# Inference runs in row blocks of at least this many rows (fewer only when
# there are fewer). OpenBLAS 0.3.31 rounds differently (~5e-14) in its
# small-matrix kernel, taken when M*K*N <= 1e6: measured against a 2000-row
# pass, a block keeps the bits from 151 rows on a 256 -> 26 layer and from
# 94 rows on a 256 -> 42 one. 192 is 27 % above 151.
FORWARD_BLOCK_ROWS = 192


@dataclass(frozen=True)
class Mode:
    """How one training mode reads and trains the network output.

    emits_pose     the output is a pose (D values); otherwise it is the
                   flattened eval-joint coordinates (3 * n_eval values), whose
                   angles exist only after a post-hoc IK fit
    through_fk     the loss is the joint loss through forward kinematics;
                   otherwise plain squared error against the targets
    hinge          the angle-range penalty applies; otherwise lambda is 0
    base_lr        base learning rate of the training schedule
    """

    emits_pose: bool
    through_fk: bool
    hinge: bool
    base_lr: float

    @property
    def theta_targets(self) -> bool:
        """The targets are ground-truth poses; otherwise eval joints."""
        return self.emits_pose and not self.through_fk

    def output_width(self, skel: Skeleton) -> int:
        return skel.n_dofs if self.emits_pose else 3 * len(skel.eval_subset)

    def output_scale(self, skel: Skeleton) -> tuple | None:
        """Fixed per-output gains for MlpConfig.output_scale (none for pose
        targets)."""
        if self.theta_targets:
            return None
        if self.emits_pose:
            return pose_output_scale(skel)
        return (OUTPUT_GAIN,) * self.output_width(skel)

    def penalty_weight(self, lam: float) -> float:
        """The angle-range penalty weight this mode trains with."""
        return lam if self.hinge else 0.0


# ours: the paper's network, FK layer plus angle-range penalty; ours_no_phy:
# the same without the penalty; direct_joint and direct_parameter: plain
# regression of joints and of the raw pose (mixed units: mm for translation
# DOFs, radians for angles). Order is the order of the comparison table.
MODES = {
    "ours": Mode(emits_pose=True, through_fk=True, hinge=True, base_lr=1e-6),
    "ours_no_phy": Mode(emits_pose=True, through_fk=True, hinge=False, base_lr=1e-6),
    "direct_joint": Mode(emits_pose=False, through_fk=False, hinge=False, base_lr=1e-6),
    "direct_parameter": Mode(emits_pose=True, through_fk=False, hinge=False,
                             base_lr=3e-4),
}

# Desk-scale training profile: staged learning rate (warm-up, main phase,
# two decay phases) as fractions of the base rate and of the epoch budget.
# Raw joint-loss gradients at blast-off distances are orders of magnitude
# above their converged scale, so fixed-rate SGD either diverges or crawls;
# the schedule is plain SGD throughout.
STAGES = ((0.01, 0.01), (0.1, 0.015), (1.0 / 3.0, 0.025), (1.0, 0.45),
          (0.3, 0.25), (0.1, 0.25))


class NumericalError(RuntimeError):
    """Training produced a non-finite loss, gradient or weight."""


@dataclass(frozen=True)
class MlpConfig:
    layer_widths: tuple  # input, hidden..., output
    seed: int = 0
    input_scale: float = 1.0
    input_clip_abs: float | None = None  # clamp |feature| before scaling
    output_scale: tuple | None = None  # fixed per-output gains, default 1

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(w <= 0 for w in self.layer_widths):
            raise ValueError(f"zero-width layer in {self.layer_widths}")
        # written so that NaN fails each comparison
        if not 0.0 < self.input_scale < math.inf:
            raise ValueError("input_scale must be positive and finite")
        if self.input_clip_abs is not None and not 0.0 < self.input_clip_abs < math.inf:
            raise ValueError("input_clip_abs must be positive and finite when set")
        if self.output_scale is not None:
            scale = tuple(float(s) for s in self.output_scale)
            if len(scale) != self.layer_widths[-1]:
                raise ValueError("output_scale length must match the output width")
            if not all(0.0 < s < math.inf for s in scale):
                raise ValueError("output_scale entries must be positive and finite")
            object.__setattr__(self, "output_scale", scale)


@dataclass(frozen=True)
class SgdConfig:
    batch_size: int = 512
    learning_rate: float = 0.003
    epochs: int = 200
    lam: float = 1.0
    staged: bool = True  # run the STAGES schedule; otherwise one flat stage

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # written so that NaN fails each comparison
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lambda must be >= 0 and finite")


@dataclass
class EpochStats:
    train_loss: float
    val_joint_err_mm: float
    val_angle_err_deg: float
    val_invalid_frac: float


class TrainRun:
    """Weights, momentum (zero at start, never saved), mode, per-epoch history."""

    def __init__(self, config: MlpConfig, mode: str, weights, biases,
                 history=None, skeleton=None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}, expected one of {tuple(MODES)}")
        self.config = config
        self.mode = mode
        self.weights = weights
        self.biases = biases
        self.vel_w = [np.zeros_like(w) for w in weights]
        self.vel_b = [np.zeros_like(b) for b in biases]
        self.history = history if history is not None else []
        self.skeleton = skeleton  # the fingerprint a loaded checkpoint records

    @property
    def n_layers(self) -> int:
        return len(self.weights)


def pose_output_scale(skel: Skeleton) -> tuple:
    """Per-DOF output gains that even out joint-loss curvature.

    The joint loss is much stiffer along a proximal flexion (a radian moves
    every descendant by its lever arm) than along a root translation, which
    cripples a single learning rate. Scaling each output by
    OUTPUT_GAIN / ||Jacobian column at the rest pose|| roughly whitens the
    loss. Rotation gains are capped at 1 rad per unit so weakly observed
    distal angles cannot be flung onto wrap-equivalent branches far outside
    their bounds during early training; DOFs that move no eval joint keep
    gain 1. Meant for the pose-emitting modes; direct_parameter regresses
    raw DOFs whose loss is already isotropic.
    """
    _, jac = fk_jacobian_batch(skel, np.zeros((1, skel.n_dofs)),
                               joint_indices=list(skel.eval_subset))
    norms = np.linalg.norm(jac[0], axis=0)
    scale = np.where(norms > 1e-6, OUTPUT_GAIN / np.maximum(norms, 1e-6), 1.0)
    scale = np.where(skel.dof_is_rotation, np.minimum(scale, 1.0), scale)
    return tuple(float(s) for s in scale)


def init(config: MlpConfig, mode: str) -> TrainRun:
    """Seeded uniform init scaled by 1/sqrt(fan_in); zero biases."""
    rng = np.random.default_rng([config.seed, 0])
    weights, biases = [], []
    for fan_in, fan_out in zip(config.layer_widths, config.layer_widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return TrainRun(config, mode, weights, biases)


def _layers(run: TrainRun, features: np.ndarray):
    """Yield the scaled input, then each layer's output, one at a time.

    Bias, ReLU and output gain are applied in place on each fresh matmul
    result, never on the caller's features.
    """
    h = np.asarray(features, dtype=float)
    if run.config.input_clip_abs is not None:
        # tames the occlusion sentinel (-1000 mm) into an in-scale flag
        h = np.clip(h, -run.config.input_clip_abs, run.config.input_clip_abs)
    h = h * run.config.input_scale
    if h.ndim != 2 or h.shape[1] != run.config.layer_widths[0]:
        raise ValueError(
            f"feature width {h.shape[-1]} does not match input width "
            f"{run.config.layer_widths[0]}"
        )
    yield h
    last = run.n_layers - 1
    for i, (w, b) in enumerate(zip(run.weights, run.biases)):
        h = h @ w
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        elif run.config.output_scale is not None:
            h *= np.asarray(run.config.output_scale)
        yield h


def forward(run: TrainRun, features: np.ndarray) -> np.ndarray:
    """Network outputs for a batch of feature rows.

    The layers run over max(1, n // FORWARD_BLOCK_ROWS) row blocks of
    near-equal size, so two layers of one block (under 2 *
    FORWARD_BLOCK_ROWS rows) are alive at a time. Each row gets the bits
    of one pass over all rows.
    """
    n = len(features)
    k = max(1, n // FORWARD_BLOCK_ROWS)
    out = np.empty((n, run.config.layer_widths[-1]))
    for i in range(k):
        block = slice(i * n // k, (i + 1) * n // k)
        for h in _layers(run, features[block]):
            pass  # only the current layer stays alive
        out[block] = h
    return out


def predict(run: TrainRun, features: np.ndarray, skel: Skeleton) -> np.ndarray:
    """Network outputs as predictions: poses (N, D) or joint sets (N, n_eval, 3).
    Raises NumericalError if any output is not finite."""
    out = forward(run, features)
    if not np.all(np.isfinite(out)):
        # finite but huge weights can overflow on the forward pass
        raise NumericalError("non-finite network output")
    if MODES[run.mode].emits_pose:
        return out
    return out.reshape(len(out), len(skel.eval_subset), 3)


def _backprop(run: TrainRun, acts, delta):
    """Gradients of the mean loss; `delta` is dLoss/d_output (already /N).

    Each ReLU mask is taken from the layer's output: acts[i] > 0 exactly
    where its pre-activation is > 0, for every value (NaN and -0.0 included).
    """
    grads_w = [None] * run.n_layers
    grads_b = [None] * run.n_layers
    if run.config.output_scale is not None:
        delta = delta * np.asarray(run.config.output_scale)
    for i in reversed(range(run.n_layers)):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ run.weights[i].T) * (acts[i] > 0.0)
    return grads_w, grads_b


def backward_through_model(run: TrainRun, features, targets, skel: Skeleton,
                           lam: float):
    """Loss and weight gradients with the kinematic layer on the output.

    `targets` are ground-truth eval-joint coordinates, (N, n_eval, 3) or
    flattened. Returns (mean loss over the batch, (weight grads, bias grads)).
    """
    mode = MODES[run.mode]
    if not mode.through_fk:
        raise ValueError(f"mode {run.mode!r} does not use the kinematic layer")
    if not mode.hinge and lam != 0.0:
        raise ValueError(f"mode {run.mode!r} requires lambda = 0")
    acts = list(_layers(run, features))
    poses = acts[-1]
    if not np.all(np.isfinite(poses)):
        raise NumericalError("non-finite network output")
    n = poses.shape[0]
    jt_vals, jt_grads = loss_mod.joint_loss_batch(skel, poses, targets)
    if lam != 0.0:
        phy_vals, phy_grads = loss_mod.phy_loss_batch(skel, poses)
        total = jt_vals + lam * phy_vals
        pose_grads = jt_grads + lam * phy_grads
    else:
        total = jt_vals
        pose_grads = jt_grads
    value = float(total.mean())
    grads = _backprop(run, acts, pose_grads / n)
    return value, grads


def backward_direct(run: TrainRun, features, targets):
    """Plain squared-error loss 0.5*||output - target||^2, no model layer."""
    if MODES[run.mode].through_fk:
        raise ValueError(f"mode {run.mode!r} is not a direct-regression mode")
    acts = list(_layers(run, features))
    out = acts[-1]
    targets = np.asarray(targets, dtype=float).reshape(out.shape[0], -1)
    if targets.shape[1] != out.shape[1]:
        raise ValueError(
            f"target width {targets.shape[1]} does not match output width "
            f"{out.shape[1]} for mode {run.mode!r}"
        )
    resid = out - targets
    value = float(0.5 * np.einsum("nk,nk->n", resid, resid).mean())
    grads = _backprop(run, acts, resid / out.shape[0])
    return value, grads


def sgd_step(run: TrainRun, grads, sgd: SgdConfig) -> TrainRun:
    """Momentum update in place: v <- mu*v - lr*g; w <- w + v."""
    grads_w, grads_b = grads
    for i in range(run.n_layers):
        if grads_w[i].shape != run.weights[i].shape:
            raise ValueError(
                f"gradient shape {grads_w[i].shape} does not match layer {i} "
                f"weights {run.weights[i].shape}"
            )
        for w, v, g in ((run.weights[i], run.vel_w[i], grads_w[i]),
                        (run.biases[i], run.vel_b[i], grads_b[i])):
            v *= MOMENTUM
            v -= sgd.learning_rate * g
            w += v
    return run


def validation_stats(run: TrainRun, dataset, skel: Skeleton, true_joints=None):
    """(joint err mm, angle err deg, invalid fraction) on a dataset.

    `true_joints` are the dataset's eval-joint labels, when the caller has
    them (bench.evaluate).

    Angle and validity metrics apply to pose-emitting modes only; a mode
    that emits joints gets NaN there (its angles exist only after a
    post-hoc fit, which is far too costly per epoch).
    """
    predictions = predict(run, dataset.features, skel)
    report = bench.evaluate(skel, predictions, dataset.thetas, thresholds=(),
                            true_joints=true_joints)
    return (report.avg_joint_error_mm, report.avg_angle_error_deg,
            report.invalid_pose_fraction)


def train(run: TrainRun, dataset, skel: Skeleton, sgd: SgdConfig,
          val=None, on_epoch=None) -> TrainRun:
    """Mini-batch SGD through the stages of the schedule.

    With ``sgd.staged`` the stages are STAGES: stage (f_lr, f_ep) runs at
    f_lr * learning_rate for max(1, round(f_ep * epochs)) epochs; otherwise
    there is one stage at learning_rate for all epochs. Each stage starts
    the shuffle from the same seed and ends early when the best validation
    joint error of its last 10 epochs improves on its earlier best by less
    than 0.1%; momentum carries across stages. The penalty weight is
    ``Mode.penalty_weight(sgd.lam)``. Raises NumericalError (naming the
    epoch by its index in run.history, and the batch) if the loss or a
    gradient goes non-finite, before that batch's update reaches the weights;
    and, naming the epoch, if an epoch ends with a non-finite weight or bias
    or with non-finite outputs on `val`.

    ``on_epoch``, when given, is called after each epoch with that epoch's
    record: its history index, the stage learning rate, the train loss, the
    L2 norm of the epoch's last batch gradient, the validation metrics (with
    `val`; NaN as None) and the epoch's wall seconds.
    """
    if len(dataset) == 0:
        raise ValueError("training dataset is empty")
    mode = MODES[run.mode]
    if mode.theta_targets:
        targets = dataset.thetas
    else:
        targets = bench.eval_joints(skel, dataset.thetas).reshape(len(dataset), -1)
    # the validation labels, once for every epoch's validation_stats
    val_joints = None if val is None else bench.eval_joints(skel, val.thetas)
    lam = mode.penalty_weight(sgd.lam)
    n = len(dataset)
    for frac_lr, frac_ep in STAGES if sgd.staged else ((1.0, 1.0),):
        stage = replace(sgd, learning_rate=sgd.learning_rate * frac_lr)
        rng = np.random.default_rng([run.config.seed, 1])
        val_errors = []
        for _ in range(max(1, int(round(frac_ep * sgd.epochs)))):
            epoch_started = time.monotonic()
            epoch = len(run.history)
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, sgd.batch_size):
                batch = start // sgd.batch_size
                idx = order[start:start + sgd.batch_size]
                feats = dataset.features[idx]
                tgt = targets[idx]
                grads = None  # one gradient set alive at a time
                try:
                    if mode.through_fk:
                        value, grads = backward_through_model(run, feats, tgt, skel, lam)
                    else:
                        value, grads = backward_direct(run, feats, tgt)
                except NumericalError as e:
                    raise NumericalError(f"{e} at epoch {epoch} batch {batch}") from None
                if not np.isfinite(value):
                    raise NumericalError(f"non-finite loss at epoch {epoch} batch {batch}")
                if not all(np.isfinite(g).all() for g in grads[0] + grads[1]):
                    raise NumericalError(
                        f"non-finite gradient at epoch {epoch} batch {batch}")
                sgd_step(run, grads, stage)
                epoch_losses.append(value)

            grad_norm = float(np.sqrt(sum(np.vdot(g, g) for g in grads[0] + grads[1])))
            grads = None  # none alive through validation
            if not all(np.isfinite(p).all() for p in run.weights + run.biases):
                raise NumericalError(f"non-finite weights after epoch {epoch}")
            if val is not None:
                try:
                    joint_err, angle_err, invalid = validation_stats(run, val, skel,
                                                                     val_joints)
                except NumericalError as e:
                    raise NumericalError(
                        f"{e} on the validation set after epoch {epoch}") from None
            else:
                joint_err = angle_err = invalid = float("nan")
            stats = EpochStats(
                train_loss=float(np.mean(epoch_losses)),
                val_joint_err_mm=joint_err,
                val_angle_err_deg=angle_err,
                val_invalid_frac=invalid,
            )
            run.history.append(stats)
            if on_epoch is not None:
                record = {
                    "epoch": epoch,
                    "lr": stage.learning_rate,
                    "train_loss": stats.train_loss,
                    "grad_norm": grad_norm,
                }
                if val is not None:
                    # NaN (the angles of a joint-emitting mode) as null
                    record.update((key, None if np.isnan(v) else v)
                                  for key, v in vars(stats).items()
                                  if key.startswith("val_"))
                record["seconds"] = time.monotonic() - epoch_started
                on_epoch(record)
            if val is not None:
                val_errors.append(joint_err)
                if len(val_errors) > 10:
                    recent = min(val_errors[-10:])
                    earlier = min(val_errors[:-10])
                    if recent > earlier * (1.0 - 1e-3):
                        break
    return run


def save_checkpoint(run: TrainRun, path, skel: Skeleton) -> None:
    """Write `run` as trained for `skel`, whose fingerprint it records.

    Line 1 is JSON: format, version, skeleton fingerprint, MLP config, mode
    and history. Each layer's weights, then its biases, follow as .npy
    records (np.save writes the float64 bytes without a copy). The
    `.ckpt.json` suffix of train's and reproduce's files is historical.
    """
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "skeleton": skel.fingerprint(),
        "mlp": {
            "layer_widths": list(run.config.layer_widths),
            "seed": run.config.seed,
            "input_scale": run.config.input_scale,
            "input_clip_abs": run.config.input_clip_abs,
            "output_scale": list(run.config.output_scale) if run.config.output_scale else None,
        },
        "mode": run.mode,
        "history": [
            [h.train_loss, h.val_joint_err_mm, h.val_angle_err_deg, h.val_invalid_frac]
            for h in run.history
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for w, b in zip(run.weights, run.biases):
            np.save(fh, w)
            np.save(fh, b)


def _list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(x, kind) for x in value)


_NUMBER = (int, float)
# The header fields load_checkpoint reads ("mlp.x" is field x of "mlp"): what
# each must hold, and its check. A missing field reads as None.
_HEADER_FIELDS = (
    ("skeleton", "an object with a name and a sha256", lambda v: isinstance(v, dict)
     and all(isinstance(v.get(k), str) for k in ("name", "sha256"))),
    ("mlp", "an object", lambda v: isinstance(v, dict)),
    ("mlp.layer_widths", "a list of integers", lambda v: _list_of(v, int)),
    ("mlp.seed", "an integer", lambda v: isinstance(v, int)),
    ("mlp.input_scale", "a number", lambda v: isinstance(v, _NUMBER)),
    ("mlp.input_clip_abs", "a number or null", lambda v: v is None or isinstance(v, _NUMBER)),
    ("mlp.output_scale", "a list of numbers or null",
     lambda v: v is None or _list_of(v, _NUMBER)),
    ("mode", f"one of {', '.join(MODES)}", lambda v: isinstance(v, str) and v in MODES),
    ("history", "a list of rows of 4 numbers", lambda v: _list_of(v, list)
     and all(len(row) == 4 and _list_of(row, _NUMBER) for row in v)),
)


def load_checkpoint(path) -> TrainRun:
    """Read a checkpoint that save_checkpoint wrote; every refusal is a
    ValueError that names the path. A record's .npy header is checked
    against the layer widths before its data is read."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:  # not JSON, or not UTF-8
            header = None
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')} "
                             f"(this reader reads version {CHECKPOINT_VERSION}); retrain")
        for field, expected, check in _HEADER_FIELDS:
            value = header
            for key in field.split("."):
                value = value.get(key)
            if not check(value):
                raise ValueError(f"{path}: header field {field} is missing or not {expected}")
        mlp = header["mlp"]
        try:
            config = MlpConfig(tuple(mlp["layer_widths"]), seed=int(mlp["seed"]),
                               input_scale=float(mlp["input_scale"]),
                               input_clip_abs=mlp.get("input_clip_abs"),
                               output_scale=tuple(mlp["output_scale"] or ()) or None)
        except ValueError as e:
            raise ValueError(f"{path}: header field mlp: {e}") from None
        widths = config.layer_widths
        arrays = []  # each layer's weights, then its biases
        for shape in [s for pair in zip(widths, widths[1:]) for s in (pair, pair[1:])]:
            record = f"layer {len(arrays) // 2} {('weights', 'biases')[len(arrays) % 2]}"
            try:  # np.save writes version 1.0, and 2.0 for headers over 64 KiB
                version = np.lib.format.read_magic(fh)
                read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                               else np.lib.format.read_array_header_2_0)
                got, fortran_order, dtype = read_header(fh)
            except ValueError as e:  # short or malformed record header
                raise ValueError(f"{path}: {record}: {e}") from None
            if dtype != np.dtype("<f8") or fortran_order or got != shape:
                raise ValueError(f"{path}: {record} are {dtype} {got}"
                                 f"{' in Fortran order' if fortran_order else ''}, "
                                 f"expected float64 {shape}")
            if 8 * math.prod(shape) > os.fstat(fh.fileno()).st_size - fh.tell():
                raise ValueError(f"{path}: {record}: the file ends inside the record")
            arrays.append(np.empty(shape))
            fh.readinto(arrays[-1])
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last layer")
    return TrainRun(config, header["mode"], arrays[0::2], arrays[1::2],
                    history=[EpochStats(*row) for row in header["history"]],
                    skeleton=header["skeleton"])
