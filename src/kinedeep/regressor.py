"""Feedforward pose regressor trained through the kinematic layer.

The network is a plain ReLU MLP (linear output). The paper's four training
modes differ only in how that output is read and trained; ``MODES`` below is
the one place that describes them, and a mode's row fixes its learning rate
and its angle-range penalty weight. The row, the schedule ``STAGES``,
``MOMENTUM`` and ``BATCH_SIZE`` are the whole training recipe; only the
epoch count is the caller's.

The architecture is constants too: every network clips its mm features to
+-INPUT_CLIP_MM, scales them by INPUT_SCALE (raw joint coordinates span
hundreds of mm, which makes first-layer steps disproportionate at any single
learning rate), runs HIDDEN_WIDTHS hidden layers, and multiplies its output
by its mode's fixed per-output gains (Mode.output_scale). ``init`` builds
every fresh network. A TrainRun holds mode, layers, gains, per-epoch history
and skeleton config; its checkpoint holds all but the gains, which init and
load_checkpoint derive from the skeleton and the mode.

Optimization is stochastic gradient descent with momentum, single-threaded
and bitwise deterministic given (seed, data, epochs).

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
A checkpoint is a file of fileio's record format (save_checkpoint).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import bench, fileio
from . import loss as loss_mod
from .kinematics import fk_jacobian_batch
from .skeleton import Skeleton, SkeletonError, skeleton_from_dict

CHECKPOINT_FORMAT = "kinedeep-checkpoint"
# 6: the skeleton's config, no output gains; 5: flat header, the layer
# widths only in the records' shapes, no seed; 4: no input scale or clip
# fields, output gains always; 3: .npy layer records; 2: all JSON; 1: no
# skeleton
CHECKPOINT_VERSION = 6
INPUT_CLIP_MM = 400.0  # |feature| clamp: the occlusion sentinel (-1000 mm) becomes a flag
INPUT_SCALE = 0.01  # mm features to network units, after the clip
HIDDEN_WIDTHS = (256, 256)  # the hidden layers of every trained network
OUTPUT_GAIN = 50.0  # fixed output gain of the pose- and joint-regressing modes
MOMENTUM = 0.9  # SGD momentum of every mode and stage
BATCH_SIZE = 64  # SGD mini-batch size of every mode and stage
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
    penalty        the weight (lambda) of the angle-range penalty in the loss
    base_lr        base learning rate of the training schedule

    With STAGES, MOMENTUM and BATCH_SIZE the row is the mode's whole
    training recipe: nothing else sets its rate or its penalty weight.
    """

    emits_pose: bool
    through_fk: bool
    penalty: float
    base_lr: float

    @property
    def theta_targets(self) -> bool:
        """The targets are ground-truth poses; otherwise eval joints."""
        return self.emits_pose and not self.through_fk

    def output_width(self, skel: Skeleton) -> int:
        return skel.n_dofs if self.emits_pose else 3 * len(skel.eval_subset)

    def output_scale(self, skel: Skeleton) -> tuple:
        """Fixed per-output gains of the mode's network: 1 for pose
        targets (x * 1.0 is exact, so the gain changes no bit)."""
        if self.theta_targets:
            return (1.0,) * self.output_width(skel)
        if self.emits_pose:
            return pose_output_scale(skel)
        return (OUTPUT_GAIN,) * self.output_width(skel)


# ours: the paper's network, FK layer plus angle-range penalty; ours_no_phy:
# the same without the penalty; direct_joint and direct_parameter: plain
# regression of joints and of the raw pose (mixed units: mm for translation
# DOFs, radians for angles). Order is the order of the comparison table.
MODES = {
    "ours": Mode(emits_pose=True, through_fk=True, penalty=1.0, base_lr=1e-6),
    "ours_no_phy": Mode(emits_pose=True, through_fk=True, penalty=0.0, base_lr=1e-6),
    "direct_joint": Mode(emits_pose=False, through_fk=False, penalty=0.0, base_lr=1e-6),
    "direct_parameter": Mode(emits_pose=True, through_fk=False, penalty=0.0,
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


@dataclass
class EpochStats:
    train_loss: float
    val_joint_err_mm: float
    val_angle_err_deg: float
    val_invalid_frac: float


@dataclass
class TrainRun:
    """A network and its record."""

    mode: str
    weights: list
    biases: list
    output_scale: tuple  # the mode's gains on the skeleton; derived, never stored
    history: list  # one EpochStats per epoch trained
    skeleton: dict  # the canonical config (to_dict) of the skeleton it is trained for


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


def init(skel: Skeleton, mode: str, seed: int) -> TrainRun:
    """A fresh network of `mode` for `skel`: widths (3 * n_eval,
    *HIDDEN_WIDTHS, the mode's output width) and the mode's gains; seeded
    uniform weights scaled by 1/sqrt(fan_in), zero biases."""
    spec = MODES[mode]
    widths = (3 * len(skel.eval_subset), *HIDDEN_WIDTHS, spec.output_width(skel))
    rng = np.random.default_rng([seed, 0])
    weights = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    return TrainRun(mode, weights, [np.zeros(w) for w in widths[1:]], spec.output_scale(skel),
                    [], skel.to_dict())


def _layers(run: TrainRun, features: np.ndarray):
    """Yield the clipped and scaled input, then each layer's output, one at
    a time.

    The scale, bias, ReLU and output gain are applied in place on each fresh
    clip or matmul result, never on the caller's features.
    """
    h = np.clip(np.asarray(features, dtype=float), -INPUT_CLIP_MM, INPUT_CLIP_MM)
    h *= INPUT_SCALE
    if h.ndim != 2 or h.shape[1] != len(run.weights[0]):
        raise ValueError(
            f"feature width {h.shape[-1]} does not match input width "
            f"{len(run.weights[0])}"
        )
    yield h
    last = len(run.weights) - 1
    for i, (w, b) in enumerate(zip(run.weights, run.biases)):
        h = h @ w
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        else:
            h *= np.asarray(run.output_scale)
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
    out = np.empty((n, run.weights[-1].shape[1]))
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
    n = len(run.weights)
    grads_w, grads_b = [None] * n, [None] * n
    delta = delta * np.asarray(run.output_scale)
    for i in reversed(range(n)):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ run.weights[i].T) * (acts[i] > 0.0)
    return grads_w, grads_b


def _loss_through_model(run: TrainRun, features, targets, skel: Skeleton):
    """(mean loss over the batch, every layer's output, dLoss/d_output),
    the loss of backward_through_model."""
    mode = MODES[run.mode]
    if not mode.through_fk:
        raise ValueError(f"mode {run.mode!r} does not use the kinematic layer")
    acts = list(_layers(run, features))
    poses = acts[-1]
    if not np.all(np.isfinite(poses)):
        raise NumericalError("non-finite network output")
    total, pose_grads = loss_mod.joint_loss_batch(skel, poses, targets)
    if mode.penalty != 0.0:
        phy_vals, phy_grads = loss_mod.phy_loss_batch(skel, poses)
        total = total + mode.penalty * phy_vals
        pose_grads = pose_grads + mode.penalty * phy_grads
    return float(total.mean()), acts, pose_grads / len(poses)


def backward_through_model(run: TrainRun, features, targets, skel: Skeleton):
    """Loss and weight gradients with the kinematic layer on the output.

    `targets` are ground-truth eval-joint coordinates, (N, n_eval, 3) or
    flattened. The loss is the joint loss plus the mode's penalty weight
    times the angle-range penalty. Returns (mean loss over the batch,
    (weight grads, bias grads)).
    """
    value, acts, delta = _loss_through_model(run, features, targets, skel)
    return value, _backprop(run, acts, delta)


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


def sgd_step(run: TrainRun, grads, velocity, lr: float) -> TrainRun:
    """Momentum update in place: v <- mu*v - lr*g; w <- w + v, for the
    weight arrays, then the bias arrays, whose buffers `velocity` holds in
    that order."""
    params, grads = run.weights + run.biases, grads[0] + grads[1]
    if [g.shape for g in grads] != [p.shape for p in params]:
        raise ValueError(f"gradient shapes {[g.shape for g in grads]} do not match the "
                         f"weight and bias shapes {[p.shape for p in params]}")
    for w, v, g in zip(params, velocity, grads):
        v *= MOMENTUM
        v -= lr * g
        w += v
    return run


def validation_stats(run: TrainRun, dataset, skel: Skeleton):
    """(joint err mm, angle err deg, invalid fraction) on a dataset.

    Angle and validity metrics apply to pose-emitting modes only; a mode
    that emits joints gets NaN there (its angles exist only after a
    post-hoc fit, which is far too costly per epoch).
    """
    predictions = predict(run, dataset.features, skel)
    report = bench.evaluate(skel, predictions, dataset.thetas)
    return (report.avg_joint_error_mm, report.avg_angle_error_deg,
            report.invalid_pose_fraction)


def train(run: TrainRun, dataset, skel: Skeleton, epochs: int, seed: int,
          val, on_epoch) -> TrainRun:
    """Mini-batch SGD, BATCH_SIZE rows a batch, through the stages of STAGES.

    Stage (f_lr, f_ep) runs at f_lr times the mode's base_lr for
    max(1, round(f_ep * epochs)) epochs. Each stage starts the shuffle from
    `seed`; momentum starts at zero and carries across stages. The penalty
    weight is the mode's ``penalty``. Validation on `val`, the validation
    set or None, is recorded per epoch and never changes the weights or the
    epoch count.
    Raises NumericalError (naming the epoch by its index in run.history, and
    the batch) if the loss or a gradient goes non-finite, before that batch's
    update reaches the weights; and, naming the epoch, if an epoch ends with
    a non-finite weight or bias or with non-finite outputs on `val`.

    ``on_epoch`` is called after each epoch with that epoch's record: its
    history index, the stage learning rate, the train loss, the L2 norm of
    the epoch's last batch gradient, the validation metrics (with `val`;
    NaN as None) and the epoch's wall seconds.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if len(dataset) == 0:
        raise ValueError("training dataset is empty")
    mode = MODES[run.mode]
    targets = dataset.thetas if mode.theta_targets else \
        bench.eval_joints(skel, dataset.thetas).reshape(len(dataset), -1)
    n = len(dataset)
    velocity = [np.zeros_like(p) for p in run.weights + run.biases]
    for frac_lr, frac_ep in STAGES:
        lr = mode.base_lr * frac_lr
        rng = np.random.default_rng([seed, 1])
        for _ in range(max(1, int(round(frac_ep * epochs)))):
            epoch_started = time.monotonic()
            epoch = len(run.history)
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, BATCH_SIZE):
                batch = start // BATCH_SIZE
                idx = order[start:start + BATCH_SIZE]
                feats = dataset.features[idx]
                tgt = targets[idx]
                grads = None  # one gradient set alive at a time
                try:
                    if mode.through_fk:
                        value, grads = backward_through_model(run, feats, tgt, skel)
                    else:
                        value, grads = backward_direct(run, feats, tgt)
                except NumericalError as e:
                    raise NumericalError(f"{e} at epoch {epoch} batch {batch}") from None
                if not np.isfinite(value):
                    raise NumericalError(f"non-finite loss at epoch {epoch} batch {batch}")
                if not all(np.isfinite(g).all() for g in grads[0] + grads[1]):
                    raise NumericalError(
                        f"non-finite gradient at epoch {epoch} batch {batch}")
                sgd_step(run, grads, velocity, lr)
                epoch_losses.append(value)

            grad_norm = float(np.sqrt(sum(np.vdot(g, g) for g in grads[0] + grads[1])))
            grads = None  # none alive through validation
            if not all(np.isfinite(p).all() for p in run.weights + run.biases):
                raise NumericalError(f"non-finite weights after epoch {epoch}")
            val_stats = (float("nan"),) * 3
            if val is not None:
                try:
                    val_stats = validation_stats(run, val, skel)
                except NumericalError as e:
                    raise NumericalError(
                        f"{e} on the validation set after epoch {epoch}") from None
            stats = EpochStats(float(np.mean(epoch_losses)), *val_stats)
            run.history.append(stats)
            record = {"epoch": epoch, "lr": lr, "train_loss": stats.train_loss,
                      "grad_norm": grad_norm}
            if val is not None:
                # NaN (the angles of a joint-emitting mode) as null
                record.update((key, None if np.isnan(v) else v)
                              for key, v in vars(stats).items()
                              if key.startswith("val_"))
            record["seconds"] = time.monotonic() - epoch_started
            on_epoch(record)
    return run


def save_checkpoint(run: TrainRun, path) -> None:
    """Write `run` as a file of fileio's record format: a header of format,
    version, the skeleton's config, mode and history, then each layer's
    weights and biases as records, whose shapes are the layer widths. The
    gains are not stored: they follow from the skeleton and the mode. The
    `.ckpt.json` suffix of train's and reproduce's files is historical."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "skeleton": run.skeleton,
        "mode": run.mode,
        "history": [
            [h.train_loss, h.val_joint_err_mm, h.val_angle_err_deg, h.val_invalid_frac]
            for h in run.history
        ],
    }
    fileio.write_records(path, header, [a for wb in zip(run.weights, run.biases) for a in wb])


def _list_of(value, kind) -> bool:  # true and false are not numbers
    return isinstance(value, list) and all(
        isinstance(x, kind) and not isinstance(x, bool) for x in value)


_NUMBER = (int, float)
# The header fields load_checkpoint reads, what each must hold and its check
# (a missing field is None); any other field but format and version is refused.
_HEADER_FIELDS = (
    ("skeleton", "a skeleton config with a name", lambda v: isinstance(v, dict)
     and isinstance(v.get("name"), str)),
    ("mode", f"one of {', '.join(MODES)}", lambda v: isinstance(v, str) and v in MODES),
    ("history", "a list of rows of 4 numbers", lambda v: _list_of(v, list)
     and all(len(row) == 4 and _list_of(row, _NUMBER) for row in v)),
)


def load_checkpoint(path) -> TrainRun:
    """Read a checkpoint that save_checkpoint wrote; every refusal is a
    ValueError that names the path. The stored config must build a skeleton,
    on which the gains are the mode's, as in init. The (weights, biases)
    record pairs, one at least, run to the end of the file and chain: 3 *
    n_eval rows, then a row per output of the layer before, biases a value
    per weights column, no zero width, the mode's output width last. Each
    record's .npy header is checked before its data is read."""
    with open(path, "rb") as fh:
        header = fileio.read_header(fh, path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                                    "retrain")
        for field, expected, check in _HEADER_FIELDS:
            if not check(header.get(field)):
                raise ValueError(f"{path}: header field {field} is missing or not {expected}")
        known = {"format", "version", *(field for field, _, _ in _HEADER_FIELDS)}
        if set(header) - known:
            raise ValueError(f"{path}: unknown header field {min(set(header) - known)}")
        try:
            skel = skeleton_from_dict(header["skeleton"])
        except SkeletonError as e:
            raise ValueError(f"{path}: header field skeleton is not a skeleton config: "
                             f"{e}") from None
        weights, biases, rows = [], [], 3 * len(skel.eval_subset)
        while not weights or fh.peek(1):
            i = len(weights)
            w = fileio.read_record(fh, path, f"layer {i} weights", (rows, None))
            if not w.size:
                raise ValueError(f"{path}: layer {i} weights are {w.shape}, a zero-width layer")
            weights.append(w)
            biases.append(fileio.read_record(fh, path, f"layer {i} biases", (w.shape[1],)))
            rows = w.shape[1]
    mode = MODES[header["mode"]]
    if rows != mode.output_width(skel):
        raise ValueError(f"{path}: the last layer is {rows} wide, but mode {header['mode']} "
                         f"emits {mode.output_width(skel)} outputs on skeleton {skel.name!r}")
    return TrainRun(header["mode"], weights, biases, mode.output_scale(skel),
                    [EpochStats(*row) for row in header["history"]], header["skeleton"])
