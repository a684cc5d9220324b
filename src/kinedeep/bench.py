"""Synthetic benchmark data and the evaluation metrics.

Datasets stand in for the depth-image pipeline, which is out of scope here:
a sample's features are the flattened eval-joint coordinates of a random
in-bounds pose, corrupted by isotropic Gaussian noise and random per-joint
occlusion (all three coordinates replaced by a sentinel). Where in the
bounds poses are drawn is the caller's choice, with no default: synth's
--interior-margin and --pose-shape, or reproduce's central core. A dataset
keeps only the poses and the features. Labels are exact: a sample's
ground-truth joints are the forward kinematics of its stored pose
(:func:`eval_joints`), computed where they are used, so they cannot
disagree with the pose.

Metrics follow the usual hand-pose protocol:
  * average joint error: mean over frames of the mean per-eval-joint
    Euclidean distance, mm;
  * max-error curve: fraction of frames whose worst eval joint lies within
    each threshold of THRESHOLDS_MM (5 to 80 mm in 5 mm steps);
  * average angle error: mean absolute difference over rotation DOFs
    (global rotation included, translation excluded), degrees, as a plain
    difference without wrap-around;
  * invalid-pose fraction: frames with at least one rotation angle outside
    its bounds.

:func:`evaluate` is the one scoring function. It takes the predictions and
the true poses, row for row. For joint-set predictions the angle metrics
are computed on poses fitted by :func:`kinedeep.ik_pso.fit_batch`, which
the caller passes in; without them they are NaN.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .kinematics import forward_kinematics_batch
from .skeleton import Skeleton, default_hand, skeleton_from_dict

# synth's and reproduce's noise: sigma per coordinate, chance of occlusion per joint
NOISE_SIGMA_MM = 10.0
OCCLUSION_PROB = 0.1
OCCLUSION_SENTINEL_MM = -1000.0
THRESHOLDS_MM = tuple(range(5, 85, 5))


BENCH_BOUND_EXPANSION = 1.8

# eval_joints and make_dataset run each per-sample step over blocks of this
# many poses, which bounds its temporaries; FK gives a pose the same bits
# alone or in a batch
_BLOCK_POSES = 256


def benchmark_skeleton() -> Skeleton:
    """The built-in hand recast for the synthetic benchmark.

    Two changes against the library default:

    * global rotation is limited to a camera-facing ±60°:
      regressing Euler angles drawn uniformly over a full ±180° triple is
      ill-posed (the joints-to-angles map is discontinuous at the wrap),
      which no depth-camera collection exhibits;
    * every DOF's bounds are widened by BENCH_BOUND_EXPANSION about their
      center (rotations capped at ±175°). Bounds fitted from recorded data are
      envelopes with slack around the poses that actually occur, not lines
      the data hugs; the benchmark samples poses over the anatomical core
      (see make_dataset's interior_margin) while validity is judged against
      the envelope.

    benchmark_interior_margin() gives the matching sampling margin
    that makes the sampled core equal the anatomical ranges.
    """
    raw = default_hand().to_dict()
    for dof in raw["joints"][0]["dofs"]:
        if dof["kind"] == "rotation":
            dof["lower_deg"], dof["upper_deg"] = -60.0, 60.0
    for joint in raw["joints"]:
        for dof in joint["dofs"]:
            if dof["kind"] == "rotation":
                lo, hi = dof["lower_deg"], dof["upper_deg"]
            else:
                lo, hi = dof["lower_mm"], dof["upper_mm"]
            center = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo) * BENCH_BOUND_EXPANSION
            lo, hi = center - half, center + half
            if dof["kind"] == "rotation":
                lo, hi = max(lo, -175.0), min(hi, 175.0)
                dof["lower_deg"], dof["upper_deg"] = lo, hi
            else:
                dof["lower_mm"], dof["upper_mm"] = lo, hi
    raw["name"] = "hand23-bench"
    return skeleton_from_dict(raw)


def benchmark_interior_margin() -> float:
    """Sampling margin that shrinks expanded bounds back to the core ranges."""
    return 0.5 * (1.0 - 1.0 / BENCH_BOUND_EXPANSION)


@dataclass
class Dataset:
    """A dataset is its skeleton and its two arrays. Row i of each array is
    sample i. The poses are the labels (eval_joints gives their joints);
    synth's manifest records how they were drawn."""

    skeleton: Skeleton  # the skeleton the poses are of
    features: np.ndarray  # (N, 3 * n_eval)
    thetas: np.ndarray    # (N, D)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class MetricsReport:
    avg_joint_error_mm: float
    max_error_curve: list  # [(threshold_mm, fraction)], thresholds ascending
    avg_angle_error_deg: float
    invalid_pose_fraction: float
    n_frames: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [
            f"frames                 {self.n_frames}",
            f"avg joint error (mm)   {self.avg_joint_error_mm!r}",
            f"avg angle error (deg)  {self.avg_angle_error_deg!r}",
            f"invalid pose fraction  {self.invalid_pose_fraction!r}",
            "max-error curve (threshold mm : fraction of frames)",
        ]
        lines += [f"  {t:6.1f} : {f!r}" for t, f in self.max_error_curve]
        return "\n".join(lines)


def eval_joints(skel: Skeleton, thetas: np.ndarray) -> np.ndarray:
    """Eval-joint positions (N, n_eval, 3) of poses (N, D), exact: one FK
    pass over blocks of _BLOCK_POSES poses, the bits of a single pass."""
    ev = list(skel.eval_subset)
    out = np.empty((len(thetas), len(ev), 3))
    for start in range(0, len(thetas), _BLOCK_POSES):
        block = slice(start, start + _BLOCK_POSES)
        out[block] = forward_kinematics_batch(skel, thetas[block], joint_indices=ev)
    return out


def make_dataset(skel: Skeleton, n: int, noise_sigma_mm: float,
                 occlusion_prob: float, seed: int, interior_margin: float,
                 pose_shape: str) -> Dataset:
    """Sample n poses and build their noisy eval-joint features.

    `interior_margin` shrinks the sampling box by that fraction of each
    DOF's range on both sides; `pose_shape` is "uniform" over that box or
    "central" (Beta(3,3) per DOF), which mimics recorded pose collections:
    mass in the middle of each range, vanishing density at the limits.
    """
    if n < 1:
        raise ValueError("dataset size must be >= 1")
    if not 0.0 <= noise_sigma_mm < np.inf:  # NaN fails too
        raise ValueError("noise sigma must be >= 0 and finite")
    if not 0.0 <= occlusion_prob < 1.0:
        raise ValueError("occlusion probability must lie in [0, 1)")
    if not 0.0 <= interior_margin < 0.5:
        raise ValueError("interior margin must lie in [0, 0.5)")
    if pose_shape not in ("uniform", "central"):
        raise ValueError(f"unknown pose_shape {pose_shape!r}")
    rng = np.random.default_rng(seed)
    span = skel.dof_upper - skel.dof_lower
    lo = skel.dof_lower + interior_margin * span
    hi = skel.dof_upper - interior_margin * span
    if pose_shape == "central":
        # in place: unit * (hi - lo) + lo has the bits of lo + unit * (hi - lo)
        thetas = rng.beta(3.0, 3.0, size=(n, skel.n_dofs))
        thetas *= hi - lo
        thetas += lo
    else:
        thetas = rng.uniform(lo, hi, size=(n, skel.n_dofs))
    features = eval_joints(skel, thetas)
    # block by block, which bounds the draws' temporaries; the blocks' draws
    # are the numbers of one draw over all samples, and every noise draw
    # comes before the first occlusion draw
    for start in range(0, n, _BLOCK_POSES):
        block = features[start:start + _BLOCK_POSES]
        block += rng.normal(0.0, noise_sigma_mm, size=block.shape)
    if occlusion_prob > 0.0:
        for start in range(0, n, _BLOCK_POSES):
            block = features[start:start + _BLOCK_POSES]
            block[rng.uniform(size=block.shape[:2]) < occlusion_prob] = OCCLUSION_SENTINEL_MM
    return Dataset(skel, features.reshape(n, -1), thetas)


def joint_distances(resid: np.ndarray) -> np.ndarray:
    """Per-joint Euclidean distance of residuals (..., 3): metrics' and IK's."""
    sq = resid * resid
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def evaluate(skel: Skeleton, predictions, true_thetas, *,
             fitted_poses=None) -> MetricsReport:
    """Score predicted poses (N, D) or eval-joint sets (N, n_eval, 3)
    against the true poses `true_thetas` (N, D), row for row.

    Joint-set predictions take their angle metrics from `fitted_poses`, the
    poses :func:`kinedeep.ik_pso.fit_batch` fitted to them; without those,
    the angle error and the invalid fraction are NaN.
    """
    predictions = np.asarray(predictions, dtype=float)
    n = len(true_thetas)
    if predictions.shape[0] != n:
        raise ValueError(f"{predictions.shape[0]} predictions for {n} ground-truth frames")
    if fitted_poses is not None:
        fitted_poses = np.asarray(fitted_poses, dtype=float)
        if fitted_poses.shape != (n, skel.n_dofs):
            raise ValueError(f"fitted_poses shape {fitted_poses.shape} does not match "
                             f"{(n, skel.n_dofs)}, one pose per ground-truth frame")
    if predictions.ndim == 2 and predictions.shape[1] == skel.n_dofs:
        pose_preds, pred_joints = predictions, eval_joints(skel, predictions)
    else:
        pose_preds = fitted_poses
        pred_joints = predictions.reshape(n, len(skel.eval_subset), 3)

    err = joint_distances(pred_joints - eval_joints(skel, true_thetas))
    max_err = err.max(axis=1)
    curve = [(float(t), float(np.mean(max_err <= t))) for t in THRESHOLDS_MM]

    if pose_preds is None:
        avg_angle = invalid_fraction = float("nan")
    else:
        rot = skel.dof_is_rotation
        diff = np.abs(pose_preds[:, rot] - true_thetas[:, rot])
        avg_angle = float(np.degrees(diff.mean()))
        invalid = (pose_preds[:, rot] < skel.dof_lower[rot]) | \
                  (pose_preds[:, rot] > skel.dof_upper[rot])
        invalid_fraction = float(np.mean(invalid.any(axis=1)))

    return MetricsReport(
        avg_joint_error_mm=float(err.mean()),
        max_error_curve=curve,
        avg_angle_error_deg=avg_angle,
        invalid_pose_fraction=invalid_fraction,
        n_frames=n,
    )
