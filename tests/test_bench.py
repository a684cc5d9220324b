import math
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from kinedeep import bench, ik_pso
from kinedeep import kinematics as kin
from kinedeep import skeleton as sk


def sample_poses(hand, n, seed):
    """The poses of a noise-free dataset: uniform within the bounds."""
    return bench.make_dataset(hand, n=n, noise_sigma_mm=0.0, occlusion_prob=0.0,
                              seed=seed, interior_margin=0.0, pose_shape="uniform").thetas


def test_sample_pose_in_bounds(hand):
    theta = sample_poses(hand, 1, seed=4)
    assert np.array_equal(sk.clamp_pose(hand, theta), theta)


def test_sample_pose_deterministic(hand):
    assert np.array_equal(sample_poses(hand, 1, 9), sample_poses(hand, 1, 9))


def test_sample_pose_spans_ranges(hand):
    poses = sample_poses(hand, 10_000, seed=0)
    assert np.all(poses >= hand.dof_lower) and np.all(poses <= hand.dof_upper)
    spans = poses.max(axis=0) - poses.min(axis=0)
    assert np.all(spans >= 0.9 * (hand.dof_upper - hand.dof_lower))


def test_make_dataset_clean_features_match_joints(hand):
    data = bench.make_dataset(hand, n=50, noise_sigma_mm=0.0, occlusion_prob=0.0, seed=3,
                              interior_margin=0.0, pose_shape="uniform")
    ev = list(hand.eval_subset)
    assert np.array_equal(data.features.reshape(50, len(ev), 3),
                          bench.eval_joints(hand, data.thetas))


def test_make_dataset_labels_exact(hand):
    # the labels are the eval rows of the full FK of the stored poses
    data = bench.make_dataset(hand, n=20, noise_sigma_mm=8.0, occlusion_prob=0.2, seed=3,
                              interior_margin=0.0, pose_shape="uniform")
    recomputed = kin.forward_kinematics_batch(hand, data.thetas)
    assert np.array_equal(recomputed[:, list(hand.eval_subset)],
                          bench.eval_joints(hand, data.thetas))
    assert np.all(data.thetas >= hand.dof_lower) and np.all(data.thetas <= hand.dof_upper)


# sizes at the edges of bench's pose blocks: B - 1 to B + 1 and 4B - 1 to
# 4B + 1 straddle the end of the first and of the fourth block, 16B fills
# sixteen blocks and 16B + 1 leaves one pose in a seventeenth
B = bench._BLOCK_POSES
BLOCK_EDGES = [1, B - 1, B, B + 1, 4 * B - 1, 4 * B, 4 * B + 1, 16 * B, 16 * B + 1]


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_eval_joints_give_the_bytes_of_one_fk_pass(hand, rng, n):
    for skel in (hand, bench.benchmark_skeleton()):
        thetas = rng.uniform(skel.dof_lower, skel.dof_upper, size=(n, skel.n_dofs))
        got = bench.eval_joints(skel, thetas)
        want = kin.forward_kinematics_batch(skel, thetas,
                                            joint_indices=list(skel.eval_subset))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_make_dataset_noise_magnitude(hand):
    sigma = 5.0
    data = bench.make_dataset(hand, n=10_000, noise_sigma_mm=sigma, occlusion_prob=0.0, seed=12,
                              interior_margin=0.0, pose_shape="uniform")
    ev = list(hand.eval_subset)
    deviation = np.abs(data.features.reshape(len(data), len(ev), 3)
                       - bench.eval_joints(hand, data.thetas))
    expected = sigma * math.sqrt(2.0 / math.pi)  # mean of |N(0, sigma)|
    assert abs(deviation.mean() - expected) < 0.05 * expected


def test_make_dataset_occlusion_sentinel(hand):
    prob = 0.3
    data = bench.make_dataset(hand, n=2000, noise_sigma_mm=0.0, occlusion_prob=prob, seed=7,
                              interior_margin=0.0, pose_shape="uniform")
    ev = list(hand.eval_subset)
    feats = data.features.reshape(len(data), len(ev), 3)
    occluded = np.all(feats == bench.OCCLUSION_SENTINEL_MM, axis=2)
    rate = occluded.mean()
    assert abs(rate - prob) < 0.02


def test_make_dataset_deterministic(hand):
    a = bench.make_dataset(hand, n=40, noise_sigma_mm=3.0, occlusion_prob=0.1, seed=5,
                           interior_margin=0.0, pose_shape="uniform")
    b = bench.make_dataset(hand, n=40, noise_sigma_mm=3.0, occlusion_prob=0.1, seed=5,
                           interior_margin=0.0, pose_shape="uniform")
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.thetas, b.thetas)


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_make_dataset_matches_one_pass_oracle(hand, n):
    # the FK, the noise draw and the occlusion draw all run block by block
    benchmark = {"interior_margin": bench.benchmark_interior_margin(), "pose_shape": "central"}
    uniform = {"interior_margin": 0.0, "pose_shape": "uniform"}
    for skel, kwargs in ((hand, uniform), (bench.benchmark_skeleton(), benchmark)):
        args = (skel, n, 10.0, 0.1, 5)
        data = bench.make_dataset(*args, **kwargs)
        want = oracles.one_pass_make_dataset(*args, **kwargs)
        assert data.skeleton_name == want.skeleton_name
        for name in ("features", "thetas"):
            got, ref = getattr(data, name), getattr(want, name)
            assert np.array_equal(got, ref) and got.strides == ref.strides


def test_make_dataset_memory_peak_is_bounded(hand):
    # FK over all poses at once peaked at 2.2x the kept arrays at this n
    tracemalloc.start()
    try:
        data = bench.make_dataset(hand, n=20_000, noise_sigma_mm=10.0,
                                  occlusion_prob=0.1, seed=0,
                                  interior_margin=0.0, pose_shape="uniform")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = data.features.nbytes + data.thetas.nbytes
    assert peak < 1.5 * kept


@pytest.mark.parametrize("n", [2000, 20_000])
def test_make_dataset_temporaries_stay_under_a_mib(n):
    # reproduce's sampling; with 1024-pose FK blocks and the occlusion drawn
    # for all samples at once, the peak was 2.49 MiB above the kept arrays
    skel = bench.benchmark_skeleton()
    args = (10.0, 0.1, 5)
    kwargs = {"interior_margin": bench.benchmark_interior_margin(), "pose_shape": "central"}
    bench.make_dataset(skel, 1, *args, **kwargs)  # imports numpy.random, once
    tracemalloc.start()
    try:
        data = bench.make_dataset(skel, n, *args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = data.features.nbytes + data.thetas.nbytes
    assert peak - kept < 1 << 20


def test_make_dataset_rejects_bad_params(hand):
    with pytest.raises(ValueError):
        bench.make_dataset(hand, n=0, noise_sigma_mm=1.0, occlusion_prob=0.0, seed=1,
                           interior_margin=0.0, pose_shape="uniform")
    for sigma in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise sigma must be >= 0 and finite"):
            bench.make_dataset(hand, n=5, noise_sigma_mm=sigma, occlusion_prob=0.0, seed=1,
                               interior_margin=0.0, pose_shape="uniform")
    with pytest.raises(ValueError):
        bench.make_dataset(hand, n=5, noise_sigma_mm=1.0, occlusion_prob=1.0, seed=1,
                           interior_margin=0.0, pose_shape="uniform")


def test_evaluate_perfect_predictions(hand):
    data = bench.make_dataset(hand, n=30, noise_sigma_mm=5.0, occlusion_prob=0.0, seed=9,
                              interior_margin=0.0, pose_shape="uniform")
    report = bench.evaluate(hand, data.thetas, data.thetas)
    assert report.avg_joint_error_mm == 0.0
    assert report.avg_angle_error_deg == 0.0
    assert report.invalid_pose_fraction == 0.0
    assert all(frac == 1.0 for _, frac in report.max_error_curve)


def test_evaluate_single_bad_joint_curve(hand):
    n = 10
    data = bench.make_dataset(hand, n=n, noise_sigma_mm=0.0, occlusion_prob=0.0, seed=14,
                              interior_margin=0.0, pose_shape="uniform")
    ev = list(hand.eval_subset)
    preds = bench.eval_joints(hand, data.thetas)
    preds[0, 2] += np.array([20.0, 0.0, 0.0])  # one joint in one frame off by 20 mm
    report = bench.evaluate(hand, preds, data.thetas, fitted_poses=data.thetas)
    curve = dict(report.max_error_curve)
    assert curve[10.0] == 1.0 - 1.0 / n
    assert curve[25.0] == 1.0
    assert np.isclose(report.avg_joint_error_mm, 20.0 / (n * len(ev)))


def test_evaluate_curve_monotone(hand, rng):
    data = bench.make_dataset(hand, n=40, noise_sigma_mm=0.0, occlusion_prob=0.0, seed=3,
                              interior_margin=0.0, pose_shape="uniform")
    preds = data.thetas + rng.normal(scale=0.05, size=data.thetas.shape)
    report = bench.evaluate(hand, preds, data.thetas)
    fracs = [f for _, f in report.max_error_curve]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert all(0.0 <= f <= 1.0 for f in fracs)


def test_evaluate_invalid_fraction_counts_out_of_range_angles(hand):
    data = bench.make_dataset(hand, n=8, noise_sigma_mm=0.0, occlusion_prob=0.0, seed=4,
                              interior_margin=0.0, pose_shape="uniform")
    preds = data.thetas.copy()
    rot = np.flatnonzero(hand.dof_is_rotation)
    preds[0, rot[3]] = hand.dof_upper[rot[3]] + 0.05
    preds[5, rot[7]] = hand.dof_lower[rot[7]] - 0.02
    report = bench.evaluate(hand, preds, data.thetas)
    assert np.isclose(report.invalid_pose_fraction, 2.0 / 8.0)


def test_evaluate_translation_invariance(hand, rng):
    data = bench.make_dataset(hand, n=15, noise_sigma_mm=0.0, occlusion_prob=0.0, seed=6,
                              interior_margin=0.0, pose_shape="uniform")
    preds = data.thetas + rng.normal(scale=0.03, size=data.thetas.shape)
    base = bench.evaluate(hand, preds, data.thetas)
    shifted_preds = preds.copy()
    shifted_preds[:, :3] += np.array([40.0, -10.0, 25.0])
    shifted = data.thetas + np.concatenate([[40.0, -10.0, 25.0], np.zeros(23)])
    moved = bench.evaluate(hand, shifted_preds, shifted)
    assert np.isclose(moved.avg_joint_error_mm, base.avg_joint_error_mm, atol=1e-9)


def test_evaluate_angle_error_known_offset(hand):
    data = bench.make_dataset(hand, n=12, noise_sigma_mm=0.0, occlusion_prob=0.0, seed=8,
                              interior_margin=0.0, pose_shape="uniform")
    preds = data.thetas.copy()
    rot = np.flatnonzero(hand.dof_is_rotation)
    preds[:, rot[0]] += 0.1  # constant 0.1 rad on one rotation DOF
    report = bench.evaluate(hand, preds, data.thetas)
    expected = math.degrees(0.1) / len(rot)
    assert np.isclose(report.avg_angle_error_deg, expected, rtol=1e-6)


def test_evaluate_joint_predictions_without_fit_get_nan_angle_metrics(hand):
    data = bench.make_dataset(hand, n=4, noise_sigma_mm=0.0, occlusion_prob=0.0, seed=2,
                              interior_margin=0.0, pose_shape="uniform")
    report = bench.evaluate(hand, bench.eval_joints(hand, data.thetas), data.thetas)
    assert report.avg_joint_error_mm == 0.0
    assert math.isnan(report.avg_angle_error_deg)
    assert math.isnan(report.invalid_pose_fraction)


def test_evaluate_joint_predictions_with_fit(hand):
    data = bench.make_dataset(hand, n=3, noise_sigma_mm=0.0, occlusion_prob=0.0, seed=11,
                              interior_margin=0.0, pose_shape="uniform")
    joints = bench.eval_joints(hand, data.thetas)
    fitted = ik_pso.fit_batch(hand, joints, 150, 1).theta
    report = bench.evaluate(hand, joints, data.thetas, fitted_poses=fitted)
    assert report.avg_joint_error_mm == 0.0  # joint metrics use the joints directly
    assert report.invalid_pose_fraction == 0.0  # fitted poses are clamped
    assert math.isfinite(report.avg_angle_error_deg)


def test_report_serialization_roundtrip(hand):
    data = bench.make_dataset(hand, n=5, noise_sigma_mm=2.0, occlusion_prob=0.0, seed=3,
                              interior_margin=0.0, pose_shape="uniform")
    report = bench.evaluate(hand, data.thetas, data.thetas)
    d = report.to_dict()
    assert d["n_frames"] == 5
    assert isinstance(report.to_text(), str)
    assert d["max_error_curve"] == [(float(t), 1.0) for t in bench.THRESHOLDS_MM]


@pytest.mark.parametrize("shape", [(1, 26), (3, 5), (2, 26), (3, 26, 1)])
def test_evaluate_rejects_fitted_poses_of_another_shape(hand, shape):
    # a (1, D) set used to be broadcast over every frame, and (3, 5) raised
    # IndexError, which the command line does not map to exit 1
    data = bench.make_dataset(hand, n=3, noise_sigma_mm=0.0, occlusion_prob=0.0, seed=11,
                              interior_margin=0.0, pose_shape="uniform")
    joints = bench.eval_joints(hand, data.thetas)
    with pytest.raises(ValueError, match=re.escape(f"{shape} does not match (3, 26)")):
        bench.evaluate(hand, joints, data.thetas, fitted_poses=np.zeros(shape))
