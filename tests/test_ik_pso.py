import math

import numpy as np
import pytest

import oracles
from conftest import sample_in_bounds
from kinedeep import ik_pso
from kinedeep import skeleton as sk
from kinedeep.kinematics import forward_kinematics_batch


def eval_joints(skel, theta):
    return forward_kinematics_batch(
        skel, np.asarray(theta, dtype=float)[None, :],
        joint_indices=list(skel.eval_subset))[0]


def test_recovers_known_pose(hand, rng):
    theta = sample_in_bounds(hand, rng)
    target = eval_joints(hand, theta)
    result = ik_pso.fit_batch(hand, [target], ik_pso.PsoConfig(seed=11))[0]
    assert result.residual_mm < 1.0


def test_canonical_pose_from_center(hand):
    target = eval_joints(hand, np.zeros(hand.n_dofs))
    cfg = ik_pso.PsoConfig(seed=2, init_center=tuple(np.zeros(hand.n_dofs)))
    result = ik_pso.fit_batch(hand, [target], cfg)[0]
    assert result.residual_mm < 1e-6
    assert result.iterations_used <= 10
    assert result.converged


def test_result_respects_bounds(hand, rng):
    theta = sample_in_bounds(hand, rng)
    result = ik_pso.fit_batch(hand, [eval_joints(hand, theta)],
                              ik_pso.PsoConfig(seed=4))[0]
    assert np.array_equal(sk.clamp_pose(hand, result.theta), result.theta)


def test_deterministic_given_seed(hand, rng):
    target = eval_joints(hand, sample_in_bounds(hand, rng))
    cfg = ik_pso.PsoConfig(seed=21)
    a = ik_pso.fit_batch(hand, [target], cfg)[0]
    b = ik_pso.fit_batch(hand, [target], cfg)[0]
    assert np.array_equal(a.theta, b.theta)
    assert a.residual_mm == b.residual_mm
    assert a.iterations_used == b.iterations_used


def test_gbest_loss_non_increasing(hand, rng):
    # a restart phase keeps the incumbent unless it beats it, so a second
    # phase never worsens the fit of the first
    target = eval_joints(hand, sample_in_bounds(hand, rng))
    for polish_steps in (0, 50):
        losses = []
        for phases in (1, 2):
            cfg = ik_pso.PsoConfig(seed=8, polish_steps=polish_steps,
                                   iterations=75 * phases, phase_iterations=75)
            theta = ik_pso.fit_batch(hand, [target], cfg)[0].theta
            resid = eval_joints(hand, theta) - target
            losses.append(0.5 * float(np.sum(resid * resid)))
        assert losses[1] <= losses[0]


def test_rejects_bad_target_shape(hand):
    with pytest.raises(ValueError, match="eval subset"):
        ik_pso.fit_batch(hand, [np.zeros((3, 3))])


def test_rejects_non_finite_target(hand):
    target = np.zeros((len(hand.eval_subset), 3))
    target[2, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        ik_pso.fit_batch(hand, [target])


def test_fit_batch_identical_frames(hand, rng):
    target = eval_joints(hand, sample_in_bounds(hand, rng))
    cfg = ik_pso.PsoConfig(seed=13)
    results = ik_pso.fit_batch(hand, [target, target, target], cfg)
    for r in results[1:]:
        assert np.array_equal(r.theta, results[0].theta)
        assert r.residual_mm == results[0].residual_mm


def test_fit_batch_empty_rejected(hand):
    with pytest.raises(ValueError, match="at least one"):
        ik_pso.fit_batch(hand, [])


def test_warm_start_reduces_iterations(hand, rng):
    a = sample_in_bounds(hand, rng)
    b = sample_in_bounds(hand, rng)
    seq = np.array([a + (b - a) * t for t in np.linspace(0.0, 1.0, 20)])
    targets = forward_kinematics_batch(hand, seq,
                                       joint_indices=list(hand.eval_subset))
    cfg = ik_pso.PsoConfig(seed=3)
    cold = ik_pso.fit_batch(hand, targets, cfg, warm_start=False)
    warm = ik_pso.fit_batch(hand, targets, cfg, warm_start=True)
    assert sum(r.iterations_used for r in warm) < sum(r.iterations_used for r in cold)
    assert max(r.residual_mm for r in warm) < 1.0


def test_batch_mean_residual(hand, rng):
    thetas = sample_in_bounds(hand, rng, n=12)
    targets = forward_kinematics_batch(hand, thetas,
                                       joint_indices=list(hand.eval_subset))
    results = ik_pso.fit_batch(hand, targets, ik_pso.PsoConfig(seed=5))
    mean, var = ik_pso.residual_stats(results)
    assert mean < 1.0
    assert var >= 0.0


def off_model(skel, target):
    """`target` with one rigid-cluster joint displaced 30 mm: the palm cannot
    stretch, so no pose reproduces it (a displaced fingertip would not do:
    the finger can bend to reach it)."""
    broken = target.copy()
    base = [j.name for j in skel.joints].index("index_base")
    base_slot = list(skel.eval_subset).index(base)
    broken[base_slot] += np.array([30.0, 0.0, 0.0])
    return broken


def test_fit_pose_residual_grows_off_model(hand, rng):
    theta = sample_in_bounds(hand, rng)
    target = eval_joints(hand, theta)
    cfg = ik_pso.PsoConfig(seed=17)
    valid = ik_pso.fit_batch(hand, [target], cfg)[0]
    assert valid.residual_mm < 1.0
    invalid = ik_pso.fit_batch(hand, [off_model(hand, target)], cfg)[0]
    assert invalid.residual_mm > valid.residual_mm + 0.5


def test_pure_swarm_mode_still_works(hand, rng):
    # polish_steps=0 disables the gradient stage entirely
    theta = sample_in_bounds(hand, rng)
    target = eval_joints(hand, theta)
    result = ik_pso.fit_batch(hand, [target],
                              ik_pso.PsoConfig(seed=1, polish_steps=0))[0]
    assert result.residual_mm < 60.0  # derivative-free: coarse but sane
    assert np.array_equal(sk.clamp_pose(hand, result.theta), result.theta)


def planar_two_dof():
    rot_z = sk.DofSpec("rotation", "Z", -math.pi, math.pi)
    joints = [
        sk.JointSpec("root", None, 0.0),
        sk.JointSpec("b", 0, 40.0, dofs=(rot_z,)),
        sk.JointSpec("c", 1, 30.0, dofs=(rot_z,)),
        sk.JointSpec("tip", 2, 20.0),
    ]
    return sk.Skeleton(joints, name="planar2")


def test_two_dof_chain_matches_grid_search(rng):
    chain = planar_two_dof()
    truth = np.array([1.1, -2.3])
    target = forward_kinematics_batch(chain, truth[None])[0]

    # dense 721x721 oracle over both angle ranges (0.5 deg cells)
    grid = np.linspace(-math.pi, math.pi, 721)
    aa, bb = np.meshgrid(grid, grid, indexing="ij")
    poses = np.column_stack([aa.ravel(), bb.ravel()])
    best_loss, best_pose = np.inf, None
    for chunk in np.array_split(poses, 16):
        joints = forward_kinematics_batch(chain, chunk)
        loss = 0.5 * np.sum((joints - target[None]) ** 2, axis=(1, 2))
        k = int(np.argmin(loss))
        if loss[k] < best_loss:
            best_loss, best_pose = float(loss[k]), chunk[k]

    result = ik_pso.fit_batch(chain, [target], ik_pso.PsoConfig(seed=6))[0]
    joints = forward_kinematics_batch(chain, result.theta[None])
    pso_loss = 0.5 * float(np.sum((joints[0] - target) ** 2))
    angle_gap = np.degrees(np.abs(result.theta - best_pose))
    assert np.all(angle_gap <= 0.5) or pso_loss <= best_loss


# The frame-batched fitter against the one-frame-at-a-time reference in
# tests/oracles.py: every field of every frame must be equal, bit for bit.

SMALL = dict(swarm_size=16, iterations=60, phase_iterations=20)


def assert_same_fit(got, want):
    assert np.array_equal(got.theta, want.theta)
    assert got.residual_mm == want.residual_mm
    assert got.iterations_used == want.iterations_used
    assert got.converged == want.converged


def assert_matches_sequential(skel, targets, cfg, **kwargs):
    got = ik_pso.fit_batch(skel, targets, cfg, **kwargs)
    want = oracles.sequential_fit_batch(skel, targets, cfg, **kwargs)
    assert len(got) == len(want) == len(targets)
    for g, w in zip(got, want):
        assert_same_fit(g, w)
    return got


@pytest.fixture(scope="module")
def mixed_targets(hand):
    """Reachable frames, off-model ones and duplicates of both."""
    rng = np.random.default_rng(404)
    reach = forward_kinematics_batch(hand, sample_in_bounds(hand, rng, n=2),
                                     joint_indices=list(hand.eval_subset))
    far = [off_model(hand, t) for t in reach]
    return np.stack([reach[0], far[0], reach[1], reach[0], far[1], far[0]])


# "incumbent": a pair of particles for one iteration often never improves
# on the first incumbent, whose residual is then the result
@pytest.mark.parametrize("extra", [
    {}, {"polish_steps": 0},
    {"polish_steps": 0, "swarm_size": 2, "iterations": 1, "phase_iterations": 1},
], ids=["polish", "no_polish", "incumbent"])
def test_fit_batch_matches_sequential_fitter(hand, mixed_targets, extra):
    cfg = ik_pso.PsoConfig(seed=7, **{**SMALL, **extra})
    results = assert_matches_sequential(hand, mixed_targets, cfg)
    if not extra:
        # the batch mixes frames that stop early with full-budget ones
        assert results[0].converged and results[0].iterations_used < cfg.iterations
        assert not results[1].converged
        assert results[1].iterations_used == cfg.iterations


def test_fit_pose_with_init_center_matches_sequential_fitter(hand, rng):
    theta = sample_in_bounds(hand, rng, margin=0.1)
    target = eval_joints(hand, theta)
    for center in (theta + 0.05, sample_in_bounds(hand, rng)):
        for polish_steps in (50, 0):
            cfg = ik_pso.PsoConfig(seed=9, init_center=tuple(center),
                                   polish_steps=polish_steps, **SMALL)
            assert_same_fit(ik_pso.fit_batch(hand, [target], cfg)[0],
                            oracles.sequential_fit_pose(hand, target, cfg))


def test_warm_start_matches_sequential_fitter(hand, rng):
    a = sample_in_bounds(hand, rng)
    b = sample_in_bounds(hand, rng)
    seq = np.array([a + (b - a) * t for t in np.linspace(0.0, 1.0, 4)])
    targets = forward_kinematics_batch(hand, seq,
                                       joint_indices=list(hand.eval_subset))
    targets[2] = off_model(hand, targets[2])
    assert_matches_sequential(hand, targets, ik_pso.PsoConfig(seed=3, **SMALL),
                              warm_start=True)


def test_batch_larger_than_one_chunk_matches_sequential_fitter(hand, mixed_targets):
    cfg = ik_pso.PsoConfig(seed=5, swarm_size=2048, iterations=4,
                           phase_iterations=2, polish_steps=5)
    assert len(mixed_targets[:3]) * cfg.swarm_size > ik_pso._CHUNK_POSES
    assert_matches_sequential(hand, mixed_targets[:3], cfg)


def test_frame_alone_matches_frame_in_batch(hand, mixed_targets):
    cfg = ik_pso.PsoConfig(seed=11, **SMALL)
    batch = ik_pso.fit_batch(hand, mixed_targets, cfg)
    for target, in_batch in zip(mixed_targets, batch):
        assert_same_fit(ik_pso.fit_batch(hand, [target], cfg)[0], in_batch)


def test_singular_solve_matches_sequential_fitter(hand, mixed_targets,
                                                  monkeypatch):
    # Damped normal equations are never exactly singular on this hand, so
    # declare singular every system whose last entry has a chosen bit
    # pattern. The rule depends only on the matrix, so the reference sees
    # the same singular systems one at a time.
    real_solve = np.linalg.solve
    stacked_failures = []

    def flaky_solve(a, b):
        singular = np.asarray(a)[..., -1, -1].view(np.uint64) % 3 == 0
        if np.any(singular):
            if np.ndim(a) == 3:
                stacked_failures.append(int(np.sum(singular)))
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", flaky_solve)
    cfg = ik_pso.PsoConfig(seed=7, **SMALL)
    assert_matches_sequential(hand, mixed_targets, cfg)
    assert stacked_failures
