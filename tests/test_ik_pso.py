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


# the fit budget of ik's default --iters
ITERATIONS = 300


def frame(result, f):
    """Frame f of a fit, as the fit of that frame alone would return it."""
    return ik_pso.FitResult(*(field[f:f + 1] for field in vars(result).values()))


def assert_same_fit(got, want):
    for name, field in vars(got).items():
        assert np.array_equal(field, getattr(want, name)), name


def test_recovers_known_pose(hand, rng):
    theta = sample_in_bounds(hand, rng)
    target = eval_joints(hand, theta)
    result = ik_pso.fit_batch(hand, [target], ITERATIONS, 11)
    assert result.residual_mm[0] < 1.0


def test_result_respects_bounds(hand, rng):
    theta = sample_in_bounds(hand, rng)
    result = ik_pso.fit_batch(hand, [eval_joints(hand, theta)],
                              ITERATIONS, 4)
    assert np.array_equal(sk.clamp_pose(hand, result.theta), result.theta)


def test_deterministic_given_seed(hand, rng):
    target = eval_joints(hand, sample_in_bounds(hand, rng))
    assert_same_fit(ik_pso.fit_batch(hand, [target], ITERATIONS, 21),
                    ik_pso.fit_batch(hand, [target], ITERATIONS, 21))


def test_gbest_loss_non_increasing(hand, rng, monkeypatch):
    # a restart phase keeps the incumbent unless it beats it, so a second
    # phase never worsens the fit of the first
    target = eval_joints(hand, sample_in_bounds(hand, rng))
    for polish_steps in (0, 50):
        monkeypatch.setattr(ik_pso, "POLISH_STEPS", polish_steps)
        losses = []
        for phases in (1, 2):
            theta = ik_pso.fit_batch(hand, [target], ik_pso.PHASE_ITERATIONS * phases,
                                     8).theta[0]
            resid = eval_joints(hand, theta) - target
            losses.append(0.5 * float(np.sum(resid * resid)))
        assert losses[1] <= losses[0]


def test_rejects_bad_target_shape(hand):
    with pytest.raises(ValueError, match="eval subset"):
        ik_pso.fit_batch(hand, [np.zeros((3, 3))], ITERATIONS, 0)


def test_rejects_non_finite_target(hand):
    target = np.zeros((len(hand.eval_subset), 3))
    target[2, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        ik_pso.fit_batch(hand, [target], ITERATIONS, 0)


def test_fit_batch_identical_frames(hand, rng):
    target = eval_joints(hand, sample_in_bounds(hand, rng))
    result = ik_pso.fit_batch(hand, [target, target, target], ITERATIONS, 13)
    for f in (1, 2):
        assert_same_fit(frame(result, f), frame(result, 0))


def test_fit_batch_empty_rejected(hand):
    with pytest.raises(ValueError, match="at least one"):
        ik_pso.fit_batch(hand, [], ITERATIONS, 0)


@pytest.mark.parametrize("iterations", [0, -1])
def test_fit_batch_refuses_iterations_below_1(hand, iterations):
    target = np.zeros((len(hand.eval_subset), 3))
    with pytest.raises(ValueError, match="^iterations must be >= 1$"):
        ik_pso.fit_batch(hand, [target], iterations, 0)


def test_batch_mean_residual(hand, rng):
    thetas = sample_in_bounds(hand, rng, n=12)
    targets = forward_kinematics_batch(hand, thetas,
                                       joint_indices=list(hand.eval_subset))
    result = ik_pso.fit_batch(hand, targets, ITERATIONS, 5)
    # one array per field, row f for frame f
    assert result.theta.shape == (12, hand.n_dofs) and result.theta.dtype == np.float64
    assert result.residual_mm.shape == (12,) and result.residual_mm.dtype == np.float64
    assert result.iterations_used.shape == (12,) and result.iterations_used.dtype == np.int64
    assert sorted(vars(result)) == ["iterations_used", "residual_mm", "theta"]
    mean, var = ik_pso.residual_stats(result)
    assert mean < 1.0
    assert var >= 0.0


def off_model(skel, target):
    """`target` with one rigid-cluster joint displaced 30 mm: the palm cannot
    stretch, so no pose reproduces it (a displaced fingertip would not do:
    the finger can bend to reach it)."""
    broken = target.copy()
    base = skel.joint_names.index("index_base")
    base_slot = list(skel.eval_subset).index(base)
    broken[base_slot] += np.array([30.0, 0.0, 0.0])
    return broken


def test_fit_pose_residual_grows_off_model(hand, rng):
    theta = sample_in_bounds(hand, rng)
    target = eval_joints(hand, theta)
    valid, invalid = ik_pso.fit_batch(hand, [target, off_model(hand, target)],
                                      ITERATIONS, 17).residual_mm
    assert valid < 1.0
    assert invalid > valid + 0.5


def test_pure_swarm_mode_still_works(hand, rng, monkeypatch):
    # no polish steps leaves the swarm alone
    monkeypatch.setattr(ik_pso, "POLISH_STEPS", 0)
    theta = sample_in_bounds(hand, rng)
    target = eval_joints(hand, theta)
    result = ik_pso.fit_batch(hand, [target], ITERATIONS, 1)
    assert result.residual_mm[0] < 60.0  # derivative-free: coarse but sane
    assert np.array_equal(sk.clamp_pose(hand, result.theta), result.theta)


def planar_two_dof():
    rot_z = {"kind": "rotation", "axis": "Z", "lower_deg": -180.0, "upper_deg": 180.0}
    return sk.skeleton_from_dict({"name": "planar2", "joints": [
        {"name": "root"},
        {"name": "b", "parent": "root", "bone_length_mm": 40.0, "dofs": [rot_z]},
        {"name": "c", "parent": "b", "bone_length_mm": 30.0, "dofs": [rot_z]},
        {"name": "tip", "parent": "c", "bone_length_mm": 20.0},
    ]})


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

    theta = ik_pso.fit_batch(chain, [target], ITERATIONS, 6).theta[0]
    joints = forward_kinematics_batch(chain, theta[None])
    pso_loss = 0.5 * float(np.sum((joints[0] - target) ** 2))
    angle_gap = np.degrees(np.abs(theta - best_pose))
    assert np.all(angle_gap <= 0.5) or pso_loss <= best_loss


# The frame-batched fitter against the one-frame-at-a-time reference in
# tests/oracles.py: every field of every frame must be equal, bit for bit.

# a full phase, then a restart phase of 5 iterations
SMALL_ITERATIONS = ik_pso.PHASE_ITERATIONS + 5


@pytest.fixture()
def small_swarm(monkeypatch):
    """Swarms of 16 particles."""
    monkeypatch.setattr(ik_pso, "SWARM_SIZE", 16)


def assert_matches_sequential(skel, targets, iterations, seed):
    got = ik_pso.fit_batch(skel, targets, iterations, seed)
    want = oracles.sequential_fit_batch(skel, targets, iterations, seed)
    assert len(got.theta) == len(want.theta) == len(targets)
    for f in range(len(targets)):
        assert_same_fit(frame(got, f), frame(want, f))
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
@pytest.mark.parametrize("polish_steps, swarm_size, iterations", [
    (ik_pso.POLISH_STEPS, 16, SMALL_ITERATIONS), (0, 16, SMALL_ITERATIONS), (0, 2, 1),
], ids=["polish", "no_polish", "incumbent"])
def test_fit_batch_matches_sequential_fitter(hand, mixed_targets, monkeypatch,
                                             polish_steps, swarm_size, iterations):
    monkeypatch.setattr(ik_pso, "POLISH_STEPS", polish_steps)
    monkeypatch.setattr(ik_pso, "SWARM_SIZE", swarm_size)
    result = assert_matches_sequential(hand, mixed_targets, iterations, 7)
    if polish_steps:
        # the batch mixes frames that stop early with full-budget ones
        assert result.residual_mm[0] <= ik_pso.TOL_MM
        assert result.iterations_used[0] < iterations
        assert result.residual_mm[1] > ik_pso.TOL_MM
        assert result.iterations_used[1] == iterations


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["stops_first", "stops_last"])
@pytest.mark.usefixtures("small_swarm")
def test_frame_that_stops_early_matches_its_fit_alone(order):
    # the reachable frame stops inside the first phase while the other draws
    # on from the same generator to the end of its budget
    chain = planar_two_dof()
    reachable = forward_kinematics_batch(chain, np.array([[1.1, -2.3]]))[0]
    targets = np.stack([reachable, 3.0 * reachable])[list(order)]
    result = assert_matches_sequential(chain, targets, SMALL_ITERATIONS, 0)
    reach, far = order.index(0), order.index(1)
    assert result.residual_mm[reach] <= ik_pso.TOL_MM
    assert result.iterations_used[reach] < ik_pso.PHASE_ITERATIONS
    assert result.iterations_used[far] == SMALL_ITERATIONS


@pytest.mark.usefixtures("small_swarm")
def test_frame_whose_swarm_met_tol_gets_no_second_phase(monkeypatch):
    # a polish accepts a lower loss, not a lower mean distance, so it may
    # leave the residual above TOL_MM; the frame is done all the same
    real_phase, real_polish = ik_pso._swarm_phase, ik_pso._gauss_newton_polish
    phases = []

    def swarm_phase(*args):
        phases.append(real_phase(*args))
        return phases[-1]

    def polish(*args):
        theta, value, residual = real_polish(*args)
        return theta, value, np.maximum(residual, 2 * ik_pso.TOL_MM)

    monkeypatch.setattr(ik_pso, "_swarm_phase", swarm_phase)
    monkeypatch.setattr(ik_pso, "_gauss_newton_polish", polish)
    chain = planar_two_dof()
    target = forward_kinematics_batch(chain, np.array([[1.1, -2.3]]))[0]
    result = ik_pso.fit_batch(chain, [target], SMALL_ITERATIONS, 0)
    assert len(phases) == 1 and phases[0][2][0] <= ik_pso.TOL_MM
    assert result.residual_mm[0] == 2 * ik_pso.TOL_MM
    assert result.iterations_used[0] < ik_pso.PHASE_ITERATIONS


def test_batch_larger_than_one_chunk_matches_sequential_fitter(hand, mixed_targets,
                                                              monkeypatch):
    monkeypatch.setattr(ik_pso, "POLISH_STEPS", 5)
    monkeypatch.setattr(ik_pso, "SWARM_SIZE", 2048)
    assert len(mixed_targets[:3]) * ik_pso.SWARM_SIZE > ik_pso._CHUNK_POSES
    assert_matches_sequential(hand, mixed_targets[:3], 4, 5)


@pytest.mark.usefixtures("small_swarm")
def test_frame_alone_matches_frame_in_batch(hand, mixed_targets):
    batch = ik_pso.fit_batch(hand, mixed_targets, SMALL_ITERATIONS, 11)
    for f, target in enumerate(mixed_targets):
        assert_same_fit(ik_pso.fit_batch(hand, [target], SMALL_ITERATIONS, 11),
                        frame(batch, f))


@pytest.mark.usefixtures("small_swarm")
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
    assert_matches_sequential(hand, mixed_targets, SMALL_ITERATIONS, 7)
    assert stacked_failures
