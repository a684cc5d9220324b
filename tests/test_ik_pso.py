import copy
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


def frame(result, f):
    """Frame f of a fit, as the fit of that frame alone would return it."""
    return ik_pso.FitResult(*(field[f:f + 1] for field in vars(result).values()))


def assert_same_fit(got, want):
    for name, field in vars(got).items():
        assert np.array_equal(field, getattr(want, name)), name


def test_recovers_known_pose(hand, rng):
    theta = sample_in_bounds(hand, rng)
    target = eval_joints(hand, theta)
    result = ik_pso.fit_batch(hand, [target], ik_pso.PsoConfig(seed=11))
    assert result.residual_mm[0] < 1.0


def test_result_respects_bounds(hand, rng):
    theta = sample_in_bounds(hand, rng)
    result = ik_pso.fit_batch(hand, [eval_joints(hand, theta)],
                              ik_pso.PsoConfig(seed=4))
    assert np.array_equal(sk.clamp_pose(hand, result.theta), result.theta)


def test_deterministic_given_seed(hand, rng):
    target = eval_joints(hand, sample_in_bounds(hand, rng))
    cfg = ik_pso.PsoConfig(seed=21)
    assert_same_fit(ik_pso.fit_batch(hand, [target], cfg),
                    ik_pso.fit_batch(hand, [target], cfg))


def test_gbest_loss_non_increasing(hand, rng):
    # a restart phase keeps the incumbent unless it beats it, so a second
    # phase never worsens the fit of the first
    target = eval_joints(hand, sample_in_bounds(hand, rng))
    for polish_steps in (0, 50):
        losses = []
        for phases in (1, 2):
            cfg = ik_pso.PsoConfig(seed=8, polish_steps=polish_steps,
                                   iterations=ik_pso.PHASE_ITERATIONS * phases)
            theta = ik_pso.fit_batch(hand, [target], cfg).theta[0]
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
    result = ik_pso.fit_batch(hand, [target, target, target], cfg)
    for f in (1, 2):
        assert_same_fit(frame(result, f), frame(result, 0))


def test_fit_batch_empty_rejected(hand):
    with pytest.raises(ValueError, match="at least one"):
        ik_pso.fit_batch(hand, [])


def test_batch_mean_residual(hand, rng):
    thetas = sample_in_bounds(hand, rng, n=12)
    targets = forward_kinematics_batch(hand, thetas,
                                       joint_indices=list(hand.eval_subset))
    result = ik_pso.fit_batch(hand, targets, ik_pso.PsoConfig(seed=5))
    # one array per field, row f for frame f
    assert result.theta.shape == (12, hand.n_dofs) and result.theta.dtype == np.float64
    assert result.residual_mm.shape == (12,) and result.residual_mm.dtype == np.float64
    assert result.iterations_used.shape == (12,) and result.iterations_used.dtype == np.int64
    assert result.converged.shape == (12,) and result.converged.dtype == np.bool_
    assert np.array_equal(result.converged, result.residual_mm <= ik_pso.TOL_MM)
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
    cfg = ik_pso.PsoConfig(seed=17)
    valid, invalid = ik_pso.fit_batch(hand, [target, off_model(hand, target)],
                                      cfg).residual_mm
    assert valid < 1.0
    assert invalid > valid + 0.5


def test_pure_swarm_mode_still_works(hand, rng):
    # polish_steps=0 disables the gradient stage entirely
    theta = sample_in_bounds(hand, rng)
    target = eval_joints(hand, theta)
    result = ik_pso.fit_batch(hand, [target],
                              ik_pso.PsoConfig(seed=1, polish_steps=0))
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

    theta = ik_pso.fit_batch(chain, [target], ik_pso.PsoConfig(seed=6)).theta[0]
    joints = forward_kinematics_batch(chain, theta[None])
    pso_loss = 0.5 * float(np.sum((joints[0] - target) ** 2))
    angle_gap = np.degrees(np.abs(theta - best_pose))
    assert np.all(angle_gap <= 0.5) or pso_loss <= best_loss


# The frame-batched fitter against the one-frame-at-a-time reference in
# tests/oracles.py: every field of every frame must be equal, bit for bit.

# a full phase, then a restart phase of 5 iterations
SMALL = dict(swarm_size=16, iterations=ik_pso.PHASE_ITERATIONS + 5)


def assert_matches_sequential(skel, targets, cfg):
    got = ik_pso.fit_batch(skel, targets, cfg)
    want = oracles.sequential_fit_batch(skel, targets, cfg)
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
@pytest.mark.parametrize("extra", [
    {}, {"polish_steps": 0},
    {"polish_steps": 0, "swarm_size": 2, "iterations": 1},
], ids=["polish", "no_polish", "incumbent"])
def test_fit_batch_matches_sequential_fitter(hand, mixed_targets, extra):
    cfg = ik_pso.PsoConfig(seed=7, **{**SMALL, **extra})
    result = assert_matches_sequential(hand, mixed_targets, cfg)
    if not extra:
        # the batch mixes frames that stop early with full-budget ones
        assert result.converged[0] and result.iterations_used[0] < cfg.iterations
        assert not result.converged[1]
        assert result.iterations_used[1] == cfg.iterations


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["stops_first", "stops_last"])
def test_frame_that_stops_early_keeps_its_stream(monkeypatch, order):
    # both frames draw from one shared generator until the reachable one
    # stops inside a phase; it then keeps a copy, while the other draws on
    real_detach = ik_pso._detach
    copies = []

    def detach(rngs, stopped, going_on):
        real_detach(rngs, stopped, going_on)
        copies.extend(rngs[f] is not rngs[g] for f in stopped for g in going_on)

    monkeypatch.setattr(ik_pso, "_detach", detach)
    chain = planar_two_dof()
    reachable = forward_kinematics_batch(chain, np.array([[1.1, -2.3]]))[0]
    targets = np.stack([reachable, 3.0 * reachable])[list(order)]
    cfg = ik_pso.PsoConfig(seed=0, **SMALL)
    result = assert_matches_sequential(chain, targets, cfg)
    reach, far = order.index(0), order.index(1)
    assert result.converged[reach]
    assert result.iterations_used[reach] < ik_pso.PHASE_ITERATIONS
    assert result.iterations_used[far] == cfg.iterations
    assert copies and all(copies)


def test_swarm_phase_streams_in_two_states_match_one_frame_at_a_time(hand, mixed_targets):
    # frames 0 and 1 share a stream; frame 2's is two draws further on
    cfg = ik_pso.PsoConfig(seed=7, **SMALL)
    obj = ik_pso._Objective(hand, mixed_targets[:3])
    shared, ahead = np.random.default_rng(cfg.seed), np.random.default_rng(cfg.seed)
    ahead.random(2)
    starts = [shared, shared, ahead]
    alone = [ik_pso._swarm_phase(obj, [copy.deepcopy(g)] * 3, np.array([f]), cfg, 20)
             for f, g in enumerate(starts)]
    together = ik_pso._swarm_phase(obj, list(starts), np.arange(3), cfg, 20)
    for f, one in enumerate(alone):
        for got, want in zip(together, one):
            assert np.array_equal(got[f], want[0])


def test_batch_larger_than_one_chunk_matches_sequential_fitter(hand, mixed_targets):
    cfg = ik_pso.PsoConfig(seed=5, swarm_size=2048, iterations=4, polish_steps=5)
    assert len(mixed_targets[:3]) * cfg.swarm_size > ik_pso._CHUNK_POSES
    assert_matches_sequential(hand, mixed_targets[:3], cfg)


def test_frame_alone_matches_frame_in_batch(hand, mixed_targets):
    cfg = ik_pso.PsoConfig(seed=11, **SMALL)
    batch = ik_pso.fit_batch(hand, mixed_targets, cfg)
    for f, target in enumerate(mixed_targets):
        assert_same_fit(ik_pso.fit_batch(hand, [target], cfg), frame(batch, f))


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
