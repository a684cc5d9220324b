import io
import json
import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

import oracles
from kinedeep import bench, fileio
from kinedeep import loss as loss_mod
from kinedeep import regressor as reg
from kinedeep.kinematics import forward_kinematics_batch
from test_fileio import npy_header


def eval_targets(hand, thetas):
    return forward_kinematics_batch(hand, thetas, joint_indices=list(hand.eval_subset))


def small_net(monkeypatch, hand, mode, seed=7, hidden=(32,)):
    """reg.init's network of `mode` for `hand`, with hidden layers `hidden`
    in place of reg.HIDDEN_WIDTHS (for the rest of the test)."""
    monkeypatch.setattr(reg, "HIDDEN_WIDTHS", hidden)
    return reg.init(hand, mode, seed)


def hand_set_run(weights, biases, gains):
    """An ours TrainRun of the given layers and output gains, trained for
    no skeleton."""
    return reg.TrainRun("ours", [np.array(w, dtype=float) for w in weights],
                        [np.array(b, dtype=float) for b in biases], tuple(gains), [], None)


def zero_velocity(run):
    """Momentum buffers at zero, as train starts them."""
    return [np.zeros_like(p) for p in run.weights + run.biases]


# --- init ---------------------------------------------------------------------

def test_init_deterministic(hand):
    a = reg.init(hand, "ours", 17)
    b = reg.init(hand, "ours", 17)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_shapes(hand):
    # the network reproduce trains: 3 * n_eval inputs, HIDDEN_WIDTHS, the
    # mode's output width and gains, no history, the skeleton
    assert reg.HIDDEN_WIDTHS == (256, 256)
    for mode, width in (("ours", 26), ("direct_joint", 42)):
        run = reg.init(hand, mode, 0)
        assert [w.shape for w in run.weights] == [(42, 256), (256, 256), (256, width)]
        assert [b.shape for b in run.biases] == [(256,), (256,), (width,)]
        assert run.output_scale == reg.MODES[mode].output_scale(hand)
        assert (run.mode, run.history, run.skeleton) == (mode, [], hand)


def test_init_zero_biases_and_bounded_weights(hand):
    run = reg.init(hand, "ours", 5)
    for b in run.biases:
        assert np.array_equal(b, np.zeros_like(b))
    for w in run.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        assert np.all(np.abs(w) <= bound)


# --- forward ------------------------------------------------------------------

def test_forward_zero_weights_zero_output(hand, monkeypatch):
    run = small_net(monkeypatch, hand, "ours", hidden=(8,))
    for w in run.weights:
        w[:] = 0.0
    out = reg.forward(run, np.ones((4, 42)))
    assert np.array_equal(out, np.zeros((4, 26)))


def test_forward_hand_computed_example():
    # one hidden unit: out = g * (w2 * relu(w1 . x + b1) + b2), with x the
    # features clipped to +-400 mm and scaled by 0.01
    assert (reg.INPUT_CLIP_MM, reg.INPUT_SCALE) == (400.0, 0.01)
    run = hand_set_run([[[2.0], [-1.0]], [[3.0]]], [[0.5], [-1.0]], (2.0,))
    x = np.array([[100.0, 100.0], [0.0, 100.0], [900.0, 0.0]])
    # sample 1: relu(2 - 1 + 0.5) = 1.5 -> 2 * (3*1.5 - 1) = 7
    # sample 2: relu(-1 + 0.5) = 0 -> 2 * -1 = -2
    # sample 3: 900 mm clips to 400: relu(8 + 0.5) = 8.5 -> 2 * (3*8.5 - 1) = 49
    out = reg.forward(run, x)
    assert np.allclose(out, [[7.0], [-2.0], [49.0]])


def test_forward_relu_blocks_negative_preactivations():
    run = hand_set_run([[[1.0]], [[5.0]]], [[0.0], [0.0]], (1.0,))
    assert reg.forward(run, np.array([[-300.0]]))[0, 0] == 0.0


def test_forward_rejects_width_mismatch(hand, monkeypatch):
    run = small_net(monkeypatch, hand, "ours", hidden=(8,))
    with pytest.raises(ValueError, match="width"):
        reg.forward(run, np.ones((2, 43)))


# --- gradients ----------------------------------------------------------------

def fd_weight_grads(run, loss_fn, h=1e-5):
    grads = []
    for W in run.weights + run.biases:
        g = np.zeros_like(W)
        it = np.nditer(W, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = W[i]
            W[i] = orig + h
            up = loss_fn()
            W[i] = orig - h
            dn = loss_fn()
            W[i] = orig
            g[i] = (up - dn) / (2 * h)
        grads.append(g)
    return grads


def test_backward_through_model_matches_finite_differences(hand, rng, monkeypatch):
    # ours's own output gains, on features in mm
    run = small_net(monkeypatch, hand, "ours", seed=3, hidden=(8,))
    feats = rng.normal(scale=100.0, size=(2, 42))
    thetas = rng.uniform(hand.dof_lower, hand.dof_upper, size=(2, 26))
    targets = eval_targets(hand, thetas)
    value, (gw, gb) = reg.backward_through_model(run, feats, targets, hand)
    fd = fd_weight_grads(run, lambda: reg.backward_through_model(run, feats, targets, hand)[0])
    worst = max(oracles.rel_err(a, f) for a, f in zip(gw + gb, fd))
    assert worst < 1e-5


def test_backward_direct_matches_finite_differences(hand, rng, monkeypatch):
    run = small_net(monkeypatch, hand, "direct_parameter", seed=4, hidden=(8,))
    feats = rng.normal(scale=100.0, size=(3, 42))
    targets = rng.normal(size=(3, 26))
    value, (gw, gb) = reg.backward_direct(run, feats, targets)
    fd = fd_weight_grads(run, lambda: reg.backward_direct(run, feats, targets)[0])
    worst = max(oracles.rel_err(a, f) for a, f in zip(gw + gb, fd))
    assert worst < 1e-5


def test_perfect_prediction_zero_loss_and_grads(hand, rng, monkeypatch):
    run = small_net(monkeypatch, hand, "ours_no_phy", seed=3, hidden=(8,))
    feats = rng.normal(size=(2, 42))
    poses = reg.forward(run, feats)
    poses = np.clip(poses, hand.dof_lower, hand.dof_upper)  # keep in range
    # rig the network output to be exactly in-range poses via bias shift
    run.biases[-1] += 0.0
    out = reg.forward(run, feats)
    targets = eval_targets(hand, out)
    value, (gw, gb) = reg.backward_through_model(run, feats, targets, hand)
    assert value == 0.0
    for g in gw + gb:
        assert np.array_equal(g, np.zeros_like(g))


def test_ours_is_no_phy_plus_the_hinge(hand, rng, monkeypatch):
    # the same network: ours's loss and gradients are ours_no_phy's plus
    # those of the angle-range hinge at weight 1, its row's penalty
    assert reg.MODES["ours"].penalty == 1.0
    feats = rng.normal(scale=300.0, size=(4, 42))
    thetas = rng.uniform(hand.dof_lower, hand.dof_upper, size=(4, 26))
    targets = eval_targets(hand, thetas)
    a = small_net(monkeypatch, hand, "ours", seed=9, hidden=(8,))
    b = small_net(monkeypatch, hand, "ours_no_phy", seed=9, hidden=(8,))
    va, ga = reg.backward_through_model(a, feats, targets, hand)
    vb, gb_ = reg.backward_through_model(b, feats, targets, hand)
    acts, pre = oracles.mlp_forward_acts(a, feats)
    phy_vals, phy_grads = loss_mod.phy_loss_batch(hand, acts[-1])
    assert phy_vals.min() > 0.0  # every pose is out of range somewhere
    hinge_w, hinge_b = oracles.mlp_backprop(a, acts, pre, phy_grads / len(feats))
    assert va == pytest.approx(vb + phy_vals.mean(), rel=1e-12)
    for x, y, h in zip(ga[0] + ga[1], gb_[0] + gb_[1], hinge_w + hinge_b):
        assert np.allclose(x, y + h, rtol=1e-12, atol=1e-12)


def test_direct_modes_reject_model_backward(hand, monkeypatch):
    run = small_net(monkeypatch, hand, "direct_joint", hidden=(8,))
    with pytest.raises(ValueError, match="kinematic"):
        reg.backward_through_model(run, np.zeros((1, 42)), np.zeros((1, 14, 3)), hand)


def test_backward_direct_zero_residual(hand, rng, monkeypatch):
    run = small_net(monkeypatch, hand, "direct_joint", seed=2, hidden=(7,))
    feats = rng.normal(size=(3, 42))
    targets = reg.forward(run, feats)
    value, (gw, gb) = reg.backward_direct(run, feats, targets)
    assert value == 0.0
    for g in gw + gb:
        assert np.array_equal(g, np.zeros_like(g))


# --- naive MLP oracle -----------------------------------------------------------

def oracle_case(monkeypatch, hand, kind, mode):
    """A small network of `mode` and features of one `kind`: occlusion
    sentinels, exact-zero pre-activations, or a row that overflows."""
    spec = reg.MODES[mode]
    data = bench.make_dataset(hand, n=24, noise_sigma_mm=2.0,
                              occlusion_prob=0.3 if kind == "occluded" else 0.0, seed=6,
                              interior_margin=0.0, pose_shape="uniform")
    features = data.features.copy()
    run = small_net(monkeypatch, hand, mode, seed=8, hidden=(16, 16))
    if kind == "zero_preact":
        run.weights[0][:, 3] = 0.0
        run.weights[1][:, [2, 5]] = -0.0
        run.biases[1][5] = -0.0
    if kind == "overflow":
        # feature 0 is zero but in row 4, where it sits at the clip (4.0
        # once scaled): a huge first-layer weight on it overflows that row
        features[:, 0] = 0.0
        features[4, 0] = 1e308
        run.weights[0][0] = 1e308
    if spec.theta_targets:
        targets = data.thetas
    else:
        targets = bench.eval_joints(hand, data.thetas).reshape(len(data), -1)
    return run, features, targets


def oracle_gradients(run, acts, pre, targets, hand):
    """Loss (lambda 1 for the kinematic modes) and gradients from the
    oracle's activations and pre-activations."""
    out, n = acts[-1], len(acts[0])
    if reg.MODES[run.mode].through_fk:
        jt_vals, jt_grads = loss_mod.joint_loss_batch(hand, out, targets)
        phy_vals, phy_grads = loss_mod.phy_loss_batch(hand, out)
        value = float((jt_vals + phy_vals).mean())
        delta = (jt_grads + phy_grads) / n
    else:
        resid = out - targets
        value = float(0.5 * np.einsum("nk,nk->n", resid, resid).mean())
        delta = resid / n
    return value, oracles.mlp_backprop(run, acts, pre, delta)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["occluded", "zero_preact", "overflow"])
@pytest.mark.parametrize("mode", ["ours", "direct_joint"])
def test_mlp_matches_naive_oracle_bit_for_bit(hand, monkeypatch, kind, mode):
    run, features, targets = oracle_case(monkeypatch, hand, kind, mode)
    original = features.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        acts, pre = oracles.mlp_forward_acts(run, features)
        assert same_bits(reg.forward(run, features), acts[-1])
        if kind == "overflow":
            # the row reaches the first hidden layer as +-inf, the second as NaN
            assert np.isinf(pre[0]).any() and np.isnan(pre[1]).any()
        if kind == "zero_preact":
            assert (pre[0][:, 3] == 0.0).all() and (pre[1][:, [2, 5]] == 0.0).all()
        if mode == "ours" and kind == "overflow":
            # a non-finite output stops training before the backward pass
            with pytest.raises(reg.NumericalError, match="non-finite network output"):
                reg.backward_through_model(run, features, targets, hand)
        else:
            want_value, (want_w, want_b) = oracle_gradients(run, acts, pre, targets, hand)
            if mode == "ours":
                value, (got_w, got_b) = reg.backward_through_model(
                    run, features, targets, hand)
            else:
                value, (got_w, got_b) = reg.backward_direct(run, features, targets)
            assert same_bits(np.float64(value), np.float64(want_value))
            assert all(same_bits(g, w) for g, w in zip(got_w + got_b, want_w + want_b))
    assert same_bits(features, original)  # the caller's features are never written


# --- sgd ----------------------------------------------------------------------

def test_sgd_first_step_is_plain_descent(hand, monkeypatch):
    # the velocity starts at zero, so the first step is -lr*g at any momentum
    run = small_net(monkeypatch, hand, "direct_parameter", seed=1, hidden=())
    w0 = [w.copy() for w in run.weights]
    grads = ([np.ones_like(run.weights[0])], [np.ones_like(run.biases[0])])
    reg.sgd_step(run, grads, zero_velocity(run), 0.1)
    assert np.allclose(run.weights[0], w0[0] - 0.1)


def test_sgd_two_steps_constant_gradient_closed_form(hand, monkeypatch):
    # displacement after two steps with constant gradient g: -lr*g*(2 + mu)
    run = small_net(monkeypatch, hand, "direct_parameter", seed=1, hidden=())
    w0 = [w.copy() for w in run.weights]
    g = np.full_like(run.weights[0], 2.0)
    grads = ([g], [np.zeros_like(run.biases[0])])
    lr, mu = 0.05, 0.9  # the reference momentum, reg.MOMENTUM
    velocity = zero_velocity(run)
    reg.sgd_step(run, grads, velocity, lr)
    reg.sgd_step(run, grads, velocity, lr)
    assert np.allclose(run.weights[0], w0[0] - lr * g * (2.0 + mu))


def test_sgd_step_shape_mismatch(hand, monkeypatch):
    run = small_net(monkeypatch, hand, "direct_parameter", seed=1, hidden=())
    grads = ([np.ones((4, 4))], [np.ones(26)])
    with pytest.raises(ValueError, match="shape"):
        reg.sgd_step(run, grads, zero_velocity(run), 1e-7)


# --- training -----------------------------------------------------------------

def discard(record):
    """An on_epoch that keeps no record."""


def small_dataset(hand, n=32, seed=5):
    return bench.make_dataset(hand, n=n, noise_sigma_mm=2.0, occlusion_prob=0.0, seed=seed,
                              interior_margin=0.0, pose_shape="uniform")


def one_stage_at(monkeypatch, lr, mode):
    """reg.train with one stage, at rate `lr` for `mode`, for every epoch."""
    monkeypatch.setattr(reg, "STAGES", ((lr / reg.MODES[mode].base_lr, 1.0),))


@pytest.fixture()
def one_stage(monkeypatch):
    """reg.train with one stage, at a tenth of the mode's base rate for
    every epoch: 1e-7 for every mode but direct_parameter."""
    monkeypatch.setattr(reg, "STAGES", ((0.1, 1.0),))


@pytest.fixture(autouse=True)
def batches_of_8(monkeypatch):
    """Every test here trains in mini-batches of 8, unless it sets its own
    reg.BATCH_SIZE."""
    monkeypatch.setattr(reg, "BATCH_SIZE", 8)


# the shuffle seed of every test here that trains
SEED = 7


@pytest.mark.usefixtures("one_stage")
def test_train_deterministic(hand, monkeypatch):
    data = small_dataset(hand)
    runs = []
    for _ in range(2):
        run = small_net(monkeypatch, hand, "ours")
        reg.train(run, data, hand, 5, SEED, val=data, on_epoch=discard)
        runs.append(run)
    for wa, wb in zip(runs[0].weights, runs[1].weights):
        assert np.array_equal(wa, wb)
    assert len(runs[0].history) == len(runs[1].history)
    for ha, hb in zip(runs[0].history, runs[1].history):
        assert ha == hb
    # the shuffle follows train's seed, not the seed init drew the weights from
    other = reg.train(small_net(monkeypatch, hand, "ours"), data, hand, 5, SEED + 1,
                      val=None, on_epoch=discard)
    assert not np.array_equal(other.weights[0], runs[0].weights[0])


@pytest.mark.usefixtures("one_stage")
def test_train_history_length_and_val_metrics(hand, monkeypatch):
    data = small_dataset(hand)
    run = small_net(monkeypatch, hand, "ours")
    reg.train(run, data, hand, 4, SEED, val=data, on_epoch=discard)
    assert len(run.history) == 4
    for h in run.history:
        assert np.isfinite(h.train_loss)
        assert np.isfinite(h.val_joint_err_mm)
        assert np.isfinite(h.val_angle_err_deg)
        assert 0.0 <= h.val_invalid_frac <= 1.0


@pytest.mark.parametrize("mode", ["ours", "direct_joint"])
@pytest.mark.usefixtures("one_stage")
def test_train_labels_the_validation_set_once(hand, monkeypatch, mode):
    # each epoch's validation pass labels the validation set once, from the
    # poses it scores (bench.evaluate), so no label can come from elsewhere
    data, val = small_dataset(hand), small_dataset(hand, n=24, seed=6)
    real = bench.eval_joints
    val_passes = []

    def counting(skel, thetas):
        if thetas is val.thetas:
            val_passes.append(1)
        return real(skel, thetas)

    monkeypatch.setattr(bench, "eval_joints", counting)
    for calls in (1, 2):
        reg.train(small_net(monkeypatch, hand, mode, hidden=(16,)), data, hand, 4, SEED,
                  val=val, on_epoch=discard)
        assert len(val_passes) == 4 * calls


@pytest.mark.parametrize("mode", reg.MODES)
def test_on_epoch_records_each_epoch(hand, monkeypatch, mode):
    # staged with val: each epoch's record carries its stage lr, the history
    # row's loss and val metrics, and the norm of its last batch gradient
    data = small_dataset(hand, n=20)
    spec = reg.MODES[mode]
    epochs = 6
    plain = reg.train(small_net(monkeypatch, hand, mode, hidden=(16,)), data, hand, epochs,
                      SEED, val=data, on_epoch=discard)

    backward = "backward_through_model" if spec.through_fk else "backward_direct"
    real = getattr(reg, backward)
    last_grads = []

    def keep_grads(*args, **kwargs):
        value, grads = real(*args, **kwargs)
        last_grads.append(grads)
        return value, grads

    monkeypatch.setattr(reg, backward, keep_grads)
    records = []
    run = reg.train(small_net(monkeypatch, hand, mode, hidden=(16,)), data, hand, epochs,
                    SEED, val=data, on_epoch=records.append)
    # the records leave training untouched
    assert all(np.array_equal(a, b) for a, b in zip(run.weights, plain.weights))
    assert np.array_equal([astuple(h) for h in run.history],
                          [astuple(h) for h in plain.history], equal_nan=True)

    stage_lrs = [spec.base_lr * f for f, e in reg.STAGES
                 for _ in range(max(1, round(e * epochs)))]
    assert [r["epoch"] for r in records] == list(range(len(run.history)))
    assert [r["lr"] for r in records] == stage_lrs[:len(records)]
    batches = -(-len(data) // reg.BATCH_SIZE)
    for record, stats in zip(records, run.history):
        assert set(record) == {"epoch", "lr", "train_loss", "grad_norm",
                               "val_joint_err_mm", "val_angle_err_deg",
                               "val_invalid_frac", "seconds"}
        assert record["train_loss"] == stats.train_loss
        assert record["val_joint_err_mm"] == stats.val_joint_err_mm
        if spec.emits_pose:
            assert record["val_angle_err_deg"] == stats.val_angle_err_deg
            assert record["val_invalid_frac"] == stats.val_invalid_frac
        else:  # no angles without a fit: NaN in history, None in the record
            assert record["val_angle_err_deg"] is None
            assert record["val_invalid_frac"] is None
        grads = last_grads[(record["epoch"] + 1) * batches - 1]
        want = np.sqrt(sum(np.sum(g * g) for g in grads[0] + grads[1]))
        assert record["grad_norm"] == pytest.approx(want, rel=1e-12)
        assert record["seconds"] >= 0.0
    json.dumps(records, allow_nan=False)  # strict JSON


@pytest.mark.usefixtures("one_stage")
def test_on_epoch_record_without_val_has_no_val_metrics(hand, monkeypatch):
    data = small_dataset(hand, n=16)
    records = []
    reg.train(small_net(monkeypatch, hand, "ours"), data, hand,
              2, SEED, val=None, on_epoch=records.append)
    assert [set(r) for r in records] == [
        {"epoch", "lr", "train_loss", "grad_norm", "seconds"}] * 2


def test_train_refuses_epochs_below_1(hand, monkeypatch):
    data = small_dataset(hand)
    run = small_net(monkeypatch, hand, "ours")
    with pytest.raises(ValueError, match="^epochs must be >= 1$"):
        reg.train(run, data, hand, 0, SEED, val=None, on_epoch=discard)


def test_train_empty_dataset_rejected(hand, monkeypatch):
    data = small_dataset(hand)
    empty = replace(data, features=data.features[:0], thetas=data.thetas[:0])
    run = small_net(monkeypatch, hand, "ours")
    with pytest.raises(ValueError, match="empty"):
        reg.train(run, empty, hand, 5, SEED, val=None, on_epoch=discard)


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning",
                            "ignore:invalid value encountered in subtract:RuntimeWarning")
def test_train_non_finite_loss_reports_epoch_and_batch(hand, monkeypatch):
    data = small_dataset(hand)
    run = small_net(monkeypatch, hand, "ours")
    one_stage_at(monkeypatch, 5.0, "ours")  # guaranteed blow-up
    with pytest.raises(reg.NumericalError, match="epoch"):
        reg.train(run, data, hand, 3, SEED, val=None, on_epoch=discard)


@pytest.mark.usefixtures("one_stage")
def test_train_non_finite_gradient_reports_its_batch(hand, monkeypatch):
    # a finite loss with an overflowed gradient: the error names that batch,
    # and the bad update never reaches the weights
    data = small_dataset(hand)  # 4 batches of 8 per epoch
    run = small_net(monkeypatch, hand, "ours")
    real = reg.backward_through_model
    calls = []

    def overflowing(*args, **kwargs):
        value, (grads_w, grads_b) = real(*args, **kwargs)
        calls.append(value)
        if len(calls) == 7:  # epoch 1, batch 2
            grads_w[0][0, 0] = np.inf
        return value, (grads_w, grads_b)

    monkeypatch.setattr(reg, "backward_through_model", overflowing)
    with pytest.raises(reg.NumericalError,
                       match="^non-finite gradient at epoch 1 batch 2$"):
        reg.train(run, data, hand, 3, SEED, val=None, on_epoch=discard)
    assert np.isfinite(calls[-1])
    assert all(np.isfinite(w).all() for w in run.weights)


@pytest.mark.usefixtures("one_stage")
def test_mode_equivalence_ours_lambda_zero(hand, monkeypatch):
    # ours's row at penalty 0 is ours_no_phy's, and trains the same weights
    monkeypatch.setitem(reg.MODES, "ours", replace(reg.MODES["ours"], penalty=0.0))
    assert reg.MODES["ours"] == reg.MODES["ours_no_phy"]
    data = small_dataset(hand)
    a = small_net(monkeypatch, hand, "ours")
    reg.train(a, data, hand, 5, SEED, val=None, on_epoch=discard)
    b = small_net(monkeypatch, hand, "ours_no_phy")
    reg.train(b, data, hand, 5, SEED, val=None, on_epoch=discard)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_loss_non_increasing_small_lr_frozen_batch(hand, rng, monkeypatch):
    # descent sanity: 10 steps at lr 1e-5, momentum 0, one frozen batch.
    # Targets sit near the current outputs (smooth mid-training regime);
    # blast-off distances need warm-up rates, which is not what this checks.
    data = small_dataset(hand, n=8)
    run = small_net(monkeypatch, hand, "ours_no_phy")
    out = reg.forward(run, data.features)
    near = np.clip(out + rng.normal(scale=0.01, size=out.shape),
                   hand.dof_lower, hand.dof_upper)
    targets = eval_targets(hand, near).reshape(len(data), -1)
    losses = []
    monkeypatch.setattr(reg, "MOMENTUM", 0.0)
    velocity = zero_velocity(run)
    for _ in range(10):
        value, grads = reg.backward_through_model(run, data.features, targets, hand)
        losses.append(value)
        reg.sgd_step(run, grads, velocity, 1e-5)
    value, _ = reg.backward_through_model(run, data.features, targets, hand)
    losses.append(value)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_single_sample_overfit(hand, monkeypatch):
    data = bench.make_dataset(hand, n=1, noise_sigma_mm=0.0, occlusion_prob=0.0, seed=42,
                              interior_margin=0.0, pose_shape="uniform")
    run = small_net(monkeypatch, hand, "ours_no_phy")
    one_stage_at(monkeypatch, 2e-5, "ours_no_phy")
    monkeypatch.setattr(reg, "BATCH_SIZE", 1)
    reg.train(run, data, hand, 2000, SEED, val=None, on_epoch=discard)
    err, _, _ = reg.validation_stats(run, data, hand)
    assert err < 1.0


@pytest.mark.parametrize("mode, width", [("ours", 26), ("direct_joint", 42)])
def test_validation_stats_are_evaluate_without_thresholds(hand, monkeypatch, mode, width):
    # evaluate's metrics, less its max-error curve
    data = bench.make_dataset(hand, n=40, noise_sigma_mm=3.0, occlusion_prob=0.1, seed=6,
                              interior_margin=0.0, pose_shape="uniform")
    run = small_net(monkeypatch, hand, mode, seed=1, hidden=(16,))
    assert run.weights[-1].shape == (16, width)
    report = bench.evaluate(hand, reg.predict(run, data.features, hand), data.thetas)
    want = (report.avg_joint_error_mm, report.avg_angle_error_deg,
            report.invalid_pose_fraction)
    got = reg.validation_stats(run, data, hand)
    assert np.array(got).tobytes() == np.array(want).tobytes()  # NaN included


def test_direct_joint_training_runs(hand, monkeypatch):
    data = small_dataset(hand)
    run = small_net(monkeypatch, hand, "direct_joint")
    one_stage_at(monkeypatch, reg.MODES["direct_joint"].base_lr, "direct_joint")
    reg.train(run, data, hand, 3, SEED, val=data, on_epoch=discard)
    assert len(run.history) == 3
    assert np.isfinite(run.history[-1].val_joint_err_mm)
    assert np.isnan(run.history[-1].val_angle_err_deg)
    assert np.isnan(run.history[-1].val_invalid_frac)


def test_validation_never_changes_training(hand, monkeypatch):
    # a 60-epoch stage at a rate so small that the validation error is flat:
    # the run with a val set trains every epoch, to the bits of the run
    # without one
    data = small_dataset(hand, n=16)
    one_stage_at(monkeypatch, 1e-16, "ours_no_phy")
    with_val, without = (small_net(monkeypatch, hand, "ours_no_phy")
                         for _ in range(2))
    reg.train(with_val, data, hand, 60, SEED, val=data, on_epoch=discard)
    reg.train(without, data, hand, 60, SEED, val=None, on_epoch=discard)
    assert len(with_val.history) == len(without.history) == 60
    for got, want in ((with_val.weights, without.weights),
                      (with_val.biases, without.biases)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert ([h.train_loss for h in with_val.history]
            == [h.train_loss for h in without.history])


@pytest.mark.parametrize("mode", ["ours", "direct_parameter"])
def test_staged_train_matches_per_stage_oracle(hand, monkeypatch, mode):
    # ours with val, over a main stage of 45 epochs; direct_parameter
    # without; both run every stage in full
    data = small_dataset(hand)
    spec = reg.MODES[mode]
    if mode == "ours":
        val, epochs = small_dataset(hand, n=16, seed=6), 100
    else:
        val, epochs = None, 12
    oracle = small_net(monkeypatch, hand, mode)
    ran = oracles.per_stage_train(oracle, data, hand, spec.base_lr, epochs, SEED,
                                  val_data=val)
    assert ran == [max(1, int(round(f * epochs))) for _, f in reg.STAGES]
    run = small_net(monkeypatch, hand, mode)
    reg.train(run, data, hand, epochs, SEED, val=val, on_epoch=discard)
    for got, want in ((run.weights, oracle.weights), (run.biases, oracle.biases)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal([astuple(h) for h in run.history],
                          [astuple(h) for h in oracle.history], equal_nan=True)


@pytest.mark.usefixtures("one_stage")
def test_checkpoint_roundtrip(hand, monkeypatch, tmp_path):
    data = small_dataset(hand)
    run = small_net(monkeypatch, hand, "ours")
    reg.train(run, data, hand, 2, SEED, val=data, on_epoch=discard)
    path = tmp_path / "ckpt.json"
    reg.save_checkpoint(run, path)
    again = reg.load_checkpoint(path)
    assert (again.mode, again.output_scale) == (run.mode, run.output_scale)
    assert again.skeleton.to_dict() == hand.to_dict() and run.skeleton is hand
    for got, want in ((again.weights, run.weights), (again.biases, run.biases)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert again.history == run.history
    assert np.array_equal(reg.forward(again, data.features), reg.forward(run, data.features))
    # the same run saves to the same bytes, and line 1 is the JSON header
    # (the layers and no momentum follow it as .npy records)
    again_path = tmp_path / "again.json"
    reg.save_checkpoint(run, again_path)
    assert again_path.read_bytes() == path.read_bytes()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    # the five keys, in this order: the layer widths are the records'
    # shapes, and the gains follow from the skeleton and the mode
    assert list(header) == ["format", "version", "skeleton", "mode", "history"]
    assert header["version"] == 6
    # every key written is a checked field: one never checked cannot come
    # back, and neither can a checked field that is never written (the
    # skeleton is checked by fileio.skeleton_of)
    fields = [name for name, _, _ in reg._HEADER_FIELDS]
    assert sorted(header) == sorted(fields + ["format", "version", "skeleton"])


@pytest.mark.parametrize("mode", reg.MODES)
def test_loaded_gains_and_outputs_are_inits(hand, tmp_path, rng, mode):
    # the gains are derived again from the stored skeleton config, to
    # init's bits; the benchmark skeleton differs from the hand only in its
    # DOF bounds, and its gains are the hand's, so they do not depend on them
    bench_skel = bench.benchmark_skeleton()
    assert reg.MODES[mode].output_scale(bench_skel) == reg.MODES[mode].output_scale(hand)
    features = rng.normal(scale=100.0, size=(64, 42))
    for skel in (hand, bench_skel):
        run = reg.init(skel, mode, 3)
        path = tmp_path / f"{skel.name}.ckpt"
        reg.save_checkpoint(run, path)
        again = reg.load_checkpoint(path)
        assert np.array(again.output_scale).tobytes() == np.array(run.output_scale).tobytes()
        assert again.skeleton.to_dict() == skel.to_dict()
        assert reg.forward(again, features).tobytes() == reg.forward(run, features).tobytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="checkpoint"):
        reg.load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_checkpoint_old_versions_refused_with_retrain_message(tmp_path, version):
    # versions 1 and 2 were one JSON object, weights and biases included;
    # version 1 recorded no skeleton, versions 2 to 5 its name and sha256;
    # up to version 3 the header held the input scale and clip, and null
    # output gains for gain 1; up to version 4 an mlp object held the layer
    # widths, the seed and the gains, and version 5 the gains (from version
    # 3 its layers follow as .npy records, but the header line is refused
    # first)
    payload = {"format": "kinedeep-checkpoint", "version": version,
               "skeleton": {"name": "hand23", "sha256": "e3433ca590b8"},
               "mlp": {"layer_widths": [2, 3], "seed": 0, "input_scale": 1.0,
                       "input_clip_abs": None, "output_scale": None},
               "mode": "ours", "weights": [[[0.5, -0.25, 0.0], [0.0, 1.0, 2.0]]],
               "biases": [[0.0, 0.0, 0.0]], "history": []}
    if version == 1:
        del payload["skeleton"]
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(payload) + "\n")
    with pytest.raises(ValueError, match="retrain"):
        reg.load_checkpoint(path)


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def checkpoint_parts(path) -> list:
    """A checkpoint's header line, then each of its .npy records, as bytes."""
    data = path.read_bytes()
    fh = io.BytesIO(data)
    parts = [fh.readline()]
    while fh.tell() < len(data):
        start = fh.tell()
        np.lib.format.read_array(fh, allow_pickle=False)
        parts.append(data[start:fh.tell()])
    return parts


def replace_record(parts, i, change) -> bytes:
    array = np.load(io.BytesIO(parts[i]), allow_pickle=False)
    return b"".join(parts[:i] + [npy_bytes(change(array))] + parts[i + 1:])


def replace_header(parts, change) -> bytes:
    header = json.loads(parts[0])
    change(header)
    return b"".join([json.dumps(header).encode() + b"\n"] + parts[1:])


def first_weights_of_2_40_columns(parts) -> bytes:
    """Layer 0's weights made to claim 2**40 columns in their .npy header;
    the file keeps its other records, far short of that one."""
    rows = np.load(io.BytesIO(parts[1]), allow_pickle=False).shape[0]
    return parts[0] + npy_header((rows, 2**40)) + b"".join(parts[2:])


def set_wrist_palm(**fields):
    """A damage that sets `fields` on the stored skeleton's joint 1, wrist_palm."""
    return lambda p: replace_header(p, lambda h: h["skeleton"]["joints"][1].update(fields))


STORED_SKELETON = "header field skeleton is not a skeleton config: joint 'wrist_palm': "
# Damaged checkpoints: a case maps the valid file's parts to the damaged
# bytes, beside a fragment of the refusal. Records 1 and 2 are layer 0's
# weights and biases, 3 and 4 layer 1's; layer 0's weights are not square.
# The file is an ours network of the default hand: 42 inputs, 26 outputs.
CHECKPOINT_DAMAGE = {
    "truncated_inside_an_array": (lambda p: b"".join(p)[:-3], "biases: "),
    "truncated_inside_an_npy_header": (lambda p: p[0] + p[1][:20], "layer 0 weights: "),
    # no layer record at all
    "header_line_only": (lambda p: p[0], "layer 0 weights: EOF: reading magic string"),
    # a byte after the last layer's biases starts another layer's weights
    "trailing_bytes": (lambda p: b"".join(p) + b"\0",
                       "weights: EOF: reading magic string"),
    # the first weights have a row per feature, 3 * n_eval
    "transposed_weights": (lambda p: replace_record(p, 1, lambda w: w.T.copy()),
                           "42), expected float64 (42, N)"),
    "first_layer_one_row_short": (lambda p: replace_record(p, 1, lambda w: w[:-1].copy()),
                                  "layer 0 weights are float64 (41, "),
    # layer 1 takes one input fewer than layer 0 gives
    "chain_mismatch": (lambda p: replace_record(p, 3, lambda w: w[:-1].copy()),
                       "layer 1 weights are float64"),
    "zero_width_layer": (lambda p: replace_record(p, 1, lambda w: w[:, :0].copy()),
                         "a zero-width layer"),
    "int64_bias": (lambda p: replace_record(p, 2, lambda b: b.astype(np.int64)),
                   "layer 0 biases are int64"),
    "random_bytes": (lambda p: np.random.default_rng(5).bytes(4096),
                     "not a kinedeep-checkpoint file"),
    "empty": (lambda p: b"", "not a kinedeep-checkpoint file"),
    "header_without_mode": (lambda p: replace_header(p, lambda h: h.pop("mode")),
                            "header field mode is missing or not one of ours"),
    # version 4's mlp object, in any form, is not a version 6 field
    "mlp_is_a_list": (lambda p: replace_header(p, lambda h: h.update(mlp=[4, 3, 2])),
                      "unknown header field mlp"),
    "history_row_of_2_values": (
        lambda p: replace_header(p, lambda h: h.update(history=[[1.0, 2.0]])),
        "header field history is missing or not a list of rows of 4 numbers"),
    "npy_header_claims_8_tib": (lambda p: p[0] + npy_header((2**40,)) + b"".join(p[2:]),
                                "layer 0 weights are float64 (1099511627776,)"),
    # any column count fits layer 0's weights, so only the size check
    # stands between them and the allocation of 2**40 columns
    "record_larger_than_the_file": (first_weights_of_2_40_columns,
                                    "layer 0 weights: the file ends inside the record"),
    # the stored skeleton config is checked as a skeleton file is
    "skeleton_nan_bone": (set_wrist_palm(bone_length_mm=math.nan),
                          STORED_SKELETON + "bone_length_mm"),
    "skeleton_unknown_key": (set_wrist_palm(colour="red"),
                             STORED_SKELETON + "unknown key 'colour'"),
    "skeleton_without_name": (lambda p: replace_header(p, lambda h: h["skeleton"].pop("name")),
                              "header field skeleton is not a skeleton config: not the "
                              "canonical form"),
    # an ours network relabelled as a joint-emitting one: 26 outputs, not 42
    "ours_relabelled_direct_joint": (
        lambda p: replace_header(p, lambda h: h.update(mode="direct_joint")),
        "the last layer is 26 wide, but mode direct_joint emits 42 outputs on "
        "skeleton 'hand23'"),
    # the gains are derived, never read: a header that still carries an
    # output_scale field, as version 5 stored it, is refused whatever it
    # holds, a null (which a missing-field check would take for absent)
    # included
    **{f"output_scale_{case}": (lambda p, gains=gains: replace_header(
        p, lambda h: h.update(output_scale=gains)), "unknown header field output_scale")
       for case, gains in (("null", None), ("empty", []), ("one_short", [1.0] * 25),
                           ("nan", [math.nan] * 26), ("true", [True] * 26))},
    # JSON's true and false are not numbers, though Python's bool is an int
    "history_row_with_true": (
        lambda p: replace_header(p, lambda h: h.update(history=[[True, 1.0, 2.0, 3.0]])),
        "header field history is missing or not a list of rows of 4 numbers"),
    # a field the reader does not know would be ignored, its setting lost
    "mlp_input_scale": (lambda p: replace_header(p, lambda h: h.update(
        mlp={"input_scale": 5.0})), "unknown header field mlp"),
    "extra_key": (lambda p: replace_header(p, lambda h: h.update(extra=1)),
                  "unknown header field extra"),
    "dotted_top_level_key": (
        lambda p: replace_header(p, lambda h: h.update({"mlp.seed": 1})),
        "unknown header field mlp.seed"),
    # 6.0 == 6 in Python, but a version is an integer
    "version_float": (lambda p: replace_header(p, lambda h: h.update(version=6.0)),
                      "unsupported kinedeep-checkpoint version 6.0 "
                      "(this reader reads version 6); retrain"),
}


@pytest.mark.parametrize("case", CHECKPOINT_DAMAGE)
def test_damaged_checkpoint_refused_naming_the_path(hand, monkeypatch, tmp_path, case):
    damage, message = CHECKPOINT_DAMAGE[case]
    path = tmp_path / "ckpt.json"
    reg.save_checkpoint(small_net(monkeypatch, hand, "ours", seed=0, hidden=(3,)), path)
    path.write_bytes(damage(checkpoint_parts(path)))
    with pytest.raises(ValueError) as refused:
        reg.load_checkpoint(path)
    assert str(refused.value).startswith(f"{path}: ") and message in str(refused.value)


@pytest.mark.usefixtures("one_stage")
def test_train_non_finite_weights_name_the_epoch(hand, monkeypatch):
    # the last update of epoch 1 leaves an infinite weight; no later batch
    # of that epoch can trip over it, so the epoch-end check must
    data = small_dataset(hand, n=16)
    real, calls = reg.sgd_step, []

    def poisoning(run, grads, velocity, lr):
        real(run, grads, velocity, lr)
        calls.append(None)
        if len(calls) == 4:  # 2 batches an epoch: epoch 1, batch 1
            run.weights[0][0, 0] = np.inf
        return run

    monkeypatch.setattr(reg, "sgd_step", poisoning)
    run = small_net(monkeypatch, hand, "ours")
    with pytest.raises(reg.NumericalError, match="non-finite weights after epoch 1"):
        reg.train(run, data, hand, 3, SEED, val=None, on_epoch=discard)


@pytest.mark.parametrize("widths, mode", [((42, 256, 256, 26), "ours"),
                                          ((42, 256, 256, 42), "direct_joint")])
@pytest.mark.parametrize("n", [1, 191, 192, 383, 384, 500, 511, 512, 1023, 1024,
                               2000, 2049])
def test_forward_matches_one_pass_oracle(hand, rng, widths, mode, n):
    # row blocks start at 192 rows (384 splits, 191 and 383 do not; 500 runs
    # as two blocks of 250, 2049 as ten of 204-205), and every row keeps the
    # bits of one pass over all rows
    run = reg.init(hand, mode, 0)
    assert [len(run.weights[0])] + [w.shape[1] for w in run.weights] == list(widths)
    features = rng.normal(scale=100.0, size=(n, 42))
    got, want = reg.forward(run, features), oracles.one_pass_forward(run, features)
    assert np.array_equal(got, want) and got.strides == want.strides


# --- memory -------------------------------------------------------------------

def default_sized_run(hand):
    """The network reproduce trains for ours on the default hand."""
    return reg.init(hand, "ours", 0)


def traced_peak_bytes(fn, *args):
    """Peak bytes that Python and numpy allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_keeps_at_most_two_layers_alive(hand, rng):
    # inference holds the layer being computed and the one feeding it, of
    # one row block, plus the output; not every layer's output (training's
    # list), any pre-activation, or a layer of all 2000 rows
    run = default_sized_run(hand)
    features = rng.normal(scale=100.0, size=(2000, 42))
    block_rows = 2 * reg.FORWARD_BLOCK_ROWS - 1
    output_bytes = 2000 * 26 * 8
    assert traced_peak_bytes(reg.forward, run, features) < \
        2 * block_rows * 256 * 8 + output_bytes


def test_validation_stats_runs_the_val_set_in_row_blocks(hand):
    # 500 rows run as two 250-row blocks: two 256-wide layers of one block
    # are 1.0 MiB, of a single 500-row block 1.95 MiB
    run = default_sized_run(hand)
    val = bench.make_dataset(hand, n=500, noise_sigma_mm=2.0, occlusion_prob=0.0, seed=5,
                             interior_margin=0.0, pose_shape="uniform")
    reg.validation_stats(run, val, hand)  # warm-up: lazy imports
    peak = traced_peak_bytes(reg.validation_stats, run, val, hand)
    assert peak < 1.5 * 2**20


@pytest.mark.usefixtures("one_stage")
def test_train_holds_at_most_one_gradient_set(hand, monkeypatch):
    # the previous step's gradients (0.64 MiB for this network) are dropped
    # before the next are computed, and the last step's before validation,
    # so every backward and validation pass starts with the traced memory
    # of the first backward pass
    data = small_dataset(hand, n=256)
    run = default_sized_run(hand)
    at_entry = []

    def recording(fn):
        def wrapper(*args):
            at_entry.append(tracemalloc.get_traced_memory()[0])
            return fn(*args)
        return wrapper

    for name in ("backward_through_model", "validation_stats"):
        monkeypatch.setattr(reg, name, recording(getattr(reg, name)))
    monkeypatch.setattr(reg, "BATCH_SIZE", 64)
    traced_peak_bytes(reg.train, run, data, hand, 2, SEED, data, discard)
    assert len(at_entry) == 10  # 4 steps and a validation, twice
    assert max(at_entry) - at_entry[0] < 0.1 * 2**20


def test_save_checkpoint_streams_the_weights(hand, tmp_path):
    # the weights go out one row at a time, never as one nested list of
    # Python floats (2.6 MB for this network)
    run = default_sized_run(hand)
    peak = traced_peak_bytes(reg.save_checkpoint, run, tmp_path / "c.json")
    assert peak < 0.25 * 2**20


def test_write_dataset_streams_the_arrays(hand, tmp_path):
    # np.save writes each array's bytes straight from it; a copy of each,
    # as np.savez makes, would be 1.1 MB of features and thetas here
    data = bench.make_dataset(hand, n=2000, noise_sigma_mm=10.0, occlusion_prob=0.1,
                              seed=0, interior_margin=0.0, pose_shape="uniform")
    peak = traced_peak_bytes(fileio.write_dataset, tmp_path / "d.ds", data)
    assert peak < 0.25 * 2**20
