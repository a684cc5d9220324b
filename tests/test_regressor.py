import io
import json
import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

import oracles
from kinedeep import bench
from kinedeep import loss as loss_mod
from kinedeep import regressor as reg
from kinedeep.kinematics import forward_kinematics_batch


def eval_targets(hand, thetas):
    return forward_kinematics_batch(hand, thetas, joint_indices=list(hand.eval_subset))


def tiny_run(hand, mode="ours", seed=3, widths=(6, 8, 26)):
    return reg.init(reg.MlpConfig(layer_widths=widths, seed=seed), mode=mode)


# --- init ---------------------------------------------------------------------

def test_init_deterministic():
    cfg = reg.MlpConfig(layer_widths=(69, 256, 256, 26), seed=17)
    a = reg.init(cfg, "ours")
    b = reg.init(cfg, "ours")
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_shapes():
    run = reg.init(reg.MlpConfig(layer_widths=(69, 256, 256, 26), seed=0), "ours")
    assert [w.shape for w in run.weights] == [(69, 256), (256, 256), (256, 26)]
    assert [b.shape for b in run.biases] == [(256,), (256,), (26,)]


def test_init_zero_biases_and_bounded_weights():
    run = reg.init(reg.MlpConfig(layer_widths=(16, 32, 8), seed=5), "ours")
    for b in run.biases:
        assert np.array_equal(b, np.zeros_like(b))
    for w in run.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        assert np.all(np.abs(w) <= bound)


def test_init_rejects_zero_width():
    with pytest.raises(ValueError, match="width"):
        reg.MlpConfig(layer_widths=(4, 0, 2))


# --- forward ------------------------------------------------------------------

def test_forward_zero_weights_zero_output(hand):
    run = tiny_run(hand)
    for w in run.weights:
        w[:] = 0.0
    out = reg.forward(run, np.ones((4, 6)))
    assert np.array_equal(out, np.zeros((4, 26)))


def test_forward_hand_computed_example():
    # one hidden unit: out = w2 * relu(w1 . x + b1) + b2
    run = reg.init(reg.MlpConfig(layer_widths=(2, 1, 1), seed=0), "ours")
    run.weights[0][:] = np.array([[2.0], [-1.0]])
    run.biases[0][:] = np.array([0.5])
    run.weights[1][:] = np.array([[3.0]])
    run.biases[1][:] = np.array([-1.0])
    x = np.array([[1.0, 1.0], [0.0, 1.0]])
    # sample 1: relu(2 - 1 + 0.5) = 1.5 -> 3*1.5 - 1 = 3.5
    # sample 2: relu(-1 + 0.5) = 0 -> -1
    out = reg.forward(run, x)
    assert np.allclose(out, [[3.5], [-1.0]])


def test_forward_relu_blocks_negative_preactivations():
    run = reg.init(reg.MlpConfig(layer_widths=(1, 1, 1), seed=0), "ours")
    run.weights[0][:] = np.array([[1.0]])
    run.weights[1][:] = np.array([[5.0]])
    assert reg.forward(run, np.array([[-3.0]]))[0, 0] == 0.0


def test_forward_rejects_width_mismatch(hand):
    run = tiny_run(hand)
    with pytest.raises(ValueError, match="width"):
        reg.forward(run, np.ones((2, 7)))


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


def test_backward_through_model_matches_finite_differences(hand, rng):
    run = tiny_run(hand, mode="ours")
    feats = rng.normal(size=(2, 6))
    thetas = rng.uniform(hand.dof_lower, hand.dof_upper, size=(2, 26))
    targets = eval_targets(hand, thetas)
    value, (gw, gb) = reg.backward_through_model(run, feats, targets, hand, lam=1.0)
    fd = fd_weight_grads(run, lambda: reg.backward_through_model(run, feats, targets, hand, lam=1.0)[0])
    worst = max(oracles.rel_err(a, f) for a, f in zip(gw + gb, fd))
    assert worst < 1e-5


def test_backward_direct_matches_finite_differences(hand, rng):
    run = reg.init(reg.MlpConfig(layer_widths=(6, 8, 10), seed=4), mode="direct_parameter")
    feats = rng.normal(size=(3, 6))
    targets = rng.normal(size=(3, 10))
    value, (gw, gb) = reg.backward_direct(run, feats, targets)
    fd = fd_weight_grads(run, lambda: reg.backward_direct(run, feats, targets)[0])
    worst = max(oracles.rel_err(a, f) for a, f in zip(gw + gb, fd))
    assert worst < 1e-5


def test_perfect_prediction_zero_loss_and_grads(hand, rng):
    run = tiny_run(hand, mode="ours_no_phy")
    feats = rng.normal(size=(2, 6))
    poses = reg.forward(run, feats)
    poses = np.clip(poses, hand.dof_lower, hand.dof_upper)  # keep in range
    # rig the network output to be exactly in-range poses via bias shift
    run.biases[-1] += 0.0
    out = reg.forward(run, feats)
    targets = eval_targets(hand, out)
    value, (gw, gb) = reg.backward_through_model(run, feats, targets, hand, lam=0.0)
    assert value == 0.0
    for g in gw + gb:
        assert np.array_equal(g, np.zeros_like(g))


def test_lambda_zero_matches_no_phy_mode(hand, rng):
    feats = rng.normal(size=(4, 6))
    thetas = rng.uniform(hand.dof_lower, hand.dof_upper, size=(4, 26))
    targets = eval_targets(hand, thetas)
    a = tiny_run(hand, mode="ours", seed=9)
    b = tiny_run(hand, mode="ours_no_phy", seed=9)
    va, ga = reg.backward_through_model(a, feats, targets, hand, lam=0.0)
    vb, gb_ = reg.backward_through_model(b, feats, targets, hand, lam=0.0)
    assert va == vb
    for x, y in zip(ga[0] + ga[1], gb_[0] + gb_[1]):
        assert np.array_equal(x, y)


def test_no_phy_mode_rejects_nonzero_lambda(hand, rng):
    run = tiny_run(hand, mode="ours_no_phy")
    with pytest.raises(ValueError, match="lambda"):
        reg.backward_through_model(run, np.zeros((1, 6)), np.zeros((1, 14, 3)), hand, lam=1.0)


def test_direct_modes_reject_model_backward(hand):
    run = tiny_run(hand, mode="direct_joint")
    with pytest.raises(ValueError, match="kinematic"):
        reg.backward_through_model(run, np.zeros((1, 6)), np.zeros((1, 14, 3)), hand, lam=0.0)


def test_backward_direct_zero_residual(hand, rng):
    run = reg.init(reg.MlpConfig(layer_widths=(5, 7, 9), seed=2), mode="direct_joint")
    feats = rng.normal(size=(3, 5))
    targets = reg.forward(run, feats)
    value, (gw, gb) = reg.backward_direct(run, feats, targets)
    assert value == 0.0
    for g in gw + gb:
        assert np.array_equal(g, np.zeros_like(g))


# --- naive MLP oracle -----------------------------------------------------------

def oracle_case(hand, kind, mode):
    """A small network of `mode` and features of one `kind`: occlusion
    sentinels, exact-zero pre-activations, or a row that overflows."""
    spec = reg.MODES[mode]
    data = bench.make_dataset(hand, n=24, noise_sigma_mm=2.0,
                              occlusion_prob=0.3 if kind == "occluded" else 0.0, seed=6)
    features = data.features.copy()
    # unclipped, one huge feature overflows to inf at the input scaling
    overflow = kind == "overflow"
    run = reg.init(reg.MlpConfig(
        layer_widths=(features.shape[1], 16, 16, spec.output_width(hand)), seed=8,
        input_scale=1e3 if overflow else 0.01, input_clip_abs=None if overflow else 400.0,
        output_scale=spec.output_scale(hand)), mode)
    if kind == "zero_preact":
        run.weights[0][:, 3] = 0.0
        run.weights[1][:, [2, 5]] = -0.0
        run.biases[1][5] = -0.0
    if overflow:
        features[4, 0] = 1e308
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
def test_mlp_matches_naive_oracle_bit_for_bit(hand, kind, mode):
    run, features, targets = oracle_case(hand, kind, mode)
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
                reg.backward_through_model(run, features, targets, hand, lam=1.0)
        else:
            want_value, (want_w, want_b) = oracle_gradients(run, acts, pre, targets, hand)
            if mode == "ours":
                value, (got_w, got_b) = reg.backward_through_model(
                    run, features, targets, hand, lam=1.0)
            else:
                value, (got_w, got_b) = reg.backward_direct(run, features, targets)
            assert same_bits(np.float64(value), np.float64(want_value))
            assert all(same_bits(g, w) for g, w in zip(got_w + got_b, want_w + want_b))
    assert same_bits(features, original)  # the caller's features are never written


# --- sgd ----------------------------------------------------------------------

def test_sgd_first_step_is_plain_descent():
    # the velocity starts at zero, so the first step is -lr*g at any momentum
    run = reg.init(reg.MlpConfig(layer_widths=(2, 3), seed=1), mode="direct_parameter")
    w0 = [w.copy() for w in run.weights]
    grads = ([np.ones_like(run.weights[0])], [np.ones_like(run.biases[0])])
    sgd = reg.SgdConfig(batch_size=1, learning_rate=0.1, epochs=1)
    reg.sgd_step(run, grads, sgd)
    assert np.allclose(run.weights[0], w0[0] - 0.1)


def test_sgd_two_steps_constant_gradient_closed_form():
    # displacement after two steps with constant gradient g: -lr*g*(2 + mu)
    run = reg.init(reg.MlpConfig(layer_widths=(2, 3), seed=1), mode="direct_parameter")
    w0 = [w.copy() for w in run.weights]
    g = np.full_like(run.weights[0], 2.0)
    grads = ([g], [np.zeros_like(run.biases[0])])
    lr, mu = 0.05, reg.MOMENTUM
    sgd = reg.SgdConfig(batch_size=1, learning_rate=lr, epochs=1)
    reg.sgd_step(run, grads, sgd)
    reg.sgd_step(run, grads, sgd)
    assert np.allclose(run.weights[0], w0[0] - lr * g * (2.0 + mu))


def test_sgd_defaults_match_reference_values():
    sgd = reg.SgdConfig()
    assert sgd.batch_size == 512
    assert sgd.learning_rate == 0.003
    assert reg.MOMENTUM == 0.9
    assert sgd.lam == 1.0


def test_sgd_config_rejects_negative_lambda():
    for lam in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda must be >= 0 and finite"):
            reg.SgdConfig(lam=lam)


def test_sgd_config_rejects_non_finite_learning_rate():
    for lr in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            reg.SgdConfig(learning_rate=lr)


def test_sgd_step_shape_mismatch():
    run = reg.init(reg.MlpConfig(layer_widths=(2, 3), seed=1), mode="direct_parameter")
    grads = ([np.ones((4, 4))], [np.ones(3)])
    with pytest.raises(ValueError, match="shape"):
        reg.sgd_step(run, grads, reg.SgdConfig())


# --- training -----------------------------------------------------------------

def small_dataset(hand, n=32, seed=5):
    return bench.make_dataset(hand, n=n, noise_sigma_mm=2.0, occlusion_prob=0.0, seed=seed)


def train_config(**kw):
    base = dict(batch_size=8, learning_rate=1e-7, epochs=5, lam=1.0, staged=False)
    base.update(kw)
    return reg.SgdConfig(**base)


def whitened_config(hand, data, widths=(32,), seed=7):
    return reg.MlpConfig(
        layer_widths=(data.features.shape[1], *widths, hand.n_dofs),
        seed=seed, input_scale=0.01,
        output_scale=reg.pose_output_scale(hand),
    )


def test_train_deterministic(hand):
    data = small_dataset(hand)
    runs = []
    for _ in range(2):
        run = reg.init(whitened_config(hand, data), mode="ours")
        reg.train(run, data, hand, train_config(), val=data)
        runs.append(run)
    for wa, wb in zip(runs[0].weights, runs[1].weights):
        assert np.array_equal(wa, wb)
    assert len(runs[0].history) == len(runs[1].history)
    for ha, hb in zip(runs[0].history, runs[1].history):
        assert ha == hb


def test_train_history_length_and_val_metrics(hand):
    data = small_dataset(hand)
    run = reg.init(whitened_config(hand, data), mode="ours")
    reg.train(run, data, hand, train_config(epochs=4), val=data)
    assert len(run.history) == 4
    for h in run.history:
        assert np.isfinite(h.train_loss)
        assert np.isfinite(h.val_joint_err_mm)
        assert np.isfinite(h.val_angle_err_deg)
        assert 0.0 <= h.val_invalid_frac <= 1.0


@pytest.mark.parametrize("mode", ["ours", "direct_joint"])
def test_train_labels_the_validation_set_once(hand, monkeypatch, mode):
    # the validation labels come from one FK pass per train call, not one
    # per epoch
    data, val = small_dataset(hand), small_dataset(hand, n=24, seed=6)
    real = bench.eval_joints
    val_passes = []

    def counting(skel, thetas):
        if thetas is val.thetas:
            val_passes.append(1)
        return real(skel, thetas)

    monkeypatch.setattr(bench, "eval_joints", counting)
    width = hand.n_dofs if mode == "ours" else 3 * len(hand.eval_subset)
    cfg = reg.MlpConfig(layer_widths=(data.features.shape[1], 16, width), seed=7,
                        input_scale=0.01)
    for calls in (1, 2):
        reg.train(reg.init(cfg, mode), data, hand, train_config(epochs=4), val=val)
        assert len(val_passes) == calls


@pytest.mark.parametrize("mode", ["ours", "direct_joint"])
def test_on_epoch_records_each_epoch(hand, monkeypatch, mode):
    # staged with val: each epoch's record carries its stage lr, the history
    # row's loss and val metrics, and the norm of its last batch gradient
    data = small_dataset(hand, n=20)
    spec = reg.MODES[mode]
    cfg = reg.MlpConfig(layer_widths=(data.features.shape[1], 16, spec.output_width(hand)),
                        seed=7, input_scale=0.01, output_scale=spec.output_scale(hand))
    sgd = reg.SgdConfig(batch_size=8, learning_rate=spec.base_lr, epochs=6)
    plain = reg.train(reg.init(cfg, mode), data, hand, sgd, val=data)

    backward = "backward_through_model" if spec.through_fk else "backward_direct"
    real = getattr(reg, backward)
    last_grads = []

    def keep_grads(*args, **kwargs):
        value, grads = real(*args, **kwargs)
        last_grads.append(grads)
        return value, grads

    monkeypatch.setattr(reg, backward, keep_grads)
    records = []
    run = reg.train(reg.init(cfg, mode), data, hand, sgd, val=data,
                    on_epoch=records.append)
    # the records leave training untouched
    assert all(np.array_equal(a, b) for a, b in zip(run.weights, plain.weights))
    assert np.array_equal([astuple(h) for h in run.history],
                          [astuple(h) for h in plain.history], equal_nan=True)

    stage_lrs = [spec.base_lr * f for f, e in reg.STAGES
                 for _ in range(max(1, round(e * sgd.epochs)))]
    assert [r["epoch"] for r in records] == list(range(len(run.history)))
    assert [r["lr"] for r in records] == stage_lrs[:len(records)]
    batches = -(-len(data) // sgd.batch_size)
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


def test_on_epoch_record_without_val_has_no_val_metrics(hand):
    data = small_dataset(hand, n=16)
    records = []
    reg.train(reg.init(whitened_config(hand, data), mode="ours"), data, hand,
              train_config(epochs=2), on_epoch=records.append)
    assert [set(r) for r in records] == [
        {"epoch", "lr", "train_loss", "grad_norm", "seconds"}] * 2


def test_train_empty_dataset_rejected(hand):
    data = small_dataset(hand)
    empty = replace(data, features=data.features[:0], thetas=data.thetas[:0])
    run = reg.init(whitened_config(hand, data), mode="ours")
    with pytest.raises(ValueError, match="empty"):
        reg.train(run, empty, hand, train_config())


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning",
                            "ignore:invalid value encountered in subtract:RuntimeWarning")
def test_train_non_finite_loss_reports_epoch_and_batch(hand):
    data = small_dataset(hand)
    run = reg.init(whitened_config(hand, data), mode="ours")
    sgd = train_config(learning_rate=5.0, epochs=3)  # guaranteed blow-up
    with pytest.raises(reg.NumericalError, match="epoch"):
        reg.train(run, data, hand, sgd)


def test_train_non_finite_gradient_reports_its_batch(hand, monkeypatch):
    # a finite loss with an overflowed gradient: the error names that batch,
    # and the bad update never reaches the weights
    data = small_dataset(hand)  # 4 batches of 8 per epoch
    run = reg.init(whitened_config(hand, data), mode="ours")
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
        reg.train(run, data, hand, train_config(epochs=3))
    assert np.isfinite(calls[-1])
    assert all(np.isfinite(w).all() for w in run.weights)


def test_mode_equivalence_ours_lambda_zero(hand):
    data = small_dataset(hand)
    a = reg.init(whitened_config(hand, data), mode="ours")
    reg.train(a, data, hand, train_config(lam=0.0))
    b = reg.init(whitened_config(hand, data), mode="ours_no_phy")
    reg.train(b, data, hand, train_config(lam=0.0))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_loss_non_increasing_small_lr_frozen_batch(hand, rng, monkeypatch):
    # descent sanity: 10 steps at lr 1e-5, momentum 0, one frozen batch.
    # Targets sit near the current outputs (smooth mid-training regime);
    # blast-off distances need warm-up rates, which is not what this checks.
    data = small_dataset(hand, n=8)
    run = reg.init(whitened_config(hand, data), mode="ours_no_phy")
    out = reg.forward(run, data.features)
    near = np.clip(out + rng.normal(scale=0.01, size=out.shape),
                   hand.dof_lower, hand.dof_upper)
    targets = eval_targets(hand, near).reshape(len(data), -1)
    losses = []
    monkeypatch.setattr(reg, "MOMENTUM", 0.0)
    sgd = reg.SgdConfig(batch_size=8, learning_rate=1e-5, epochs=1, lam=0.0)
    for _ in range(10):
        value, grads = reg.backward_through_model(run, data.features, targets, hand, lam=0.0)
        losses.append(value)
        reg.sgd_step(run, grads, sgd)
    value, _ = reg.backward_through_model(run, data.features, targets, hand, lam=0.0)
    losses.append(value)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_single_sample_overfit(hand):
    data = bench.make_dataset(hand, n=1, noise_sigma_mm=0.0, occlusion_prob=0.0, seed=42)
    run = reg.init(whitened_config(hand, data), mode="ours_no_phy")
    sgd = reg.SgdConfig(batch_size=1, learning_rate=2e-5, epochs=2000, lam=0.0,
                        staged=False)
    reg.train(run, data, hand, sgd)
    err, _, _ = reg.validation_stats(run, data, hand)
    assert err < 1.0


@pytest.mark.parametrize("mode, width", [("ours", 26), ("direct_joint", 42)])
def test_validation_stats_are_evaluate_without_thresholds(hand, mode, width):
    data = bench.make_dataset(hand, n=40, noise_sigma_mm=3.0, occlusion_prob=0.1, seed=6)
    run = reg.init(reg.MlpConfig(layer_widths=(42, 16, width), seed=1, input_scale=0.01),
                   mode)
    predictions = reg.predict(run, data.features, hand)
    for true_joints in (None, bench.eval_joints(hand, data.thetas)):
        report = bench.evaluate(hand, predictions, data.thetas, thresholds=())
        want = (report.avg_joint_error_mm, report.avg_angle_error_deg,
                report.invalid_pose_fraction)
        got = reg.validation_stats(run, data, hand, true_joints)
        assert np.array(got).tobytes() == np.array(want).tobytes()  # NaN included


def test_direct_joint_training_runs(hand):
    data = small_dataset(hand)
    cfg = reg.MlpConfig(layer_widths=(data.features.shape[1], 32, 3 * len(hand.eval_subset)),
                        seed=7, input_scale=0.01)
    run = reg.init(cfg, mode="direct_joint")
    reg.train(run, data, hand, train_config(learning_rate=1e-4, epochs=3), val=data)
    assert len(run.history) == 3
    assert np.isfinite(run.history[-1].val_joint_err_mm)
    assert np.isnan(run.history[-1].val_angle_err_deg)
    assert np.isnan(run.history[-1].val_invalid_frac)


def test_early_stop_on_plateau(hand):
    data = small_dataset(hand, n=16)
    run = reg.init(whitened_config(hand, data), mode="ours_no_phy")
    # lr so small nothing improves: should stop after ~11 epochs, not 60
    sgd = train_config(learning_rate=1e-16, epochs=60, lam=0.0)
    reg.train(run, data, hand, sgd, val=data)
    assert len(run.history) <= 12


@pytest.mark.parametrize("mode", ["ours", "direct_parameter"])
def test_staged_train_matches_per_stage_oracle(hand, mode):
    # ours with val: enough epochs that the plateau stop fires inside the
    # main stage; direct_parameter without val runs every stage in full
    data = small_dataset(hand)
    spec = reg.MODES[mode]
    if mode == "ours":
        val, epochs = small_dataset(hand, n=16, seed=6), 100
    else:
        val, epochs = None, 12
    cfg = reg.MlpConfig(layer_widths=(data.features.shape[1], 32, hand.n_dofs),
                        seed=7, input_scale=0.01, output_scale=spec.output_scale(hand))
    oracle = reg.init(cfg, mode)
    ran = oracles.per_stage_train(oracle, data, hand, spec.base_lr, 8, epochs, 1.0,
                                  val_data=val)
    planned = [max(1, int(round(f * epochs))) for _, f in reg.STAGES]
    if mode == "ours":
        assert ran[3] < planned[3]
    else:
        assert ran == planned
    run = reg.init(cfg, mode)
    reg.train(run, data, hand, reg.SgdConfig(batch_size=8, learning_rate=spec.base_lr,
                                             epochs=epochs, lam=1.0), val=val)
    for got, want in ((run.weights, oracle.weights), (run.biases, oracle.biases),
                      (run.vel_w, oracle.vel_w), (run.vel_b, oracle.vel_b)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal([astuple(h) for h in run.history],
                          [astuple(h) for h in oracle.history], equal_nan=True)


def test_checkpoint_roundtrip(hand, tmp_path):
    data = small_dataset(hand)
    run = reg.init(whitened_config(hand, data), mode="ours")
    reg.train(run, data, hand, train_config(epochs=2), val=data)
    path = tmp_path / "ckpt.json"
    reg.save_checkpoint(run, path, hand)
    again = reg.load_checkpoint(path)
    assert again.mode == run.mode
    assert again.config == run.config
    assert again.skeleton == hand.fingerprint()
    for got, want in ((again.weights, run.weights), (again.biases, run.biases)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert again.history == run.history
    assert np.array_equal(reg.forward(again, data.features), reg.forward(run, data.features))
    # the same run saves to the same bytes, and line 1 is the JSON header
    # (the layers and no momentum follow it as .npy records)
    again_path = tmp_path / "again.json"
    reg.save_checkpoint(run, again_path, hand)
    assert again_path.read_bytes() == path.read_bytes()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["version"] == 3
    assert set(header) == {"format", "version", "skeleton", "mlp", "mode", "history"}


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="checkpoint"):
        reg.load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2])
def test_checkpoint_old_versions_refused_with_retrain_message(hand, tmp_path, version):
    # versions 1 and 2 were one JSON object, weights and biases included;
    # version 1 recorded no skeleton
    payload = {"format": "kinedeep-checkpoint", "version": version,
               "skeleton": hand.fingerprint(),
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


def replace_mlp(**fields):
    return lambda parts: replace_header(parts, lambda h: h["mlp"].update(fields))


def huge_npy_header() -> bytes:
    """A .npy 1.0 header that claims 2**40 float64 values (8 TiB) and no data."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (2**40,)})
    return buf.getvalue()


# Damaged checkpoints: a case maps the valid file's parts to the damaged
# bytes, beside a fragment of the refusal. Records 1 and 2 are layer 0's
# weights and biases; layer 0's weights are not square.
CHECKPOINT_DAMAGE = {
    "truncated_inside_an_array": (lambda p: b"".join(p)[:-3], "biases: "),
    "truncated_inside_an_npy_header": (lambda p: p[0] + p[1][:20], "layer 0 weights: "),
    "header_line_only": (lambda p: p[0], "layer 0 weights: "),
    "trailing_bytes": (lambda p: b"".join(p) + b"\0", "trailing bytes"),
    "transposed_weights": (lambda p: replace_record(p, 1, lambda w: w.T.copy()),
                           "layer 0 weights are float64"),
    "int64_bias": (lambda p: replace_record(p, 2, lambda b: b.astype(np.int64)),
                   "layer 0 biases are int64"),
    "random_bytes": (lambda p: np.random.default_rng(5).bytes(4096),
                     "not a kinedeep-checkpoint file"),
    "empty": (lambda p: b"", "not a kinedeep-checkpoint file"),
    "header_without_mlp": (lambda p: replace_header(p, lambda h: h.pop("mlp")),
                           "header field mlp is missing or not an object"),
    "header_without_mode": (lambda p: replace_header(p, lambda h: h.pop("mode")),
                            "header field mode is missing or not one of ours"),
    "mlp_is_a_list": (lambda p: replace_header(p, lambda h: h.update(mlp=[4, 3, 2])),
                      "header field mlp is missing or not an object"),
    "history_row_of_2_values": (
        lambda p: replace_header(p, lambda h: h.update(history=[[1.0, 2.0]])),
        "header field history is missing or not a list of rows of 4 numbers"),
    "npy_header_claims_8_tib": (lambda p: p[0] + huge_npy_header() + b"".join(p[2:]),
                                "layer 0 weights are float64 (1099511627776,)"),
    **{f"input_scale_{v}": (replace_mlp(input_scale=v),
                            "header field mlp: input_scale must be positive and finite")
       for v in (0.0, -0.01, math.nan)},
    **{f"input_clip_abs_{v}": (replace_mlp(input_clip_abs=v), "header field mlp: "
                               "input_clip_abs must be positive and finite when set")
       for v in (-1.0, math.inf)},
    "output_scale_nan": (
        lambda p: replace_header(p, lambda h: h["mlp"].update(
            output_scale=[math.nan] + [1.0] * (h["mlp"]["layer_widths"][-1] - 1))),
        "header field mlp: output_scale entries must be positive and finite"),
}


@pytest.mark.parametrize("case", CHECKPOINT_DAMAGE)
def test_damaged_checkpoint_refused_naming_the_path(hand, tmp_path, case):
    damage, message = CHECKPOINT_DAMAGE[case]
    path = tmp_path / "ckpt.json"
    reg.save_checkpoint(reg.init(reg.MlpConfig(layer_widths=(4, 3, 2)), "ours"), path, hand)
    path.write_bytes(damage(checkpoint_parts(path)))
    with pytest.raises(ValueError) as refused:
        reg.load_checkpoint(path)
    assert str(refused.value).startswith(f"{path}: ") and message in str(refused.value)


def test_train_non_finite_weights_name_the_epoch(hand, monkeypatch):
    # the last update of epoch 1 leaves an infinite weight; no later batch
    # of that epoch can trip over it, so the epoch-end check must
    data = small_dataset(hand, n=16)
    real, calls = reg.sgd_step, []

    def poisoning(run, grads, sgd):
        real(run, grads, sgd)
        calls.append(None)
        if len(calls) == 4:  # 2 batches an epoch: epoch 1, batch 1
            run.weights[0][0, 0] = np.inf
        return run

    monkeypatch.setattr(reg, "sgd_step", poisoning)
    run = reg.init(whitened_config(hand, data), mode="ours")
    with pytest.raises(reg.NumericalError, match="non-finite weights after epoch 1"):
        reg.train(run, data, hand, train_config(epochs=3))


@pytest.mark.parametrize("widths, mode", [((42, 256, 256, 26), "ours"),
                                          ((42, 256, 256, 42), "direct_joint")])
@pytest.mark.parametrize("n", [1, 191, 192, 383, 384, 500, 511, 512, 1023, 1024,
                               2000, 2049])
def test_forward_matches_one_pass_oracle(rng, widths, mode, n):
    # row blocks start at 192 rows (384 splits, 191 and 383 do not; 500 runs
    # as two blocks of 250, 2049 as ten of 204-205), and every row keeps the
    # bits of one pass over all rows
    run = reg.init(reg.MlpConfig(layer_widths=widths, seed=0, input_scale=0.01,
                                 input_clip_abs=400.0,
                                 output_scale=(50.0,) * widths[-1]), mode)
    features = rng.normal(scale=100.0, size=(n, 42))
    got, want = reg.forward(run, features), oracles.one_pass_forward(run, features)
    assert np.array_equal(got, want) and got.strides == want.strides


# --- memory -------------------------------------------------------------------

def default_sized_run():
    """The network reproduce trains for a 42-feature, pose-emitting mode."""
    return reg.init(reg.MlpConfig(layer_widths=(42, 256, 256, 26), seed=0,
                                  input_scale=0.01, input_clip_abs=400.0), "ours")


def traced_peak_bytes(fn, *args):
    """Peak bytes that Python and numpy allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_keeps_at_most_two_layers_alive(rng):
    # inference holds the layer being computed and the one feeding it, of
    # one row block, plus the output; not every layer's output (training's
    # list), any pre-activation, or a layer of all 2000 rows
    run = default_sized_run()
    features = rng.normal(scale=100.0, size=(2000, 42))
    block_rows = 2 * reg.FORWARD_BLOCK_ROWS - 1
    output_bytes = 2000 * 26 * 8
    assert traced_peak_bytes(reg.forward, run, features) < \
        2 * block_rows * 256 * 8 + output_bytes


def test_validation_stats_runs_the_val_set_in_row_blocks(hand):
    # 500 rows run as two 250-row blocks: two 256-wide layers of one block
    # are 1.0 MiB, of a single 500-row block 1.95 MiB
    run = default_sized_run()
    val = bench.make_dataset(hand, n=500, noise_sigma_mm=2.0, occlusion_prob=0.0, seed=5)
    val_joints = bench.eval_joints(hand, val.thetas)
    reg.validation_stats(run, val, hand, val_joints)  # warm-up: lazy imports
    peak = traced_peak_bytes(reg.validation_stats, run, val, hand, val_joints)
    assert peak < 1.5 * 2**20


def test_train_holds_at_most_one_gradient_set(hand, monkeypatch):
    # the previous step's gradients (0.64 MiB for this network) are dropped
    # before the next are computed, and the last step's before validation,
    # so every backward and validation pass starts with the traced memory
    # of the first backward pass
    data = small_dataset(hand, n=256)
    run = reg.init(replace(default_sized_run().config,
                           output_scale=reg.pose_output_scale(hand)), "ours")
    at_entry = []

    def recording(fn):
        def wrapper(*args):
            at_entry.append(tracemalloc.get_traced_memory()[0])
            return fn(*args)
        return wrapper

    for name in ("backward_through_model", "validation_stats"):
        monkeypatch.setattr(reg, name, recording(getattr(reg, name)))
    traced_peak_bytes(reg.train, run, data, hand, train_config(batch_size=64, epochs=2),
                      data)
    assert len(at_entry) == 10  # 4 steps and a validation, twice
    assert max(at_entry) - at_entry[0] < 0.1 * 2**20


def test_save_checkpoint_streams_the_weights(hand, tmp_path):
    # the weights go out one row at a time, never as one nested list of
    # Python floats (2.6 MB for this network)
    run = default_sized_run()
    peak = traced_peak_bytes(reg.save_checkpoint, run, tmp_path / "c.json", hand)
    assert peak < 0.25 * 2**20
