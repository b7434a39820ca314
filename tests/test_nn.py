"""The shared training machinery: logistic output, cross-entropy on a
logit, and the mini-batch SGD loop used by the CNN and the combiner."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from simfuse.errors import DegenerateData
from simfuse.fusion import FusionWeights, train_fusion
from simfuse.nn import TrainConfig, bce_from_logit, bce_loss_and_dlogits, sgd, sigmoid


class TestSigmoidAndLoss:
    def test_sigmoid_saturates_without_overflow(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0

    def test_bce_matches_the_naive_formula_where_that_is_finite(self):
        for logit in (-5.0, -0.3, 0.0, 0.7, 4.0):
            p = 1.0 / (1.0 + math.exp(-logit))
            for label in (0.0, 1.0):
                naive = -(label * math.log(p) + (1.0 - label) * math.log(1.0 - p))
                assert bce_from_logit(logit, label) == pytest.approx(naive, rel=1e-12)

    def test_bce_stays_finite_for_extreme_logits(self):
        assert bce_from_logit(800.0, 0.0) == 800.0
        assert bce_from_logit(-800.0, 1.0) == 800.0
        assert bce_from_logit(800.0, 1.0) == 0.0

    def test_batch_loss_is_the_summed_loss_and_its_derivative_sigmoid_minus_label(self):
        logits = np.array([-800.0, -5.0, -0.3, 0.0, 0.7, 4.0, 800.0])
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        loss, dlogits = bce_loss_and_dlogits(logits, labels)
        assert loss == pytest.approx(sum(bce_from_logit(x, y) for x, y in zip(logits, labels)),
                                     rel=1e-15)
        expected = [sigmoid(float(x)) - y for x, y in zip(logits, labels)]
        np.testing.assert_allclose(dlogits, expected, rtol=1e-15, atol=1e-300)


@dataclass(frozen=True)
class Quadratic:
    w: np.ndarray
    b: float
    untouched: float = 5.0


@dataclass(frozen=True)
class Bounded(Quadratic):
    def __post_init__(self):
        if abs(self.b) > 10.0:
            raise ValueError("b out of range")


def _quadratic_loss(targets, calls=None):
    """Loss (w - t)^2 summed, plus b^2, per example, summed over the batch
    ``idx``; gradients for w and b only.  Records each ``idx`` in ``calls``."""
    def batch_loss_and_grads(params, idx):
        if calls is not None:
            calls.append(list(idx))
        diff = params.w - targets[idx]
        loss = float((diff * diff).sum() + len(idx) * params.b ** 2)
        return loss, {"w": 2.0 * diff.sum(axis=0), "b": 2.0 * len(idx) * params.b}
    return batch_loss_and_grads


class TestSgd:
    def test_update_is_lr_times_scaled_batch_sum(self):
        targets = np.array([[1.0, -2.0], [0.5, 0.25], [3.0, 1.0]])
        start = Quadratic(w=np.array([0.1, 0.2]), b=0.3)
        config = TrainConfig(learning_rate=0.1, epochs=1, batch_size=2, seed=0)
        calls = []
        got, losses = sgd(start, _quadratic_loss(targets, calls), 3, config,
                          np.random.default_rng(4))

        order = np.random.default_rng(4).permutation(3)
        batches = [order[:2], order[2:]]
        assert calls == [list(batch) for batch in batches]
        w, b, total = start.w, start.b, 0.0
        for batch in batches:
            loss, grads = _quadratic_loss(targets)(Quadratic(w=w, b=b), batch)
            total += loss
            scale = 1.0 / len(batch)
            w, b = w - 0.1 * (grads["w"] * scale), b - 0.1 * (grads["b"] * scale)
        assert np.array_equal(got.w, w) and got.b == b
        assert got.untouched == 5.0
        assert losses == [total / 3]

    def test_draws_one_permutation_per_epoch_from_the_given_generator(self):
        targets = np.zeros((5, 2))
        rng = np.random.default_rng(9)
        sgd(Quadratic(w=np.ones(2), b=1.0), _quadratic_loss(targets), 5,
            TrainConfig(epochs=3, batch_size=2), rng)
        reference = np.random.default_rng(9)
        for _ in range(3):
            reference.permutation(5)
        assert rng.random() == reference.random()

    def test_one_loss_per_epoch_and_descends(self):
        targets = np.array([[1.0, 1.0], [1.0, 1.0]])
        _, losses = sgd(Quadratic(w=np.zeros(2), b=1.0), _quadratic_loss(targets), 2,
                        TrainConfig(learning_rate=0.1, epochs=4, batch_size=1),
                        np.random.default_rng(0))
        assert len(losses) == 4
        assert all(later < earlier for earlier, later in zip(losses, losses[1:]))

    def test_rejected_update_raises_degenerate_data_naming_the_epoch(self):
        # b -> b * (1 - 2 * lr) = -9 b per step: 1 -> -9 (epoch 1) -> 81 (epoch 2)
        with pytest.raises(DegenerateData,
                           match=r"^training diverged in epoch 2: b out of range$"):
            sgd(Bounded(w=np.zeros(2), b=1.0), _quadratic_loss(np.zeros((1, 2))), 1,
                TrainConfig(learning_rate=5.0, epochs=3, batch_size=1),
                np.random.default_rng(0))


def _reference_combiner(inputs, target, config):
    """The combiner's mini-batch SGD written out by hand: ReLU hidden layer,
    sigmoid output, cross-entropy, gradients summed per batch and applied
    with step learning_rate / batch."""
    rng = np.random.default_rng(config.seed)
    bound_in, bound_out = 1.0 / math.sqrt(3), 1.0 / math.sqrt(4)
    hidden_w = rng.uniform(-bound_in, bound_in, size=(4, 3))
    hidden_b = rng.uniform(-bound_in, bound_in, size=4)
    out_w = rng.uniform(-bound_out, bound_out, size=4)
    out_b = float(rng.uniform(-bound_out, bound_out, size=1)[0])
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(inputs))
        total = 0.0
        for start in range(0, len(inputs), config.batch_size):
            batch = order[start : start + config.batch_size]
            g_hw, g_hb = np.zeros_like(hidden_w), np.zeros_like(hidden_b)
            g_ow, g_ob = np.zeros_like(out_w), 0.0
            for idx in batch:
                x, y = inputs[idx], target[idx]
                hidden_pre = hidden_w @ x + hidden_b
                hidden = np.maximum(hidden_pre, 0.0)
                logit = float(out_w @ hidden + out_b)
                total += max(logit, 0.0) + math.log1p(math.exp(-abs(logit))) - y * logit
                dlogit = sigmoid(logit) - y
                g_ow += dlogit * hidden
                g_ob += dlogit
                dh = dlogit * out_w * (hidden_pre > 0.0)
                g_hw += np.outer(dh, x)
                g_hb += dh
            lr = config.learning_rate / len(batch)
            hidden_w, hidden_b = hidden_w - lr * g_hw, hidden_b - lr * g_hb
            out_w, out_b = out_w - lr * g_ow, out_b - lr * g_ob
        losses.append(total / len(inputs))
    return (hidden_w, hidden_b, out_w, out_b), losses


def test_combiner_training_equals_the_hand_written_loop_on_full_batches():
    # Batches of 16 divide 48 pairs, and 1/16 is exact, so the shared loop's
    # lr * (g * (1/16)) equals the hand-written (lr/16) * g.  The combiner sums
    # a batch by matmuls and the loop example by example, so the two agree to
    # rounding only: within 1e-12 relative.
    rng = np.random.default_rng(3)
    triples = [tuple(row) for row in rng.uniform(0.0, 1.0, size=(48, 3))]
    labels = [float(i % 2) for i in range(48)]
    weights = FusionWeights(alpha=0.3, beta=0.5, gamma=0.2)
    config = TrainConfig(learning_rate=0.5, epochs=6, batch_size=16, seed=11)
    params, losses = train_fusion(triples, labels, weights, config)
    inputs = weights.as_array() * np.asarray(triples, dtype=np.float64)
    (hidden_w, hidden_b, out_w, out_b), ref_losses = _reference_combiner(
        inputs, np.asarray(labels), config)
    net = params.net
    np.testing.assert_allclose(net.hidden_w, hidden_w, rtol=1e-12, atol=0)
    np.testing.assert_allclose(net.hidden_b, hidden_b, rtol=1e-12, atol=0)
    np.testing.assert_allclose(net.out_w, out_w, rtol=1e-12, atol=0)
    assert net.out_b == pytest.approx(out_b, rel=1e-12, abs=0)
    np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
