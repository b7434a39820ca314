import io
from dataclasses import replace

import numpy as np
import pytest

from simfuse.cnn import TrainConfig, max_relative_error
from simfuse.errors import ConfigError, DegenerateData, FormatError, SimfuseError
from simfuse.fusion import (_NET_SECTIONS, DIFFERENT, LEARNED, SIMILAR, WEIGHTED_SUM,
                            FusionNet, FusionParams, FusionWeights, _net_logit,
                            _net_loss_and_grads, calibrate_weights, classify, fuse,
                            load_fusion_params, save_fusion_params,
                            scale_to_sts, train_fusion)
from simfuse.nn import bce_from_logit

from toy import DEFAULT_WEIGHTS


class TestFusionWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FusionWeights(alpha=0.5, beta=0.5, gamma=0.5)

    def test_must_be_strictly_inside_unit_interval(self):
        with pytest.raises(ValueError):
            FusionWeights(alpha=1.0, beta=0.0, gamma=0.0)

    def test_defaults_valid(self):
        assert DEFAULT_WEIGHTS.alpha + DEFAULT_WEIGHTS.beta + DEFAULT_WEIGHTS.gamma \
            == pytest.approx(1.0)


class TestCalibrateWeights:
    def test_accuracy_row(self):
        w = calibrate_weights(0.79, 0.80, 0.25)
        assert w.alpha == pytest.approx(0.386, abs=0.002)
        assert w.beta == pytest.approx(0.390, abs=0.002)
        assert w.gamma == pytest.approx(0.225, abs=0.002)

    def test_recall_row(self):
        w = calibrate_weights(0.11, 0.82, 0.97)
        assert w.alpha == pytest.approx(0.185, abs=0.002)
        assert w.beta == pytest.approx(0.377, abs=0.002)
        assert w.gamma == pytest.approx(0.438, abs=0.002)

    def test_equal_inputs_uniform(self):
        w = calibrate_weights(0.4, 0.4, 0.4)
        for value in (w.alpha, w.beta, w.gamma):
            assert value == pytest.approx(1.0 / 3.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            m = rng.uniform(0.0, 1.0, size=3)
            shift = float(rng.uniform(-5.0, 5.0))
            w1 = calibrate_weights(*m)
            w2 = calibrate_weights(*(m + shift))
            assert w1.alpha == pytest.approx(w2.alpha, abs=1e-12)
            assert w1.beta == pytest.approx(w2.beta, abs=1e-12)
            assert w1.gamma == pytest.approx(w2.gamma, abs=1e-12)

    def test_order_preserving(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            m = rng.uniform(0.0, 1.0, size=3)
            w = calibrate_weights(*m)
            assert int(np.argmax([w.alpha, w.beta, w.gamma])) == int(np.argmax(m))


class TestFuse:
    def test_all_ones(self):
        assert fuse((1.0, 1.0, 1.0), DEFAULT_WEIGHTS, FusionParams()) == pytest.approx(1.0)

    def test_all_zeros(self):
        assert fuse((0.0, 0.0, 0.0), DEFAULT_WEIGHTS, FusionParams()) == 0.0

    def test_hand_weighted_sum(self):
        got = fuse((0.253, 0.842, 0.451), DEFAULT_WEIGHTS, FusionParams())
        assert got == pytest.approx(0.38 * 0.253 + 0.40 * 0.842 + 0.22 * 0.451, abs=1e-15)
        assert round(got, 4) == 0.5322

    def test_monotone_in_each_score(self):
        rng = np.random.default_rng(47)
        params = FusionParams()
        for _ in range(100):
            base = rng.uniform(0.0, 1.0, size=3)
            bumped = base.copy()
            idx = int(rng.integers(0, 3))
            bumped[idx] = min(1.0, bumped[idx] + 0.1)
            assert fuse(tuple(bumped), DEFAULT_WEIGHTS, params) >= \
                fuse(tuple(base), DEFAULT_WEIGHTS, params)

    def test_learned_mode_requires_net(self):
        with pytest.raises(ConfigError):
            FusionParams(mode=LEARNED, net=None)

    @pytest.mark.parametrize("mode", [WEIGHTED_SUM, LEARNED])
    def test_non_finite_score_rejected(self, mode):
        params = FusionParams()
        if mode == LEARNED:
            params, _ = train_fusion([(0.9, 0.9, 0.9), (0.1, 0.1, 0.1)], [1.0, 0.0],
                                     DEFAULT_WEIGHTS, TrainConfig(epochs=1, seed=0))
        with pytest.raises(SimfuseError, match=r"^non-finite component score: w2vcnn=nan$"):
            fuse((0.0, float("nan"), 0.0), DEFAULT_WEIGHTS, params)
        with pytest.raises(SimfuseError, match=r"jaccard=inf, tfidf=-inf$"):
            fuse((float("inf"), 0.5, float("-inf")), DEFAULT_WEIGHTS, params)

    def test_learned_mode_in_range(self):
        params, _ = train_fusion(
            [(0.9, 0.9, 0.9), (0.1, 0.1, 0.1)], [1.0, 0.0],
            DEFAULT_WEIGHTS, TrainConfig(epochs=5, seed=0))
        rng = np.random.default_rng(53)
        for _ in range(50):
            s = fuse(tuple(rng.uniform(0, 1, size=3)), DEFAULT_WEIGHTS, params)
            assert 0.0 <= s <= 1.0


class TestTrainFusion:
    def _separable(self, rng, n=60):
        triples, labels = [], []
        for _ in range(n // 2):
            triples.append(tuple(rng.uniform(0.7, 1.0, size=3)))
            labels.append(1.0)
            triples.append(tuple(rng.uniform(0.0, 0.3, size=3)))
            labels.append(0.0)
        return triples, labels

    def test_deterministic(self):
        rng = np.random.default_rng(59)
        triples, labels = self._separable(rng)
        config = TrainConfig(epochs=10, seed=5)
        p1, l1 = train_fusion(triples, labels, DEFAULT_WEIGHTS, config)
        p2, l2 = train_fusion(triples, labels, DEFAULT_WEIGHTS, config)
        assert l1 == l2
        np.testing.assert_array_equal(p1.net.hidden_w, p2.net.hidden_w)
        np.testing.assert_array_equal(p1.net.out_w, p2.net.out_w)
        assert p1.net.out_b == p2.net.out_b

    def test_learns_separable_triples(self):
        rng = np.random.default_rng(61)
        triples, labels = self._separable(rng, n=100)
        params, _ = train_fusion(triples, labels, DEFAULT_WEIGHTS,
                                 TrainConfig(epochs=200, seed=1))
        preds = [fuse(t, DEFAULT_WEIGHTS, params) >= 0.5 for t in triples]
        accuracy = np.mean([p == bool(l) for p, l in zip(preds, labels)])
        assert accuracy >= 0.95

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateData):
            train_fusion([(0.5, 0.5, 0.5)] * 4, [1.0] * 4, DEFAULT_WEIGHTS,
                         TrainConfig(epochs=1))

    def test_divergence_raises_instead_of_returning_nan_parameters(self):
        triples = [(0.9, 0.8, 0.7), (0.1, 0.2, 0.3), (0.8, 0.9, 0.6), (0.2, 0.1, 0.2)]
        with pytest.raises(DegenerateData,
                           match="^training diverged in epoch 2: parameters must be finite$"):
            train_fusion(triples, [1.0, 0.0, 1.0, 0.0], DEFAULT_WEIGHTS,
                         TrainConfig(learning_rate=1e300, epochs=20))


def _random_net(rng, hidden=4):
    return FusionNet(hidden_w=rng.normal(size=(hidden, 3)), hidden_b=rng.normal(size=hidden),
                     out_w=rng.normal(size=hidden), out_b=float(rng.normal()))


def _numeric_net_gradients(net, triples, labels, epsilon):
    """Central differences of the batch's summed cross-entropy, computed
    from the scoring path's logit one triple at a time."""
    def loss(params):
        return sum(bce_from_logit(_net_logit(params, t), y) for t, y in zip(triples, labels))

    grads = {}
    for name in _NET_SECTIONS:
        tensor = np.atleast_1d(np.asarray(getattr(net, name), dtype=np.float64))
        grad = np.zeros_like(tensor)
        for i in range(tensor.size):
            losses = []
            for step in (epsilon, -epsilon):
                bumped = tensor.copy()
                bumped.flat[i] += step
                value = float(bumped[0]) if name == "out_b" else bumped
                losses.append(loss(replace(net, **{name: value})))
            grad.flat[i] = (losses[0] - losses[1]) / (2.0 * epsilon)
        grads[name] = grad
    return grads


class TestCombinerGradients:
    def test_match_central_differences(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            net = _random_net(rng)
            triples = rng.uniform(0.0, 1.0, size=(5, 3))
            labels = rng.integers(0, 2, size=5).astype(np.float64)
            _, analytic = _net_loss_and_grads(net, triples, labels)
            numeric = _numeric_net_gradients(net, triples, labels, epsilon=1e-6)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_corrupted_gradient_detected(self):
        rng = np.random.default_rng(72)
        net = _random_net(rng)
        triples = rng.uniform(0.0, 1.0, size=(5, 3))
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        _, analytic = _net_loss_and_grads(net, triples, labels)
        analytic["hidden_w"] = analytic["hidden_w"] + 0.05
        numeric = _numeric_net_gradients(net, triples, labels, epsilon=1e-6)
        assert max_relative_error(analytic, numeric) > 1e-2


class TestClassify:
    def test_reference_scores(self):
        assert classify(0.683) == SIMILAR
        assert classify(0.329) == DIFFERENT
        assert classify(0.483) == DIFFERENT
        assert classify(0.312) == DIFFERENT

    def test_tie_goes_to_similar(self):
        assert classify(0.5) == SIMILAR


class TestScaleToSts:
    def test_endpoints(self):
        assert scale_to_sts(0.0) == 0.0
        assert scale_to_sts(1.0) == 5.0

    def test_linear(self):
        assert scale_to_sts(0.684) == pytest.approx(3.42)


class TestPersistence:
    def test_weighted_sum_round_trip(self):
        buf = io.StringIO()
        save_fusion_params(DEFAULT_WEIGHTS, FusionParams(), buf)
        weights, params = load_fusion_params(io.StringIO(buf.getvalue()))
        assert params.mode == WEIGHTED_SUM and params.net is None
        assert weights.alpha == DEFAULT_WEIGHTS.alpha
        assert weights.beta == DEFAULT_WEIGHTS.beta
        assert weights.gamma == DEFAULT_WEIGHTS.gamma

    def test_learned_round_trip_bitwise(self):
        params, _ = train_fusion(
            [(0.9, 0.8, 0.7), (0.1, 0.2, 0.3)], [1.0, 0.0],
            DEFAULT_WEIGHTS, TrainConfig(epochs=3, seed=7))
        buf = io.StringIO()
        save_fusion_params(DEFAULT_WEIGHTS, params, buf)
        weights, back = load_fusion_params(io.StringIO(buf.getvalue()))
        assert back.mode == LEARNED
        np.testing.assert_array_equal(back.net.hidden_w, params.net.hidden_w)
        np.testing.assert_array_equal(back.net.hidden_b, params.net.hidden_b)
        np.testing.assert_array_equal(back.net.out_w, params.net.out_w)
        assert back.net.out_b == params.net.out_b

    def test_rejects_wrong_header(self):
        with pytest.raises(FormatError):
            load_fusion_params(io.StringIO("something-else v1\n0.3 0.3 0.4\n"))
