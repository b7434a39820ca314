import io

import numpy as np
import pytest

from simfuse.cnn import (CnnParams, TrainConfig, cnn_forward, cnn_train,
                         gradient_check, init_params, load_cnn_params,
                         loss_and_gradients, max_relative_error,
                         numeric_gradients, save_cnn_params)
from simfuse.corpus import GRADED, Dataset, Sentence
from simfuse.embedding import EmbeddingTable, embed_sentence
from simfuse.errors import ConfigError, LabelKindError

from toy import separable_toy_set


def _matrix(rows):
    return np.asarray(rows, dtype=np.float64)


def _random_matrix(rng, n, dim):
    return _matrix(rng.standard_normal((n, dim)))


@pytest.fixture()
def small_params():
    return init_params(dim=3, n_filters=4, kernel_width=2, hidden=3, seed=9)


class TestForward:
    def test_score_in_open_interval(self, small_params):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = _random_matrix(rng, int(rng.integers(1, 6)), 3)
            b = _random_matrix(rng, int(rng.integers(1, 6)), 3)
            s = cnn_forward(small_params, a, b)
            assert 0.0 < s < 1.0

    def test_exact_symmetry(self, small_params):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = _random_matrix(rng, 4, 3)
            b = _random_matrix(rng, 2, 3)
            assert cnn_forward(small_params, a, b) == cnn_forward(small_params, b, a)

    def test_equal_inputs_deterministic(self, small_params):
        rng = np.random.default_rng(3)
        a = _random_matrix(rng, 3, 3)
        assert cnn_forward(small_params, a, a) == cnn_forward(small_params, a, a)

    def test_padding_is_a_no_op(self, small_params):
        # n_max past the sentence length adds no rows, so it cannot move the score
        rng = np.random.default_rng(4)
        table = EmbeddingTable(dim=3, vectors={})
        sentence = Sentence(["w0", "w1", "w2", "w3"])
        short = embed_sentence(table, sentence, n_max=4)
        roomy = embed_sentence(table, sentence, n_max=12)
        assert short.shape == roomy.shape == (4, 3)
        partner = _random_matrix(rng, 3, 3)
        assert cnn_forward(small_params, short, partner) == \
            cnn_forward(small_params, roomy, partner)

    def test_sentence_shorter_than_kernel(self, small_params):
        rng = np.random.default_rng(5)
        one_token = _random_matrix(rng, 1, 3)
        partner = _random_matrix(rng, 4, 3)
        s = cnn_forward(small_params, one_token, partner)
        assert 0.0 < s < 1.0

    def test_permutation_changes_conv_features(self, small_params):
        from simfuse.cnn import _conv_forward
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((4, 3))
        feats = _conv_forward(small_params, _matrix(rows))["feats"]
        reversed_feats = _conv_forward(small_params, _matrix(rows[::-1].copy()))["feats"]
        assert not np.array_equal(feats, reversed_feats)

    def test_permutation_changes_score(self):
        # params whose dense head is live for this input (a freshly
        # initialized head can be all-ReLU-dead, hiding the feature change)
        params = init_params(dim=3, n_filters=4, kernel_width=2, hidden=3, seed=0)
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((4, 3))
        partner = _random_matrix(rng, 3, 3)
        original = cnn_forward(params, _matrix(rows), partner)
        swapped = cnn_forward(params, _matrix(rows[::-1].copy()), partner)
        assert original != swapped


class TestWindows:
    def test_matches_row_loop(self):
        from simfuse.cnn import _windows
        rng = np.random.default_rng(12)
        for _ in range(200):
            length, dim, k = (int(x) for x in rng.integers(1, 9, size=3))
            rows = rng.standard_normal((length, dim))
            if length < k:
                window = np.zeros((k, dim))
                window[:length] = rows
                expected = window.reshape(1, k * dim)
            else:
                expected = np.stack([rows[i : i + k].ravel()
                                     for i in range(length - k + 1)])
            got = _windows(rows, k)
            assert got.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(got, expected)


class TestGradients:
    def test_gradient_check_small_instances(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            params = init_params(dim=3, n_filters=4, kernel_width=2, hidden=3, seed=seed)
            a = _random_matrix(rng, int(rng.integers(1, 6)), 3)
            b = _random_matrix(rng, int(rng.integers(1, 6)), 3)
            label = float(rng.integers(0, 2))
            assert gradient_check(params, (a, b, label), epsilon=1e-4) < 1e-4

    def test_corrupted_gradient_detected(self, small_params):
        rng = np.random.default_rng(8)
        a = _random_matrix(rng, 4, 3)
        b = _random_matrix(rng, 3, 3)
        _, analytic = loss_and_gradients(small_params, a, b, 1.0)
        analytic = dict(analytic)
        analytic["out_b"] = np.array([analytic["out_b"]])
        analytic["filters"] = analytic["filters"] + 0.05
        numeric = numeric_gradients(small_params, a, b, 1.0, epsilon=1e-4)
        assert max_relative_error(analytic, numeric) > 1e-2

    def test_invalid_epsilon(self, small_params):
        rng = np.random.default_rng(9)
        a = _random_matrix(rng, 2, 3)
        with pytest.raises(ValueError):
            gradient_check(small_params, (a, a, 1.0), epsilon=0.0)


class TestTrainConfig:
    def test_rejects_zero_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_rejects_nonpositive_learning_rate(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)

    def test_rejects_zero_batch(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)


class TestTraining:
    def test_deterministic_for_fixed_seed(self):
        dataset, table = separable_toy_set(n_per_class=5, dim=8)
        config = TrainConfig(epochs=3, seed=42)
        p1, l1 = cnn_train(dataset, table, config)
        p2, l2 = cnn_train(dataset, table, config)
        assert l1 == l2
        np.testing.assert_array_equal(p1.filters, p2.filters)
        np.testing.assert_array_equal(p1.dense_w, p2.dense_w)
        np.testing.assert_array_equal(p1.out_w, p2.out_w)
        assert p1.out_b == p2.out_b

    def test_loss_decreases_on_separable_data(self, toy_training_setup):
        dataset, table = toy_training_setup
        _, losses = cnn_train(dataset, table, TrainConfig(epochs=10, seed=3))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_rejects_graded_labels(self, toy_training_setup):
        dataset, table = toy_training_setup
        graded = Dataset(pairs=dataset.pairs, label_kind=GRADED)
        with pytest.raises(LabelKindError):
            cnn_train(graded, table, TrainConfig(epochs=1))


class TestPersistence:
    def test_round_trip_bitwise(self):
        params = init_params(dim=5, n_filters=3, kernel_width=2, hidden=4, seed=13)
        buf = io.StringIO()
        save_cnn_params(params, buf)
        back = load_cnn_params(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back.filters, params.filters)
        np.testing.assert_array_equal(back.filter_bias, params.filter_bias)
        np.testing.assert_array_equal(back.dense_w, params.dense_w)
        np.testing.assert_array_equal(back.dense_b, params.dense_b)
        np.testing.assert_array_equal(back.out_w, params.out_w)
        assert back.out_b == params.out_b
        assert back.rng_seed == params.rng_seed

    def test_serialized_text_stable(self):
        params = init_params(dim=2, n_filters=2, kernel_width=2, hidden=2, seed=21)
        first, second = io.StringIO(), io.StringIO()
        save_cnn_params(params, first)
        save_cnn_params(params, second)
        assert first.getvalue() == second.getvalue()
        assert first.getvalue().startswith("simfuse-cnn v1 2 2 2 2\n")

    def test_rejects_bad_header(self):
        from simfuse.errors import FormatError
        with pytest.raises(FormatError):
            load_cnn_params(io.StringIO("not-a-params-file 1 2 3\n"))

    def test_rejects_missing_section(self):
        params = init_params(dim=2, n_filters=2, kernel_width=2, hidden=2, seed=1)
        buf = io.StringIO()
        save_cnn_params(params, buf)
        lines = buf.getvalue().splitlines()
        clipped = "\n".join(line for line in lines if not line.startswith("out_w "))
        from simfuse.errors import FormatError
        with pytest.raises(FormatError):
            load_cnn_params(io.StringIO(clipped))


class TestParamsValidation:
    def test_shape_mismatch_rejected(self):
        good = init_params(dim=2, n_filters=2, kernel_width=2, hidden=2, seed=0)
        with pytest.raises(ValueError):
            CnnParams(
                filters=good.filters,
                filter_bias=np.zeros(3),
                dense_w=good.dense_w,
                dense_b=good.dense_b,
                out_w=good.out_w,
                out_b=good.out_b,
            )

    def test_non_finite_rejected(self):
        good = init_params(dim=2, n_filters=2, kernel_width=2, hidden=2, seed=0)
        bad = good.filters.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            CnnParams(
                filters=bad,
                filter_bias=good.filter_bias,
                dense_w=good.dense_w,
                dense_b=good.dense_b,
                out_w=good.out_w,
                out_b=good.out_b,
            )
