import io
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from simfuse import attention, cnn, embedding
from simfuse.attention import matrix_attention, weighted_pair_matrices
from simfuse.cnn import (DEFAULT_N_MAX, CnnParams, TrainConfig, _row_store, _windows,
                         cnn_forward, cnn_train, gradient_check, init_params,
                         load_cnn_params, loss_and_gradients,
                         max_relative_error, numeric_gradients,
                         save_cnn_params, stack_pairs)
from simfuse.corpus import BINARY, GRADED, Dataset, LabeledPair, Sentence
from simfuse.embedding import EmbeddingTable, embed_sentence
from simfuse.errors import ConfigError, DegenerateData, LabelKindError
from simfuse.nn import bce_from_logit, bce_loss_and_dlogits, sgd, sigmoid

from toy import separable_toy_set, toy_table


def _matrix(rows):
    return np.asarray(rows, dtype=np.float64)


def _random_matrix(rng, n, dim):
    return _matrix(rng.standard_normal((n, dim)))


def _conv_forward(params, matrix):
    """One sentence's convolution, ReLU, and max-pool as an argmax gather,
    with every intermediate kept: the reference forward pass."""
    windows = _windows(matrix, params.kernel_width)
    flat_filters = params.filters.reshape(params.n_filters, -1)
    pre = windows @ flat_filters.T + params.filter_bias  # (P, F)
    act = np.maximum(pre, 0.0)
    best = act.argmax(axis=0)
    feats = act[best, np.arange(params.n_filters)]
    return {"windows": windows, "pre": pre, "best": best, "feats": feats}


def _forward(params, a, b):
    conv_a = _conv_forward(params, a)
    conv_b = _conv_forward(params, b)
    fa, fb = conv_a["feats"], conv_b["feats"]
    z = np.concatenate([np.abs(fa - fb), fa * fb])
    hidden_pre = params.dense_w @ z + params.dense_b
    hidden = np.maximum(hidden_pre, 0.0)
    logit = float(params.out_w @ hidden + params.out_b)
    return {
        "conv_a": conv_a, "conv_b": conv_b, "z": z,
        "hidden_pre": hidden_pre, "hidden": hidden, "logit": logit,
    }


def _oracle_conv_backward(params, conv, dfeats, grads):
    n_filters = params.n_filters
    dact = np.zeros_like(conv["pre"])
    dact[conv["best"], np.arange(n_filters)] = dfeats
    dpre = dact * (conv["pre"] > 0.0)
    grads["filters"] += (dpre.T @ conv["windows"]).reshape(params.filters.shape)
    grads["filter_bias"] += dpre.sum(axis=0)


def oracle_loss_and_gradients(params, a, b, label):
    """The per-pair loss and gradients, through the reference forward pass
    (``_forward``, one sentence at a time): the reference that the batched
    ``loss_and_gradients`` is compared against."""
    cache = _forward(params, a, b)
    loss = bce_from_logit(cache["logit"], label)
    dlogit = sigmoid(cache["logit"]) - label

    dhidden = dlogit * params.out_w
    dhidden_pre = dhidden * (cache["hidden_pre"] > 0.0)
    dz = params.dense_w.T @ dhidden_pre
    grads = {
        "filters": np.zeros_like(params.filters),
        "filter_bias": np.zeros_like(params.filter_bias),
        "dense_w": np.outer(dhidden_pre, cache["z"]),
        "dense_b": dhidden_pre,
        "out_w": dlogit * cache["hidden"],
        "out_b": dlogit,
    }

    n_filters = params.n_filters
    dabs, dprod = dz[:n_filters], dz[n_filters:]
    fa, fb = cache["conv_a"]["feats"], cache["conv_b"]["feats"]
    sign = np.sign(fa - fb)
    _oracle_conv_backward(params, cache["conv_a"], dabs * sign + dprod * fb, grads)
    _oracle_conv_backward(params, cache["conv_b"], -dabs * sign + dprod * fa, grads)
    return loss, grads


def oracle_batch(params, pairs, labels):
    """The oracle summed over a batch, pair after pair."""
    total, summed = 0.0, None
    for (a, b), label in zip(pairs, labels):
        loss, grads = oracle_loss_and_gradients(params, a, b, label)
        total += loss
        summed = grads if summed is None else {k: summed[k] + grads[k] for k in summed}
    return total, summed


# Batched and per-pair gradients sum in different orders; each tensor must
# agree within this share of its largest oracle entry.
BATCH_RTOL = 1e-12


def _assert_matches_oracle(params, pairs, labels):
    loss, grads = loss_and_gradients(params, *stack_pairs(pairs, params.kernel_width), labels)
    want_loss, want = oracle_batch(params, pairs, labels)
    assert abs(loss - want_loss) <= BATCH_RTOL * abs(want_loss)
    assert set(grads) == set(want)
    for name, expected in want.items():
        got = np.asarray(grads[name], dtype=np.float64)
        expected = np.asarray(expected, dtype=np.float64)
        assert got.shape == expected.shape, name
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=BATCH_RTOL * np.max(np.abs(expected)), err_msg=name)
    return grads


def grid_batch_oracle(params, pairs, labels):
    """The batch loss and gradients with the token-row stack filled sentence
    by sentence and each sentence max-pooled in its own row of a grid padded
    with -inf, by an argmax and a max: the reference that
    ``loss_and_gradients`` must match bit for bit."""
    k, n_filters = params.kernel_width, params.n_filters
    mats = [a for a, _ in pairs] + [b for _, b in pairs]
    n_pairs = len(pairs)
    lengths = [max(len(m), k) for m in mats]
    starts = np.cumsum([0] + lengths[:-1])
    rows = np.zeros((sum(lengths), params.dim))
    for start, mat in zip(starts.tolist(), mats):
        rows[start : start + len(mat)] = mat

    n_positions = len(rows) - k + 1
    shifted = [rows[i : i + n_positions] for i in range(k)]
    pre = params.filter_bias[:, None] + sum(
        params.filters[:, i] @ shifted[i].T for i in range(k))  # (F, positions)
    n_windows = [n - k + 1 for n in lengths]
    grid = np.full((len(mats), n_filters, max(n_windows)), -np.inf)
    for sentence, start, n in zip(grid, starts.tolist(), n_windows):
        sentence[:, :n] = pre[:, start : start + n]
    best = grid.argmax(axis=2)
    top = grid.max(axis=2)
    feats = np.maximum(top, 0.0)

    fa, fb = feats[:n_pairs], feats[n_pairs:]
    z = np.concatenate([np.abs(fa - fb), fa * fb], axis=1)
    hidden_pre = z @ params.dense_w.T + params.dense_b
    hidden = np.maximum(hidden_pre, 0.0)
    logits = hidden @ params.out_w + params.out_b
    loss, dlogits = bce_loss_and_dlogits(logits, np.asarray(labels, dtype=np.float64))

    dhidden_pre = dlogits[:, None] * params.out_w * (hidden_pre > 0.0)
    dz = dhidden_pre @ params.dense_w
    dabs, dprod = dz[:, :n_filters], dz[:, n_filters:]
    sign = np.sign(fa - fb)
    dfeats = np.concatenate([dabs * sign + dprod * fb, -dabs * sign + dprod * fa])
    dtop = dfeats * (top > 0.0)
    dpre = np.zeros_like(pre)
    dpre[np.arange(n_filters), starts[:, None] + best] = dtop
    grads = {
        "filters": np.stack([dpre @ part for part in shifted], axis=1),
        "filter_bias": dtop.sum(axis=0),
        "dense_w": dhidden_pre.T @ z,
        "dense_b": dhidden_pre.sum(axis=0),
        "out_w": dlogits @ hidden,
        "out_b": float(dlogits.sum()),
    }
    return loss, grads


def _assert_matches_grid_oracle(params, pairs, labels):
    loss, grads = loss_and_gradients(params, *stack_pairs(pairs, params.kernel_width), labels)
    want_loss, want = grid_batch_oracle(params, pairs, labels)
    assert loss == want_loss
    assert set(grads) == set(want)
    for name, expected in want.items():
        got, expected = np.asarray(grads[name]), np.asarray(expected)
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
        assert got.tobytes() == expected.tobytes(), name
    return grads


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


class TestForwardAgainstGatherOracle:
    """cnn_forward max-pools before the ReLU and keeps no cache; its score
    must equal, bitwise, the sigmoid of the reference forward pass, which
    applies the ReLU first and gathers each filter's argmax window."""

    @staticmethod
    def _assert_bitwise(params, a, b):
        assert cnn_forward(params, a, b) == sigmoid(_forward(params, a, b)["logit"])

    def test_random_pairs_of_every_length(self):
        params = init_params(dim=6, n_filters=8, kernel_width=3, hidden=5, seed=11)
        rng = np.random.default_rng(30)
        for _ in range(300):
            la, lb = (int(x) for x in rng.integers(1, DEFAULT_N_MAX + 1, size=2))
            self._assert_bitwise(params, _random_matrix(rng, la, 6), _random_matrix(rng, lb, 6))

    def test_sentences_shorter_than_the_kernel(self):
        params = init_params(dim=4, n_filters=5, kernel_width=3, hidden=4, seed=12)
        rng = np.random.default_rng(31)
        for la, lb in [(1, 1), (1, 2), (2, 2), (2, 7), (3, 1)]:
            self._assert_bitwise(params, _random_matrix(rng, la, 4), _random_matrix(rng, lb, 4))

    def test_trained_scorer_on_attention_weighted_pairs(self):
        # repeated words, all-OOV sentences and sentences longer than n_max
        dataset, table = separable_toy_set(n_per_class=5, dim=8)
        params, _ = cnn_train(dataset, table, TrainConfig(epochs=3, seed=13))
        pairs = [(p.a, p.b) for p in dataset] + [
            (Sentence(["w", "w", "w", "v"]), Sentence(["v", "w", "v"])),
            (Sentence(["oov1", "oov2"]), Sentence(["oov2", "oov3", "oov4"])),
            (Sentence([f"t{i % 7}" for i in range(50)]), Sentence(["t1", "t2"])),
        ]
        for a, b in pairs:
            for n_max in (2, DEFAULT_N_MAX):
                self._assert_bitwise(params, *weighted_pair_matrices(a, b, table, n_max))

    def test_a_filter_whose_pre_activations_are_all_nonpositive(self):
        base = init_params(dim=3, n_filters=4, kernel_width=2, hidden=6, seed=14)
        params = replace(base, filter_bias=base.filter_bias - np.array([0.0, 1e3, 0.0, 0.0]))
        rng = np.random.default_rng(32)
        for la, lb in [(1, 4), (5, 3), (2, 2), (9, 1)]:
            a, b = _random_matrix(rng, la, 3), _random_matrix(rng, lb, 3)
            assert np.all(_conv_forward(params, a)["pre"][:, 1] <= 0.0)
            self._assert_bitwise(params, a, b)

    def test_zero_rows(self):
        params = init_params(dim=3, n_filters=4, kernel_width=2, hidden=3, seed=15)
        rng = np.random.default_rng(33)
        zeros = np.zeros((4, 3))
        self._assert_bitwise(params, zeros, _random_matrix(rng, 3, 3))
        self._assert_bitwise(params, zeros, zeros[:1])


class TestWindows:
    def test_matches_row_loop(self):
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
        _, analytic = loss_and_gradients(
            small_params, *stack_pairs([(a, b)], small_params.kernel_width), [1.0])
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

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_is_refused_before_any_difference(self, small_params, epsilon):
        rng = np.random.default_rng(9)
        a = _random_matrix(rng, 2, 3)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            gradient_check(small_params, (a, a, 1.0), epsilon=epsilon)

    def test_a_nan_gradient_counts_as_an_infinite_error(self):
        params = init_params(dim=3, n_filters=2, kernel_width=2, hidden=3, seed=9)
        rng = np.random.default_rng(10)
        a, b = _random_matrix(rng, 4, 3), _random_matrix(rng, 3, 3)
        numeric = numeric_gradients(params, a, b, 1.0, epsilon=1e-4)
        all_nan = {name: np.full_like(num, np.nan) for name, num in numeric.items()}
        assert max_relative_error(all_nan, numeric) == math.inf
        # one NaN entry in one tensor, after and before tensors that agree
        for name in ("filters", "out_b"):
            one_nan = {key: num.copy() for key, num in numeric.items()}
            one_nan[name].flat[0] = np.nan
            assert max_relative_error(one_nan, numeric) == math.inf
        assert max_relative_error(numeric, numeric) == 0.0


def test_loss_and_gradients_refuses_a_stack_its_lengths_do_not_describe(small_params):
    rng = np.random.default_rng(24)
    rows, lengths = stack_pairs([(_random_matrix(rng, 3, 3), _random_matrix(rng, 1, 3))], 2)
    assert lengths.tolist() == [3, 2] and len(rows) == 5
    for bad_rows, bad_lengths, labels in [
            (rows, lengths, [1.0, 0.0]),   # two labels for one pair
            (rows, [4, 1], [1.0]),         # a sentence shorter than the kernel
            (rows[:4], lengths, [1.0])]:   # rows the lengths do not add up to
        with pytest.raises(ValueError, match="sentences of >= 2 rows"):
            loss_and_gradients(small_params, bad_rows, bad_lengths, labels)


class TestBatchAgainstPerPairOracle:
    def test_sentences_shorter_than_the_kernel(self):
        params = init_params(dim=4, n_filters=5, kernel_width=3, hidden=4, seed=1)
        rng = np.random.default_rng(20)
        pairs = [(_random_matrix(rng, la, 4), _random_matrix(rng, lb, 4))
                 for la, lb in [(1, 2), (2, 1), (1, 1), (3, 2), (2, 5)]]
        _assert_matches_oracle(params, pairs, [1.0, 0.0, 1.0, 0.0, 1.0])

    def test_mixed_lengths_up_to_n_max(self):
        params = init_params(dim=6, seed=2)
        rng = np.random.default_rng(21)
        lengths = rng.integers(1, DEFAULT_N_MAX + 1, size=(16, 2))
        lengths[0] = DEFAULT_N_MAX
        pairs = [(_random_matrix(rng, la, 6), _random_matrix(rng, lb, 6))
                 for la, lb in lengths]
        _assert_matches_oracle(params, pairs, rng.integers(0, 2, size=16).astype(float))

    def test_a_filter_dead_on_the_whole_batch_has_zero_features_and_gradients(self):
        # every pre-activation of filter 1 is <= 0, so the max-pool's
        # feature and every gradient that flows through it are exactly 0
        base = init_params(dim=3, n_filters=4, kernel_width=2, hidden=6, seed=4)
        params = replace(base, filter_bias=base.filter_bias - np.array([0.0, 1e3, 0.0, 0.0]))
        rng = np.random.default_rng(22)
        pairs = [(_random_matrix(rng, la, 3), _random_matrix(rng, lb, 3))
                 for la, lb in [(1, 4), (5, 3), (2, 2), (6, 1)]]
        grads = _assert_matches_oracle(params, pairs, [1.0, 0.0, 0.0, 1.0])
        assert np.all(grads["filters"][1] == 0.0)
        assert grads["filter_bias"][1] == 0.0
        # z = (|fa - fb|, fa * fb): the dead filter's columns see zero inputs
        assert np.all(grads["dense_w"][:, [1, 4 + 1]] == 0.0)
        assert np.any(grads["filters"][[0, 2, 3]] != 0.0)

    def test_every_batch_of_an_epoch_ending_with_a_partial_one(self):
        dataset, table = separable_toy_set(n_per_class=5, dim=8)
        inputs = [weighted_pair_matrices(p.a, p.b, table, DEFAULT_N_MAX) for p in dataset]
        labels = [p.label for p in dataset]
        params = init_params(table.dim, seed=5)
        order = np.random.default_rng(5).permutation(len(inputs))
        batches = [order[start : start + 4] for start in range(0, len(order), 4)]
        assert [len(batch) for batch in batches] == [4, 4, 2]
        for batch in batches:
            _assert_matches_oracle(params, [inputs[i] for i in batch],
                                   [labels[i] for i in batch])

    def test_training_follows_the_oracle_driven_sgd(self):
        # 10 pairs in batches of 4: the last batch of each epoch is partial
        dataset, table = separable_toy_set(n_per_class=5, dim=8)
        config = TrainConfig(learning_rate=0.2, epochs=4, batch_size=4, seed=6)
        params, losses = cnn_train(dataset, table, config)

        inputs = [weighted_pair_matrices(p.a, p.b, table, DEFAULT_N_MAX) for p in dataset]
        labels = [p.label for p in dataset]
        want, want_losses = sgd(
            init_params(table.dim, seed=config.seed),
            lambda p, idx: oracle_batch(p, [inputs[i] for i in idx], [labels[i] for i in idx]),
            len(inputs), config, np.random.default_rng(config.seed))
        np.testing.assert_allclose(losses, want_losses, rtol=BATCH_RTOL, atol=0)
        for name in ("filters", "filter_bias", "dense_w", "dense_b", "out_w"):
            expected = getattr(want, name)
            np.testing.assert_allclose(getattr(params, name), expected, rtol=0,
                                       atol=BATCH_RTOL * np.max(np.abs(expected)),
                                       err_msg=name)
        assert params.out_b == pytest.approx(want.out_b, rel=BATCH_RTOL, abs=0)


def word_reuse_set():
    """Ten labeled pairs whose words the row store of ``cnn_train`` shares:
    words repeated within a sentence and across pairs, OOV words (the
    ``oov`` ones, also repeated), sentences shorter than the default kernel
    width 3, and sentences longer than 5 words, for training with n_max 5."""
    texts = [
        ("w w w v", "v w v", 1.0),
        ("oov1 w oov2", "oov2 x oov3 oov1", 0.0),
        ("x", "w v y z", 0.0),
        ("y z", "y", 1.0),
        ("t0 t1 t2 t3 t4 t5 t6 t7", "t1 t2 w w v x y z", 1.0),
        ("t3 t3 t3 t3 t3 t3 t3", "oov1 oov1 t3", 0.0),
        ("v x", "x v", 1.0),
        ("z y x w v t0 t1 t2 t3", "t0", 0.0),
        ("oov4 oov5 w oov4 oov5 w", "oov5 oov4 w", 1.0),
        ("t5 t6", "t6 t5 t4 t3 t2 t1", 0.0),
    ]
    pairs = tuple(LabeledPair(id=f"p{i}", a=Sentence(a.split()), b=Sentence(b.split()),
                              label=label) for i, (a, b, label) in enumerate(texts))
    table = toy_table(["w", "v", "x", "y", "z"] + [f"t{i}" for i in range(8)], dim=6, seed=17)
    return Dataset(pairs=pairs, label_kind=BINARY), table


class TestBatchAgainstGridOracle:
    """loss_and_gradients against the grid oracle, bit for bit: the loss and
    every gradient tensor's dtype, shape and bytes."""

    @pytest.mark.parametrize("kernel_width", [3, 4])
    def test_some_or_all_sentences_shorter_than_the_kernel(self, kernel_width):
        params = init_params(dim=4, n_filters=5, kernel_width=kernel_width, hidden=4, seed=1)
        rng = np.random.default_rng(40)
        for lengths in ([(1, 2), (2, 1), (1, 1), (3, 2), (2, 5)], [(1, 2), (2, 1), (1, 1)]):
            pairs = [(_random_matrix(rng, la, 4), _random_matrix(rng, lb, 4))
                     for la, lb in lengths]
            _assert_matches_grid_oracle(params, pairs, rng.integers(0, 2, len(pairs)) * 1.0)

    @pytest.mark.parametrize("kernel_width", [1, 3, 4])
    def test_mixed_lengths_up_to_n_max(self, kernel_width):
        params = init_params(dim=6, kernel_width=kernel_width, seed=2)
        rng = np.random.default_rng(41)
        for _ in range(10):
            lengths = rng.integers(1, DEFAULT_N_MAX + 1, size=(16, 2))
            lengths[0] = DEFAULT_N_MAX
            pairs = [(_random_matrix(rng, la, 6), _random_matrix(rng, lb, 6))
                     for la, lb in lengths]
            _assert_matches_grid_oracle(params, pairs, rng.integers(0, 2, 16) * 1.0)

    @pytest.mark.parametrize("kernel_width", [1, 3, 4])
    def test_a_batch_of_one_pair(self, kernel_width):
        params = init_params(dim=5, n_filters=6, kernel_width=kernel_width, hidden=4, seed=3)
        rng = np.random.default_rng(42)
        for la, lb in [(1, 1), (2, 9), (DEFAULT_N_MAX, 4)]:
            pair = (_random_matrix(rng, la, 5), _random_matrix(rng, lb, 5))
            _assert_matches_grid_oracle(params, [pair], [1.0])

    def test_a_filter_dead_on_the_whole_batch(self):
        base = init_params(dim=3, n_filters=4, kernel_width=2, hidden=6, seed=4)
        params = replace(base, filter_bias=base.filter_bias - np.array([0.0, 1e3, 0.0, 0.0]))
        rng = np.random.default_rng(43)
        pairs = [(_random_matrix(rng, la, 3), _random_matrix(rng, lb, 3))
                 for la, lb in [(1, 4), (5, 3), (2, 2), (6, 1)]]
        grads = _assert_matches_grid_oracle(params, pairs, [1.0, 0.0, 0.0, 1.0])
        assert np.all(grads["filters"][1] == 0.0)

    def test_equal_windows_go_to_the_first(self):
        # The filters read only dimension 0, where every row of a sentence
        # is 1, so all its windows tie; dimension 1 differs from row to row,
        # so the filters' gradient shows which window won.
        base = init_params(dim=2, n_filters=3, kernel_width=3, hidden=4, seed=0)
        filters = np.abs(base.filters) * np.array([1.0, 0.0])
        params = replace(base, filters=filters, filter_bias=np.abs(base.filter_bias))
        rng = np.random.default_rng(44)
        tied = np.column_stack([np.ones(7), rng.standard_normal(7)])
        identical = np.tile([0.5, -2.0], (6, 1))
        pairs = [(tied, identical), (identical, _random_matrix(rng, 4, 2)),
                 (tied[:4], tied)]
        grads = _assert_matches_grid_oracle(params, pairs, [0.0, 1.0, 0.0])
        assert np.any(grads["filters"][:, :, 1] != 0.0)

    @pytest.mark.parametrize("training_set, n_max", [
        (separable_toy_set(n_per_class=5, dim=8), DEFAULT_N_MAX),
        (word_reuse_set(), 5)], ids=["separable", "word_reuse"])
    def test_cnn_train_ending_each_epoch_with_a_partial_batch(self, training_set, n_max):
        # 10 pairs in batches of 4: the last batch of each epoch holds 2
        dataset, table = training_set
        assert len(dataset) == 10
        config = TrainConfig(learning_rate=0.2, epochs=4, batch_size=4, seed=6)
        params, losses = cnn_train(dataset, table, config, n_max=n_max)

        inputs = [weighted_pair_matrices(p.a, p.b, table, n_max) for p in dataset]
        labels = np.array([p.label for p in dataset])
        want, want_losses = sgd(
            init_params(table.dim, seed=config.seed),
            lambda p, idx: grid_batch_oracle(p, [inputs[i] for i in idx], labels[idx]),
            len(inputs), config, np.random.default_rng(config.seed))
        assert losses == want_losses
        for name in ("filters", "filter_bias", "dense_w", "dense_b", "out_w", "out_b"):
            got, expected = np.asarray(getattr(params, name)), np.asarray(getattr(want, name))
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name


def test_cnn_train_follows_the_grid_oracle_bitwise_at_the_benchmark_shapes():
    # OpenBLAS picks its kernels by shape, so the small shapes above do not
    # reach the ones training runs at: here dim 100, the default 32 filters
    # and kernel width 3, 48 pairs of 8-24 words (some OOV, some past n_max
    # 20) in batches of 16, as the benchmark trains
    rng = np.random.default_rng(48)
    vocab = [f"word{i}" for i in range(400)]
    words = vocab + [f"oov{i}" for i in range(40)]
    pairs = tuple(
        LabeledPair(id=str(i), a=Sentence(rng.choice(words, rng.integers(8, 25)).tolist()),
                    b=Sentence(rng.choice(words, rng.integers(8, 25)).tolist()),
                    label=float(i % 2))
        for i in range(48))
    dataset, table = Dataset(pairs=pairs, label_kind=BINARY), toy_table(vocab, dim=100)
    config = TrainConfig(learning_rate=0.2, epochs=2, batch_size=16, seed=3)
    params, losses = cnn_train(dataset, table, config, n_max=20)

    inputs = [weighted_pair_matrices(p.a, p.b, table, 20) for p in dataset]
    labels = np.array([p.label for p in dataset])
    want, want_losses = sgd(
        init_params(table.dim, seed=config.seed),
        lambda p, idx: grid_batch_oracle(p, [inputs[i] for i in idx], labels[idx]),
        len(inputs), config, np.random.default_rng(config.seed))
    assert params.filters.shape == (32, 3, 100)
    assert losses == want_losses
    for name in ("filters", "filter_bias", "dense_w", "dense_b", "out_w", "out_b"):
        got, expected = np.asarray(getattr(params, name)), np.asarray(getattr(want, name))
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name


def oracle_init_params(dim, n_filters, kernel_width, hidden, seed):
    """init_params with its own fan-in closure, drawing field by field: the
    reference the shared head's initialization must match bit for bit."""
    rng = np.random.default_rng(seed)

    def uniform(fan_in, *shape):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return CnnParams(
        filters=uniform(kernel_width * dim, n_filters, kernel_width, dim),
        filter_bias=uniform(kernel_width * dim, n_filters),
        dense_w=uniform(2 * n_filters, hidden, 2 * n_filters),
        dense_b=uniform(2 * n_filters, hidden),
        out_w=uniform(hidden, hidden),
        out_b=float(uniform(hidden, 1)[0]),
        rng_seed=seed,
    )


@pytest.mark.parametrize("dim, n_filters, kernel_width, hidden, seed", [
    (3, 4, 2, 3, 9), (1, 1, 1, 1, 0), (100, 32, 3, 16, 0), (7, 5, 4, 2, 123), (2, 3, 5, 9, 7)])
def test_init_params_equals_the_oracle_bitwise(dim, n_filters, kernel_width, hidden, seed):
    got = init_params(dim, n_filters, kernel_width, hidden, seed)
    want = oracle_init_params(dim, n_filters, kernel_width, hidden, seed)
    assert got.rng_seed == want.rng_seed
    for name in ("filters", "filter_bias", "dense_w", "dense_b", "out_w", "out_b"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


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

    @pytest.mark.parametrize("learning_rate", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_learning_rate(self, learning_rate):
        with pytest.raises(ConfigError, match=f"^learning_rate must be positive and finite, "
                                              f"got {learning_rate}$"):
            TrainConfig(learning_rate=learning_rate)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
    ], ids=["-1", "1.5", "True"])
    def test_rejects_a_seed_that_is_not_a_non_negative_int(self, seed, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            TrainConfig(seed=seed)


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

    def test_rejects_an_empty_dataset(self, toy_training_setup):
        _, table = toy_training_setup
        with pytest.raises(DegenerateData, match="^training needs at least one example$"):
            cnn_train(Dataset((), BINARY), table, TrainConfig(epochs=1))


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


def test_cnn_train_keeps_no_weighted_matrix_per_sentence():
    # 300 pairs of 2 x 20 tokens from a 60-word vocabulary at dim 64: their
    # weighted matrices would take 5.86 MiB, while their distinct rows take 31 KiB
    vocab = [f"word{i}" for i in range(60)]
    rng = np.random.default_rng(23)
    pairs = tuple(
        LabeledPair(id=str(i), a=Sentence(rng.choice(vocab, 20).tolist()),
                    b=Sentence(rng.choice(vocab, 20).tolist()), label=float(i % 2))
        for i in range(300))
    dataset, table = Dataset(pairs=pairs, label_kind=BINARY), toy_table(vocab, dim=64)
    weighted_bytes = sum(len(p.a) + len(p.b) for p in pairs) * table.dim * 8
    assert weighted_bytes == 6_144_000
    tracemalloc.start()
    try:
        cnn_train(dataset, table, TrainConfig(epochs=1, batch_size=16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < weighted_bytes / 2, f"traced peak {peak / 2**20:.2f} MiB"


def _row_store_oracle(dataset, table, n_max, k):
    """``_row_store`` as the rows ``embed_sentence`` embeds, weighted by
    ``matrix_attention``: a copied matrix row per distinct word, and per-token
    lists of indices and weights."""
    store_index, store_rows = {}, [np.zeros(table.dim)]
    ids, weights, lengths = [], [], []
    for pair in dataset:
        a, b = pair.a.truncated(n_max), pair.b.truncated(n_max)
        mat_a, mat_b = embed_sentence(table, a, n_max), embed_sentence(table, b, n_max)
        weights_a, weights_b = matrix_attention(a, mat_a, b, mat_b)
        for words, mat, mat_weights in ((a.words, mat_a, weights_a),
                                        (b.words, mat_b, weights_b)):
            for i, word in enumerate(words):
                if word not in store_index:
                    store_index[word] = len(store_rows)
                    store_rows.append(mat[i].copy())
                ids.append(store_index[word])
            pad = max(k - len(mat), 0)
            ids += [0] * pad
            weights += mat_weights.tolist() + [0.0] * pad
            lengths.append(len(mat) + pad)
    return np.array(store_rows), np.array(ids), np.array(weights), np.array(lengths)


def _row_store_set():
    """Pairs with OOV words, a sentence shorter than the kernel, sentences
    longer than n_max = 6, and words repeated within and across sentences."""
    sentences = [
        ("in0 in1 in2 in3", "in1 oov0 in4 in1"),
        ("in5", "in5 in6 oov1 oov2 oov3 in0 in7 in8 oov4"),
        ("oov5 oov0 in9 in9 in9 oov5 in2 in3 oov6", "oov7"),
        ("in4 oov8", "in2 in10 oov9 oov10 in11 in0 oov11"),
        ("oov1 oov12 oov13 oov14 oov15 oov16 oov17", "in3 in1 oov12 in12"),
    ]
    pairs = tuple(LabeledPair(id=str(i), a=Sentence(a.split()), b=Sentence(b.split()),
                              label=float(i % 2))
                  for i, (a, b) in enumerate(sentences))
    return Dataset(pairs=pairs, label_kind=BINARY)


@pytest.mark.parametrize("kernel_width", [1, 3, 5])
@pytest.mark.parametrize("cache_rows", [embedding.OOV_CACHE_ROWS, 3])
def test_row_store_matches_the_copied_rows_and_per_token_lists(monkeypatch, kernel_width,
                                                               cache_rows):
    # with 3 cache rows, the OOV cache is emptied during the walk, and the
    # store's OOV rows are drawn again after it
    monkeypatch.setattr(embedding, "OOV_CACHE_ROWS", cache_rows)
    dataset, vocab = _row_store_set(), [f"in{i}" for i in range(13)]
    got = _row_store(dataset, toy_table(vocab, dim=7), 6, kernel_width)
    want = _row_store_oracle(dataset, toy_table(vocab, dim=7), 6, kernel_width)
    assert len(got) == 4
    for name, g, w in zip(("store", "ids", "weights", "lengths"), got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name
    distinct = {word for pair in dataset for s in (pair.a, pair.b) for word in s.words[:6]}
    assert len(got[0]) == 1 + len(distinct)
    assert len(distinct - set(vocab)) > 3  # more OOV words than the small cache holds
    assert got[3].min() >= kernel_width


def test_row_store_looks_each_distinct_word_up_once_and_embeds_no_sentence(monkeypatch):
    # through the names cnn looks up, and the one weighted_pair_matrices embeds with
    calls, attended = [], []

    def counting_lookup(table, word):
        calls.append(word)
        return embedding.lookup(table, word)

    def counting_attention(a, mat_a, b, mat_b):
        attended.append((a.words, b.words))
        return matrix_attention(a, mat_a, b, mat_b)

    def refuse(*args):
        raise AssertionError("embed_sentence called")

    monkeypatch.setattr(cnn, "lookup", counting_lookup)
    monkeypatch.setattr(cnn, "matrix_attention", counting_attention)
    monkeypatch.setattr(attention, "embed_sentence", refuse)
    dataset, vocab = _row_store_set(), [f"in{i}" for i in range(13)]
    store, ids, weights, lengths = _row_store(dataset, toy_table(vocab, dim=7), 6, 3)
    distinct = {word for pair in dataset for s in (pair.a, pair.b) for word in s.words[:6]}
    assert sorted(calls) == sorted(distinct)
    assert attended == [(pair.a.words[:6], pair.b.words[:6]) for pair in dataset]
    assert len(store) == 1 + len(distinct)


@pytest.mark.parametrize("in_vocabulary", [True, False], ids=["in-vocabulary", "oov"])
def test_row_store_allocates_little_beyond_what_it_returns(monkeypatch, in_vocabulary):
    # 2,500 distinct words in 600 pairs of 4-16 tokens at dim 64: a copied row
    # per word, then stacked, peaks at over twice the returned bytes, and so
    # does a list that keeps every OOV vector drawn while the cache forgets them
    monkeypatch.setattr(embedding, "OOV_CACHE_ROWS", 256)
    vocab = [f"word{i}" for i in range(2_500)]
    rng = np.random.default_rng(31)
    order = rng.permutation(vocab).tolist()
    pairs = []
    for i in range(600):
        words = [order.pop() if order else rng.choice(vocab) for _ in range(rng.integers(4, 17))]
        other = rng.choice(vocab, rng.integers(4, 17)).tolist()
        pairs.append(LabeledPair(id=str(i), a=Sentence(words), b=Sentence(other),
                                 label=float(i % 2)))
    dataset = Dataset(pairs=tuple(pairs), label_kind=BINARY)
    table = toy_table(vocab if in_vocabulary else [], dim=64)
    tracemalloc.start()
    try:
        returned = _row_store(dataset, table, DEFAULT_N_MAX, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(returned[0]) == 1 + 2_500
    returned_bytes = sum(array.nbytes for array in returned)
    assert peak < 1.8 * returned_bytes, f"traced peak {peak / returned_bytes:.2f} x returned"
