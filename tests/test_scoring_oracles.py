"""The per-pair scoring path against the implementations it replaced.

``cosine_matrix``, ``position_weights``, ``embed_sentence`` and ``fuse``
were rewritten to make fewer numpy calls per pair.  Each reference below
is the earlier code, kept as the oracle: on seeded inputs the new code
must return the same bits.  (The CNN forward pass has its own oracle in
``test_cnn.py``.)
"""

import numpy as np
import pytest

from simfuse.attention import (apply_attention, attention_weights, cosine_matrix,
                               edit_distance, marginal_sums, position_weights,
                               weighted_pair_matrices)
from simfuse.cnn import TrainConfig
from simfuse.corpus import Sentence
from simfuse.embedding import EmbeddingTable, embed_sentence, lookup
from simfuse.fusion import (LEARNED, WEIGHTED_SUM, FusionParams, calibrate_weights, fuse,
                            train_fusion)
from simfuse.nn import sigmoid

from toy import toy_table


def oracle_cosine_matrix(a, b):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norms_a = np.linalg.norm(a, axis=1)
        norms_b = np.linalg.norm(b, axis=1)
        grid = a @ b.T
        denom = np.outer(norms_a, norms_b)
        return np.where(denom > 0.0, grid / np.where(denom > 0.0, denom, 1.0), 0.0)


def oracle_position_weights(a, b):
    """Calls edit_distance for every co-occurring word, itself included."""
    surfaces_a, surfaces_b = a.words, b.words
    n, m = len(surfaces_a), len(surfaces_b)
    pos_row, pos_col = np.zeros(n), np.zeros(m)
    scale = min(n, m)
    for word in set(surfaces_a) & set(surfaces_b):
        p = surfaces_a.index(word)
        if p < m:
            pos_row[p] = 2.0 * edit_distance(word, surfaces_b[p]) / scale
        q = surfaces_b.index(word)
        if q < n:
            pos_col[q] = 2.0 * edit_distance(word, surfaces_a[q]) / scale
    return pos_row, pos_col


def oracle_embed_sentence(table, s, n_max):
    """Fills a preallocated matrix row by row."""
    length = min(len(s), n_max)
    rows = np.empty((length, table.dim), dtype=np.float64)
    for i in range(length):
        rows[i] = lookup(table, s.words[i])
    return rows


def oracle_fuse(scores, weights, params):
    """Weights and sums the scores as a numpy array."""
    weighted = weights.as_array() * np.asarray(scores, dtype=np.float64)
    if params.mode == WEIGHTED_SUM:
        return float(min(1.0, weighted.sum()))
    net = params.net
    hidden = np.maximum(net.hidden_w @ weighted + net.hidden_b, 0.0)
    return sigmoid(float(net.out_w @ hidden + net.out_b))


def oracle_weighted_pair_matrices(a, b, table, n_max):
    a, b = a.truncated(n_max), b.truncated(n_max)
    mat_a, mat_b = oracle_embed_sentence(table, a, n_max), oracle_embed_sentence(table, b, n_max)
    row_vec, col_vec = marginal_sums(oracle_cosine_matrix(mat_a, mat_b))
    pos_row, pos_col = oracle_position_weights(a, b)
    row_weights, col_weights = attention_weights(row_vec, pos_row, col_vec, pos_col)
    return apply_attention(mat_a, row_weights), apply_attention(mat_b, col_weights)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


VOCAB = [f"w{i}" for i in range(10)]


@pytest.fixture(scope="module")
def table():
    return toy_table(VOCAB, dim=12, seed=7)


def _random_sentences(rng, count, longest):
    # a 10-word vocabulary plus 4 OOV words: repeats, shared and one-sided
    # words are common, and some sentences are all OOV
    words = VOCAB + ["oovA", "oovB", "oovC", "oovD"]
    out = [Sentence(["oovA", "oovB", "oovA"]), Sentence(["w1"] * 5),
           Sentence([f"w{i % 10}" for i in range(45)])]
    while len(out) < count:
        length = int(rng.integers(1, longest + 1))
        out.append(Sentence([str(w) for w in rng.choice(words, size=length)]))
    return out


class TestCosineMatrix:
    def test_random_matrices_of_lengths_1_to_32(self):
        rng = np.random.default_rng(40)
        for _ in range(400):
            n, m = (int(x) for x in rng.integers(1, 33, size=2))
            dim = int(rng.integers(1, 20))
            a, b = rng.standard_normal((n, dim)), rng.standard_normal((m, dim))
            assert_same_bits(cosine_matrix(a, b), oracle_cosine_matrix(a, b))

    def test_zero_norm_tiny_and_huge_rows(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((4, 5))
        a[1] = 0.0
        b[2] = 0.0
        a[3] *= 1e-170  # squares underflow: a nonzero row of norm 0
        a[4] *= 1e200   # squares overflow: an infinite norm
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(a, axis=1)
        assert norms[3] == 0.0 and np.isinf(norms[4])
        assert_same_bits(cosine_matrix(a, b), oracle_cosine_matrix(a, b))
        zeros = np.zeros((3, 5))
        assert_same_bits(cosine_matrix(zeros, zeros), oracle_cosine_matrix(zeros, zeros))

    def test_repeated_rows(self):
        rng = np.random.default_rng(42)
        row = rng.standard_normal(7)
        a = np.stack([row, row, -row, 2.0 * row])
        assert_same_bits(cosine_matrix(a, a), oracle_cosine_matrix(a, a))


class TestPositionWeights:
    def test_skipping_a_word_mirrored_onto_itself_changes_nothing(self):
        rng = np.random.default_rng(43)
        sentences = _random_sentences(rng, 200, 12)
        identical = Sentence(["w1", "w2", "w1", "w3"])
        pairs = list(zip(sentences[::2], sentences[1::2])) + [(identical, identical)]
        for a, b in pairs:
            for got, want in zip(position_weights(a, b), oracle_position_weights(a, b)):
                assert_same_bits(got, want)


class TestEmbedSentence:
    def test_random_sentences_and_lengths(self, table):
        rng = np.random.default_rng(44)
        for s in _random_sentences(rng, 200, 40):
            for n_max in (1, 3, 32):
                assert_same_bits(embed_sentence(table, s, n_max),
                                 oracle_embed_sentence(table, s, n_max))

    def test_all_oov_sentence_on_an_empty_table(self):
        empty = EmbeddingTable(dim=4, vectors={})
        s = Sentence(["x", "y", "x", "z"])
        assert_same_bits(embed_sentence(empty, s, 32), oracle_embed_sentence(empty, s, 32))


class TestWeightedPairMatrices:
    def test_the_composed_oracle(self, table):
        rng = np.random.default_rng(45)
        sentences = _random_sentences(rng, 200, 40)
        for a, b in zip(sentences[::2], sentences[1::2]):
            for n_max in (2, 32):
                got = weighted_pair_matrices(a, b, table, n_max)
                want = oracle_weighted_pair_matrices(a, b, table, n_max)
                for g, w in zip(got, want):
                    assert_same_bits(g, w)


class TestFuse:
    @pytest.fixture(scope="class")
    def triples(self):
        rng = np.random.default_rng(46)
        random = rng.random((3000, 3)).tolist()
        edges = [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (0.5, 0.5, 0.5)]
        return edges + [tuple(t) for t in random]

    def test_weighted_sum(self, triples):
        rng = np.random.default_rng(47)
        params = FusionParams(mode=WEIGHTED_SUM)
        for scores in triples:
            weights = calibrate_weights(*rng.random(3))
            assert_same_bits(fuse(scores, weights, params), oracle_fuse(scores, weights, params))

    def test_learned(self, triples):
        weights = calibrate_weights(0.6, 0.8, 0.7)
        labels = [float(sum(t) > 1.5) for t in triples[:200]]
        params, _ = train_fusion(triples[:200], labels, weights,
                                 TrainConfig(epochs=3, learning_rate=0.5, seed=3))
        assert params.mode == LEARNED
        for scores in triples:
            assert_same_bits(fuse(scores, weights, params), oracle_fuse(scores, weights, params))
