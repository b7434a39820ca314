import math

import numpy as np
import pytest

from simfuse.attention import (apply_attention, attention_weights,
                               cosine_matrix, edit_distance, marginal_sums,
                               position_weights, weighted_pair_matrices)
from simfuse.corpus import Sentence
from simfuse.embedding import EmbeddingTable, embed_sentence
from simfuse.errors import DimensionError


def _matrix(rows):
    return np.asarray(rows, dtype=np.float64)


def _dp_table_distance(u, v):
    """Independent full-table recomputation of the edit distance."""
    table = [[0] * (len(v) + 1) for _ in range(len(u) + 1)]
    for i in range(len(u) + 1):
        table[i][0] = i
    for j in range(len(v) + 1):
        table[0][j] = j
    for i in range(1, len(u) + 1):
        for j in range(1, len(v) + 1):
            cost = 0 if u[i - 1] == v[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + cost)
    return table[-1][-1]


class TestCosineMatrix:
    def test_identical_row(self):
        a = _matrix([[1.0, 1.0]])
        g = cosine_matrix(a, a)
        assert g[0, 0] == pytest.approx(1.0)

    def test_orthogonal(self):
        g = cosine_matrix(_matrix([[1.0, 0.0]]), _matrix([[0.0, 1.0]]))
        assert g[0, 0] == 0.0

    def test_hand_value(self):
        g = cosine_matrix(_matrix([[1.0, 1.0]]), _matrix([[1.0, 0.0]]))
        assert g[0, 0] == pytest.approx(1.0 / math.sqrt(2.0))

    def test_zero_norm_row_gives_zero(self):
        g = cosine_matrix(_matrix([[0.0, 0.0]]), _matrix([[1.0, 2.0]]))
        assert g[0, 0] == 0.0

    def test_padding_excluded(self):
        # an (n, d) and an (m, d) matrix give an (n, m) grid: no padded rows
        a = _matrix([[1.0, 0.0]])
        b = _matrix([[1.0, 0.0], [0.0, 1.0]])
        g = cosine_matrix(a, b)
        assert g.shape == (1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_matrix(_matrix([[1.0, 0.0]]), _matrix([[1.0, 0.0, 0.0]]))

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = _matrix(rng.standard_normal((rng.integers(1, 5), 3)))
            b = _matrix(rng.standard_normal((rng.integers(1, 5), 3)))
            np.testing.assert_allclose(
                cosine_matrix(a, b), cosine_matrix(b, a).T,
                atol=1e-12,
            )


class TestMarginalSums:
    def test_identity_grid(self):
        grid = cosine_matrix(_matrix(np.eye(2)), _matrix(np.eye(2)))
        row, col = marginal_sums(grid)
        np.testing.assert_allclose(row, [1.0, 1.0])
        np.testing.assert_allclose(col, [1.0, 1.0])

    def test_single_row(self):
        g = cosine_matrix(_matrix([[1.0, 0.0]]),
                          _matrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        row, col = marginal_sums(g)
        assert row.shape == (1,)
        assert col.shape == (3,)
        assert row[0] == pytest.approx(col.sum())


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("abc", "abc") == 0

    def test_insertions(self):
        assert edit_distance("", "ab") == 2

    def test_kitten_sitting(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_matches_dp_table(self):
        rng = np.random.default_rng(23)
        alphabet = "abcde"
        for _ in range(300):
            u = "".join(rng.choice(list(alphabet), size=rng.integers(0, 9)))
            v = "".join(rng.choice(list(alphabet), size=rng.integers(0, 9)))
            assert edit_distance(u, v) == _dp_table_distance(u, v)
            assert edit_distance(u, v) == edit_distance(v, u)


class TestPositionWeights:
    def test_disjoint_all_zero(self):
        row, col = position_weights(Sentence.from_surfaces(["a", "b"]),
                                    Sentence.from_surfaces(["c", "d"]))
        assert not row.any() and not col.any()

    def test_identical_all_zero(self):
        s = Sentence.from_surfaces(["ab", "cd"])
        row, col = position_weights(s, s)
        assert not row.any() and not col.any()

    def test_aligned_co_word(self):
        row, col = position_weights(Sentence.from_surfaces(["ab", "x"]),
                                    Sentence.from_surfaces(["ab", "yz"]))
        np.testing.assert_array_equal(row, [0.0, 0.0])
        np.testing.assert_array_equal(col, [0.0, 0.0])

    def test_displaced_co_word(self):
        # "ab" sits at index 0 in A but index 1 in B; each side compares it
        # with the other sentence's token at its own index.
        row, col = position_weights(Sentence.from_surfaces(["ab", "x"]),
                                    Sentence.from_surfaces(["y", "ab"]))
        np.testing.assert_array_equal(row, [2.0 * 2 / 2, 0.0])  # dist("ab","y") = 2
        np.testing.assert_array_equal(col, [0.0, 2.0 * 2 / 2])  # dist("ab","x") = 2

    def test_out_of_range_position_ignored(self):
        # co-word at index 2 of A, but B has only 2 tokens: row entry stays 0
        a = Sentence.from_surfaces(["p", "q", "ab"])
        b = Sentence.from_surfaces(["ab", "r"])
        row, col = position_weights(a, b)
        assert row[2] == 0.0
        assert col[0] == pytest.approx(2.0 * edit_distance("ab", "p") / 2)

    def test_first_occurrence_defines_location(self):
        a = Sentence.from_surfaces(["w", "w", "z"])
        b = Sentence.from_surfaces(["q", "w"])
        row, _ = position_weights(a, b)
        assert row[0] == pytest.approx(2.0 * edit_distance("w", "q") / 2)
        assert row[1] == 0.0


class TestAttentionWeights:
    def test_uniform_for_equal_inputs(self):
        vec = np.full(4, 1.7)
        row_w, col_w = attention_weights(vec, np.zeros(4), vec, np.zeros(4))
        np.testing.assert_allclose(row_w, 0.25)
        np.testing.assert_allclose(col_w, 0.25)

    def test_closed_form(self):
        row_w, _ = attention_weights(np.array([0.0, math.log(3.0)]), np.zeros(2),
                                     np.zeros(1), np.zeros(1))
        np.testing.assert_allclose(row_w, [0.25, 0.75], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n, m = rng.integers(1, 9, size=2)
            row_w, col_w = attention_weights(rng.standard_normal(n), rng.standard_normal(n),
                                             rng.standard_normal(m), rng.standard_normal(m))
            assert row_w.sum() == pytest.approx(1.0, abs=1e-9)
            assert col_w.sum() == pytest.approx(1.0, abs=1e-9)
            assert (row_w > 0).all() and (col_w > 0).all()

    def test_large_magnitudes_stable(self):
        row_w, _ = attention_weights(np.array([1000.0, 1001.0]), np.zeros(2),
                                     np.array([-1000.0]), np.zeros(1))
        assert np.isfinite(row_w).all()
        assert row_w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            attention_weights(np.zeros(2), np.zeros(3), np.zeros(1), np.zeros(1))


class TestApplyAttention:
    def test_uniform_scaling(self):
        m = _matrix([[2.0, 0.0], [0.0, 2.0]])
        out = apply_attention(m, np.array([0.5, 0.5]))
        np.testing.assert_array_equal(out[0], [1.0, 0.0])
        assert out.shape == (2, 2)

    def test_zero_weight_zeroes_row(self):
        m = _matrix([[1.0, 1.0], [1.0, 1.0]])
        out = apply_attention(m, np.array([0.0, 1.0]))
        assert np.linalg.norm(out[0]) == 0.0

    def test_row_norm_linearity(self):
        rng = np.random.default_rng(31)
        m = _matrix(rng.standard_normal((3, 4)))
        w = rng.uniform(0.1, 1.0, size=3)
        out = apply_attention(m, w)
        for i in range(3):
            assert np.linalg.norm(out[i]) == pytest.approx(
                w[i] * np.linalg.norm(m[i]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            apply_attention(_matrix([[1.0, 0.0]]), np.array([0.5, 0.5]))

    def test_input_not_mutated(self):
        m = _matrix([[1.0, 1.0]])
        before = m.copy()
        apply_attention(m, np.array([0.25]))
        np.testing.assert_array_equal(m, before)


class TestWeightedPairMatrices:
    def test_shapes_and_weighting(self):
        table = EmbeddingTable(dim=4, vectors={})
        a = Sentence.from_surfaces(["one", "two", "three"])
        b = Sentence.from_surfaces(["one", "four"])
        wa, wb = weighted_pair_matrices(a, b, table, n_max=6)
        assert wa.shape == (3, 4) and wb.shape == (2, 4)
        # attention weights sum to 1, so total row norm is a convex mix of
        # unit-norm OOV rows and must be well below the unweighted total
        base = embed_sentence(table, a, 6)
        assert np.linalg.norm(wa, axis=1).sum() < \
            np.linalg.norm(base, axis=1).sum()

    def test_truncates_consistently(self):
        table = EmbeddingTable(dim=4, vectors={})
        long_a = Sentence.from_surfaces([f"w{i}" for i in range(10)])
        b = Sentence.from_surfaces(["w0", "w1"])
        wa, wb = weighted_pair_matrices(long_a, b, table, n_max=4)
        assert wa.shape == (4, 4)
        assert wb.shape == (2, 4)
