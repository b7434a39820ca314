"""Multi-feature attention weights for sentence pairs.

Token weights come from two signals: summed cross-sentence cosine
similarities (how much a token resonates with the other sentence) and an
edit-distance position term at co-occurrence positions (how much the word
at the mirrored position differs).  Both are added and softmax-normalized,
then used to rescale the sentence's embedding matrix row by row.
"""

from __future__ import annotations

import numpy as np

from .corpus import Sentence
from .embedding import EmbeddingTable, embed_sentence
from .errors import DimensionError
from .nn import softmax


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (n, m) cosine similarities between the rows of two (L, dim)
    sentence matrices.

    Zero-norm rows contribute 0 entries.  Raises DimensionError when the
    embedding dimensions differ.
    """
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"embedding dims differ: {a.shape[1]} vs {b.shape[1]}")
    # overflow on huge rows yields inf/nan entries, which fuse() and the
    # training loop reject with an error.  The norms are np.linalg.norm's
    # own arithmetic (the root of the summed squares) without its call
    # overhead, and the broadcast product is np.outer's: the grid is bitwise
    # what those calls give.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norms_a = np.sqrt(np.add.reduce(a * a, axis=1))
        norms_b = np.sqrt(np.add.reduce(b * b, axis=1))
        denom = norms_a[:, np.newaxis] * norms_b
        nonzero = denom > 0.0
        return np.where(nonzero, (a @ b.T) / np.where(nonzero, denom, 1.0), 0.0)


def marginal_sums(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums (one per first-sentence token) and column sums."""
    return grid.sum(axis=1), grid.sum(axis=0)


def edit_distance(u: str, v: str) -> int:
    """Character-level Levenshtein distance (unit-cost edits)."""
    previous = list(range(len(v) + 1))
    for i, cu in enumerate(u, start=1):
        current = [i]
        for j, cv in enumerate(v, start=1):
            cost = 0 if cu == cv else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def position_weights(a: Sentence, b: Sentence) -> tuple[np.ndarray, np.ndarray]:
    """Edit-distance position terms at co-occurrence positions.

    For every word present in both sentences, its first-occurrence index p
    in one sentence selects the token at the same index in the other
    sentence; the scaled edit distance 2*dist/min(n, m) is written at
    index p of the owning sentence's vector.  Indices past the other
    sentence's length, and all non-co-occurrence positions, stay 0.
    """
    surfaces_a, surfaces_b = a.words, b.words
    n, m = len(surfaces_a), len(surfaces_b)
    pos_row = np.zeros(n, dtype=np.float64)
    pos_col = np.zeros(m, dtype=np.float64)
    scale = min(n, m)
    # a word mirrored onto itself is at distance 0, which the zeros hold
    for word in set(surfaces_a) & set(surfaces_b):
        p = surfaces_a.index(word)
        if p < m and surfaces_b[p] != word:
            pos_row[p] = 2.0 * edit_distance(word, surfaces_b[p]) / scale
        q = surfaces_b.index(word)
        if q < n and surfaces_a[q] != word:
            pos_col[q] = 2.0 * edit_distance(word, surfaces_a[q]) / scale
    return pos_row, pos_col


def attention_weights(row_vec: np.ndarray, pos_row: np.ndarray, col_vec: np.ndarray,
                      pos_col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the summed similarity and position signals: the row
    weights (first sentence) and column weights (second sentence), each
    summing to 1 with every entry > 0."""
    if row_vec.shape != pos_row.shape:
        raise DimensionError(f"row vector lengths differ: {row_vec.shape} vs {pos_row.shape}")
    if col_vec.shape != pos_col.shape:
        raise DimensionError(f"column vector lengths differ: {col_vec.shape} vs {pos_col.shape}")
    return (softmax(np.asarray(row_vec, dtype=np.float64) + pos_row),
            softmax(np.asarray(col_vec, dtype=np.float64) + pos_col))


def apply_attention(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A new (L, dim) matrix with each row scaled by its weight."""
    if weights.shape != (matrix.shape[0],):
        raise DimensionError(f"expected {matrix.shape[0]} weights, got {weights.shape}")
    return matrix * weights[:, np.newaxis]


def matrix_attention(a: Sentence, mat_a: np.ndarray, b: Sentence,
                     mat_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row and column weights of a pair whose matrices hold one row per
    word of ``a`` and of ``b``: their cosine grid and position terms, softmaxed."""
    row_vec, col_vec = marginal_sums(cosine_matrix(mat_a, mat_b))
    pos_row, pos_col = position_weights(a, b)
    return attention_weights(row_vec, pos_row, col_vec, pos_col)


def weighted_pair_matrices(a: Sentence, b: Sentence, table: EmbeddingTable,
                           n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Full attention pipeline for one pair: both sentences embedded, their
    rows weighted by ``matrix_attention`` and scaled by ``apply_attention``.

    ``embed_sentence`` checks ``n_max`` and embeds each sentence's first
    ``n_max`` words, the same words the attention step is given.
    """
    mat_a = embed_sentence(table, a, n_max)
    mat_b = embed_sentence(table, b, n_max)
    row_weights, col_weights = matrix_attention(a.truncated(n_max), mat_a,
                                                b.truncated(n_max), mat_b)
    return apply_attention(mat_a, row_weights), apply_attention(mat_b, col_weights)
