#!/usr/bin/env python3
"""Build the multi-feature attention weights for a sentence pair: a
cross-sentence cosine grid, its marginal sums, edit-distance position
terms at co-occurrence positions, and the softmax-normalized result.

Run with: python demos/02_attention_weights.py
"""

import numpy as np

from simfuse import (EmbeddingTable, apply_attention, attention_weights,
                     cosine_matrix, edit_distance, embed_sentence,
                     marginal_sums, position_weights, tokenize)

rng = np.random.default_rng(7)
words = ["card", "is", "locked", "my", "was", "blocked"]
table = EmbeddingTable(dim=8, vectors={w: rng.standard_normal(8) for w in words})

a = tokenize("my card is locked")
b = tokenize("card was blocked")
mat_a = embed_sentence(table, a, n_max=6)
mat_b = embed_sentence(table, b, n_max=6)
print(f"A: {a.surfaces()}  (matrix {mat_a.shape}: one row per token)")
print(f"B: {b.surfaces()}")

# Each grid entry is the cosine between one token of A and one of B.
grid = cosine_matrix(mat_a, mat_b)
print("\ncosine grid (rows = A tokens, cols = B tokens):")
print(np.array_str(grid, precision=3, suppress_small=True))

# Summing rows scores each A-token by how much it resonates with all of B;
# columns do the same for B against A.
row_vec, col_vec = marginal_sums(grid)
print(f"\nrow sums: {np.round(row_vec, 3)}")
print(f"col sums: {np.round(col_vec, 3)}")

# The position term fires at the index of each co-occurring word: it holds
# the scaled edit distance to whatever token sits at that same index in
# the other sentence ("card" is at index 1 in A but index 0 in B).
pos_row, pos_col = position_weights(a, b)
print(f"\nposition terms A: {np.round(pos_row, 3)}")
print(f"position terms B: {np.round(pos_col, 3)}")
print(f"  e.g. dist('card', 'was') = {edit_distance('card', 'was')}")

# Softmax turns signal + position into probability weights, which then
# rescale the embedding rows to produce the scorer's actual input.
row_weights, col_weights = attention_weights(row_vec, pos_row, col_vec, pos_col)
print(f"\nattention A: {np.round(row_weights, 3)} (sum {row_weights.sum():.6f})")
print(f"attention B: {np.round(col_weights, 3)} (sum {col_weights.sum():.6f})")

weighted_a = apply_attention(mat_a, row_weights)
norms = np.linalg.norm(weighted_a, axis=1)
print(f"\nweighted row norms of A: {np.round(norms, 3)}")
