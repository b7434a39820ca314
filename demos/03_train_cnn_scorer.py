#!/usr/bin/env python3
"""Train the convolutional scorer from scratch on a small separable
dataset and verify the hand-written backpropagation against central
finite differences.

Run with: python demos/03_train_cnn_scorer.py
"""

import numpy as np

from simfuse import (BINARY, Dataset, EmbeddingTable, LabeledPair, Sentence,
                     TrainConfig, cnn_forward, cnn_train, gradient_check,
                     init_params, weighted_pair_matrices)

rng = np.random.default_rng(42)

# 20 "similar" pairs (identical sentences) and 20 "different" pairs with
# disjoint vocabulary; every word gets a toy 16-dim vector.
pairs, vocab = [], []
for i in range(20):
    words = [f"same{i}a", f"same{i}b", f"same{i}c"]
    s = Sentence(words)
    pairs.append(LabeledPair(id=f"s{i}", a=s, b=s, label=1.0))
    vocab += words
for i in range(20):
    left = [f"left{i}a", f"left{i}b", f"left{i}c"]
    right = [f"right{i}a", f"right{i}b", f"right{i}c"]
    pairs.append(LabeledPair(id=f"d{i}", a=Sentence(left),
                             b=Sentence(right), label=0.0))
    vocab += left + right
dataset = Dataset(pairs=tuple(pairs), label_kind=BINARY)
table = EmbeddingTable(dim=16, vectors={w: rng.standard_normal(16) for w in vocab})

# Before training: check the analytic gradients on a small random instance.
probe = init_params(dim=16, n_filters=4, kernel_width=2, hidden=4, seed=0)
mat_a, mat_b = weighted_pair_matrices(pairs[0].a, pairs[0].b, table, n_max=8)
err = gradient_check(probe, (mat_a, mat_b, 1.0), epsilon=1e-4)
print(f"gradient check (analytic vs central differences): {err:.2e}")

# Mini-batch SGD on binary cross-entropy; fixed seed makes this bitwise
# reproducible run to run.
params, losses = cnn_train(dataset, table, TrainConfig(epochs=60, seed=1))
print(f"\nloss: epoch 1 {losses[0]:.4f} -> epoch {len(losses)} {losses[-1]:.4f}")

correct = 0
for pair in dataset:
    a, b = weighted_pair_matrices(pair.a, pair.b, table, n_max=32)
    score = cnn_forward(params, a, b)
    correct += (score >= 0.5) == (pair.label == 1.0)
print(f"training accuracy: {correct / len(dataset):.2f}")

# The scorer is symmetric by construction: swapping the sentences gives
# the exact same score.
a, b = weighted_pair_matrices(pairs[0].a, pairs[25].b, table, n_max=32)
print(f"\nsymmetry: {cnn_forward(params, a, b):.6f} == {cnn_forward(params, b, a):.6f}")
