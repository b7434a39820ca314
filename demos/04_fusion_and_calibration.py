#!/usr/bin/env python3
"""Calibrate per-model fusion weights from validation metrics, fuse score
triples two ways (weighted sum and the trained shallow combiner), then
classify and rescale.

Run with: python demos/04_fusion_and_calibration.py
"""

import numpy as np

from simfuse import (FusionParams, TrainConfig, calibrate_weights, classify,
                     fuse, scale_to_sts, train_fusion)

# Suppose standalone validation runs measured these accuracies for the
# three scorers, in (jaccard, cnn, tfidf) order.  Softmax turns them into
# a probability triple: better models earn more weight, nobody gets zero.
weights = calibrate_weights(0.79, 0.80, 0.25)
print("calibrated from accuracies (0.79, 0.80, 0.25):")
print(f"  alpha={weights.alpha:.3f} beta={weights.beta:.3f} gamma={weights.gamma:.3f}")

# Weighted-sum fusion is a plain convex combination under those weights.
triple = (0.253, 0.842, 0.451)
fused = fuse(triple, weights, FusionParams())
print(f"\nweighted sum of {triple}: {fused:.4f} -> {classify(fused)}")

# The learned mode trains a tiny ReLU combiner on weighted triples; it can
# bend the decision surface where the linear mix is wrong.
rng = np.random.default_rng(3)
triples, labels = [], []
for _ in range(40):
    triples.append(tuple(rng.uniform(0.6, 1.0, size=3)))
    labels.append(1.0)
    triples.append(tuple(rng.uniform(0.0, 0.4, size=3)))
    labels.append(0.0)
params, losses = train_fusion(triples, labels, weights,
                              TrainConfig(epochs=150, seed=0))
print(f"combiner loss: {losses[0]:.4f} -> {losses[-1]:.4f}")
for t in [(0.9, 0.8, 0.85), (0.1, 0.2, 0.15)]:
    s = fuse(t, weights, params)
    print(f"  learned fuse{t} = {s:.4f} -> {classify(s)}")

# Graded datasets score on a 0..5 scale: multiply the unit score by 5.
print(f"\ngraded scale: fuse=0.684 -> {scale_to_sts(0.684):.2f} / 5")
