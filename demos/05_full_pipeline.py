#!/usr/bin/env python3
"""End to end: ingest a pair file, train everything with one train_bundle
call, persist the model bundle, reload it and evaluate -- the library calls
behind the `simfuse train/score/eval` commands.

Run with: python demos/05_full_pipeline.py
"""

import io
import tempfile
from pathlib import Path

import numpy as np

from simfuse import (BINARY, LEARNED, TrainConfig, evaluate, load_bundle,
                     load_text_embeddings, parse_pair_file, save_bundle,
                     score_with_bundle, train_bundle)
from simfuse.cnn import DEFAULT_N_MAX

pairs_tsv = """\
1\tmy card is locked\tmy card is locked\t1
2\tincrease the quota\tincrease the quota\t1
3\thow do i repay\thow do i repay\t1
4\tmy card is locked\twhere is the bill\t0
5\tincrease the quota\tcan i use it abroad\t0
6\thow do i repay\tthe app keeps crashing\t0
"""
dataset = parse_pair_file(io.StringIO(pairs_tsv), BINARY)

# Toy embeddings for the demo vocabulary, in the word2vec text format.
rng = np.random.default_rng(11)
vocab = sorted({t.surface for p in dataset for t in list(p.a) + list(p.b)})
emb_text = "\n".join(
    w + " " + " ".join(f"{x:.5f}" for x in rng.standard_normal(16)) for w in vocab
)
table = load_text_embeddings(io.StringIO(emb_text))
print(f"{len(dataset)} pairs, {len(vocab)} vocabulary words, dim {table.dim}")

# Stage 1: train.  train_bundle builds the corpus statistics, trains the
# CNN scorer, calibrates the fusion weights from each scorer's standalone
# accuracy on the training pairs, and fits the combiner on the weighted
# score triples.  Six pairs make one batch per epoch, so the demo uses a
# hotter learning rate than the default.
bundle, cnn_losses, fusion_losses = train_bundle(
    dataset, table, TrainConfig(learning_rate=0.5, epochs=200, seed=5),
    n_max=DEFAULT_N_MAX, fusion_mode=LEARNED, factor="accuracy")
print(f"cnn loss {cnn_losses[0]:.4f} -> {cnn_losses[-1]:.4f}")
print(f"combiner loss {fusion_losses[0]:.4f} -> {fusion_losses[-1]:.4f}")
w = bundle.weights
print(f"calibrated weights: {w.alpha:.3f} {w.beta:.3f} {w.gamma:.3f}")

# Stage 2: persist the bundle (v2: manifest.tsv, vocab.txt, embeddings.npy and
# the three parameter files) and reload it.
with tempfile.TemporaryDirectory() as tmp:
    save_bundle(bundle, Path(tmp) / "model")
    reloaded = load_bundle(Path(tmp) / "model")
    print(f"bundle files: {sorted(p.name for p in (Path(tmp) / 'model').iterdir())}")

    # Stage 3: score and evaluate with the reloaded model.
    print("\nid  jaccard  w2vcnn  tfidf  fused  predicted")
    for pair in dataset:
        s = score_with_bundle(reloaded, pair)
        print(f"{pair.id:>2}  {s.jaccard:7.3f} {s.w2vcnn:7.3f} {s.tfidf:6.3f} "
              f"{s.fused:6.3f}  {s.predicted}")
    report = evaluate(dataset, reloaded)
    print(f"\naccuracy {report.accuracy:.2f}  precision {report.precision:.2f}  "
          f"recall {report.recall:.2f}  f1 {report.f1:.2f}")
