#!/usr/bin/env python3
"""End to end: ingest a pair file, train everything, calibrate, persist a
model bundle, reload it and evaluate -- the library path mirrored by the
`simfuse train/score/eval` commands.

Run with: python demos/05_full_pipeline.py
"""

import io
import tempfile
from pathlib import Path

import numpy as np

from simfuse import (BINARY, DEFAULT_WEIGHTS, FusionParams, ModelBundle,
                     TrainConfig, build_stats, calibrate, cnn_train, evaluate,
                     load_bundle, load_text_embeddings, parse_pair_file,
                     save_bundle, score_with_bundle, train_fusion)
from simfuse.pipeline import component_scores

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

# Stage 1: corpus statistics and the trained CNN scorer.
stats = build_stats(dataset)
cnn_params, losses = cnn_train(dataset, table, TrainConfig(epochs=40, seed=5))
print(f"cnn loss {losses[0]:.4f} -> {losses[-1]:.4f}")

# Stage 2: calibrate fusion weights from each scorer's standalone accuracy
# on a validation split (here: the training pairs themselves).
draft = ModelBundle(stats=stats, table=table, cnn_params=cnn_params,
                    weights=DEFAULT_WEIGHTS, fusion_params=FusionParams())
weights = calibrate(dataset, draft, factor="accuracy")
print(f"calibrated weights: {weights.alpha:.3f} {weights.beta:.3f} {weights.gamma:.3f}")

# Stage 3: train the shallow combiner on the weighted score triples.  Six
# pairs means one batch per epoch, so give it a hotter learning rate.
triples = [component_scores(p, stats, table, cnn_params) for p in dataset]
fusion_params, _ = train_fusion(triples, [p.label for p in dataset], weights,
                                TrainConfig(learning_rate=0.5, epochs=400, seed=5))

# Stage 4: persist the bundle (v2: manifest.tsv, vocab.txt, embeddings.npy and
# the three parameter files) and reload it.
bundle = ModelBundle(stats=stats, table=table, cnn_params=cnn_params,
                     weights=weights, fusion_params=fusion_params)
with tempfile.TemporaryDirectory() as tmp:
    save_bundle(bundle, Path(tmp) / "model")
    reloaded = load_bundle(Path(tmp) / "model")
    print(f"bundle files: {sorted(p.name for p in (Path(tmp) / 'model').iterdir())}")

    # Stage 5: score and evaluate with the reloaded model.
    print("\nid  jaccard  w2vcnn  tfidf  fused  predicted")
    for pair in dataset:
        s = score_with_bundle(reloaded, pair)
        print(f"{pair.id:>2}  {s.jaccard:7.3f} {s.w2vcnn:7.3f} {s.tfidf:6.3f} "
              f"{s.fused:6.3f}  {s.predicted}")
    report = evaluate(dataset, reloaded)
    print(f"\naccuracy {report.accuracy:.2f}  precision {report.precision:.2f}  "
          f"recall {report.recall:.2f}  f1 {report.f1:.2f}")
