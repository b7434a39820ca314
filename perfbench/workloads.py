"""The benchmark's workloads and the metrics it reports.

Every workload runs the same flow as ``simfuse train`` followed by
``simfuse score`` on generated inputs, in rounds: a training (set-up,
then ``build_stats`` -> ``cnn_train`` -> ``component_scores`` ->
``weights_from_scores`` -> ``train_fusion`` -> ``save_bundle``), then a
reload of the saved bundle and one scoring pass over the test split.
The workloads differ in their inputs, which decide where the time goes.
"""

from __future__ import annotations

from dataclasses import dataclass

from generate import SplitSpec

# Training settings shared by all workloads: the CLI's defaults, except the
# learning rate, raised from 0.05 so that ten epochs train the CNN and the
# combiner at all.
LEARNING_RATE = 0.2
BATCH_SIZE = 16
EPOCHS = 10
TRAIN_SEED = 0
N_MAX = 32
DIM = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: str            # which set-up setup_s times: "score" (load_bundle) or "train"
    vocab: int            # words in the embedding file
    split: SplitSpec      # shape of both the training and the test pairs
    train_pairs: int
    test_pairs: int
    fusion_mode: str      # the CLI's fusion_mode setting: "weighted_sum" or "learned"
    min_accuracy: float   # held-out accuracy floor; below it the run fails


WORKLOADS = {w.name: w for w in [
    Workload(
        name="score_long_overlap",
        why="long sentences, 60% copied positions and 15% OOV tokens: the TF-IDF "
            "rescan, OOV vector generation and the attention grid grow with all three",
        setup="score", vocab=20_000,
        split=SplitSpec(min_len=16, max_len=32, overlap=0.6, oov_rate=0.15, label_gap=0.3),
        train_pairs=100, test_pairs=1_000,
        fusion_mode="weighted_sum", min_accuracy=0.6,
    ),
    Workload(
        name="score_short_invocab",
        why="short in-vocabulary pairs with little overlap: fixed per-pair cost "
            "dominates, so batching shows most and OOV or TF-IDF changes show nothing",
        setup="score", vocab=2_000,
        split=SplitSpec(min_len=3, max_len=8, overlap=0.08, oov_rate=0.0, label_gap=0.3),
        train_pairs=800, test_pairs=4_000,
        fusion_mode="weighted_sum", min_accuracy=0.55,
    ),
    Workload(
        name="train_binary",
        why="training: CNN backward and SGD run, attention runs twice per pair and "
            "the bundle is written, on a label mix the scorers separate imperfectly",
        setup="train", vocab=5_000,
        split=SplitSpec(min_len=8, max_len=24, overlap=0.35, oov_rate=0.1, label_gap=0.5),
        train_pairs=800, test_pairs=1_000,
        fusion_mode="learned", min_accuracy=0.6,
    ),
]}

# name -> (unit, better).  Every workload reports every metric.  The p99
# pair latency moved to the traced run: on a shared two-core machine it
# varied by a factor of five between identical runs.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pairs_per_s": ("pairs/s", "higher"),
    "pair_latency_p50_ms": ("ms", "lower"),
    "train_s": ("s", "lower"),
    "train_epoch_s": ("s", "lower"),
    "heldout_accuracy": ("fraction", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Per traced round (training, reload, scoring pass), except ratios and
# ``pair_latency_p99_ms`` (over the untraced rounds of the traced run).
# ``<module>.<function>.s`` is time inside the function, ``self_s`` that
# time minus the time of the traced functions it called.
PER_LAYER = {
    "corpus.parse_pair_file.s": ("s", "lower"),
    "embedding.load_text_embeddings.s": ("s", "lower"),
    "embedding.embed_sentence.s": ("s", "lower"),
    "embedding.lookup.calls": ("count", "lower"),
    "embedding.oov_lookups": ("count", "lower"),
    "embedding.oov_distinct_ratio": ("fraction", "lower"),
    "attention.weighted_pair_matrices.s": ("s", "lower"),
    "attention.weighted_pair_matrices.self_s": ("s", "lower"),
    "attention.cosine_matrix.s": ("s", "lower"),
    "attention.position_weights.s": ("s", "lower"),
    "attention.edit_distance.calls": ("count", "lower"),
    "attention.edit_distance.distinct_ratio": ("fraction", "lower"),
    "tfidf.tfidf_vector.s": ("s", "lower"),
    "tfidf.term_frequency.calls": ("count", "lower"),
    "tfidf.build_stats.s": ("s", "lower"),
    "jaccard.jaccard_score.s": ("s", "lower"),
    "cnn.cnn_forward.s": ("s", "lower"),
    "cnn.loss_and_gradients.s": ("s", "lower"),
    "cnn.loss_and_gradients.calls": ("count", "lower"),
    "cnn.cnn_train.s": ("s", "lower"),
    "cnn.cnn_train.self_s": ("s", "lower"),
    "fusion.fuse.s": ("s", "lower"),
    "fusion.train_fusion.s": ("s", "lower"),
    "pipeline.load_bundle.s": ("s", "lower"),
    "pipeline.save_bundle.s": ("s", "lower"),
    "pipeline.score_with_bundle.s": ("s", "lower"),
    "pipeline.score_with_bundle.calls": ("count", "higher"),
    "pair_latency_p99_ms": ("ms", "lower"),
    "pipeline.component_scores.s": ("s", "lower"),
    "check.bitwise_equal_pairs": ("count", "higher"),
    "trace.library_share": ("fraction", "higher"),
    "trace.overhead_pairs_per_s": ("pairs/s", "lower"),
    "trace.overhead_train_s": ("s", "lower"),
}
