"""End-to-end orchestration: run the three scorers on a pair, calibrate
fusion weights on a validation split, fuse, and evaluate.

A model bundle is a directory of four files: ``embeddings.txt`` (word2vec
text format), ``cnn.params``, ``fusion.params`` and ``stats.tsv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO

from . import attention, cnn, fusion, jaccard, metrics, tfidf
from .corpus import BINARY, Dataset, LabeledPair
from .embedding import (DEFAULT_OOV_SEED, EmbeddingTable, load_text_embeddings,
                        parse_int, save_text_embeddings)
from .errors import EmptyEval, FormatError, LabelKindError, SimfuseError

CALIBRATION_FACTORS = ("accuracy", "precision", "recall", "f1")


@dataclass(frozen=True)
class PairScores:
    """The three component scores plus the fused score and prediction."""

    jaccard: float
    w2vcnn: float
    tfidf: float
    fused: float
    predicted: str


@dataclass(frozen=True)
class ModelBundle:
    """Everything needed to score pairs; read-only during evaluation."""

    stats: tfidf.CorpusStats
    table: EmbeddingTable
    cnn_params: cnn.CnnParams
    weights: fusion.FusionWeights
    fusion_params: fusion.FusionParams
    n_max: int = cnn.DEFAULT_N_MAX


def component_scores(pair: LabeledPair, stats: tfidf.CorpusStats,
                     table: EmbeddingTable, cnn_params: cnn.CnnParams,
                     n_max: int = cnn.DEFAULT_N_MAX) -> tuple[float, float, float]:
    """(jaccard, w2vcnn, tfidf) scores for one pair, each in [0, 1]."""
    j = jaccard.jaccard_score(pair.a, pair.b)
    mat_a, mat_b = attention.weighted_pair_matrices(pair.a, pair.b, table, n_max)
    c = cnn.cnn_forward(cnn_params, mat_a, mat_b)
    t = tfidf.cosine_sim(
        tfidf.tfidf_vector(pair.a, pair, stats),
        tfidf.tfidf_vector(pair.b, pair, stats),
    )
    return j, c, t


def score_pair(pair: LabeledPair, stats: tfidf.CorpusStats, table: EmbeddingTable,
               cnn_params: cnn.CnnParams, weights: fusion.FusionWeights,
               fusion_params: fusion.FusionParams,
               n_max: int = cnn.DEFAULT_N_MAX) -> PairScores:
    """Run all three scorers, fuse, classify.  Pure and deterministic."""
    j, c, t = component_scores(pair, stats, table, cnn_params, n_max)
    fused = fusion.fuse((j, c, t), weights, fusion_params)
    return PairScores(jaccard=j, w2vcnn=c, tfidf=t, fused=fused,
                      predicted=fusion.classify(fused))


def score_with_bundle(bundle: ModelBundle, pair: LabeledPair) -> PairScores:
    return score_pair(pair, bundle.stats, bundle.table, bundle.cnn_params,
                      bundle.weights, bundle.fusion_params, bundle.n_max)


def evaluate(dataset: Dataset, bundle: ModelBundle) -> metrics.MetricReport:
    """Classification metrics for binary data; scaled rank correlations for
    graded data.  Raises EmptyEval on an empty dataset.
    """
    if len(dataset) == 0:
        raise EmptyEval("cannot evaluate an empty dataset")
    scores = [score_with_bundle(bundle, pair) for pair in dataset]
    if dataset.label_kind == BINARY:
        preds = [s.predicted == fusion.SIMILAR for s in scores]
        gold = [pair.label >= 0.5 for pair in dataset]
        return metrics.prf_metrics(metrics.confusion_counts(preds, gold))
    scaled = [fusion.scale_to_sts(s.fused) for s in scores]
    gold_scores = [pair.label for pair in dataset]
    pearson, spearman = metrics.rank_correlations(scaled, gold_scores)
    return metrics.MetricReport(pearson=pearson, spearman=spearman)


def weights_from_scores(triples: list[tuple[float, float, float]],
                        gold: list[bool], factor: str) -> fusion.FusionWeights:
    """Softmax weights from standalone per-model metrics over score triples.

    Each model classifies on its own score with the 0.5 rule; the chosen
    metric per model feeds the softmax in (jaccard, cnn, tfidf) order.
    """
    if factor not in CALIBRATION_FACTORS:
        raise ValueError(f"unknown weighting factor {factor!r}")
    per_model = []
    for model_idx in range(3):
        preds = [triple[model_idx] >= 0.5 for triple in triples]
        report = metrics.prf_metrics(metrics.confusion_counts(preds, gold))
        per_model.append(getattr(report, factor))
    return fusion.calibrate_weights(*per_model)


def calibrate(validation: Dataset, bundle: ModelBundle,
              factor: str = "accuracy") -> fusion.FusionWeights:
    """Fusion weights from each scorer's standalone validation metric."""
    if len(validation) == 0:
        raise EmptyEval("cannot calibrate on an empty dataset")
    if validation.label_kind != BINARY:
        raise LabelKindError("calibration requires a binary-labeled dataset")
    triples = [
        component_scores(pair, bundle.stats, bundle.table, bundle.cnn_params, bundle.n_max)
        for pair in validation
    ]
    gold = [pair.label >= 0.5 for pair in validation]
    return weights_from_scores(triples, gold, factor)


def save_stats(stats: tfidf.CorpusStats, stream: IO[str]) -> None:
    stream.write(f"#total_pairs={stats.total_pairs}\n")
    for term in sorted(stats.pair_doc_freq):
        stream.write(f"{term}\t{stats.pair_doc_freq[term]}\n")


def load_stats(stream: IO[str]) -> tfidf.CorpusStats:
    lines = [(lineno, line.rstrip("\n")) for lineno, line in enumerate(stream, start=1)
             if line.strip()]
    if not lines or not lines[0][1].startswith("#total_pairs="):
        raise FormatError("stats file must start with a #total_pairs= header")
    total = parse_int(lines[0][1].split("=", 1)[1], lines[0][0], "#total_pairs")
    freq: dict[str, int] = {}
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected term<TAB>doc_freq")
        freq[parts[0]] = parse_int(parts[1], lineno, "doc_freq")
    return tfidf.CorpusStats(total_pairs=total, pair_doc_freq=freq)


# (file name, writer, reader) per bundle file: a writer saves its part of
# a bundle to a stream, a reader returns the ModelBundle fields it restores.
_BUNDLE_FILES = (
    ("embeddings.txt", lambda b, f: save_text_embeddings(b.table, f),
     lambda f, oov_seed: {"table": load_text_embeddings(f, oov_seed=oov_seed)}),
    ("cnn.params", lambda b, f: cnn.save_cnn_params(b.cnn_params, f),
     lambda f, _: {"cnn_params": cnn.load_cnn_params(f)}),
    ("fusion.params", lambda b, f: fusion.save_fusion_params(b.weights, b.fusion_params, f),
     lambda f, _: dict(zip(("weights", "fusion_params"), fusion.load_fusion_params(f)))),
    ("stats.tsv", lambda b, f: save_stats(b.stats, f),
     lambda f, _: {"stats": load_stats(f)}),
)


def save_bundle(bundle: ModelBundle, directory: str | Path) -> None:
    """Write the four bundle files; output is byte-deterministic."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, writer, _ in _BUNDLE_FILES:
        with open(directory / name, "w", encoding="utf-8", newline="\n") as f:
            writer(bundle, f)


def load_bundle(directory: str | Path, n_max: int = cnn.DEFAULT_N_MAX,
                oov_seed: int = DEFAULT_OOV_SEED) -> ModelBundle:
    """Load a bundle directory written by save_bundle.

    ``n_max`` and ``oov_seed`` are not stored in the bundle files and must
    match the values used at training time.  A malformed, non-finite or
    inconsistent file raises FormatError naming the file.
    """
    directory = Path(directory)
    fields: dict = {}
    for name, _, reader in _BUNDLE_FILES:
        try:
            with open(directory / name, encoding="utf-8") as f:
                fields.update(reader(f, oov_seed))
        except (SimfuseError, ValueError) as exc:
            raise FormatError(f"{name}: {exc}") from exc
    return ModelBundle(n_max=n_max, **fields)
