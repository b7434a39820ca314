"""End-to-end orchestration: train a model bundle, run the three scorers on
a pair, fuse, and evaluate.

``train_bundle`` is the one training recipe.  The fusion weights come from
each scorer's standalone metric over the training pairs themselves; the
paper calibrates them on a validation split (ROADMAP aim 3).

A model bundle is a directory.  ``save_bundle`` writes format v2:
``cnn.params``, ``fusion.params`` and ``stats.tsv`` (text), the embedding
table as ``vocab.txt`` (the sorted surfaces) plus ``embeddings.npy`` (their
rows, float64), and ``manifest.tsv`` (the format version, ``n_max`` and a
sha256 per other file).  A v1 bundle, the same three text files plus the
table as word2vec text in ``embeddings.txt`` and no manifest, still loads.
"""

from __future__ import annotations

import hashlib
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

from . import attention, cnn, fusion, jaccard, metrics, tfidf
from .corpus import BINARY, Dataset, LabeledPair
from .embedding import (EmbeddingTable, check_n_max, load_npy_table, load_text_embeddings,
                        load_vocab, parse_int, save_npy_table, save_vocab)
from .errors import (ConfigError, DegenerateData, DimensionError, EmptyEval, FormatError,
                     SimfuseError, check_choice)
from .nn import TrainConfig

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

    def __post_init__(self):
        check_n_max(self.n_max)
        if self.cnn_params.dim != self.table.dim:
            raise DimensionError(f"CNN filters of dimension {self.cnn_params.dim} do not "
                                 f"match the embedding table's dimension {self.table.dim}")


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


def score_with_bundle(bundle: ModelBundle, pair: LabeledPair) -> PairScores:
    """Run all three scorers, fuse, classify.  Pure and deterministic.

    A fusion error (a non-finite component score) is re-raised naming the pair.
    """
    j, c, t = component_scores(pair, bundle.stats, bundle.table, bundle.cnn_params,
                               bundle.n_max)
    try:
        fused = fusion.fuse((j, c, t), bundle.weights, bundle.fusion_params)
    except SimfuseError as exc:
        raise SimfuseError(f"pair {pair.id}: {exc}") from exc
    return PairScores(jaccard=j, w2vcnn=c, tfidf=t, fused=fused,
                      predicted=fusion.classify(fused))


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
    check_choice("weighting_factor", factor, CALIBRATION_FACTORS)
    per_model = []
    for model_idx in range(3):
        preds = [triple[model_idx] >= 0.5 for triple in triples]
        report = metrics.prf_metrics(metrics.confusion_counts(preds, gold))
        per_model.append(getattr(report, factor))
    return fusion.calibrate_weights(*per_model)


def train_bundle(dataset: Dataset, table: EmbeddingTable, config: TrainConfig, *,
                 n_max: int, fusion_mode: str, factor: str
                 ) -> tuple[ModelBundle, list[float], list[float]]:
    """Train every part of a bundle on the binary-labeled ``dataset``.

    TF-IDF statistics and the CNN come from the pairs; each scorer's
    standalone ``factor`` metric on the same pairs gives the softmax fusion
    weights; in ``learned`` mode the combiner is then fit on the weighted
    score triples.  Returns the bundle and the mean loss per epoch of the
    CNN and of the combiner (empty in ``weighted_sum`` mode).  Deterministic
    for a seed.  A bad ``factor``, ``n_max`` or ``fusion_mode`` (ConfigError),
    or one label class in ``learned`` mode (DegenerateData), fails first.
    """
    check_choice("weighting_factor", factor, CALIBRATION_FACTORS)
    check_n_max(n_max)
    if fusion_mode != fusion.LEARNED:
        fusion_params, fusion_losses = fusion.FusionParams(mode=fusion_mode), []
    elif len({pair.label for pair in dataset}) < 2:
        raise DegenerateData("fusion training needs both label classes")
    stats = tfidf.build_stats(dataset)
    cnn_params, cnn_losses = cnn.cnn_train(dataset, table, config, n_max=n_max)
    triples = [component_scores(pair, stats, table, cnn_params, n_max) for pair in dataset]
    weights = weights_from_scores(triples, [pair.label >= 0.5 for pair in dataset], factor)
    if fusion_mode == fusion.LEARNED:
        fusion_params, fusion_losses = fusion.train_fusion(
            triples, [pair.label for pair in dataset], weights, config)
    bundle = ModelBundle(stats=stats, table=table, cnn_params=cnn_params, weights=weights,
                         fusion_params=fusion_params, n_max=n_max)
    return bundle, cnn_losses, fusion_losses


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
        if parts[0] in freq:
            raise FormatError(f"line {lineno}: repeated term {parts[0]!r}")
        freq[parts[0]] = parse_int(parts[1], lineno, "doc_freq")
    return tfidf.CorpusStats(total_pairs=total, pair_doc_freq=freq)


BUNDLE_FORMAT = "simfuse-bundle v2"
MANIFEST, VOCAB, MATRIX = "manifest.tsv", "vocab.txt", "embeddings.npy"
V1_EMBEDDINGS = "embeddings.txt"
_HASH_BLOCK = 1 << 20
_HEX_DIGEST = re.compile("[0-9a-f]{64}")

# (file name, writer, reader) per text file of both bundle formats: a writer
# saves its part of a bundle to a stream, a reader returns the ModelBundle
# fields it restores.
_PARAM_FILES = (
    ("cnn.params", lambda b, f: cnn.save_cnn_params(b.cnn_params, f),
     lambda f: {"cnn_params": cnn.load_cnn_params(f)}),
    ("fusion.params", lambda b, f: fusion.save_fusion_params(b.weights, b.fusion_params, f),
     lambda f: dict(zip(("weights", "fusion_params"), fusion.load_fusion_params(f)))),
    ("stats.tsv", lambda b, f: save_stats(b.stats, f),
     lambda f: {"stats": load_stats(f)}),
)
_V1_TABLE_FILE = (V1_EMBEDDINGS, None, lambda f: {"table": load_text_embeddings(f)})
# the files manifest.tsv holds a sha256 of, in its order
HASHED_FILES = tuple(name for name, _, _ in _PARAM_FILES) + (VOCAB, MATRIX)


@contextmanager
def _naming(name: str, errors: tuple[type[Exception], ...] = (SimfuseError, ValueError, OSError)
            ) -> Iterator[None]:
    """Turns a UTF-8 decode error, or one of ``errors``, met while handling
    ``name`` (a file, or a line of one) into a FormatError that names it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise FormatError(f"{name}: not UTF-8 text ({exc.reason})") from exc
    except errors as exc:
        raise FormatError(f"{name}: {exc}") from exc


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(_HASH_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


def save_bundle(bundle: ModelBundle, directory: str | Path) -> None:
    """Write a v2 bundle; output is byte-deterministic.

    manifest.tsv is written last.  Saving into a directory that holds a v1
    bundle migrates it: the manifest makes load_bundle read v2, and the old
    embeddings.txt is left in place, unread.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, writer, _ in _PARAM_FILES:
        with open(directory / name, "w", encoding="utf-8", newline="\n") as f:
            writer(bundle, f)
    surfaces = sorted(bundle.table.vectors)
    with open(directory / VOCAB, "w", encoding="utf-8", newline="\n") as f:
        save_vocab(surfaces, f)
    with open(directory / MATRIX, "wb") as f:
        save_npy_table(bundle.table, surfaces, f)
    lines = [BUNDLE_FORMAT, f"n_max\t{bundle.n_max}"]
    lines += [f"sha256\t{name}\t{_sha256(directory / name)}" for name in HASHED_FILES]
    with open(directory / MANIFEST, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _read_manifest(path: Path) -> tuple[int, dict[str, str]]:
    """(n_max, {file name: sha256 hex digest}) of a manifest.tsv."""
    lines = path.read_text(encoding="utf-8").splitlines() or [""]
    if lines[0] != BUNDLE_FORMAT:
        raise FormatError(f"line 1: expected {BUNDLE_FORMAT!r}, got {lines[0]!r}")
    n_max, digests = None, {}
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if fields[0] == "n_max" and len(fields) == 2:
            if n_max is not None:
                raise FormatError(f"line {lineno}: repeated n_max line")
            n_max = parse_int(fields[1], lineno, "n_max")
            with _naming(f"line {lineno}", (ConfigError,)):
                check_n_max(n_max)
        elif (fields[0] == "sha256" and len(fields) == 3 and fields[1] in HASHED_FILES
              and _HEX_DIGEST.fullmatch(fields[2])):
            if fields[1] in digests:
                raise FormatError(f"line {lineno}: repeated sha256 line for {fields[1]}")
            digests[fields[1]] = fields[2]
        else:
            raise FormatError(f"line {lineno}: expected n_max<TAB>N or "
                              "sha256<TAB>file<TAB>64 hex digits")
    if n_max is None:
        raise FormatError("no n_max line")
    for name in HASHED_FILES:
        if name not in digests:
            raise FormatError(f"no sha256 line for {name}")
    return n_max, digests


def _read_text_files(directory: Path, files) -> dict:
    fields: dict = {}
    for name, _, reader in files:
        with _naming(name), open(directory / name, encoding="utf-8") as f:
            fields.update(reader(f))
    return fields


def load_bundle(directory: str | Path, n_max: int | None = None) -> ModelBundle:
    """Load a bundle directory written by save_bundle, or a v1 bundle.

    A bad ``n_max`` is a ConfigError, before any file is read.  A v2
    bundle's ``n_max`` comes from its manifest, and one given here that
    differs is a FormatError; each file's sha256 is checked against the
    manifest before anything is parsed.  Without manifest.tsv the directory
    is read as v1, with the ``n_max`` given here (DEFAULT_N_MAX when None).
    A missing, malformed, non-finite or inconsistent file raises FormatError
    naming it; CNN parameters of another dimension than the table's name cnn.params.
    """
    if n_max is not None:
        check_n_max(n_max)
    directory = Path(directory)
    if not (directory / MANIFEST).exists():
        if not (directory / V1_EMBEDDINGS).exists():
            raise FormatError(f"{MANIFEST}: not in {directory}, and neither is a v1 "
                              f"{V1_EMBEDDINGS}")
        fields = _read_text_files(directory, (_V1_TABLE_FILE,) + _PARAM_FILES)
        n_max = cnn.DEFAULT_N_MAX if n_max is None else n_max
    else:
        with _naming(MANIFEST):
            saved_n_max, digests = _read_manifest(directory / MANIFEST)
            if n_max is not None and n_max != saved_n_max:
                raise FormatError(f"bundle was trained with n_max {saved_n_max}, got {n_max}")
        for name in HASHED_FILES:
            with _naming(name):
                if _sha256(directory / name) != digests[name]:
                    raise FormatError(f"sha256 does not match {MANIFEST}")
        fields = _read_text_files(directory, _PARAM_FILES)
        with _naming(VOCAB), open(directory / VOCAB, encoding="utf-8") as f:
            vocab = load_vocab(f)
        with _naming(MATRIX), open(directory / MATRIX, "rb") as f:
            fields["table"] = load_npy_table(f, vocab)
        n_max = saved_n_max
    # the one check ModelBundle makes: the CNN's dimension against the table's
    with _naming("cnn.params"):
        return ModelBundle(n_max=n_max, **fields)
