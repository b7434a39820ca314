"""Convolution + max-pooling similarity scorer over attention-weighted
sentence matrices, with from-scratch training.

Shared filters slide along the token axis of each (L, d) sentence matrix
(the L - k + 1 valid positions; a sentence shorter than the kernel width
k gets one window zero-filled to width k), max-over-time pooling yields
one feature vector per sentence, and a small dense head scores the
symmetric combination (|f_A - f_B|, f_A * f_B).  Everything is plain
numpy; gradients are implemented by hand and verifiable against central
differences.  The dense head (the fusion combiner's too), the loss, the SGD
loop and the central differences come from ``nn.py``.

Scoring runs one pair at a time: ``cnn_forward`` convolves each sentence's
windows with one matmul and max-pools before the ReLU, which picks the
same value as pooling after it, and keeps no intermediate values; the
numeric gradients run the same forward pass.  Training runs one mini-batch
at a time, on the row store that ``_row_store`` builds and describes;
``loss_and_gradients`` convolves all of a batch's windows at once into one
buffer and max-pools each sentence over its own windows, in one gather and
one argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

# weighted_pair_matrices is not called here: the name stays bound because
# perfbench/tests/test_perfbench.py looks it up on this module
from .attention import matrix_attention, weighted_pair_matrices  # noqa: F401
from .corpus import BINARY, Dataset
from .embedding import (EmbeddingTable, check_n_max, format_row, lookup, parse_int, parse_row,
                        read_sections)
from .errors import FormatError, LabelKindError, check_int
from .nn import (TrainConfig, bce_from_logit, central_differences, check_finite, check_head,
                 fan_in_uniform, head_logit, head_loss_and_grads, init_head, sigmoid, sgd)

DEFAULT_FILTERS = 32
DEFAULT_KERNEL_WIDTH = 3
DEFAULT_HIDDEN = 16
DEFAULT_N_MAX = 32

_CNN_MAGIC = "simfuse-cnn"
_FORMAT_VERSION = "v1"
_TENSORS = ("filters", "filter_bias", "dense_w", "dense_b", "out_w", "out_b")


@dataclass(frozen=True)
class CnnParams:
    """Trainable parameters; dimensions are fixed at construction."""

    filters: np.ndarray      # (F, k, d)
    filter_bias: np.ndarray  # (F,)
    dense_w: np.ndarray      # (h, 2F)
    dense_b: np.ndarray      # (h,)
    out_w: np.ndarray        # (h,)
    out_b: float
    rng_seed: int = 0

    def __post_init__(self):
        f, k, d = self.filters.shape
        if min(f, k, d) < 1:
            raise ValueError(f"filter sizes must be >= 1, got {self.filters.shape}")
        if self.filter_bias.shape != (f,):
            raise ValueError("filter_bias shape mismatch")
        check_head(self.dense_w, self.dense_b, self.out_w, 2 * f)
        check_finite(self.filters, self.filter_bias, self.dense_w, self.dense_b, self.out_w,
                     self.out_b)

    @property
    def n_filters(self) -> int:
        return self.filters.shape[0]

    @property
    def kernel_width(self) -> int:
        return self.filters.shape[1]

    @property
    def dim(self) -> int:
        return self.filters.shape[2]

    @property
    def hidden(self) -> int:
        return self.dense_b.shape[0]


def init_params(dim: int, n_filters: int = DEFAULT_FILTERS,
                kernel_width: int = DEFAULT_KERNEL_WIDTH,
                hidden: int = DEFAULT_HIDDEN, seed: int = 0) -> CnnParams:
    """Uniform fan-in-scaled initialization, deterministic for a seed; a size
    below 1 or a negative seed is a ConfigError before any draw."""
    for key, size in (("dim", dim), ("n_filters", n_filters), ("kernel_width", kernel_width),
                      ("hidden", hidden)):
        check_int(key, size, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    filters = fan_in_uniform(rng, kernel_width * dim, n_filters, kernel_width, dim)
    filter_bias = fan_in_uniform(rng, kernel_width * dim, n_filters)
    return CnnParams(filters, filter_bias, *init_head(rng, 2 * n_filters, hidden),
                     rng_seed=seed)


def _windows(rows: np.ndarray, k: int) -> np.ndarray:
    """Stacked convolution windows over an (L, d) matrix, shape (P, k*d):
    window p is ``rows[p : p + k]`` flattened, for p in 0..L-k, after a
    sentence shorter than the kernel is padded with zero rows to width k.
    """
    if len(rows) < k:
        rows = np.concatenate([rows, np.zeros((k - len(rows), rows.shape[1]))])
    # k shifted slices side by side; a few numpy calls per sentence where
    # sliding_window_view costs more than the convolution itself
    p = len(rows) - k + 1
    return np.concatenate([rows[i : i + p] for i in range(k)], axis=1)


def _logit(params: CnnParams, a: np.ndarray, b: np.ndarray) -> float:
    # each sentence's features: max-pooling before the ReLU picks the same
    # value as pooling after it
    k, flat_filters = params.kernel_width, params.filters.reshape(len(params.filters), -1).T
    fa = np.maximum((_windows(a, k) @ flat_filters + params.filter_bias).max(axis=0), 0.0)
    fb = np.maximum((_windows(b, k) @ flat_filters + params.filter_bias).max(axis=0), 0.0)
    z = np.concatenate([np.abs(fa - fb), fa * fb])
    return head_logit(z, params.dense_w, params.dense_b, params.out_w, params.out_b)


def cnn_forward(params: CnnParams, a: np.ndarray, b: np.ndarray) -> float:
    """Similarity score in (0, 1); exactly symmetric in its two inputs."""
    return sigmoid(_logit(params, a, b))


def stack_pairs(pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """The stacked token rows of a batch of (a, b) matrix pairs and each
    sentence's row count: the B first sentences, then the B second ones, each
    one shorter than ``k`` followed by the zero rows ``_windows`` pads it with."""
    mats = [a for a, _ in pairs] + [b for _, b in pairs]
    pad = np.zeros((k, mats[0].shape[1]))
    rows = np.concatenate([part for mat in mats for part in
                           ((mat,) if len(mat) >= k else (mat, pad[len(mat):]))])
    return rows, np.maximum([len(mat) for mat in mats], k)


def loss_and_gradients(params: CnnParams, rows: np.ndarray, lengths: np.ndarray,
                       labels: Sequence[float]) -> tuple[float, dict]:
    """Cross-entropy loss summed over a batch of B pairs, and its analytic
    parameter gradients, also summed over the batch.

    ``rows`` stacks the batch's 2B sentences as ``stack_pairs`` lays them out
    (the B first sentences, then the B second ones, each padded with zero rows
    to at least ``k``), and ``lengths`` holds their padded row counts.  Every
    window position of the stack, straddling two sentences or not, is
    convolved at once, one matmul per kernel row summed in place into one
    ``(F, positions)`` buffer, which later holds the gradient.  One gather and
    argmax along its rows, over each sentence's own windows, find every
    filter's winner, kept in C order: the head's bits depend on ``z``'s layout.
    """
    k, n_filters = params.kernel_width, params.n_filters
    lengths = np.asarray(lengths)
    n_pairs = len(labels)
    if len(lengths) != 2 * n_pairs or lengths.min() < k or lengths.sum() != len(rows):
        raise ValueError(f"expected {2 * n_pairs} sentences of >= {k} rows stacking to "
                         f"{len(rows)} rows, got lengths {lengths.tolist()}")
    starts = np.cumsum(lengths) - lengths

    # the k row-shifted views of the stack stand in for its windows, so
    # that no (windows, k * d) copy is made
    n_positions = len(rows) - k + 1
    shifted = [rows[i : i + n_positions] for i in range(k)]
    # (F, positions), bitwise sum()'s: adding 0.0 first turns -0.0 into 0.0 as its start does
    pre = params.filters[:, 0] @ shifted[0].T
    pre += 0.0
    for i in range(1, k):
        pre += params.filters[:, i] @ shifted[i].T
    pre += params.filter_bias[:, None]
    # (2B, W): each sentence's window positions, a slot past its last window
    # repeating it, which cannot win: argmax takes the first of equal values
    window = np.minimum(starts[:, None] + np.arange(lengths.max() - k + 1),
                        (starts + lengths - k)[:, None])
    # (2B, F): max-pool winners, in the C order that z then takes
    won = np.ascontiguousarray(pre.take(window, axis=1).argmax(axis=2).T) + starts[:, None]
    top = pre[np.arange(n_filters), won]
    feats = np.maximum(top, 0.0)

    fa, fb = feats[:n_pairs], feats[n_pairs:]
    z = np.concatenate([np.abs(fa - fb), fa * fb], axis=1)
    loss, dhidden_pre, head_grads = head_loss_and_grads(
        z, params.dense_w, params.dense_b, params.out_w, params.out_b, labels)
    dz = dhidden_pre @ params.dense_w
    dabs, dprod = dz[:, :n_filters], dz[:, n_filters:]
    sign = np.sign(fa - fb)
    dfeats = np.concatenate([dabs * sign + dprod * fb, -dabs * sign + dprod * fa])
    dtop = dfeats * (top > 0.0)
    dpre = pre  # the pre-activations are read no more
    dpre.fill(0.0)
    dpre[np.arange(n_filters), won] = dtop
    grads = {
        "filters": np.stack([dpre @ part for part in shifted], axis=1),
        "filter_bias": dtop.sum(axis=0),
        **dict(zip(_TENSORS[2:], head_grads)),
    }
    return loss, grads


def _row_store(dataset: Dataset, table: EmbeddingTable, n_max: int, k: int) -> tuple:
    """The training pairs' rows as ``(store, ids, weights, lengths)``; training
    keeps these and no weighted or embedded matrix.

    ``store`` holds a zero row, then each distinct truncated word's embedded
    row once, from one ``lookup`` per word.  ``ids`` and ``weights`` hold
    every sentence's store indices and attention weights, sentence after
    sentence (a's and b's alternating), each sentence padded to ``k`` with
    index 0 and weight 0; ``lengths`` holds each sentence's padded length.
    A batch gathers its sentences' rows from the store and scales each by its
    weight, the products ``apply_attention`` computes.

    ``ids`` and ``weights`` are allocated once, zero-filled.  A first walk
    writes every sentence's store indices; each distinct word is then looked
    up once, into its store row.  A second walk runs ``matrix_attention``
    once per pair (it has no trainable parameters) on the pair's rows taken
    from the store, the bytes ``embed_sentence`` would copy, and writes the
    weights.
    """
    check_n_max(n_max)
    lengths = np.array([max(min(len(sentence), n_max), k) for pair in dataset
                        for sentence in (pair.a, pair.b)], dtype=np.intp)
    ids = np.zeros(lengths.sum(), dtype=np.intp)
    weights = np.zeros(len(ids))
    starts = (np.cumsum(lengths) - lengths).reshape(-1, 2)
    store_index: dict[str, int] = {}
    for pair, pair_starts in zip(dataset, starts.tolist()):
        for start, sentence in zip(pair_starts, (pair.a, pair.b)):
            words = sentence.words[:n_max]
            ids[start : start + len(words)] = [
                store_index.setdefault(word, len(store_index) + 1) for word in words]
    store = np.zeros((1 + len(store_index), table.dim))
    for row, word in enumerate(store_index, start=1):
        store[row] = lookup(table, word)
    for pair, pair_starts in zip(dataset, starts.tolist()):
        a, b = pair.a.truncated(n_max), pair.b.truncated(n_max)
        span_a, span_b = (slice(start, start + len(s)) for start, s in zip(pair_starts, (a, b)))
        weights[span_a], weights[span_b] = matrix_attention(
            a, store.take(ids[span_a], axis=0), b, store.take(ids[span_b], axis=0))
    return store, ids, weights, lengths


def cnn_train(dataset: Dataset, table: EmbeddingTable, config: TrainConfig,
              n_max: int = DEFAULT_N_MAX) -> tuple[CnnParams, list[float]]:
    """Mini-batch SGD on binary cross-entropy; deterministic for a seed.

    Each batch is gathered from the row store, as ``_row_store`` describes,
    and passed to ``loss_and_gradients``.
    Returns the trained parameters and the mean training loss per epoch.
    """
    if dataset.label_kind != BINARY:
        raise LabelKindError("CNN training requires a binary-labeled dataset")
    params = init_params(table.dim, seed=config.seed)
    # The store grows with the training set's distinct words, not with its
    # tokens times d: 3.1 MiB on the benchmark's largest training set, below
    # numpy's 4 MiB threshold for asking the kernel for huge pages, whose
    # supply would otherwise make the resident size of training vary between
    # runs.
    store, ids, weights, lengths = _row_store(dataset, table, n_max, params.kernel_width)
    starts = np.cumsum(lengths) - lengths
    labels = np.array([pair.label for pair in dataset])

    def batch_loss_and_grads(params, idx):
        sentences = np.concatenate([2 * idx, 2 * idx + 1])
        batch_lengths = lengths[sentences]
        # each stacked row's token: its sentence's start plus its place in it
        tokens = np.arange(batch_lengths.sum()) + np.repeat(
            starts[sentences] - (np.cumsum(batch_lengths) - batch_lengths), batch_lengths)
        rows = store.take(ids.take(tokens), axis=0)
        rows *= weights.take(tokens)[:, None]
        return loss_and_gradients(params, rows, batch_lengths, labels[idx])

    return sgd(params, batch_loss_and_grads, len(dataset), config,
               np.random.default_rng(config.seed))


def numeric_gradients(params: CnnParams, a: np.ndarray, b: np.ndarray,
                      label: float, epsilon: float) -> dict:
    """Central-difference gradients of the cross-entropy loss."""
    return central_differences(params, _TENSORS, epsilon,
                               lambda p: bce_from_logit(_logit(p, a, b), label))


def max_relative_error(analytic: dict, numeric: dict) -> float:
    """Largest elementwise |ga - gn| / max(|ga|, |gn|, 1e-12) across tensors;
    a NaN error counts as inf."""
    worst = 0.0
    for name, num in numeric.items():
        ana = np.asarray(analytic[name], dtype=np.float64).reshape(num.shape)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-12)
        error = float(np.max(np.abs(ana - num) / denom))
        # max(worst, nan) is worst: a NaN gradient would pass as a perfect one
        worst = max(worst, math.inf if math.isnan(error) else error)
    return worst


def gradient_check(params: CnnParams, example: tuple[np.ndarray, np.ndarray, float],
                   epsilon: float = 1e-4) -> float:
    """Worst-case relative error between analytic and numeric gradients."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    mat_a, mat_b, label = example
    _, analytic = loss_and_gradients(params, *stack_pairs([(mat_a, mat_b)], params.kernel_width),
                                     [label])
    numeric = numeric_gradients(params, mat_a, mat_b, label, epsilon)
    return max_relative_error(analytic, numeric)


def save_cnn_params(params: CnnParams, stream: IO[str]) -> None:
    """Versioned text serialization; round-trips float64 bitwise."""
    header = (
        f"{_CNN_MAGIC} {_FORMAT_VERSION} {params.n_filters} "
        f"{params.kernel_width} {params.dim} {params.hidden}"
    )
    stream.write(header + "\n")
    stream.write(f"rng_seed {params.rng_seed}\n")
    for name in _TENSORS:
        stream.write(format_row(name, getattr(params, name)))


def load_cnn_params(stream: IO[str]) -> CnnParams:
    lines = [(lineno, line.strip()) for lineno, line in enumerate(stream, start=1)
             if line.strip()]
    if not lines:
        raise FormatError("empty CNN parameter file")
    header = lines[0][1].split()
    if len(header) != 6 or header[0] != _CNN_MAGIC or header[1] != _FORMAT_VERSION:
        raise FormatError(f"bad CNN parameter header: {lines[0][1]!r}")
    n_filters, kernel_width, dim, hidden = sizes = [
        parse_int(x, lines[0][0], "a header size") for x in header[2:]]
    if min(sizes) < 1:
        raise FormatError(f"line {lines[0][0]}: header sizes must be >= 1, got {sizes}")
    shapes = {
        "filters": (n_filters, kernel_width, dim),
        "filter_bias": (n_filters,),
        "dense_w": (hidden, 2 * n_filters),
        "dense_b": (hidden,),
        "out_w": (hidden,),
        "out_b": (1,),
    }
    sections = read_sections(lines[1:], ("rng_seed",) + _TENSORS, "CNN parameter")
    seed_lineno, seed_text = sections.pop("rng_seed")
    seed = parse_int(seed_text, seed_lineno, "rng_seed")
    tensors = {name: parse_row(rest, lineno, math.prod(shapes[name])).reshape(shapes[name])
               for name, (lineno, rest) in sections.items()}
    out_b = float(tensors.pop("out_b")[0])
    return CnnParams(**tensors, out_b=out_b, rng_seed=seed)
