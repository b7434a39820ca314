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
at a time: ``cnn_train`` computes every training pair's attention-weighted
matrices once, and ``loss_and_gradients`` stacks a batch's sentences into
one token-row matrix, convolves all their windows at once and max-pools
each sentence over its own windows, all in one gather and one argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .attention import weighted_pair_matrices
from .corpus import BINARY, Dataset
from .embedding import EmbeddingTable, format_row, parse_int, parse_row, read_sections
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
    window p is ``rows[p : p + k]`` flattened.

    A sentence shorter than the kernel gets a single window zero-padded to
    width k; otherwise windows cover positions 0..L-k.
    """
    length, dim = rows.shape
    if length < k:
        padded = np.zeros((k, dim))
        padded[:length] = rows
        return padded.reshape(1, k * dim)
    # k shifted slices side by side; a few numpy calls per sentence where
    # sliding_window_view costs more than the convolution itself
    p = length - k + 1
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


def loss_and_gradients(params: CnnParams, pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                       labels: Sequence[float]) -> tuple[float, dict]:
    """Cross-entropy loss summed over a batch of (a, b) matrix pairs, and its
    analytic parameter gradients, also summed over the batch.

    One concatenate stacks the batch's sentences, each one shorter than ``k``
    followed by the zero rows ``_windows`` pads it with.  Every window position
    of the stack, straddling two sentences or not, is convolved at once, one
    matmul per kernel row.  One gather and argmax over each sentence's own
    windows find every filter's winner, for the value and the gradient.
    """
    k, n_filters = params.kernel_width, params.n_filters
    mats = [a for a, _ in pairs] + [b for _, b in pairs]
    n_pairs = len(pairs)
    pad = np.zeros((k, params.dim))
    rows = np.concatenate([part for mat in mats for part in
                           ((mat,) if len(mat) >= k else (mat, pad[len(mat):]))])
    lengths = np.maximum([len(mat) for mat in mats], k)
    starts = np.cumsum(lengths) - lengths

    # the k row-shifted views of the stack stand in for its windows, so
    # that no (windows, k * d) copy is made
    n_positions = len(rows) - k + 1
    shifted = [rows[i : i + n_positions] for i in range(k)]
    pre = params.filter_bias[:, None] + sum(
        params.filters[:, i] @ shifted[i].T for i in range(k))  # (F, positions)
    # (2B, W): each sentence's window positions, a slot past its last window
    # repeating it, which cannot win: argmax takes the first of equal values
    window = np.minimum(starts[:, None] + np.arange(lengths.max() - k + 1),
                        (starts + lengths - k)[:, None])
    won = starts[:, None] + pre.T[window].argmax(axis=1)  # (2B, F): max-pool winners
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
    dpre = np.zeros_like(pre)
    dpre[np.arange(n_filters), won] = dtop
    grads = {
        "filters": np.stack([dpre @ part for part in shifted], axis=1),
        "filter_bias": dtop.sum(axis=0),
        **dict(zip(_TENSORS[2:], head_grads)),
    }
    return loss, grads


def cnn_train(dataset: Dataset, table: EmbeddingTable, config: TrainConfig,
              n_max: int = DEFAULT_N_MAX) -> tuple[CnnParams, list[float]]:
    """Mini-batch SGD on binary cross-entropy; deterministic for a seed.

    Attention-weighted inputs are precomputed once (the attention stage
    has no trainable parameters), and each batch passes its pairs' matrices
    to ``loss_and_gradients``.  Returns the trained parameters and the mean
    training loss per epoch.
    """
    if dataset.label_kind != BINARY:
        raise LabelKindError("CNN training requires a binary-labeled dataset")
    # Each pair keeps its own small matrices.  One (sum of lengths, d) matrix
    # for the whole set would pass numpy's 4 MiB threshold for asking the
    # kernel for huge pages, and the resident size of training would then
    # vary with the kernel's huge-page supply from one run to the next.
    inputs = [weighted_pair_matrices(pair.a, pair.b, table, n_max) for pair in dataset]
    labels = np.array([pair.label for pair in dataset])

    def batch_loss_and_grads(params, idx):
        return loss_and_gradients(params, [inputs[i] for i in idx], labels[idx])

    params = init_params(table.dim, seed=config.seed)
    return sgd(params, batch_loss_and_grads, len(dataset), config,
               np.random.default_rng(config.seed))


def numeric_gradients(params: CnnParams, a: np.ndarray, b: np.ndarray,
                      label: float, epsilon: float) -> dict:
    """Central-difference gradients of the cross-entropy loss."""
    return central_differences(params, _TENSORS, epsilon,
                               lambda p: bce_from_logit(_logit(p, a, b), label))


def max_relative_error(analytic: dict, numeric: dict) -> float:
    """Largest elementwise |ga - gn| / max(|ga|, |gn|, 1e-12) across tensors."""
    worst = 0.0
    for name, num in numeric.items():
        ana = np.asarray(analytic[name], dtype=np.float64).reshape(num.shape)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-12)
        worst = max(worst, float(np.max(np.abs(ana - num) / denom)))
    return worst


def gradient_check(params: CnnParams, example: tuple[np.ndarray, np.ndarray, float],
                   epsilon: float = 1e-4) -> float:
    """Worst-case relative error between analytic and numeric gradients."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    mat_a, mat_b, label = example
    _, analytic = loss_and_gradients(params, [(mat_a, mat_b)], [label])
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
