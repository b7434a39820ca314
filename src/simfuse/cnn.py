"""Convolution + max-pooling similarity scorer over attention-weighted
sentence matrices, with from-scratch training.

Shared filters slide along the token axis of each (L, d) sentence matrix
(the L - k + 1 valid positions; a sentence shorter than the kernel width
k gets one window zero-filled to width k), max-over-time pooling yields
one feature vector per sentence, and a small dense head scores the
symmetric combination (|f_A - f_B|, f_A * f_B).  Everything is plain
numpy; gradients are implemented by hand and verifiable against central
differences.  The loss, the logistic output and the SGD loop come from
``nn.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from .attention import weighted_pair_matrices
from .corpus import BINARY, Dataset
from .embedding import EmbeddingTable, format_row, parse_int, parse_row
from .errors import FormatError, LabelKindError
from .nn import TrainConfig, bce_from_logit, sigmoid, sgd

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
        h = self.dense_b.shape[0]
        if self.filter_bias.shape != (f,):
            raise ValueError("filter_bias shape mismatch")
        if self.dense_w.shape != (h, 2 * f):
            raise ValueError("dense weight shape mismatch")
        if self.out_w.shape != (h,):
            raise ValueError("output weight shape mismatch")
        tensors = [self.filters, self.filter_bias, self.dense_w, self.dense_b, self.out_w]
        if not all(np.all(np.isfinite(t)) for t in tensors) or not math.isfinite(self.out_b):
            raise ValueError("parameters must be finite")

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
    """Uniform fan-in-scaled initialization, deterministic for a seed."""
    rng = np.random.default_rng(seed)

    def uniform(fan_in, *shape):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return CnnParams(
        filters=uniform(kernel_width * dim, n_filters, kernel_width, dim),
        filter_bias=uniform(kernel_width * dim, n_filters),
        dense_w=uniform(2 * n_filters, hidden, 2 * n_filters),
        dense_b=uniform(2 * n_filters, hidden),
        out_w=uniform(hidden, hidden),
        out_b=float(uniform(hidden, 1)[0]),
        rng_seed=seed,
    )


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


def _conv_forward(params: CnnParams, matrix: np.ndarray) -> dict:
    windows = _windows(matrix, params.kernel_width)
    flat_filters = params.filters.reshape(params.n_filters, -1)
    pre = windows @ flat_filters.T + params.filter_bias  # (P, F)
    act = np.maximum(pre, 0.0)
    best = act.argmax(axis=0)
    feats = act[best, np.arange(params.n_filters)]
    return {"windows": windows, "pre": pre, "best": best, "feats": feats}


def _forward(params: CnnParams, a: np.ndarray, b: np.ndarray) -> dict:
    conv_a = _conv_forward(params, a)
    conv_b = _conv_forward(params, b)
    fa, fb = conv_a["feats"], conv_b["feats"]
    z = np.concatenate([np.abs(fa - fb), fa * fb])
    hidden_pre = params.dense_w @ z + params.dense_b
    hidden = np.maximum(hidden_pre, 0.0)
    logit = float(params.out_w @ hidden + params.out_b)
    return {
        "conv_a": conv_a, "conv_b": conv_b, "z": z,
        "hidden_pre": hidden_pre, "hidden": hidden, "logit": logit,
    }


def cnn_forward(params: CnnParams, a: np.ndarray, b: np.ndarray) -> float:
    """Similarity score in (0, 1); exactly symmetric in its two inputs."""
    return sigmoid(_forward(params, a, b)["logit"])


def _conv_backward(params: CnnParams, conv: dict, dfeats: np.ndarray,
                   grads: dict) -> None:
    n_filters = params.n_filters
    dact = np.zeros_like(conv["pre"])
    dact[conv["best"], np.arange(n_filters)] = dfeats
    dpre = dact * (conv["pre"] > 0.0)
    grads["filters"] += (dpre.T @ conv["windows"]).reshape(params.filters.shape)
    grads["filter_bias"] += dpre.sum(axis=0)


def loss_and_gradients(params: CnnParams, a: np.ndarray, b: np.ndarray,
                       label: float) -> tuple[float, dict]:
    """Cross-entropy loss for one pair and its analytic parameter gradients."""
    cache = _forward(params, a, b)
    loss = bce_from_logit(cache["logit"], label)
    dlogit = sigmoid(cache["logit"]) - label

    dhidden = dlogit * params.out_w
    dhidden_pre = dhidden * (cache["hidden_pre"] > 0.0)
    dz = params.dense_w.T @ dhidden_pre
    grads = {
        "filters": np.zeros_like(params.filters),
        "filter_bias": np.zeros_like(params.filter_bias),
        "dense_w": np.outer(dhidden_pre, cache["z"]),
        "dense_b": dhidden_pre,
        "out_w": dlogit * cache["hidden"],
        "out_b": dlogit,
    }

    n_filters = params.n_filters
    dabs, dprod = dz[:n_filters], dz[n_filters:]
    fa, fb = cache["conv_a"]["feats"], cache["conv_b"]["feats"]
    sign = np.sign(fa - fb)
    _conv_backward(params, cache["conv_a"], dabs * sign + dprod * fb, grads)
    _conv_backward(params, cache["conv_b"], -dabs * sign + dprod * fa, grads)
    return loss, grads


def cnn_train(dataset: Dataset, table: EmbeddingTable, config: TrainConfig,
              n_max: int = DEFAULT_N_MAX) -> tuple[CnnParams, list[float]]:
    """Mini-batch SGD on binary cross-entropy; deterministic for a seed.

    Attention-weighted inputs are precomputed once (the attention stage
    has no trainable parameters).  Returns the trained parameters and the
    mean training loss per epoch.
    """
    if dataset.label_kind != BINARY:
        raise LabelKindError("CNN training requires a binary-labeled dataset")
    inputs = [
        weighted_pair_matrices(pair.a, pair.b, table, n_max) + (pair.label,)
        for pair in dataset
    ]
    params = init_params(table.dim, seed=config.seed)
    return sgd(params, lambda p, i: loss_and_gradients(p, *inputs[i]), len(inputs),
               config, np.random.default_rng(config.seed))


def _param_items(params: CnnParams) -> list[tuple[str, np.ndarray]]:
    return [(name, np.atleast_1d(getattr(params, name))) for name in _TENSORS]


def _with_tensor(params: CnnParams, name: str, tensor: np.ndarray) -> CnnParams:
    if name == "out_b":
        return replace(params, out_b=float(tensor[0]))
    return replace(params, **{name: tensor})


def numeric_gradients(params: CnnParams, a: np.ndarray, b: np.ndarray,
                      label: float, epsilon: float) -> dict:
    """Central-difference gradients of the cross-entropy loss."""
    grads = {}
    for name, tensor in _param_items(params):
        grad = np.zeros_like(tensor)
        flat = tensor.ravel()
        for i in range(flat.size):
            bumped = tensor.copy()
            bumped.ravel()[i] = flat[i] + epsilon
            loss_hi = bce_from_logit(
                _forward(_with_tensor(params, name, bumped), a, b)["logit"], label)
            bumped.ravel()[i] = flat[i] - epsilon
            loss_lo = bce_from_logit(
                _forward(_with_tensor(params, name, bumped), a, b)["logit"], label)
            grad.ravel()[i] = (loss_hi - loss_lo) / (2.0 * epsilon)
        grads[name] = grad
    return grads


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
    _, analytic = loss_and_gradients(params, mat_a, mat_b, label)
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
    for name, tensor in _param_items(params):
        stream.write(format_row(name, tensor.ravel()))


def load_cnn_params(stream: IO[str]) -> CnnParams:
    lines = [(lineno, line.strip()) for lineno, line in enumerate(stream, start=1)
             if line.strip()]
    if not lines:
        raise FormatError("empty CNN parameter file")
    header = lines[0][1].split()
    if len(header) != 6 or header[0] != _CNN_MAGIC or header[1] != _FORMAT_VERSION:
        raise FormatError(f"bad CNN parameter header: {lines[0][1]!r}")
    n_filters, kernel_width, dim, hidden = (
        parse_int(x, lines[0][0], "a header size") for x in header[2:])
    shapes = {
        "filters": (n_filters, kernel_width, dim),
        "filter_bias": (n_filters,),
        "dense_w": (hidden, 2 * n_filters),
        "dense_b": (hidden,),
        "out_w": (hidden,),
        "out_b": (1,),
    }
    seed = 0
    tensors: dict[str, np.ndarray] = {}
    seen: set[str] = set()
    for lineno, line in lines[1:]:
        name, _, rest = line.partition(" ")
        if name in seen:
            raise FormatError(f"line {lineno}: repeated CNN parameter section {name!r}")
        seen.add(name)
        if name == "rng_seed":
            seed = parse_int(rest, lineno, "rng_seed")
            continue
        if name not in shapes:
            raise FormatError(f"line {lineno}: unknown CNN parameter section {name!r}")
        shape = shapes[name]
        tensors[name] = parse_row(rest, lineno, math.prod(shape)).reshape(shape)
    missing = set(shapes) - set(tensors)
    if missing:
        raise FormatError(f"missing CNN parameter sections: {sorted(missing)}")
    out_b = float(tensors.pop("out_b")[0])
    return CnnParams(**tensors, out_b=out_b, rng_seed=seed)
