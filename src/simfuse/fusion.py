"""Score fusion: calibrated per-model weights, weighted combination, and
the final classification rule.

Per-model validation metrics are softmax-normalized into a probability
triple (alpha, beta, gamma) weighting the Jaccard, CNN and TF-IDF scores.
Fusion is either the plain weighted sum or a small trained combiner over
the weighted triple, trained with the loss and the SGD loop of ``nn.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .embedding import format_row, parse_row
from .errors import (ConfigError, DegenerateData, DimensionError, FormatError,
                     SimfuseError, check_choice)
from .nn import TrainConfig, bce_loss_and_dlogits, sigmoid, sgd

SIMILAR = "similar"
DIFFERENT = "different"

WEIGHTED_SUM = "weighted_sum"
LEARNED = "learned"
FUSION_MODES = (WEIGHTED_SUM, LEARNED)

_FUSION_HEADER = "simfuse-fusion v1"
_COMBINER_HIDDEN = 4
_NET_SECTIONS = ("hidden_w", "hidden_b", "out_w", "out_b")
_COMPONENTS = ("jaccard", "w2vcnn", "tfidf")


@dataclass(frozen=True)
class FusionWeights:
    """Probability triple weighting (jaccard, w2v-cnn, tfidf) scores."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        total = self.alpha + self.beta + self.gamma
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fusion weights must sum to 1, got {total}")
        if not all(0.0 < w < 1.0 for w in (self.alpha, self.beta, self.gamma)):
            raise ValueError("fusion weights must lie strictly in (0, 1)")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma])


@dataclass(frozen=True)
class FusionNet:
    """Shallow combiner: 3 -> hidden ReLU -> sigmoid scalar."""

    hidden_w: np.ndarray  # (h_f, 3)
    hidden_b: np.ndarray  # (h_f,)
    out_w: np.ndarray     # (h_f,)
    out_b: float

    def __post_init__(self):
        h = self.hidden_b.shape[0]
        if self.hidden_w.shape != (h, 3) or self.out_w.shape != (h,):
            raise ValueError("fusion net shapes are inconsistent")
        tensors = [self.hidden_w, self.hidden_b, self.out_w]
        if not all(np.isfinite(t).all() for t in tensors) or not math.isfinite(self.out_b):
            raise ValueError("parameters must be finite")


@dataclass(frozen=True)
class FusionParams:
    mode: str = WEIGHTED_SUM
    net: FusionNet | None = None

    def __post_init__(self):
        check_choice("fusion_mode", self.mode, FUSION_MODES)
        if self.mode == LEARNED and self.net is None:
            raise ConfigError("learned fusion mode requires a trained combiner")


def calibrate_weights(metric_jaccard: float, metric_w2vcnn: float,
                      metric_tfidf: float) -> FusionWeights:
    """Softmax over the three per-model metrics, in (jaccard, cnn, tfidf) order."""
    metrics = np.array([metric_jaccard, metric_w2vcnn, metric_tfidf], dtype=np.float64)
    shifted = np.exp(metrics - metrics.max())
    alpha, beta, gamma = shifted / shifted.sum()
    return FusionWeights(alpha=float(alpha), beta=float(beta), gamma=float(gamma))


def _net_logit(net: FusionNet, triple: np.ndarray) -> float:
    hidden = np.maximum(net.hidden_w @ triple + net.hidden_b, 0.0)
    return float(net.out_w @ hidden + net.out_b)


def _net_loss_and_grads(net: FusionNet, triples: np.ndarray,
                        labels: np.ndarray) -> tuple[float, dict]:
    """Cross-entropy summed over a (B, 3) batch of weighted triples, and its
    gradients summed over the batch."""
    hidden_pre = triples @ net.hidden_w.T + net.hidden_b
    hidden = np.maximum(hidden_pre, 0.0)
    loss, dlogits = bce_loss_and_dlogits(hidden @ net.out_w + net.out_b, labels)
    dhidden = dlogits[:, None] * net.out_w * (hidden_pre > 0.0)
    grads = {
        "hidden_w": dhidden.T @ triples,
        "hidden_b": dhidden.sum(axis=0),
        "out_w": dlogits @ hidden,
        "out_b": float(dlogits.sum()),
    }
    return loss, grads


def fuse(scores: tuple[float, float, float], weights: FusionWeights,
         params: FusionParams) -> float:
    """Combine (jaccard, w2vcnn, tfidf) scores into one value in [0, 1].

    Raises SimfuseError naming each non-finite component score.
    """
    j, c, t = scores
    if not (math.isfinite(j) and math.isfinite(c) and math.isfinite(t)):
        bad = ", ".join(f"{name}={value}" for name, value in zip(_COMPONENTS, scores)
                        if not math.isfinite(value))
        raise SimfuseError(f"non-finite component score: {bad}")
    weighted = (weights.alpha * j, weights.beta * c, weights.gamma * t)
    if params.mode == WEIGHTED_SUM:
        # left to right, as numpy sums three values; the weight triple can
        # sum to 1 +- 1 ulp, so keep the contract exact
        return float(min(1.0, weighted[0] + weighted[1] + weighted[2]))
    return sigmoid(_net_logit(params.net, np.array(weighted)))


def train_fusion(triples: Sequence[tuple[float, float, float]],
                 labels: Sequence[float], weights: FusionWeights,
                 config: TrainConfig) -> tuple[FusionParams, list[float]]:
    """SGD cross-entropy training of the shallow combiner on weighted triples.

    Deterministic for a fixed seed.  Raises DegenerateData when the labels
    contain fewer than two distinct values.
    """
    if len(triples) != len(labels):
        raise DimensionError("triples and labels must have equal length")
    if len(set(labels)) < 2:
        raise DegenerateData("fusion training needs both label classes")
    inputs = weights.as_array() * np.asarray(triples, dtype=np.float64)
    target = np.asarray(labels, dtype=np.float64)

    rng = np.random.default_rng(config.seed)
    h = _COMBINER_HIDDEN
    bound_in, bound_out = 1.0 / math.sqrt(3), 1.0 / math.sqrt(h)
    net = FusionNet(
        hidden_w=rng.uniform(-bound_in, bound_in, size=(h, 3)),
        hidden_b=rng.uniform(-bound_in, bound_in, size=h),
        out_w=rng.uniform(-bound_out, bound_out, size=h),
        out_b=float(rng.uniform(-bound_out, bound_out, size=1)[0]),
    )
    net, epoch_losses = sgd(
        net, lambda p, idx: _net_loss_and_grads(p, inputs[idx], target[idx]),
        len(inputs), config, rng)
    return FusionParams(mode=LEARNED, net=net), epoch_losses


def classify(score: float) -> str:
    """Similar when the score is closer to 1 than to 0; ties go to similar."""
    return SIMILAR if score >= 0.5 else DIFFERENT


def scale_to_sts(score: float) -> float:
    """Map a [0, 1] similarity onto the graded 0..5 scale."""
    return 5.0 * score


def save_fusion_params(weights: FusionWeights, params: FusionParams,
                       stream: IO[str]) -> None:
    """Header, weight triple, then combiner tensors for the learned mode."""
    stream.write(_FUSION_HEADER + "\n")
    stream.write(format_row(None, weights.as_array()))
    if params.mode == LEARNED:
        for name in _NET_SECTIONS:
            stream.write(format_row(name, np.ravel(getattr(params.net, name))))


def load_fusion_params(stream: IO[str]) -> tuple[FusionWeights, FusionParams]:
    lines = [(lineno, line.strip()) for lineno, line in enumerate(stream, start=1)
             if line.strip()]
    if not lines or lines[0][1] != _FUSION_HEADER:
        raise FormatError("bad fusion parameter header")
    if len(lines) < 2:
        raise FormatError("fusion parameter file missing the weight triple")
    weights = FusionWeights(*parse_row(lines[1][1], lines[1][0], 3).tolist())
    if len(lines) == 2:
        return weights, FusionParams(mode=WEIGHTED_SUM, net=None)
    sections: dict[str, tuple[int, str]] = {}
    for lineno, line in lines[2:]:
        name, _, rest = line.partition(" ")
        if name not in _NET_SECTIONS:
            raise FormatError(f"line {lineno}: unknown fusion net section {name!r}")
        if name in sections:
            raise FormatError(f"line {lineno}: repeated fusion net section {name!r}")
        sections[name] = (lineno, rest)
    missing = set(_NET_SECTIONS) - set(sections)
    if missing:
        raise FormatError(f"missing fusion net sections: {sorted(missing)}")
    h = len(sections["hidden_b"][1].split())
    shapes = {"hidden_w": (h, 3), "hidden_b": (h,), "out_w": (h,), "out_b": (1,)}
    tensors = {name: parse_row(rest, lineno, math.prod(shapes[name])).reshape(shapes[name])
               for name, (lineno, rest) in sections.items()}
    out_b = float(tensors.pop("out_b")[0])
    return weights, FusionParams(mode=LEARNED, net=FusionNet(**tensors, out_b=out_b))
