"""Score fusion: calibrated per-model weights, weighted combination, and
the final classification rule.

Per-model validation metrics are softmax-normalized into a probability
triple (alpha, beta, gamma) weighting the Jaccard, CNN and TF-IDF scores.
Fusion is the plain weighted sum or a small trained combiner over the weighted
triple: ``nn.py``'s fully connected head (the CNN's too), loss and SGD loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .embedding import format_row, parse_row, read_sections
from .errors import (ConfigError, DegenerateData, DimensionError, FormatError,
                     SimfuseError, check_choice)
from .nn import (TrainConfig, check_finite, check_head, head_logit, head_loss_and_grads,
                 init_head, sigmoid, sgd, softmax)

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
        check_head(self.hidden_w, self.hidden_b, self.out_w, 3)
        check_finite(self.hidden_w, self.hidden_b, self.out_w, self.out_b)


@dataclass(frozen=True)
class FusionParams:
    mode: str = WEIGHTED_SUM
    net: FusionNet | None = None

    def __post_init__(self):
        check_choice("fusion_mode", self.mode, FUSION_MODES)
        if self.mode == LEARNED and self.net is None:
            raise ConfigError("learned fusion mode requires a trained combiner")


def check_both_classes(labels: Sequence[float]) -> None:
    """DegenerateData unless ``labels`` hold at least two distinct values."""
    if len(set(labels)) < 2:
        raise DegenerateData("fusion training needs both label classes")


def calibrate_weights(metric_jaccard: float, metric_w2vcnn: float,
                      metric_tfidf: float) -> FusionWeights:
    """Softmax over the three per-model metrics, in (jaccard, cnn, tfidf) order."""
    metrics = np.array([metric_jaccard, metric_w2vcnn, metric_tfidf], dtype=np.float64)
    alpha, beta, gamma = softmax(metrics)
    return FusionWeights(alpha=float(alpha), beta=float(beta), gamma=float(gamma))


def _net_loss_and_grads(net: FusionNet, triples: np.ndarray,
                        labels: np.ndarray) -> tuple[float, dict]:
    """Cross-entropy summed over a (B, 3) batch of weighted triples, and its
    gradients summed over the batch."""
    loss, _, grads = head_loss_and_grads(triples, net.hidden_w, net.hidden_b, net.out_w,
                                         net.out_b, labels)
    return loss, dict(zip(_NET_SECTIONS, grads))


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
    net = params.net
    return sigmoid(head_logit(np.array(weighted), net.hidden_w, net.hidden_b, net.out_w, net.out_b))


def train_fusion(triples: Sequence[tuple[float, float, float]],
                 labels: Sequence[float], weights: FusionWeights,
                 config: TrainConfig) -> tuple[FusionParams, list[float]]:
    """SGD cross-entropy training of the shallow combiner on weighted triples.

    Deterministic for a fixed seed.  Raises DegenerateData when the labels
    contain fewer than two distinct values.
    """
    if len(triples) != len(labels):
        raise DimensionError("triples and labels must have equal length")
    check_both_classes(labels)
    inputs = weights.as_array() * np.asarray(triples, dtype=np.float64)
    target = np.asarray(labels, dtype=np.float64)

    rng = np.random.default_rng(config.seed)
    net = FusionNet(*init_head(rng, 3, _COMBINER_HIDDEN))
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
            stream.write(format_row(name, getattr(params.net, name)))


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
    sections = read_sections(lines[2:], _NET_SECTIONS, "fusion net")
    h = len(sections["hidden_b"][1].split())
    if h == 0:
        raise FormatError(f"line {sections['hidden_b'][0]}: hidden_b has no values")
    shapes = {"hidden_w": (h, 3), "hidden_b": (h,), "out_w": (h,), "out_b": (1,)}
    tensors = {name: parse_row(rest, lineno, math.prod(shapes[name])).reshape(shapes[name])
               for name, (lineno, rest) in sections.items()}
    out_b = float(tensors.pop("out_b")[0])
    return weights, FusionParams(mode=LEARNED, net=FusionNet(**tensors, out_b=out_b))
