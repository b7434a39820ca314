"""Training machinery shared by the CNN scorer and the fusion combiner: the
logistic function, binary cross-entropy on a logit, and one mini-batch SGD
loop over frozen parameter dataclasses whose gradients come one batch at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, TypeVar

import numpy as np

from .errors import ConfigError, DegenerateData, check_int

P = TypeVar("P")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        lr = self.learning_rate
        if not (isinstance(lr, (int, float)) and 0 < lr < math.inf):
            raise ConfigError(f"learning_rate must be positive and finite, got {lr!r}")
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed, 0)


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def bce_from_logit(logit: float | np.ndarray, label: float | np.ndarray):
    """Cross-entropy of a logit, or elementwise of arrays of logits and labels:
    softplus(logit) - label * logit, evaluated stably."""
    return np.maximum(logit, 0.0) + np.log1p(np.exp(-np.abs(logit))) - label * logit


def bce_loss_and_dlogits(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """A batch's summed cross-entropy and its derivative by each logit,
    ``sigmoid(logit) - label``, both without overflow for any finite logit."""
    e = np.exp(-np.abs(logits))
    prob = np.where(logits >= 0.0, 1.0, e) / (1.0 + e)
    return float(bce_from_logit(logits, labels).sum()), prob - labels


def sgd(params: P, batch_loss_and_grads: Callable[[P, np.ndarray], tuple[float, dict]],
        n: int, config: TrainConfig, rng: np.random.Generator) -> tuple[P, list[float]]:
    """Mini-batch SGD over examples ``0..n-1``, reshuffled by ``rng`` each epoch.

    ``batch_loss_and_grads(params, idx)`` is called once per batch with the
    batch's example indices, in shuffled order, and returns the loss and the
    gradients summed over those examples, keyed by the names of the fields
    of the frozen dataclass ``params`` to update; each batch replaces every
    such field ``p`` with ``p - lr * (g * (1 / batch))``.  Returns the final
    parameters and the mean loss per epoch.  Raises DegenerateData when an
    update leaves parameters that the dataclass rejects (a ValueError from
    its constructor, such as non-finite values after divergence).  Numpy's
    overflow and invalid-value warnings are silenced during training, so
    that error alone reports a diverging run.
    """
    epoch_losses: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, config.batch_size):
                batch = order[start : start + config.batch_size]
                loss, summed = batch_loss_and_grads(params, batch)
                total += loss
                scale = 1.0 / len(batch)
                try:
                    params = replace(params, **{
                        key: getattr(params, key) - config.learning_rate * (grad * scale)
                        for key, grad in summed.items()
                    })
                except ValueError as exc:
                    raise DegenerateData(f"training diverged in epoch {epoch}: {exc}") from exc
            epoch_losses.append(total / n)
    return params, epoch_losses
