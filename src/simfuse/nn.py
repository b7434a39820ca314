"""Training machinery shared by the CNN scorer and the fusion combiner: the
logistic function, binary cross-entropy on a logit, and one mini-batch SGD
loop over frozen parameter dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, TypeVar

import numpy as np

from .errors import ConfigError

P = TypeVar("P")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def bce_from_logit(logit: float, label: float) -> float:
    # softplus(logit) - label*logit, evaluated stably
    softplus = max(logit, 0.0) + math.log1p(math.exp(-abs(logit)))
    return softplus - label * logit


def sgd(params: P, loss_and_grads: Callable[[P, int], tuple[float, dict]], n: int,
        config: TrainConfig, rng: np.random.Generator) -> tuple[P, list[float]]:
    """Mini-batch SGD over examples ``0..n-1``, reshuffled by ``rng`` each epoch.

    ``loss_and_grads(params, i)`` returns example i's loss and gradients
    keyed by the names of the fields of the frozen dataclass ``params`` to
    update; each batch replaces every such field ``p`` with
    ``p - lr * (g * (1 / batch))``, ``g`` the gradient summed over the
    batch.  Returns the final parameters and the mean loss per epoch.
    """
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            summed: dict = {}
            for idx in batch:
                loss, grads = loss_and_grads(params, idx)
                total += loss
                if not summed:
                    summed = grads
                else:
                    for key in summed:
                        summed[key] += grads[key]
            scale = 1.0 / len(batch)
            params = replace(params, **{
                key: getattr(params, key) - config.learning_rate * (grad * scale)
                for key, grad in summed.items()
            })
        epoch_losses.append(total / n)
    return params, epoch_losses
