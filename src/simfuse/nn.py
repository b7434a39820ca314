"""What the CNN scorer and the fusion combiner share: the fully connected head
both end in (a ReLU hidden layer and a logistic output: forward, backward,
fan-in initialization and shape check), the softmax, cross-entropy on a logit,
one mini-batch SGD loop over frozen parameter dataclasses, the check that their
values are finite, and the central differences gradients are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, TypeVar

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
        if not (isinstance(lr, (int, float)) and not isinstance(lr, bool) and 0 < lr < math.inf):
            raise ConfigError(f"learning_rate must be positive and finite, got {lr!r}")
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed, 0)


def check_finite(*tensors) -> None:
    """ValueError unless every value of every tensor (an array or a float) is finite."""
    if not all(np.isfinite(t).all() for t in tensors):
        raise ValueError("parameters must be finite")


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def fan_in_uniform(rng: np.random.Generator, fan_in: int, *shape: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_head(rng: np.random.Generator, n_in: int, hidden: int) -> tuple:
    """A head's ``(w, b, out_w, out_b)`` for ``n_in`` inputs, drawn in that order."""
    return (fan_in_uniform(rng, n_in, hidden, n_in), fan_in_uniform(rng, n_in, hidden),
            fan_in_uniform(rng, hidden, hidden), float(fan_in_uniform(rng, hidden, 1)[0]))


def check_head(w: np.ndarray, b: np.ndarray, out_w: np.ndarray, n_in: int) -> None:
    """ValueError unless the head's shapes are (h, n_in), (h,) and (h,) for one h >= 1."""
    h = b.shape[0] if b.ndim == 1 and len(b) else -1
    if (w.shape, b.shape, out_w.shape) != ((h, n_in), (h,), (h,)):
        raise ValueError(f"head shapes {w.shape}, {b.shape}, {out_w.shape} "
                         f"are not (h, {n_in}), (h,), (h,) for an h >= 1")


def head_logit(x: np.ndarray, w: np.ndarray, b: np.ndarray, out_w: np.ndarray,
               out_b: float) -> float:
    hidden = np.maximum(w @ x + b, 0.0)
    return float(out_w @ hidden + out_b)


def head_loss_and_grads(x: np.ndarray, w: np.ndarray, b: np.ndarray, out_w: np.ndarray,
                        out_b: float, labels) -> tuple[float, np.ndarray, tuple]:
    """Cross-entropy summed over a (B, n_in) batch ``x``, its derivative by the
    (B, h) hidden pre-activations, and the batch's summed (w, b, out_w, out_b) gradients."""
    hidden_pre = x @ w.T + b
    hidden = np.maximum(hidden_pre, 0.0)
    loss, dlogits = bce_loss_and_dlogits(hidden @ out_w + out_b,
                                         np.asarray(labels, dtype=np.float64))
    dhidden_pre = dlogits[:, None] * out_w * (hidden_pre > 0.0)
    return loss, dhidden_pre, (dhidden_pre.T @ x, dhidden_pre.sum(axis=0), dlogits @ hidden,
                               float(dlogits.sum()))


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
    parameters and the mean loss per epoch.  Raises DegenerateData for
    ``n == 0`` and when an update leaves parameters that the dataclass
    rejects (a ValueError from its constructor, such as non-finite values
    after divergence).  Numpy's overflow and invalid-value warnings are
    silenced during training, so that error alone reports a diverging run.
    """
    if n == 0:
        raise DegenerateData("training needs at least one example")
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


def central_differences(params: P, names: Sequence[str], epsilon: float,
                        loss: Callable[[P], float]) -> dict[str, np.ndarray]:
    """Central-difference gradients of ``loss(params)`` by each field in
    ``names`` of the frozen dataclass ``params``, one value moved by
    +-epsilon at a time; a float field's gradient is a (1,) array."""
    grads = {}
    for name in names:
        value = getattr(params, name)
        tensor = np.atleast_1d(value)
        grad = np.zeros_like(tensor)
        for i in range(tensor.size):
            losses = []
            for step in (epsilon, -epsilon):
                bumped = tensor.copy()
                bumped.flat[i] += step
                bumped_value = float(bumped[0]) if isinstance(value, float) else bumped
                losses.append(loss(replace(params, **{name: bumped_value})))
            grad.flat[i] = (losses[0] - losses[1]) / (2.0 * epsilon)
        grads[name] = grad
    return grads
