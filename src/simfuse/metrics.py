"""Confusion-count classification metrics and rank correlations."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, EmptyEval, UndefinedCorrelation


@dataclass(frozen=True)
class MetricReport:
    """Classification metrics from confusion counts.

    ``pearson``/``spearman`` are populated only for graded evaluations,
    where the confusion counts are zero and carry no meaning.
    """

    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0
    accuracy: float = 0.0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    pearson: float | None = None
    spearman: float | None = None


def confusion_counts(predictions: Sequence, labels: Sequence) -> tuple[int, int, int, int]:
    """Standard 2x2 counts (tp, tn, fp, fn); truthy means the positive
    ("similar") class.  Raises DimensionError on length mismatch.
    """
    if len(predictions) != len(labels):
        raise DimensionError(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    counts = Counter((bool(pred), bool(gold)) for pred, gold in zip(predictions, labels))
    return counts[True, True], counts[False, False], counts[True, False], counts[False, True]


def _ratio(num: float, den: float) -> float:
    # 0/0 is defined as 0 so degenerate splits still yield a total report.
    return num / den if den > 0 else 0.0


def prf_metrics(counts: tuple[int, int, int, int]) -> MetricReport:
    """Accuracy, precision, recall and F1 from confusion counts."""
    tp, tn, fp, fn = counts
    total = tp + tn + fp + fn
    if total == 0:
        raise EmptyEval("no pairs to evaluate")
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return MetricReport(
        tp=tp, tn=tn, fp=fp, fn=fn,
        accuracy=(tp + tn) / total,
        precision=precision,
        recall=recall,
        f1=_ratio(2.0 * precision * recall, precision + recall),
    )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the average of their rank range."""
    # return_index makes np.unique sort with mergesort, so each NaN (never
    # equal to another) keeps its input order, as a stable argsort does
    _, _, inverse, counts = np.unique(values, return_index=True, return_inverse=True,
                                      return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[inverse]


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    cx = x - x.mean()
    cy = y - y.mean()
    denom = np.sqrt((cx * cx).sum() * (cy * cy).sum())
    if denom == 0.0:
        raise UndefinedCorrelation("zero variance leaves the correlation undefined")
    return float((cx * cy).sum() / denom)


def rank_correlations(predicted: Sequence[float], gold: Sequence[float]) -> tuple[float, float]:
    """Pearson over raw values; Spearman as Pearson over average-tie ranks."""
    x = np.asarray(predicted, dtype=np.float64)
    y = np.asarray(gold, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"{x.shape} predictions vs {y.shape} gold scores")
    if x.size < 2:
        raise UndefinedCorrelation("correlations need at least two pairs")
    return _pearson(x, y), _pearson(_average_ranks(x), _average_ranks(y))
