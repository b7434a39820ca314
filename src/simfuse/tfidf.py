"""Pair-scoped TF-IDF vectors and cosine similarity.

The "document" unit is a sentence pair: term frequency is counted over
both sentences of the pair and normalized by the size of their combined
vocabulary, inverse document frequency over the number of pairs in the
corpus that contain the term.

A TF-IDF vector is a plain ``dict`` of term -> positive weight, in sorted
term order.  ``tfidf_vector`` counts the pair's terms once, with one
``Counter``, and ``idf`` reads a table that ``CorpusStats`` builds with the
statistics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from .corpus import Dataset, LabeledPair, Sentence
from .errors import EmptyCorpus


@dataclass(frozen=True)
class CorpusStats:
    """Pair-level document frequencies for a dataset."""

    total_pairs: int
    pair_doc_freq: Mapping[str, int]
    # idf per term of pair_doc_freq, and the idf of a term the stats have
    # never seen
    _idf_table: dict[str, float] = field(init=False, compare=False, repr=False)
    _unseen_idf: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.total_pairs < 1:
            raise EmptyCorpus("corpus statistics require at least one pair")
        bad = [t for t, df in self.pair_doc_freq.items() if df > self.total_pairs or df < 0]
        if bad:
            raise ValueError(f"document frequency out of range for {bad[:3]}")
        # idf depends on the document frequency alone: one log per distinct value
        by_df = {df: _idf_value(self.total_pairs, df) for df in set(self.pair_doc_freq.values())}
        object.__setattr__(self, "_idf_table", {
            term: by_df[df] for term, df in self.pair_doc_freq.items()})
        object.__setattr__(self, "_unseen_idf", _idf_value(self.total_pairs, 0))

    def doc_freq(self, term: str) -> int:
        return self.pair_doc_freq.get(term, 0)


def build_stats(dataset: Dataset) -> CorpusStats:
    """Count, for every term, the number of pairs containing it.

    A term present in both sentences of a pair is counted once for that
    pair.  Raises EmptyCorpus (from CorpusStats) on an empty dataset.
    """
    freq: dict[str, int] = {}
    for pair in dataset:
        for term in set(pair.a.words) | set(pair.b.words):
            freq[term] = freq.get(term, 0) + 1
    return CorpusStats(total_pairs=len(dataset), pair_doc_freq=freq)


def _idf_value(total_pairs: int, doc_freq: int) -> float:
    return max(0.0, math.log(total_pairs / (1 + doc_freq)))


def idf(term: str, stats: CorpusStats) -> float:
    """Natural-log inverse pair frequency, floored at zero.

    The floor keeps downstream cosine similarities in [0, 1]: a term
    present in every pair would otherwise get a negative weight.  A term of
    ``pair_doc_freq`` reads its value from the table ``stats`` built with
    itself; every unseen term shares one value.
    """
    return stats._idf_table.get(term, stats._unseen_idf)


def tfidf_vector(s: Sentence, pair: LabeledPair, stats: CorpusStats) -> dict[str, float]:
    """TF-IDF weights for the distinct surfaces of ``s`` within ``pair``.

    A term's weight is its occurrences across both sentences, over the size
    of the union of their surface sets (so it may exceed 1 for repeated
    terms), times ``idf(term, stats)``.  One ``Counter`` over both sentences
    gives every term's occurrences and, as its length, the size of the
    union.  Zero weights are left out, and terms are stored in sorted order
    so later float summations are independent of the process's string-hash
    seed.
    """
    counts = Counter(pair.a.words + pair.b.words)
    n_union = len(counts)
    # idf() read off its table once per call
    table, unseen = stats._idf_table, stats._unseen_idf
    weights = {}
    for term in sorted(set(s.words)):
        w = counts[term] / n_union * table.get(term, unseen)
        if w > 0.0:
            weights[term] = w
    return weights


def cosine_sim(u: Mapping[str, float], v: Mapping[str, float]) -> float:
    """Cosine similarity of two sparse term -> weight maps; 0.0 if either
    has norm 0.

    Weights are non-negative, so the true value lies in [0, 1]; the result
    is capped at 1.0 against float rounding (identical vectors can land a
    hair above it).
    """
    nu = math.sqrt(sum(w * w for w in u.values()))
    nv = math.sqrt(sum(w * w for w in v.values()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    # canonical summation order: exact symmetry in (u, v) and identical
    # results regardless of the process's string-hash seed
    shared = sorted(u.keys() & v.keys())
    dot = sum(u[t] * v[t] for t in shared)
    return min(1.0, dot / (nu * nv))
