"""Toy embedding tables and datasets shared by the tests."""

import numpy as np

from simfuse.corpus import BINARY, Dataset, LabeledPair, Sentence
from simfuse.embedding import EmbeddingTable


def toy_table(words, dim=16, seed=2024):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(dim=dim, vectors={w: rng.standard_normal(dim) for w in words})


def separable_toy_set(n_per_class=50, dim=16):
    """Linearly separable toy data: identical-sentence "similar" pairs with
    per-pair vocabulary, plus disjoint-vocabulary "different" pairs.
    """
    pairs = []
    vocab = []
    for i in range(n_per_class):
        words = [f"same{i}a", f"same{i}b", f"same{i}c"]
        s = Sentence.from_surfaces(words)
        pairs.append(LabeledPair(id=f"sim{i}", a=s, b=s, label=1.0))
        vocab.extend(words)
    for i in range(n_per_class):
        left = [f"left{i}a", f"left{i}b", f"left{i}c"]
        right = [f"right{i}a", f"right{i}b", f"right{i}c"]
        pairs.append(LabeledPair(
            id=f"dif{i}",
            a=Sentence.from_surfaces(left),
            b=Sentence.from_surfaces(right),
            label=0.0,
        ))
        vocab.extend(left + right)
    dataset = Dataset(pairs=tuple(pairs), label_kind=BINARY)
    return dataset, toy_table(vocab, dim=dim)
