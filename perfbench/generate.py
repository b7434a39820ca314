"""Seeded synthetic inputs for the simfuse benchmark.

The generator writes what a user would hand to ``simfuse train`` and
``simfuse score``: a tab-separated pair file (``id, sentence A,
sentence B, 0/1 label``) and a word2vec-format embedding text file.  The
same parameters and seed give byte-identical files.

Labels are a paraphrase/unrelated mix that the scorers separate
imperfectly.  A pair's *copy share* is the share of sentence B's
positions copied from sentence A.  Copy shares are drawn around the
split's ``overlap``: paraphrases above it and unrelated pairs below it,
each with a jitter as wide as ``label_gap``, so the two classes overlap.
Paraphrases also swap some of their other positions for a synonym of a
token of A (a word whose vector lies close to it), which only the
embedding-based scorer can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_SYNONYMS_PER_CLUSTER = 4
_SYNONYM_NOISE = 0.35
_SYNONYM_SHARE = 0.5  # share of a paraphrase's uncopied positions that get a synonym


@dataclass(frozen=True)
class SplitSpec:
    """Shape of the generated pairs; both pair files of a workload share it."""

    min_len: int
    max_len: int
    overlap: float      # mean share of B's positions copied from A
    oov_rate: float     # share of fresh tokens drawn outside the embedding vocabulary
    label_gap: float    # label mode: how far paraphrase and unrelated copy shares sit apart

    def __post_init__(self):
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError(f"bad length range: {self}")
        for share in (self.overlap, self.oov_rate, self.label_gap):
            if not 0.0 <= share <= 1.0:
                raise ValueError(f"shares must lie in [0, 1]: {self}")


@dataclass(frozen=True)
class Lexicon:
    """Vocabulary words (grouped in synonym clusters) and an OOV pool."""

    words: list[str]
    oov_words: list[str]
    vectors: np.ndarray  # (len(words), dim)
    frequency: np.ndarray  # sampling probability per vocabulary word


def _surfaces(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct lowercase pseudo-words.  Word ``i`` has 3 + i % 8
    letters, so word lengths per frequency rank do not depend on the seed."""
    seen: set[str] = set()
    out: list[str] = []
    for i in range(count):
        word = ""
        while not word or word in seen:
            word = "".join(rng.choice(_LETTERS, size=3 + i % 8))
        seen.add(word)
        out.append(word)
    return out


def make_lexicon(rng: np.random.Generator, vocab: int, dim: int) -> Lexicon:
    """A Zipf-like vocabulary of ``vocab`` words in ``dim`` dimensions, plus
    an out-of-vocabulary pool a tenth its size (at least 50 words)."""
    if vocab < _SYNONYMS_PER_CLUSTER or dim < 1:
        raise ValueError("vocabulary must hold a synonym cluster and dim must be >= 1")
    oov_count = max(50, vocab // 10)
    names = _surfaces(rng, vocab + oov_count)
    clusters = -(-vocab // _SYNONYMS_PER_CLUSTER)
    centres = rng.standard_normal((clusters, dim))
    noise = rng.standard_normal((vocab, dim))
    vectors = centres[np.arange(vocab) // _SYNONYMS_PER_CLUSTER] + _SYNONYM_NOISE * noise
    weight = 1.0 / (np.arange(vocab) + 10.0)
    return Lexicon(words=names[:vocab], oov_words=names[vocab:], vectors=vectors,
                   frequency=weight / weight.sum())


def _fresh_tokens(rng: np.random.Generator, lex: Lexicon, count: int,
                  oov_rate: float) -> list[str]:
    in_vocab = rng.choice(len(lex.words), size=count, p=lex.frequency)
    oov = rng.integers(0, len(lex.oov_words), size=count)
    is_oov = rng.random(count) < oov_rate
    return [lex.oov_words[o] if flag else lex.words[v]
            for v, o, flag in zip(in_vocab, oov, is_oov)]


def _synonym(rng: np.random.Generator, lex: Lexicon, index: dict[str, int],
             word: str) -> str | None:
    pos = index.get(word)
    if pos is None:
        return None
    start = pos - pos % _SYNONYMS_PER_CLUSTER
    candidates = [i for i in range(start, min(start + _SYNONYMS_PER_CLUSTER, len(lex.words)))
                  if i != pos]
    return lex.words[candidates[rng.integers(len(candidates))]] if candidates else None


def make_pairs(rng: np.random.Generator, lex: Lexicon, spec: SplitSpec, n: int,
               id_prefix: str) -> list[tuple[str, list[str], list[str], int]]:
    """``n`` labelled pairs as (id, tokens A, tokens B, label)."""
    if n < 2:
        raise ValueError("a pair file needs at least two pairs")
    index = {w: i for i, w in enumerate(lex.words)}
    # Labels, lengths and jitters are stratified and then shuffled, so every
    # seed gets the same label balance and length and copy-share spread.
    labels = rng.permutation(np.arange(n) % 2)
    span = spec.max_len - spec.min_len + 1
    lengths = rng.permutation(spec.min_len + np.arange(2 * n) % span).reshape(n, 2)
    jitters = rng.permutation((np.arange(n) + 0.5) / n * 2.0 - 1.0) * spec.label_gap
    pairs = []
    for k in range(n):
        label, len_a, len_b = int(labels[k]), int(lengths[k, 0]), int(lengths[k, 1])
        a = _fresh_tokens(rng, lex, len_a, spec.oov_rate)
        centre = spec.overlap + (spec.label_gap / 2 if label else -spec.label_gap / 2)
        share = float(np.clip(centre + jitters[k], 0.0, 1.0))
        copied = rng.permutation(len_b)[: int(round(share * len_b))]
        b = _fresh_tokens(rng, lex, len_b, spec.oov_rate)
        for j in copied:
            b[j] = a[j] if j < len_a else a[rng.integers(len_a)]
        if label:
            copied_set = set(copied.tolist())
            for j in range(len_b):
                if j not in copied_set and rng.random() < _SYNONYM_SHARE:
                    synonym = _synonym(rng, lex, index, a[j % len_a])
                    if synonym is not None:
                        b[j] = synonym
        pairs.append((f"{id_prefix}{k:06d}", a, b, label))
    return pairs


def write_pairs(pairs, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        for pair_id, a, b, label in pairs:
            stream.write(f"{pair_id}\t{' '.join(a)}\t{' '.join(b)}\t{label}\n")


def write_embeddings(lex: Lexicon, path: Path) -> None:
    """word2vec text format with a ``count dim`` header, 6 decimals per value."""
    dim = lex.vectors.shape[1]
    row_format = "%s" + " %.6f" * dim + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write(f"{len(lex.words)} {dim}\n")
        for word, row in zip(lex.words, lex.vectors.tolist()):
            stream.write(row_format % (word, *row))


@dataclass(frozen=True)
class GeneratedFiles:
    embeddings: Path
    train: Path
    test: Path
    train_pairs: list
    test_pairs: list


def generate(seed: int, vocab: int, dim: int, split: SplitSpec, n_train: int,
             n_test: int, directory: Path) -> GeneratedFiles:
    """Write ``embeddings.txt``, ``train.tsv`` and ``test.tsv`` under
    ``directory``; every byte depends only on the arguments."""
    rng = np.random.default_rng(seed)
    lex = make_lexicon(rng, vocab, dim)
    train_pairs = make_pairs(rng, lex, split, n_train, "t")
    test_pairs = make_pairs(rng, lex, split, n_test, "p")
    directory.mkdir(parents=True, exist_ok=True)
    files = GeneratedFiles(embeddings=directory / "embeddings.txt",
                           train=directory / "train.tsv", test=directory / "test.tsv",
                           train_pairs=train_pairs, test_pairs=test_pairs)
    write_embeddings(lex, files.embeddings)
    write_pairs(train_pairs, files.train)
    write_pairs(test_pairs, files.test)
    return files


def main(argv=None) -> None:
    """``python3 generate.py WORKLOAD SEED DIRECTORY``: write a workload's
    inputs.  The benchmark runs this in a child process, so that the
    generator's data never counts towards the measured process's memory."""
    import argparse

    from workloads import DIM, WORKLOADS

    parser = argparse.ArgumentParser(description="Write a workload's inputs.")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("directory", type=Path)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    generate(args.seed, wl.vocab, DIM, wl.split, wl.train_pairs, wl.test_pairs,
             args.directory)


if __name__ == "__main__":
    main()
