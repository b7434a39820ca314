"""Reference scores and the output check behind ``failed`` and ``correct``.

``ReferenceScorer`` is a frozen, self-contained copy of the per-pair
scoring arithmetic of simfuse 0.1.0 (``pipeline.score_pair``: Jaccard,
attention + CNN, pair-scoped TF-IDF, fusion), written against plain
token lists and arrays.  It performs the same floating-point operations
in the same order, so at that version it agrees with the library bit
for bit.  It reads the generated embedding file and the training pairs
itself; only the trained parameters come from the library.  Roles are
not modelled: the benchmark's pair files carry plain text, whose tokens
have no role, so the role weight of the Jaccard score is always 1.

Because the benchmark picks its inputs from a seed given at run time,
the reference is computed for every run rather than stored per seed.
The benchmark computes it in a child process (``main``), so that the
reference's own copy of the embedding table does not count towards the
measured process's memory.
"""

from __future__ import annotations

import hashlib
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: A pair fails when any of its four scores differs from the reference by
#: more than this.  Bitwise equality is counted separately.
TOLERANCE = 1e-9
SIMILAR = "similar"
DIFFERENT = "different"


@dataclass(frozen=True)
class RefScores:
    jaccard: float
    w2vcnn: float
    tfidf: float
    fused: float
    predicted: str

    def values(self) -> tuple[float, float, float, float]:
        return (self.jaccard, self.w2vcnn, self.tfidf, self.fused)


def read_embeddings(path) -> tuple[int, dict[str, np.ndarray]]:
    """The generated word2vec text file (always written with a header)."""
    vectors: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as stream:
        dim = int(stream.readline().split()[1])
        for line in stream:
            parts = line.split()
            vectors[parts[0]] = np.array([float(c) for c in parts[1:]], dtype=np.float64)
    return dim, vectors


def read_pairs(path) -> list[tuple[str, list[str], list[str], int]]:
    """A generated pair file as (id, tokens A, tokens B, label)."""
    with open(path, encoding="utf-8") as stream:
        return [(pid, a.split(), b.split(), int(label))
                for pid, a, b, label in (line.rstrip("\n").split("\t") for line in stream)]


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _edit_distance(u: str, v: str) -> int:
    if u == v:
        return 0
    if not u or not v:
        return len(u) or len(v)
    previous = list(range(len(v) + 1))
    for i, cu in enumerate(u, start=1):
        current = [i]
        for j, cv in enumerate(v, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (cu != cv)))
        previous = current
    return previous[-1]


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / e.sum()


class ReferenceScorer:
    """Scores one tokenised pair the way simfuse 0.1.0 does.

    ``cnn`` and ``fusion_net`` are the trained tensors (``fusion_net`` is
    None for weighted-sum fusion); ``weights`` is (alpha, beta, gamma).
    """

    def __init__(self, dim: int, vectors: dict[str, np.ndarray],
                 train_pairs, cnn: dict, weights: tuple[float, float, float],
                 fusion_net: dict | None, n_max: int = 32, oov_seed: int = 0):
        self.dim, self.vectors, self.n_max, self.oov_seed = dim, vectors, n_max, oov_seed
        self.total_pairs = len(train_pairs)
        self.doc_freq = Counter(t for _, a, b, _ in train_pairs for t in set(a) | set(b))
        self.cnn = cnn
        self.weights = np.array(weights)
        self.fusion_net = fusion_net

    # -- embedding and attention -------------------------------------------
    def _vector(self, surface: str) -> np.ndarray:
        vec = self.vectors.get(surface)
        if vec is not None:
            return vec
        digest = hashlib.blake2b(surface.encode("utf-8") + b"\x00"
                                 + str(self.oov_seed).encode("ascii"), digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        vec = rng.standard_normal(self.dim)
        norm = np.linalg.norm(vec)
        while norm < 1e-12:
            vec = rng.standard_normal(self.dim)
            norm = np.linalg.norm(vec)
        return vec / norm

    def _embed(self, tokens: list[str]) -> np.ndarray:
        rows = np.zeros((self.n_max, self.dim), dtype=np.float64)
        for i, surface in enumerate(tokens):
            rows[i] = self._vector(surface)
        return rows

    def _weighted_rows(self, a: list[str], b: list[str]) -> tuple[np.ndarray, np.ndarray]:
        a, b = a[: self.n_max], b[: self.n_max]
        n, m = len(a), len(b)
        rows_a, rows_b = self._embed(a), self._embed(b)
        true_a, true_b = rows_a[:n], rows_b[:m]
        denom = np.outer(np.linalg.norm(true_a, axis=1), np.linalg.norm(true_b, axis=1))
        grid = true_a @ true_b.T
        with np.errstate(invalid="ignore", divide="ignore"):
            grid = np.where(denom > 0.0, grid / np.where(denom > 0.0, denom, 1.0), 0.0)
        pos_row, pos_col = np.zeros(n), np.zeros(m)
        scale = min(n, m)
        for word in set(a) & set(b):
            p = a.index(word)
            if p < m:
                pos_row[p] = 2.0 * _edit_distance(word, b[p]) / scale
            q = b.index(word)
            if q < n:
                pos_col[q] = 2.0 * _edit_distance(word, a[q]) / scale
        row_w = _softmax(np.asarray(grid.sum(axis=1), dtype=np.float64) + pos_row)
        col_w = _softmax(np.asarray(grid.sum(axis=0), dtype=np.float64) + pos_col)
        out_a, out_b = rows_a.copy(), rows_b.copy()
        out_a[:n] *= row_w[:, np.newaxis]
        out_b[:m] *= col_w[:, np.newaxis]
        return out_a[:n], out_b[:m]

    # -- CNN ----------------------------------------------------------------
    def _features(self, rows: np.ndarray) -> np.ndarray:
        filters = self.cnn["filters"]
        n_filters, k, dim = filters.shape
        length = rows.shape[0]
        if length < k:
            windows = np.zeros((k, dim))
            windows[:length] = rows
            windows = windows.reshape(1, k * dim)
        else:
            windows = np.empty((length - k + 1, k * dim))
            for i in range(length - k + 1):
                windows[i] = rows[i : i + k].ravel()
        act = np.maximum(windows @ filters.reshape(n_filters, -1).T + self.cnn["filter_bias"], 0.0)
        return act[act.argmax(axis=0), np.arange(n_filters)]

    def _cnn_score(self, a: list[str], b: list[str]) -> float:
        rows_a, rows_b = self._weighted_rows(a, b)
        fa, fb = self._features(rows_a), self._features(rows_b)
        z = np.concatenate([np.abs(fa - fb), fa * fb])
        hidden = np.maximum(self.cnn["dense_w"] @ z + self.cnn["dense_b"], 0.0)
        return _sigmoid(float(self.cnn["out_w"] @ hidden + self.cnn["out_b"]))

    # -- TF-IDF and Jaccard -------------------------------------------------
    def _tfidf(self, s: list[str], a: list[str], b: list[str]) -> dict[str, float]:
        union = len(set(a) | set(b))
        weights = {}
        for term in sorted(set(s)):
            tf = (a.count(term) + b.count(term)) / union
            w = tf * max(0.0, math.log(self.total_pairs / (1 + self.doc_freq.get(term, 0))))
            if w > 0.0:
                weights[term] = w
        return weights

    @staticmethod
    def _cosine(u: dict[str, float], v: dict[str, float]) -> float:
        nu = math.sqrt(sum(w * w for w in u.values()))
        nv = math.sqrt(sum(w * w for w in v.values()))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        dot = sum(u[t] * v[t] for t in sorted(u.keys() & v.keys()))
        return min(1.0, dot / (nu * nv))

    def score(self, a: list[str], b: list[str]) -> RefScores:
        set_a, set_b = set(a), set(b)
        j = min(1.0, 1.0 * len(set_a & set_b) / len(set_a | set_b))
        c = self._cnn_score(a, b)
        t = self._cosine(self._tfidf(a, a, b), self._tfidf(b, a, b))
        weighted = self.weights * np.asarray((j, c, t), dtype=np.float64)
        if self.fusion_net is None:
            fused = float(min(1.0, weighted.sum()))
        else:
            net = self.fusion_net
            hidden = np.maximum(net["hidden_w"] @ weighted + net["hidden_b"], 0.0)
            fused = _sigmoid(float(net["out_w"] @ hidden + net["out_b"]))
        return RefScores(j, c, t, fused, SIMILAR if fused >= 0.5 else DIFFERENT)


@dataclass
class CheckTally:
    """Running result of comparing scored pairs against the reference."""

    pairs: int = 0
    failed: int = 0
    bitwise_equal: int = 0
    max_abs_diff: float = 0.0

    def record(self, got, want: RefScores | None) -> bool:
        """Count one pair; ``got`` is a PairScores-like object or None when
        scoring raised.  Returns True when the pair passes."""
        self.pairs += 1
        ok = got is not None and want is not None
        if ok:
            values = (got.jaccard, got.w2vcnn, got.tfidf, got.fused)
            if all(math.isfinite(x) for x in values):
                diff = max(abs(x - y) for x, y in zip(values, want.values()))
                self.max_abs_diff = max(self.max_abs_diff, diff)
                if values == want.values():
                    self.bitwise_equal += 1
                ok = diff <= TOLERANCE and got.predicted == (
                    SIMILAR if got.fused >= 0.5 else DIFFERENT)
            else:
                ok = False
        if not ok:
            self.failed += 1
        return ok


#: Names of the trained tensors in the ``params.npz`` the benchmark writes.
CNN_TENSORS = ("filters", "filter_bias", "dense_w", "dense_b", "out_w", "out_b")
NET_TENSORS = ("hidden_w", "hidden_b", "out_w", "out_b")


def write_reference(scores: list[tuple[str, RefScores]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        for pair_id, s in scores:
            stream.write("\t".join([pair_id, *(x.hex() for x in s.values()), s.predicted]) + "\n")


def read_reference(path) -> list[tuple[str, RefScores]]:
    out = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            pair_id, *values, predicted = line.rstrip("\n").split("\t")
            out.append((pair_id, RefScores(*map(float.fromhex, values), predicted)))
    return out


def main(argv=None) -> None:
    """``python3 reference.py DIRECTORY``: score ``test.tsv`` with the
    tensors in ``params.npz`` and write ``reference.tsv``, all in DIRECTORY
    beside the generated ``embeddings.txt`` and ``train.tsv``."""
    directory = Path((sys.argv[1:] if argv is None else argv)[0])
    with np.load(directory / "params.npz") as saved:
        tensors = {name: saved[name] for name in saved.files}
    dim, vectors = read_embeddings(directory / "embeddings.txt")
    scorer = ReferenceScorer(
        dim, vectors, read_pairs(directory / "train.tsv"),
        cnn={name: tensors[name] for name in CNN_TENSORS},
        weights=tuple(tensors["weights"].tolist()),
        fusion_net={name: tensors["net_" + name] for name in NET_TENSORS}
        if "net_out_w" in tensors else None,
        n_max=int(tensors["n_max"]))
    write_reference([(pair_id, scorer.score(a, b))
                     for pair_id, a, b, _ in read_pairs(directory / "test.tsv")],
                    directory / "reference.tsv")


if __name__ == "__main__":
    main()
