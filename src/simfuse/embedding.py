"""Word-vector tables in the word2vec text format, plus sentence matrices.

Out-of-vocabulary words map to deterministic pseudo-random unit vectors
derived from a stable hash of (surface, seed), so lookups are reproducible
across processes and runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

from .corpus import Sentence
from .errors import FormatError

DEFAULT_OOV_SEED = 0


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vectors: Mapping[str, np.ndarray]
    oov_seed: int = DEFAULT_OOV_SEED

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        for surface, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise ValueError(f"vector for {surface!r} has shape {vec.shape}, expected ({self.dim},)")

    def __contains__(self, surface: str) -> bool:
        return surface in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class SentenceMatrix:
    """Fixed-height token-embedding matrix with a validity mask.

    The first ``true_length`` rows hold token vectors in order; remaining
    rows are zero padding.
    """

    rows: np.ndarray  # (n_max, dim)
    mask: np.ndarray  # (n_max,) bool, True for real tokens
    true_length: int

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def n_max(self) -> int:
        return self.rows.shape[0]

    def true_rows(self) -> np.ndarray:
        return self.rows[: self.true_length]


def format_row(name: str | None, values: Iterable[float]) -> str:
    """One ``name v1 ... vn`` line (no name when None); ``.17g`` values
    round-trip float64 bitwise."""
    text = " ".join(format(x, ".17g") for x in values)
    return f"{text}\n" if name is None else f"{name} {text}\n"


def parse_row(line: str, lineno: int, expected_count: int | None) -> np.ndarray:
    """The values of a row whose name the caller has split off; FormatError
    naming ``lineno`` on a wrong count (None: any) or a non-numeric or
    non-finite value."""
    fields = line.split()
    if expected_count is not None and len(fields) != expected_count:
        raise FormatError(f"line {lineno}: expected {expected_count} values, got {len(fields)}")
    try:
        values = np.array(fields, dtype=np.float64)
    except ValueError:
        raise FormatError(f"line {lineno}: non-numeric value") from None
    if not np.isfinite(values).all():
        raise FormatError(f"line {lineno}: non-finite value")
    return values


def parse_int(text: str, lineno: int, what: str) -> int:
    """``text`` as an integer; FormatError naming ``lineno`` and ``what`` if not."""
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"line {lineno}: {what} must be an integer, got {text!r}") from None


def load_text_embeddings(stream: IO[str] | Iterable[str],
                         oov_seed: int = DEFAULT_OOV_SEED) -> EmbeddingTable:
    """Load a word2vec-style text file: optional ``count dim`` header, then
    ``surface v1 ... vd`` lines.

    The header count is not enforced; duplicate surfaces keep the last
    vector.  Raises FormatError on inconsistent dimensions, non-numeric or
    non-finite components, naming the line.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, line in enumerate(stream, start=1):
        parts = line.split(maxsplit=1)
        if not parts:
            continue
        if lineno == 1 and len(line.split()) == 2:
            try:
                _count, dim = int(parts[0]), int(parts[1])
                if dim < 1:
                    raise FormatError(f"line {lineno}: header dimension must be >= 1")
                continue
            except ValueError:
                pass  # not a header; fall through as a d=1 vector line
        vec = parse_row(parts[1] if len(parts) == 2 else "", lineno, dim)
        if dim is None:
            dim = vec.size
            if dim == 0:
                raise FormatError(f"line {lineno}: no vector components")
        vectors[parts[0]] = vec
    if dim is None:
        raise FormatError("embedding file contains no vectors")
    return EmbeddingTable(dim=dim, vectors=vectors, oov_seed=oov_seed)


def save_text_embeddings(table: EmbeddingTable, stream: IO[str]) -> None:
    """Write a table back out in the text format (sorted, with header)."""
    stream.write(f"{len(table.vectors)} {table.dim}\n")
    for surface in sorted(table.vectors):
        stream.write(format_row(surface, table.vectors[surface]))


def _oov_vector(surface: str, dim: int, seed: int) -> np.ndarray:
    digest = hashlib.blake2b(
        surface.encode("utf-8") + b"\x00" + str(seed).encode("ascii"),
        digest_size=8,
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    vec = rng.standard_normal(dim)
    norm = np.linalg.norm(vec)
    while norm < 1e-12:  # vanishing draws are effectively impossible, but stay total
        vec = rng.standard_normal(dim)
        norm = np.linalg.norm(vec)
    return vec / norm


def lookup(table: EmbeddingTable, surface: str) -> np.ndarray:
    """Stored vector, or a deterministic unit-norm OOV vector."""
    vec = table.vectors.get(surface)
    if vec is not None:
        return vec
    return _oov_vector(surface, table.dim, table.oov_seed)


def embed_sentence(table: EmbeddingTable, s: Sentence, n_max: int) -> SentenceMatrix:
    """Map a sentence to an (n_max, dim) matrix, truncating past n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    true_length = min(len(s), n_max)
    rows = np.zeros((n_max, table.dim), dtype=np.float64)
    for i in range(true_length):
        rows[i] = lookup(table, s.tokens[i].surface)
    mask = np.zeros(n_max, dtype=bool)
    mask[:true_length] = True
    return SentenceMatrix(rows=rows, mask=mask, true_length=true_length)
