"""Word-vector tables in the word2vec text format, and the (L, dim) matrix
of a sentence's token vectors.

The ``.17g`` row codec here (``format_row``/``parse_row``) is shared by the
embedding, CNN and fusion files.  Rows are written with one ``%`` operation
each; embeddings files are read in blocks of ``BLOCK_ROWS`` lines parsed by
``np.loadtxt``, and a block it does not accept is parsed again line by
line with ``parse_row``, which alone decides what is valid and how an
error reads.

Out-of-vocabulary words map to deterministic pseudo-random unit vectors
derived from a stable hash of the surface, so lookups are reproducible
across processes and runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Sentence
from .errors import FormatError

# Lines per np.loadtxt call when reading an embeddings file: larger blocks
# parse no faster and raise peak memory.
BLOCK_ROWS = 256


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vectors: Mapping[str, np.ndarray]

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


def format_row(name: str | None, values: np.ndarray | Sequence[float]) -> str:
    """One ``name v1 ... vn`` line (no name when None); ``.17g`` values
    round-trip float64 bitwise.  The values are formatted as Python floats
    by one ``%`` operation, with the same text as ``format(x, ".17g")``
    per value."""
    flat = tuple(np.ravel(values).tolist())
    text = " ".join(["%.17g"] * len(flat)) % flat
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


def parse_rows(rows: Sequence[tuple[int, str]], expected_count: int) -> np.ndarray:
    """The ``(len(rows), expected_count)`` values of ``(lineno, text)`` rows
    whose names the caller has split off.

    One ``np.loadtxt`` call parses the block.  Its result is kept only if it
    has the expected shape and every value is finite; otherwise (including
    when loadtxt rejects the text) each row is parsed again with
    ``parse_row``, which raises its FormatError for the first bad row or
    returns the values parse_row accepts.
    """
    texts = [text for _, text in rows]
    block = None
    if any(text.strip() for text in texts):  # loadtxt warns when every row is blank
        try:
            block = np.loadtxt(texts, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
    if (block is not None and block.shape == (len(rows), expected_count)
            and np.isfinite(block).all()):
        return block
    return np.array([parse_row(text, lineno, expected_count) for lineno, text in rows])


def parse_int(text: str, lineno: int, what: str) -> int:
    """``text`` as an integer; FormatError naming ``lineno`` and ``what`` if not."""
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"line {lineno}: {what} must be an integer, got {text!r}") from None


def load_text_embeddings(stream: IO[str] | Iterable[str]) -> EmbeddingTable:
    """Load a word2vec-style text file: optional ``count dim`` header, then
    ``surface v1 ... vd`` lines.

    The header count is not enforced; duplicate surfaces keep the last
    vector.  The first vector line is parsed on its own and sets ``dim``
    when there is no header; the rest are parsed in blocks of BLOCK_ROWS
    lines by ``parse_rows``, and each stored vector is a row of its block.
    Raises FormatError on inconsistent dimensions, non-numeric or
    non-finite components, naming the line, and on a file with no vectors.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    lines = enumerate(stream, start=1)
    for lineno, line in lines:
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
        break
    names: list[str] = []
    rows: list[tuple[int, str]] = []
    for lineno, line in lines:
        parts = line.split(maxsplit=1)
        if not parts:
            continue
        names.append(parts[0])
        rows.append((lineno, parts[1] if len(parts) == 2 else ""))
        if len(rows) == BLOCK_ROWS:
            vectors.update(zip(names, parse_rows(rows, dim)))
            names, rows = [], []
    if rows:
        vectors.update(zip(names, parse_rows(rows, dim)))
    if not vectors:
        raise FormatError("embedding file contains no vectors")
    return EmbeddingTable(dim=dim, vectors=vectors)


def save_text_embeddings(table: EmbeddingTable, stream: IO[str]) -> None:
    """Write a table back out in the text format (sorted, with header)."""
    stream.write(f"{len(table.vectors)} {table.dim}\n")
    for surface in sorted(table.vectors):
        stream.write(format_row(surface, table.vectors[surface]))


def _oov_vector(surface: str, dim: int) -> np.ndarray:
    # changing the b"\x00" b"0" suffix would change every OOV vector, and so
    # the scores of every bundle already written
    digest = hashlib.blake2b(surface.encode("utf-8") + b"\x00" + b"0", digest_size=8).digest()
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
    return _oov_vector(surface, table.dim)


def embed_sentence(table: EmbeddingTable, s: Sentence, n_max: int) -> np.ndarray:
    """The (L, dim) matrix of the sentence's token vectors, L = min(len(s), n_max)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    length = min(len(s), n_max)
    rows = np.empty((length, table.dim), dtype=np.float64)
    for i in range(length):
        rows[i] = lookup(table, s.tokens[i].surface)
    return rows
