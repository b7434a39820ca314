"""Word-vector tables in the word2vec text format and as raw float64 rows
(an npy 1.0 matrix plus a vocab list, the form a model bundle stores), and
the (L, dim) matrix of a sentence's token vectors.

The ``.17g`` row codec here (``format_row``/``parse_row``) is shared by the
embedding, CNN and fusion files; ``read_sections`` splits the named rows of
the last two.  Rows are written with one ``%`` operation each; embeddings
files are read in blocks of ``BLOCK_ROWS`` lines parsed by ``np.loadtxt``,
and a block it does not accept is parsed again line by line with
``parse_row``, which alone decides what is valid and how an error reads.

Out-of-vocabulary words map to deterministic pseudo-random unit vectors
derived from a stable hash of the surface, so lookups are reproducible
across processes and runs.  Each table caches the read-only OOV vectors it
has drawn, up to ``OOV_CACHE_ROWS`` of them, and empties the cache when it
is full; the cache goes with its table.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import IO, BinaryIO, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Sentence
from .errors import FormatError, check_int

# Lines per np.loadtxt call when reading an embeddings file, and rows per
# read or write of an npy matrix: larger blocks parse no faster and raise
# peak memory.
BLOCK_ROWS = 256

# OOV vectors a table caches before it empties its cache: about 3 MiB at
# dim 100.
OOV_CACHE_ROWS = 4096

# The one dtype of an npy matrix of rows: little-endian float64.
ROW_DTYPE = np.dtype("<f8")


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vectors: Mapping[str, np.ndarray]
    # surface -> read-only OOV vector, filled by lookup()
    _oov_cache: dict[str, np.ndarray] = field(default_factory=dict, init=False,
                                              compare=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        shape = (self.dim,)
        for surface, vec in self.vectors.items():
            if vec.shape != shape:
                raise ValueError(f"vector for {surface!r} has shape {vec.shape}, expected {shape}")

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


def read_sections(lines: Sequence[tuple[int, str]], names: Sequence[str],
                  what: str) -> dict[str, tuple[int, str]]:
    """``{name: (lineno, text)}`` of ``(lineno, "name text")`` lines, in line order;
    FormatError, worded with ``what``, on a name not in ``names``, repeated or missing."""
    sections: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        name, _, text = line.partition(" ")
        if name not in names:
            raise FormatError(f"line {lineno}: unknown {what} section {name!r}")
        if name in sections:
            raise FormatError(f"line {lineno}: repeated {what} section {name!r}")
        sections[name] = (lineno, text)
    missing = set(names) - set(sections)
    if missing:
        raise FormatError(f"missing {what} sections: {sorted(missing)}")
    return sections


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
    vector.  ``dim`` comes from the header, else from the number of values
    on the first vector line.  Every vector line, the first included, is
    parsed in blocks of BLOCK_ROWS lines by ``parse_rows``, and each stored
    vector is a row of its block.  Raises FormatError on inconsistent
    dimensions, non-numeric or non-finite components, naming the line, and
    on a file with no vectors.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    names: list[str] = []
    rows: list[tuple[int, str]] = []
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
        rest = parts[1] if len(parts) == 2 else ""
        if dim is None:
            dim = len(rest.split())
            if dim == 0:
                raise FormatError(f"line {lineno}: no vector components")
        names.append(parts[0])
        rows.append((lineno, rest))
        if len(rows) == BLOCK_ROWS:
            vectors.update(zip(names, parse_rows(rows, dim)))
            names, rows = [], []
    if rows:
        vectors.update(zip(names, parse_rows(rows, dim)))
    if not vectors:
        raise FormatError("embedding file contains no vectors")
    return EmbeddingTable(dim=dim, vectors=vectors)


def _check_finite_rows(names: Sequence[str], block: np.ndarray) -> None:
    """FormatError naming the first of ``names`` whose row of ``block`` holds
    a non-finite value."""
    if not np.isfinite(block).all():
        finite = np.isfinite(block).all(axis=1)
        raise FormatError(f"non-finite value in the row of {names[int(np.argmin(finite))]!r}")


def save_text_embeddings(table: EmbeddingTable, stream: IO[str]) -> None:
    """Write a table back out in the text format (sorted, with header).  A
    surface that is empty or holds whitespace, or a vector with a non-finite
    value, which load_text_embeddings would not read back, is a FormatError
    before any line is written."""
    surfaces = sorted(table.vectors)
    bad = next((surface for surface in surfaces if surface.split() != [surface]), None)
    if bad is not None:
        raise FormatError(f"surface {bad!r} is empty or holds whitespace")
    for start in range(0, len(surfaces), BLOCK_ROWS):
        names = surfaces[start:start + BLOCK_ROWS]
        _check_finite_rows(names, np.array([table.vectors[surface] for surface in names]))
    stream.write(f"{len(surfaces)} {table.dim}\n")
    for surface in surfaces:
        stream.write(format_row(surface, table.vectors[surface]))


def load_vocab(stream: IO[str]) -> list[str]:
    """The surfaces of a vocab file, in order; FormatError naming the line
    of a surface that repeats."""
    surfaces = stream.read().splitlines()
    if len(set(surfaces)) < len(surfaces):  # walk the lines only to name the first repeat
        seen: set[str] = set()
        for lineno, surface in enumerate(surfaces, start=1):
            if surface in seen:
                raise FormatError(f"line {lineno}: repeated surface {surface!r}")
            seen.add(surface)
    return surfaces


def save_npy_table(table: EmbeddingTable, surfaces: Sequence[str], stream: BinaryIO) -> None:
    """The vectors of ``surfaces``, in that order, as one npy 1.0 array: a
    ``<f8``, C-order ``(len(surfaces), dim)`` header, then the rows, written
    BLOCK_ROWS at a time so that the whole matrix is never built.  A block
    holding a non-finite value, which load_npy_table would refuse, is a
    FormatError naming its surface before the block is written."""
    np.lib.format.write_array_header_1_0(
        stream, {"descr": ROW_DTYPE.str, "fortran_order": False,
                 "shape": (len(surfaces), table.dim)})
    for start in range(0, len(surfaces), BLOCK_ROWS):
        names = surfaces[start:start + BLOCK_ROWS]
        block = np.asarray([table.vectors[surface] for surface in names], dtype=ROW_DTYPE)
        _check_finite_rows(names, block)
        stream.write(block.tobytes())


def load_npy_table(stream: BinaryIO, surfaces: Sequence[str]) -> EmbeddingTable:
    """The table whose vector for ``surfaces[i]`` is row ``i`` of an npy 1.0
    file as save_npy_table writes it.

    Every byte is taken from ``stream`` by its ``read`` and ``readinto``
    methods, in file order and once, so a stream that hashes what it hands
    out has hashed the whole file when a table is returned.  The header is
    checked before any data is read, so neither an object dtype (which would
    need unpickling) nor a shape larger than the file gets that far.  The
    rows are read BLOCK_ROWS at a time, each by one ``readinto`` into its
    block's array, and each vector is a row of its block, as
    load_text_embeddings stores them.  One ``(V, d)`` array instead added a
    table's size to the peak memory of a process that loads tables
    repeatedly: freeing so large a block raises the allocator's mmap
    threshold, so the smaller blocks of later tables stay resident on the
    heap beside the next large one.  Raises
    FormatError on another npy version, a dtype other than ``<f8``, Fortran
    order, a shape that is not 2-D or not ``len(surfaces)`` long, a data
    size that does not match the shape, and a non-finite value.
    """
    version = np.lib.format.read_magic(stream)
    if version != (1, 0):
        raise FormatError(f"npy version {version[0]}.{version[1]}, expected 1.0")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
    if dtype != ROW_DTYPE or fortran_order:
        raise FormatError(f"expected C-order float64 ({ROW_DTYPE.str}) values, got "
                          f"{'Fortran-order ' if fortran_order else ''}{dtype.str}")
    if len(shape) != 2:
        raise FormatError(f"expected a 2-D array, got shape {shape}")
    n_rows, dim = shape
    if n_rows != len(surfaces):
        raise FormatError(f"{n_rows} rows for {len(surfaces)} surfaces")
    if os.fstat(stream.fileno()).st_size - stream.tell() != n_rows * dim * ROW_DTYPE.itemsize:
        raise FormatError(f"data size does not match the shape {shape}")
    vectors: dict[str, np.ndarray] = {}
    for start in range(0, n_rows, BLOCK_ROWS):
        names = surfaces[start:start + BLOCK_ROWS]
        block = np.empty((len(names), dim), dtype=ROW_DTYPE)
        if stream.readinto(block) != block.nbytes:  # the file shrank after the size check
            raise FormatError(f"data size does not match the shape {shape}")
        _check_finite_rows(names, block)
        vectors.update(zip(names, block))
    return EmbeddingTable(dim=dim, vectors=vectors)


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
    """Stored vector, or a deterministic unit-norm OOV vector.

    An OOV vector is drawn once per table and surface and then returned from
    the table's cache, read-only; a cache that holds OOV_CACHE_ROWS vectors
    is emptied before the next one is added.
    """
    vec = table.vectors.get(surface)
    if vec is not None:
        return vec
    cache = table._oov_cache
    vec = cache.get(surface)
    if vec is None:
        if len(cache) >= OOV_CACHE_ROWS:
            cache.clear()
        vec = cache[surface] = _oov_vector(surface, table.dim)
        vec.flags.writeable = False
    return vec


def check_n_max(n_max: int) -> None:
    """ConfigError unless ``n_max``, the words embedded per sentence, is an int >= 1."""
    check_int("n_max", n_max, 1)


def embed_sentence(table: EmbeddingTable, s: Sentence, n_max: int) -> np.ndarray:
    """The (L, dim) matrix of the sentence's token vectors, L = min(len(s), n_max)."""
    check_n_max(n_max)
    return np.array([lookup(table, word) for word in s.words[:n_max]], dtype=np.float64)
