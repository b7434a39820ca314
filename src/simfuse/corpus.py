"""Labeled sentence-pair ingestion: tokenization, annotations, TSV parsing.

Tokens carry an optional part-of-speech tag and an optional grammatical
role (subject/predicate/object/attribute/adverbial/complement/none).  All
types here are immutable; every operation returns new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

from .errors import EmptySentence, FormatError

#: Grammatical roles recognised on tokens.
ROLES = frozenset({"SUBJ", "PRED", "OBJ", "ATTR", "ADV", "COMP", "NONE"})

BINARY = "binary"
GRADED = "graded"

#: Label conventions for binary pair files.  ONE_IS_SIMILAR reads a raw
#: label of 1 as "similar"; ZERO_IS_SIMILAR inverts that.
ONE_IS_SIMILAR = "one_is_similar"
ZERO_IS_SIMILAR = "zero_is_similar"

_PUNCT = set(".,!?;:'\"()")


@dataclass(frozen=True)
class Token:
    surface: str
    pos: str | None = None
    role: str | None = None

    def __post_init__(self):
        if not self.surface or any(c.isspace() for c in self.surface):
            raise ValueError(f"invalid token surface: {self.surface!r}")
        if self.role is not None and self.role not in ROLES:
            raise ValueError(f"unknown grammatical role: {self.role!r}")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def truncated(self, n: int) -> "Sentence":
        """First ``n`` tokens as a new sentence (no-op if already shorter)."""
        if len(self.tokens) <= n:
            return self
        return Sentence(self.tokens[:n])

    @classmethod
    def from_surfaces(cls, surfaces: Iterable[str], roles: Iterable[str | None] | None = None) -> "Sentence":
        surfaces = list(surfaces)
        roles = list(roles) if roles is not None else [None] * len(surfaces)
        return cls(tuple(Token(s, role=r) for s, r in zip(surfaces, roles)))


@dataclass(frozen=True)
class LabeledPair:
    """One labeled sentence pair.

    For binary data the label is 1.0 ("similar") or 0.0 ("different"),
    already normalized by the chosen label convention.  For graded data it
    is the raw score in [0, 5].
    """

    id: str
    a: Sentence
    b: Sentence
    label: float


@dataclass(frozen=True)
class Dataset:
    pairs: tuple[LabeledPair, ...]
    label_kind: str  # BINARY or GRADED

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if self.label_kind not in (BINARY, GRADED):
            raise ValueError(f"unknown label kind: {self.label_kind!r}")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def tokenize(raw: str) -> Sentence:
    """Whitespace tokenization with punctuation splitting and lowercasing.

    A maximal run of leading or trailing punctuation on a chunk becomes its
    own token; punctuation inside a chunk (e.g. "can't") is left alone.

    Raises EmptySentence on empty or whitespace-only input.
    """
    if not raw or raw.isspace():
        raise EmptySentence("cannot tokenize empty input")
    tokens: list[Token] = []
    for chunk in raw.lower().split():
        i, j = 0, len(chunk)
        while i < j and chunk[i] in _PUNCT:
            i += 1
        while j > i and chunk[j - 1] in _PUNCT:
            j -= 1
        if i > 0:
            tokens.append(Token(chunk[:i]))
        if i < j:
            tokens.append(Token(chunk[i:j]))
        if j < len(chunk):
            tokens.append(Token(chunk[j:]))
    return Sentence(tuple(tokens))


def parse_annotated(raw: str) -> Sentence:
    """Parse the inline ``surface|POS|ROLE`` token format.

    POS and ROLE may be ``_`` meaning absent.  Raises FormatError on a
    wrong field count or an unrecognised role.
    """
    if not raw or raw.isspace():
        raise EmptySentence("cannot parse empty annotated input")
    tokens = []
    for part in raw.split():
        fields = part.split("|")
        if len(fields) != 3:
            raise FormatError(f"expected surface|POS|ROLE, got {part!r}")
        surface, pos, role = fields
        pos = None if pos == "_" else pos
        if role == "_":
            role = None
        elif role not in ROLES:
            raise FormatError(f"unknown role {role!r} in {part!r}")
        if not surface:
            raise FormatError(f"empty surface in {part!r}")
        tokens.append(Token(surface, pos=pos, role=role))
    return Sentence(tuple(tokens))


def _parse_label(text: str, label_kind: str, convention: str, lineno: int) -> float:
    if label_kind == BINARY:
        if text not in ("0", "1"):
            raise FormatError(f"line {lineno}: binary label must be 0 or 1, got {text!r}")
        raw = float(text)
        if convention == ZERO_IS_SIMILAR:
            return 1.0 - raw
        return raw
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"line {lineno}: unparseable graded label {text!r}") from None
    if not 0.0 <= value <= 5.0:
        raise FormatError(f"line {lineno}: graded label {value} outside [0, 5]")
    return value


def _parse_sentence(text: str) -> Sentence:
    # Annotated format is auto-detected by the presence of '|'.
    if "|" in text:
        return parse_annotated(text)
    return tokenize(text)


def parse_pair_file(stream: IO[str] | Iterable[str], label_kind: str,
                    convention: str = ONE_IS_SIMILAR) -> Dataset:
    """Parse a UTF-8 TSV pair file: ``id<TAB>sentence1<TAB>sentence2<TAB>label``.

    Lines starting with ``#`` and empty lines are ignored.  Sentences
    containing ``|`` are parsed as annotated, others are tokenized raw.
    Raises FormatError (with the offending line number) on malformed rows.
    """
    pairs = []
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 4:
            raise FormatError(f"line {lineno}: expected 4 tab-separated columns, got {len(columns)}")
        pair_id, text_a, text_b, label_text = columns
        try:
            a = _parse_sentence(text_a)
            b = _parse_sentence(text_b)
        except (FormatError, EmptySentence) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        label = _parse_label(label_text.strip(), label_kind, convention, lineno)
        pairs.append(LabeledPair(id=pair_id, a=a, b=b, label=label))
    return Dataset(pairs=tuple(pairs), label_kind=label_kind)


def _format_label(pair: LabeledPair, label_kind: str, convention: str) -> str:
    if label_kind == BINARY:
        raw = pair.label if convention == ONE_IS_SIMILAR else 1.0 - pair.label
        return str(int(raw))
    return repr(pair.label)


def _serialize_sentence(s: Sentence) -> str:
    plain = " ".join(s.surfaces())
    annotated = any(t.pos is not None or t.role is not None for t in s.tokens)
    # The plain form only survives a round trip if re-tokenizing it gives
    # back the same surfaces (no case folding or punctuation splitting).
    if not annotated and tokenize(plain).surfaces() == s.surfaces():
        return plain
    return " ".join(f"{t.surface}|{t.pos or '_'}|{t.role or '_'}" for t in s.tokens)


def serialize_pairs(dataset: Dataset, convention: str = ONE_IS_SIMILAR) -> str:
    """Inverse of parse_pair_file; round-trips datasets through the TSV format."""
    lines = []
    for pair in dataset.pairs:
        lines.append("\t".join([
            pair.id,
            _serialize_sentence(pair.a),
            _serialize_sentence(pair.b),
            _format_label(pair, dataset.label_kind, convention),
        ]))
    return "\n".join(lines) + ("\n" if lines else "")
