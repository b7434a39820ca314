"""Labeled sentence-pair ingestion: tokenization, annotations, TSV parsing.

A sentence is three equal-length tuples: its words and, per word, an
optional grammatical role (subject/predicate/object/attribute/adverbial/
complement/none) and an optional part-of-speech tag.  All types here are
immutable; every operation returns new objects.

``parse_pair_file`` keeps one copy of each equal surface, POS tag and role
it parses, so a word repeated across a file is one object; ``Sentence`` and
``LabeledPair`` are slotted (no ``__dict__``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

from .errors import EmptySentence, FormatError, check_choice

#: Grammatical roles recognised on words.
ROLES = frozenset({"SUBJ", "PRED", "OBJ", "ATTR", "ADV", "COMP", "NONE"})
_ROLES_OR_NONE = ROLES | {None}

BINARY = "binary"
GRADED = "graded"
LABEL_KINDS = (BINARY, GRADED)

#: Label conventions for binary pair files.  ONE_IS_SIMILAR reads a raw
#: label of 1 as "similar"; ZERO_IS_SIMILAR inverts that.
ONE_IS_SIMILAR = "one_is_similar"
ZERO_IS_SIMILAR = "zero_is_similar"
LABEL_CONVENTIONS = (ONE_IS_SIMILAR, ZERO_IS_SIMILAR)

_PUNCT = ".,!?;:'\"()"
# the default roles and pos of every sentence of one length up to 64
_NONES = {n: (None,) * n for n in range(1, 65)}


@dataclass(frozen=True, slots=True)
class Sentence:
    """A tokenized sentence: its words and, word by word, a grammatical role
    and a part-of-speech tag, ``None`` where absent.

    ``roles`` and ``pos`` default to all ``None``.  A sentence is checked
    once, as it is built: it has at least one word (EmptySentence
    otherwise), every word is non-empty and free of whitespace, every role
    is in ROLES or ``None``, and the three tuples have equal lengths
    (ValueError otherwise).
    """

    words: tuple[str, ...]
    roles: tuple[str | None, ...] | None = None
    pos: tuple[str | None, ...] | None = None

    def __post_init__(self):
        words = tuple(self.words)
        if not words:
            raise EmptySentence("sentence has no words")
        # str.split breaks at exactly the characters str.isspace accepts and
        # drops empty strings, so this fails for an empty or spaced word
        if " ".join(words).split() != list(words):
            raise ValueError(f"empty word or word with whitespace in {words!r}")
        none = _NONES.get(len(words)) or (None,) * len(words)
        roles = none if self.roles is None else tuple(self.roles)
        pos = none if self.pos is None else tuple(self.pos)
        if len(roles) != len(words) or len(pos) != len(words):
            raise ValueError(f"{len(words)} words, {len(roles)} roles and {len(pos)} tags")
        if not _ROLES_OR_NONE.issuperset(roles):
            raise ValueError(f"unknown grammatical role in {roles!r}")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "pos", pos)

    def __len__(self) -> int:
        return len(self.words)

    # a new list on each call: perfbench's tests compare it with lists
    def surfaces(self) -> list[str]:
        return list(self.words)

    def truncated(self, n: int) -> "Sentence":
        """First ``n`` words as a new sentence (no-op if already shorter);
        default roles and tags stay the shared defaults of its length."""
        if len(self.words) <= n:
            return self
        none = _NONES.get(len(self.words))
        return Sentence(self.words[:n], None if self.roles is none else self.roles[:n],
                        None if self.pos is none else self.pos[:n])


@dataclass(frozen=True, slots=True)
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
    label_kind: str  # one of LABEL_KINDS

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        check_choice("label_kind", self.label_kind, LABEL_KINDS)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def tokenize(raw: str, strings: dict[str, str] | None = None) -> Sentence:
    """Whitespace tokenization with punctuation splitting and lowercasing.

    A maximal run of leading or trailing punctuation on a chunk becomes its
    own word; punctuation inside a chunk (e.g. "can't") is left alone.
    ``strings`` maps each string to the one copy of it to keep: a word equal
    to one seen before through the same dict is that object.

    Raises EmptySentence on empty or whitespace-only input.
    """
    words: list[str] = []
    for chunk in raw.lower().split():
        core = chunk.lstrip(_PUNCT)
        word = core.rstrip(_PUNCT)
        if len(core) < len(chunk):
            words.append(chunk[: len(chunk) - len(core)])
        if word:
            words.append(word)
        if len(word) < len(core):
            words.append(core[len(word) :])
    share = {}.setdefault if strings is None else strings.setdefault
    return Sentence(tuple(map(share, words, words)))


def parse_annotated(raw: str, strings: dict[str, str] | None = None) -> Sentence:
    """Parse the inline ``surface|POS|ROLE`` word format.

    POS and ROLE may be ``_`` meaning absent; ``strings`` is as for
    ``tokenize``, for surfaces, tags and roles.  Raises FormatError on a
    wrong field count, an empty surface or an unrecognised role, and
    EmptySentence on empty or whitespace-only input.
    """
    share = {}.setdefault if strings is None else strings.setdefault
    words, pos, roles = [], [], []
    for part in raw.split():
        fields = part.split("|")
        if len(fields) != 3:
            raise FormatError(f"expected surface|POS|ROLE, got {part!r}")
        surface, tag, role = fields
        if role == "_":
            role = None
        elif role not in ROLES:
            raise FormatError(f"unknown role {role!r} in {part!r}")
        if not surface:
            raise FormatError(f"empty surface in {part!r}")
        words.append(share(surface, surface))
        pos.append(None if tag == "_" else share(tag, tag))
        roles.append(role and share(role, role))
    return Sentence(tuple(words), tuple(roles), tuple(pos))


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


def _parse_sentence(text: str, strings: dict[str, str]) -> Sentence:
    # Annotated format is auto-detected by the presence of '|'.
    if "|" in text:
        return parse_annotated(text, strings)
    return tokenize(text, strings)


def parse_pair_file(stream: IO[str] | Iterable[str], label_kind: str,
                    convention: str = ONE_IS_SIMILAR) -> Dataset:
    """Parse a UTF-8 TSV pair file: ``id<TAB>sentence1<TAB>sentence2<TAB>label``.

    Lines starting with ``#`` and empty lines are ignored.  Sentences
    containing ``|`` are parsed as annotated, others are tokenized raw.
    Equal surfaces, POS tags and roles of the file are one string object.
    Raises ConfigError on an unknown ``label_kind`` or ``convention`` before
    any line is read, and FormatError naming the line of a malformed row.
    """
    check_choice("label_kind", label_kind, LABEL_KINDS)
    check_choice("label_convention", convention, LABEL_CONVENTIONS)
    pairs = []
    strings: dict[str, str] = {}  # freed with the call, unlike sys.intern's table
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        columns = line.split("\t")
        if len(columns) != 4:
            raise FormatError(f"line {lineno}: expected 4 tab-separated columns, got {len(columns)}")
        pair_id, text_a, text_b, label_text = columns
        try:
            a = _parse_sentence(text_a, strings)
            b = _parse_sentence(text_b, strings)
        except (FormatError, EmptySentence) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        label = _parse_label(label_text.strip(), label_kind, convention, lineno)
        pairs.append(LabeledPair(id=pair_id, a=a, b=b, label=label))
    return Dataset(pairs=tuple(pairs), label_kind=label_kind)
