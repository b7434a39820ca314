import dataclasses
import io
import sys
import tracemalloc

import numpy as np
import pytest

from simfuse import corpus
from simfuse.corpus import (BINARY, GRADED, ZERO_IS_SIMILAR, Dataset, LabeledPair, Sentence,
                            parse_annotated, parse_pair_file, tokenize)
from simfuse.errors import ConfigError, EmptySentence, FormatError
from simfuse.pipeline import PairScores


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("Can I use it").surfaces() == ["can", "i", "use", "it"]

    def test_trailing_punctuation_becomes_token(self):
        assert tokenize("locked.").surfaces() == ["locked", "."]

    def test_leading_and_trailing_runs(self):
        assert tokenize("(hello)...").surfaces() == ["(", "hello", ")..."]

    def test_internal_punctuation_kept(self):
        assert tokenize("can't i").surfaces() == ["can't", "i"]

    def test_pure_punctuation_chunk(self):
        assert tokenize("wait ...").surfaces() == ["wait", "..."]

    def test_empty_raises(self):
        with pytest.raises(EmptySentence):
            tokenize("")
        with pytest.raises(EmptySentence):
            tokenize("   \t ")

    def test_idempotent_through_rejoin(self):
        for raw in ["Hello, world!", "(a) b c's d...", "one two.three"]:
            once = tokenize(raw)
            again = tokenize(" ".join(once.surfaces()))
            assert again.surfaces() == once.surfaces()

    def test_no_pos_or_roles(self):
        s = tokenize("a b")
        assert (s.roles, s.pos) == ((None, None), (None, None))


def _loop_tokenize_words(raw):
    """The per-character punctuation loops ``tokenize`` used to run: the
    oracle for its ``lstrip``/``rstrip`` form."""
    punct = set(".,!?;:'\"()")
    words = []
    for chunk in raw.lower().split():
        i, j = 0, len(chunk)
        while i < j and chunk[i] in punct:
            i += 1
        while j > i and chunk[j - 1] in punct:
            j -= 1
        if i > 0:
            words.append(chunk[:i])
        if i < j:
            words.append(chunk[i:j])
        if j < len(chunk):
            words.append(chunk[j:])
    return words


class TestTokenizeOracle:
    FIXED = ["...", "wait ...", "can't", "Can't stop!", '"(x)."', "(x).", "'", "(", ")",
             "Ça va?", "(Straße).", "«Ελλάδα»!", "日本語。", "naïve... café,", "x'y'z",
             "Ça VA", "a\tb  c", "ΣΊΣΥΦΟΣ İstanbul", "\u00a0x\u2003Y\n"]
    ALPHABET = list("aZé日ß ') (.,!?;:\"\t") + ["can't", "Σ"]
    # no _PUNCT, so every chunk is one word: upper-case and non-ASCII
    # letters whose lower() differs, among them İ, which lowers to two
    PLAIN = list("aZéÉÇ日ßẞΣİ \t\u00a0-") + ["Can", "ΟΔΟΣ"]

    @staticmethod
    def _assert_same(raw):
        want = _loop_tokenize_words(raw)
        if not want:
            with pytest.raises(EmptySentence):
                tokenize(raw)
            return
        got = tokenize(raw)
        assert list(got.words) == want, raw
        assert got == Sentence(tuple(want)), raw

    @pytest.mark.parametrize("raw", FIXED)
    def test_fixed_cases(self, raw):
        self._assert_same(raw)

    def test_random_strings_seeded(self):
        rng = np.random.default_rng(12)
        for i in range(4000):
            alphabet = self.PLAIN if i % 2 else self.ALPHABET
            parts = rng.choice(alphabet, size=int(rng.integers(0, 14)))
            self._assert_same("".join(parts))


class TestParseAnnotated:
    def test_roles_attached(self):
        s = parse_annotated("cat|NOUN|SUBJ runs|VERB|PRED")
        assert s.words == ("cat", "runs")
        assert s.pos == ("NOUN", "VERB")
        assert s.roles == ("SUBJ", "PRED")

    def test_underscore_means_absent(self):
        s = parse_annotated("cat|NOUN|_")
        assert s.roles[0] is None
        assert s.pos[0] == "NOUN"
        assert parse_annotated("cat|_|SUBJ").pos[0] is None

    def test_wrong_field_count(self):
        with pytest.raises(FormatError):
            parse_annotated("cat|NOUN")
        with pytest.raises(FormatError):
            parse_annotated("cat|NOUN|SUBJ|extra")

    def test_unknown_role(self):
        with pytest.raises(FormatError):
            parse_annotated("cat|NOUN|BOSS")

    def test_empty_raises(self):
        with pytest.raises(EmptySentence):
            parse_annotated(" ")


class TestParsePairFile:
    def test_basic_binary(self):
        ds = parse_pair_file(io.StringIO("1\tcan i use it\tcan't i use it\t1\n"), BINARY)
        assert len(ds) == 1
        assert ds.pairs[0].label == 1.0
        assert ds.pairs[0].a.surfaces() == ["can", "i", "use", "it"]

    def test_empty_stream(self):
        ds = parse_pair_file(io.StringIO(""), BINARY)
        assert len(ds) == 0

    def test_graded_out_of_range(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_pair_file(io.StringIO("1\ta\tb\t7.0\n"), GRADED)

    def test_binary_label_must_be_zero_or_one(self):
        with pytest.raises(FormatError):
            parse_pair_file(io.StringIO("1\ta\tb\t0.5\n"), BINARY)

    def test_wrong_column_count_names_line(self):
        stream = io.StringIO("1\ta\tb\t1\n2\tonly three columns\t0\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_pair_file(stream, BINARY)

    def test_comments_and_blanks_ignored(self):
        stream = io.StringIO("# header comment\n\n1\ta\tb\t0\n")
        assert len(parse_pair_file(stream, BINARY)) == 1

    def test_annotated_autodetected(self):
        ds = parse_pair_file(io.StringIO("1\tcat|NOUN|SUBJ\tdog|NOUN|SUBJ\t1\n"), BINARY)
        assert ds.pairs[0].a.roles[0] == "SUBJ"

    def test_label_convention_inverts(self):
        ds = parse_pair_file(io.StringIO("1\ta\tb\t0\n"), BINARY,
                             convention=ZERO_IS_SIMILAR)
        assert ds.pairs[0].label == 1.0

    def test_plain_and_annotated_columns(self):
        text = "1\tcan i use it\tcan't i use it\t1\n2\tcat|NOUN|SUBJ\tdog|NOUN|_\t0\n"
        ds = parse_pair_file(io.StringIO(text), BINARY)
        assert ds.pairs[0].b == Sentence(("can't", "i", "use", "it"))
        assert ds.pairs[1].a == Sentence(("cat",), roles=("SUBJ",), pos=("NOUN",))
        assert ds.pairs[1].b == Sentence(("dog",), roles=(None,), pos=("NOUN",))
        assert [p.label for p in ds] == [1.0, 0.0]

    def test_graded_labels(self):
        text = "a\tx y\ty z\t3.25\nb\tp q\tq r\t0.0\n"
        ds = parse_pair_file(io.StringIO(text), GRADED)
        assert [p.label for p in ds] == [3.25, 0.0]

    def test_empty_column_names_its_line(self):
        with pytest.raises(FormatError, match="^line 2: sentence has no words$"):
            parse_pair_file(io.StringIO("1\ta\tb\t1\n2\ta\t \t0\n"), BINARY)


class TestTypes:
    @pytest.mark.parametrize("words, roles, pos", [
        (("two words",), None, None),
        (("",), None, None),
        (("ok", "tab\tbed"), None, None),
        (("ok",), ("NOPE",), None),
        (("a", "b"), ("SUBJ",), None),
        (("a",), None, ("NOUN", "VERB")),
    ], ids=["space", "empty_word", "tab", "unknown_role", "short_roles", "long_pos"])
    def test_sentence_rejects(self, words, roles, pos):
        with pytest.raises(ValueError):
            Sentence(words, roles, pos)

    def test_sentence_without_words_is_empty(self):
        with pytest.raises(EmptySentence):
            Sentence(())

    def test_word_rule_is_str_isspace_over_every_code_point(self):
        chars = [chr(c) for c in range(sys.maxunicode + 1)]
        # every other code point is accepted, inside a word and as one
        Sentence(tuple(f"a{c}b" for c in chars if not c.isspace()))
        Sentence(tuple(c for c in chars if not c.isspace()))
        rejected = [c for c in chars if c.isspace()]
        assert len(rejected) > 20
        for c in rejected:
            with pytest.raises(ValueError):
                Sentence(("ok", f"a{c}b"))
            with pytest.raises(ValueError):
                Sentence((c,))

    def test_sentence_truncated(self):
        s = Sentence(("a", "b", "c"), roles=("SUBJ", None, "OBJ"), pos=("N", "V", None))
        assert s.truncated(2) == Sentence(("a", "b"), roles=("SUBJ", None), pos=("N", "V"))
        assert s.truncated(2).surfaces() == ["a", "b"]
        assert s.truncated(3) is s

    def test_dataset_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="^unknown label_kind 'fuzzy'$"):
            Dataset(pairs=(), label_kind="fuzzy")


class TestRecordLayout:
    @staticmethod
    def _assert_equal_strings_are_one_object(strings):
        first = {}
        for string in strings:
            assert first.setdefault(string, string) is string, string

    def test_equal_raw_surfaces_of_a_file_are_one_object(self):
        ds = parse_pair_file(io.StringIO("1\tThe cat sat.\tthe dog sat\t1\n"
                                         "2\t(The) dog, the cat\tCAT\t0\n"), BINARY)
        words = [w for pair in ds for sentence in (pair.a, pair.b) for w in sentence.words]
        assert words.count("the") == 4 and words.count("cat") == 3
        self._assert_equal_strings_are_one_object(words)

    def test_equal_annotated_fields_of_a_file_are_one_object(self):
        ds = parse_pair_file(io.StringIO(
            "1\tcat|NOUN|SUBJ sat|VERB|PRED\tdog|NOUN|SUBJ sat|VERB|_\t1\n"
            "2\tthe|DET|ATTR cat|NOUN|OBJ\tcat|_|SUBJ\t0\n"), BINARY)
        sentences = [sentence for pair in ds for sentence in (pair.a, pair.b)]
        for field in ("words", "pos", "roles"):
            values = [v for sentence in sentences for v in getattr(sentence, field)
                      if v is not None]
            assert len(values) > len(set(values)), field
            self._assert_equal_strings_are_one_object(values)

    def test_default_annotations_of_one_length_are_one_tuple(self):
        first, second = tokenize("one two"), Sentence(("three", "four"))
        assert first.roles is first.pos is second.roles is second.pos == (None, None)
        assert Sentence(("five",)).roles == (None,)

    def test_truncating_keeps_default_annotations_shared(self):
        default = Sentence(tuple("abcdef"))
        assert default.truncated(4).roles is default.truncated(4).pos is corpus._NONES[4]
        annotated = Sentence(tuple("abc"), roles=(None, None, "OBJ"), pos=(None, None, "N"))
        short = annotated.truncated(2)
        assert (short.roles, short.pos) == ((None, None), (None, None))
        assert short.roles is not corpus._NONES[2] and short.pos is not corpus._NONES[2]
        mixed = Sentence(tuple("abc"), roles=("SUBJ", "PRED", "OBJ")).truncated(2)
        assert (mixed.roles, mixed.pos) == (("SUBJ", "PRED"), (None, None))
        assert mixed.pos is corpus._NONES[2]
        long = Sentence(("w",) * 70).truncated(8)
        assert long.roles == long.pos == (None,) * 8

    def test_only_short_default_annotations_are_shared(self):
        shared = dict(corpus._NONES)
        long = Sentence(("w",) * 65)
        assert long.roles == long.pos == (None,) * 65
        assert long.roles is not Sentence(("w",) * 65).roles
        assert corpus._NONES == shared and max(shared) == 64

    @pytest.mark.parametrize("record, field", [
        (Sentence(("a", "b")), "words"),
        (LabeledPair(id="p", a=Sentence(("a",)), b=Sentence(("b",)), label=1.0), "label"),
        (PairScores(jaccard=0.5, w2vcnn=0.25, tfidf=0.0, fused=0.5, predicted="similar"),
         "fused")])
    def test_records_are_slotted_and_frozen(self, record, field):
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))
        # on 3.10 and 3.11 dataclasses' frozen __setattr__ calls super() on the
        # class slots=True replaced, which raises TypeError; later versions
        # were not at hand to pin
        old = sys.version_info < (3, 12)
        with pytest.raises(TypeError if old else (AttributeError, TypeError)):
            record.extra = 1
        assert dataclasses.replace(record) == record
        as_dict = dataclasses.asdict(record)
        assert list(as_dict) == [f.name for f in dataclasses.fields(record)]
        assert as_dict[field] == getattr(record, field)


def test_a_parsed_file_holds_little_memory():
    """4,000 pairs of 3-8 words from a 2,000-word vocabulary: the records and
    their shared strings, without the file's lines."""
    rng = np.random.default_rng(5)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocab = ["".join(rng.choice(letters, size=3 + i % 8)) for i in range(2000)]

    def sentence():
        return " ".join(vocab[i] for i in rng.integers(0, len(vocab), rng.integers(3, 9)))

    lines = [f"p{i}\t{sentence()}\t{sentence()}\t{i % 2}\n" for i in range(4000)]
    tracemalloc.start()
    try:
        dataset = parse_pair_file(lines, BINARY)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 4000
    assert held <= 2.5 * 2**20, f"{held / 2**20:.2f} MiB"
