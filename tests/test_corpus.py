import io
import sys

import numpy as np
import pytest

from simfuse.corpus import (BINARY, GRADED, ZERO_IS_SIMILAR, Dataset, Sentence,
                            parse_annotated, parse_pair_file, tokenize)
from simfuse.errors import ConfigError, EmptySentence, FormatError


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
             "Ça va?", "(Straße).", "«Ελλάδα»!", "日本語。", "naïve... café,", "x'y'z"]
    ALPHABET = list("aZé日ß ') (.,!?;:\"\t") + ["can't", "Σ"]

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
        for _ in range(2000):
            parts = rng.choice(self.ALPHABET, size=int(rng.integers(0, 14)))
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
