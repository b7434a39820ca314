import io

import pytest

from simfuse.corpus import (BINARY, GRADED, ZERO_IS_SIMILAR, Dataset,
                            LabeledPair, Sentence, Token, parse_annotated,
                            parse_pair_file, serialize_pairs, tokenize)
from simfuse.errors import EmptySentence, FormatError


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
        assert all(t.pos is None and t.role is None for t in tokenize("a b"))


class TestParseAnnotated:
    def test_roles_attached(self):
        s = parse_annotated("cat|NOUN|SUBJ runs|VERB|PRED")
        assert [t.surface for t in s] == ["cat", "runs"]
        assert [t.pos for t in s] == ["NOUN", "VERB"]
        assert [t.role for t in s] == ["SUBJ", "PRED"]

    def test_underscore_means_absent(self):
        s = parse_annotated("cat|NOUN|_")
        assert s.tokens[0].role is None
        assert s.tokens[0].pos == "NOUN"
        assert parse_annotated("cat|_|SUBJ").tokens[0].pos is None

    def test_wrong_field_count(self):
        with pytest.raises(FormatError):
            parse_annotated("cat|NOUN")
        with pytest.raises(FormatError):
            parse_annotated("cat|NOUN|SUBJ|extra")

    def test_unknown_role(self):
        with pytest.raises(FormatError):
            parse_annotated("cat|NOUN|BOSS")


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
        assert ds.pairs[0].a.tokens[0].role == "SUBJ"

    def test_label_convention_inverts(self):
        ds = parse_pair_file(io.StringIO("1\ta\tb\t0\n"), BINARY,
                             convention=ZERO_IS_SIMILAR)
        assert ds.pairs[0].label == 1.0

    def test_round_trip_binary(self):
        text = "1\tcan i use it\tcan't i use it\t1\n2\tcat|NOUN|SUBJ\tdog|NOUN|_\t0\n"
        ds = parse_pair_file(io.StringIO(text), BINARY)
        assert parse_pair_file(io.StringIO(serialize_pairs(ds)), BINARY) == ds

    def test_round_trip_graded(self):
        text = "a\tx y\ty z\t3.25\nb\tp q\tq r\t0.0\n"
        ds = parse_pair_file(io.StringIO(text), GRADED)
        assert parse_pair_file(io.StringIO(serialize_pairs(ds)), GRADED) == ds

    def test_round_trip_survives_uppercase_surfaces(self):
        pair = LabeledPair(
            id="1",
            a=Sentence((Token("Mixed"), Token("Case"))),
            b=Sentence((Token("plain"),)),
            label=1.0,
        )
        ds = Dataset(pairs=(pair,), label_kind=BINARY)
        assert parse_pair_file(io.StringIO(serialize_pairs(ds)), BINARY) == ds


class TestTypes:
    def test_token_rejects_whitespace_surface(self):
        with pytest.raises(ValueError):
            Token("two words")
        with pytest.raises(ValueError):
            Token("")

    def test_token_rejects_unknown_role(self):
        with pytest.raises(ValueError):
            Token("ok", role="NOPE")

    def test_sentence_truncated(self):
        s = Sentence.from_surfaces(["a", "b", "c"])
        assert s.truncated(2).surfaces() == ["a", "b"]
        assert s.truncated(5) is s

    def test_dataset_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Dataset(pairs=(), label_kind="fuzzy")
