import io
import warnings

import numpy as np
import pytest

from simfuse.corpus import Sentence
from simfuse.embedding import (BLOCK_ROWS, OOV_CACHE_ROWS, EmbeddingTable, _oov_vector,
                               embed_sentence, format_row, load_text_embeddings, lookup,
                               parse_row, parse_rows, save_text_embeddings)
from simfuse.errors import ConfigError, FormatError


def _reference_load(text):
    """The line-at-a-time loader the block reader replaced, with a
    header-only file rejected: ``(dim, vectors)``, or the FormatError
    message it raised."""
    vectors, dim = {}, None
    try:
        for lineno, line in enumerate(io.StringIO(text), start=1):
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
                    pass
            vec = parse_row(parts[1] if len(parts) == 2 else "", lineno, dim)
            if dim is None:
                dim = vec.size
                if dim == 0:
                    raise FormatError(f"line {lineno}: no vector components")
            vectors[parts[0]] = vec
    except FormatError as exc:
        return str(exc)
    if not vectors:
        return "embedding file contains no vectors"
    return dim, vectors


def _load(text):
    """load_text_embeddings in the shape _reference_load returns."""
    try:
        table = load_text_embeddings(io.StringIO(text))
    except FormatError as exc:
        return str(exc)
    return table.dim, dict(table.vectors)


def _assert_same_result(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got[0] == want[0]
    assert list(got[1]) == list(want[1])  # same surfaces, same insertion order
    for word, vec in want[1].items():
        assert got[1][word].dtype == np.float64
        assert np.array_equal(got[1][word].view(np.int64), vec.view(np.int64)), word


def _table_text(n_rows, dim=3, seed=0, header=True):
    rng = np.random.default_rng(seed)
    lines = [f"{n_rows} {dim}\n"] if header else []
    lines += [format_row(f"w{i}", rng.standard_normal(dim)) for i in range(n_rows)]
    return lines


def _old_format_row(name, values):
    text = " ".join(format(x, ".17g") for x in values)
    return f"{text}\n" if name is None else f"{name} {text}\n"


class TestLoadTextEmbeddings:
    def test_basic(self):
        table = load_text_embeddings(io.StringIO("cat 1 2 3\ndog 4 5 6\n"))
        assert table.dim == 3
        assert len(table) == 2
        np.testing.assert_array_equal(table.vectors["cat"], [1.0, 2.0, 3.0])

    def test_inconsistent_dimension(self):
        with pytest.raises(FormatError, match="line 2"):
            load_text_embeddings(io.StringIO("cat 1 2 3\ndog 4 5\n"))

    def test_non_numeric_component(self):
        with pytest.raises(FormatError, match="line 1"):
            load_text_embeddings(io.StringIO("cat 1 x 3\n"))

    def test_header_sets_dim_count_not_enforced(self):
        content = "1000 3\na 1 2 3\nb 4 5 6\nc 7 8 9\n"
        table = load_text_embeddings(io.StringIO(content))
        assert table.dim == 3
        assert len(table) == 3

    def test_duplicate_surface_last_wins(self):
        table = load_text_embeddings(io.StringIO("a 1 2\na 3 4\n"))
        np.testing.assert_array_equal(table.vectors["a"], [3.0, 4.0])

    def test_empty_file(self):
        with pytest.raises(FormatError):
            load_text_embeddings(io.StringIO(""))

    @pytest.mark.parametrize("content", ["0 4\n", "3 2\n\n  \n"], ids=["header", "blank_lines"])
    def test_header_only_file_contains_no_vectors(self, content):
        with pytest.raises(FormatError, match=r"^embedding file contains no vectors$"):
            load_text_embeddings(io.StringIO(content))

    # the first line: a header that int() accepts, or a vector line that sets
    # dim; (text, dim or the error message)
    @pytest.mark.parametrize("text, want", [
        ("1_000 2\na 1 2\nb 3 4\n", 2),
        (" 3 2\na 1 2\n", 2),
        ("2 0\na 1\n", "line 1: header dimension must be >= 1"),
        ("a\nb 1 2\n", "line 1: no vector components"),
        ("a 1 x 3\nb 1 2 3\n", "line 1: non-numeric value"),
        ("a 1 nan\nb 1 2\n", "line 1: non-finite value"),
        ("3 2\na 1 2 3\n", "line 2: expected 2 values, got 3"),
        ("1.5 2\nb 3\n", 1),
    ], ids=["underscore_header", "indented_header", "zero_dim_header", "bare_surface",
            "non_numeric_first_row", "nan_first_row", "first_row_not_header_dim",
            "float_count_is_a_vector"])
    def test_first_line_matches_the_line_reader(self, text, want):
        got = _load(text)
        _assert_same_result(got, _reference_load(text))
        assert (got if isinstance(want, str) else got[0]) == want

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable(dim=4, vectors={
            f"w{i}": rng.standard_normal(4) for i in range(5)
        })
        buf = io.StringIO()
        save_text_embeddings(table, buf)
        back = load_text_embeddings(io.StringIO(buf.getvalue()))
        assert back.dim == table.dim
        for word, vec in table.vectors.items():
            np.testing.assert_array_equal(back.vectors[word], vec)

    # each would be written as a line the reader splits differently
    @pytest.mark.parametrize("surface", ["a b", "", "x\ny", "tab\tin", " ", "\x85"])
    def test_save_refuses_a_surface_it_cannot_read_back(self, surface):
        table = EmbeddingTable(dim=2, vectors={"a": np.ones(2), surface: np.zeros(2)})
        stream = io.StringIO()
        with pytest.raises(FormatError) as raised:
            save_text_embeddings(table, stream)
        assert str(raised.value) == f"surface {surface!r} is empty or holds whitespace"
        assert stream.getvalue() == ""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_refuses_a_non_finite_value_before_writing_any_line(self, value):
        table = EmbeddingTable(dim=2, vectors={"a": np.ones(2), "b": np.array([value, 1.0])})
        stream = io.StringIO()
        with pytest.raises(FormatError) as raised:
            save_text_embeddings(table, stream)
        assert str(raised.value) == "non-finite value in the row of 'b'"
        assert stream.getvalue() == ""


class TestFormatRow:
    def test_matches_per_value_format_on_adversarial_values(self):
        values = np.array([
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308,
            1e-310, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0,
            2.0 ** 53, 2.0 ** 53 + 2, 1e16, 1e17, 123456789012345678.0, 0.1, 1 / 3,
            np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1e-300, 2.5e-10,
        ])
        for name in (None, "w"):
            assert format_row(name, values) == _old_format_row(name, values)

    def test_matches_per_value_format_on_random_normals(self):
        values = np.random.default_rng(11).standard_normal(10_000)
        assert format_row("x", values) == _old_format_row("x", values)
        for row in values.reshape(100, 100):
            assert format_row(None, row) == _old_format_row(None, row)

    def test_random_bit_patterns_and_shapes(self):
        bits = np.random.default_rng(5).integers(0, 2 ** 63, size=2_000, dtype=np.int64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert format_row("b", values) == _old_format_row("b", values)
        matrix = values[:12].reshape(3, 4)
        assert format_row("m", matrix) == _old_format_row("m", matrix.ravel())

    def test_empty_and_integral_rows(self):
        assert format_row("e", np.array([])) == _old_format_row("e", np.array([])) == "e \n"
        ints = np.array([3.0, -7.0, 1e15])
        assert format_row(None, ints) == "3 -7 1000000000000000\n"


class TestBlockReading:
    """Embeddings files longer than one block of BLOCK_ROWS lines."""

    # bad line replacing the vector line at ``bad_at`` (second block)
    @pytest.mark.parametrize("bad, message", [
        ("w300 1 x 3\n", "non-numeric value"),
        ("w300 1 2\n", "expected 3 values, got 2"),
        ("w300 1 2 3 4\n", "expected 3 values, got 4"),
        ("w300 1 nan 3\n", "non-finite value"),
        ("w300 1 2 -inf\n", "non-finite value"),
        ("w300 1 2 1e400\n", "non-finite value"),
        ("w300\n", "expected 3 values, got 0"),
        ("w300 1 2 3 \u2028\n", None),
        ("w300 1 2\u20033\n", None),
        ("w300 1 2 0x3\n", "non-numeric value"),
    ], ids=["non_numeric", "short", "long", "nan", "inf", "overflow", "no_values",
            "line_separator_char", "em_space", "hex"])
    @pytest.mark.parametrize("later_error", [False, True])
    def test_bad_line_in_second_block_is_named(self, bad, message, later_error):
        lines = _table_text(2 * BLOCK_ROWS + 10)
        bad_at = BLOCK_ROWS + 50  # a line of the second block
        lines[bad_at] = bad
        if later_error:  # a later error in the block is not the one reported
            lines[bad_at + 20] = "w320 1 x 3\n"
        text = "".join(lines)
        want = _reference_load(text)
        if message is not None:
            assert want == f"line {bad_at + 1}: {message}"
        _assert_same_result(_load(text), want)

    def test_tokens_only_python_accepts_keep_their_values(self):
        lines = _table_text(BLOCK_ROWS + 40, header=False)
        lines[BLOCK_ROWS + 3] = "under 1_0 2 3\n"
        lines[BLOCK_ROWS + 4] = "digits \u0661 \uff12 3.5\n"
        lines[BLOCK_ROWS + 5] = "spaces 1\u00a02\u20033\n"
        text = "".join(lines)
        _assert_same_result(_load(text), _reference_load(text))
        table = load_text_embeddings(io.StringIO(text))
        assert table.vectors["under"].tolist() == [10.0, 2.0, 3.0]
        assert table.vectors["digits"].tolist() == [1.0, 2.0, 3.5]
        assert table.vectors["spaces"].tolist() == [1.0, 2.0, 3.0]

    def test_duplicate_surface_across_blocks_keeps_last(self):
        lines = _table_text(3 * BLOCK_ROWS)
        lines[1] = "dup 1 2 3\n"  # the first vector line
        lines[BLOCK_ROWS - 1] = "dup 4 5 6\n"
        lines[BLOCK_ROWS + 100] = "dup 7 8 9\n"
        lines[2 * BLOCK_ROWS + 7] = "dup 10 11 12\n"
        text = "".join(lines)
        table = load_text_embeddings(io.StringIO(text))
        assert table.vectors["dup"].tolist() == [10.0, 11.0, 12.0]
        _assert_same_result(_load(text), _reference_load(text))

    @pytest.mark.parametrize("n_rows", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    @pytest.mark.parametrize("header", [True, False])
    def test_block_edges_match_the_line_reader(self, n_rows, header):
        lines = _table_text(n_rows, dim=4, seed=n_rows, header=header)
        lines.insert(len(lines) // 2, "\n")  # a blank line is skipped
        text = "".join(lines)
        _assert_same_result(_load(text), _reference_load(text))

    def test_one_column_table(self):
        text = "".join(f"w{i} {i}.5\n" for i in range(BLOCK_ROWS + 3))
        table = load_text_embeddings(io.StringIO(text))
        assert table.dim == 1
        _assert_same_result(_load(text), _reference_load(text))

    def test_random_tokens_match_the_line_reader(self):
        # Differential fuzz: each file mixes well-formed values with tokens
        # one or both parsers reject; the result (vectors or error message)
        # must equal the line reader's.
        pool = ["1", "-2.5", "1e-300", "5e-324", "+.5", "1.", "1_0", "\u0661", "nan",
                "-inf", "Infinity", "1e400", "x", "1,5", "0x1", "1d2", "#1", "'1'",
                "1\u00a02", "\x1c", "1\x002", "\u2028", "--1", "1e", "١٢", "0"]
        rng = np.random.default_rng(17)
        for trial in range(60):
            n_rows = int(rng.integers(BLOCK_ROWS - 5, 2 * BLOCK_ROWS + 5))
            lines = _table_text(n_rows, dim=3, seed=trial, header=bool(trial % 2))
            for _ in range(int(rng.integers(0, 3))):
                at = int(rng.integers(2, len(lines)))
                fields = [str(rng.choice(pool)) for _ in range(int(rng.integers(2, 5)))]
                lines[at] = f"f{at} " + " ".join(fields) + "\n"
            text = "".join(lines)
            _assert_same_result(_load(text), _reference_load(text))


class TestParseRows:
    def test_loadtxt_values_bitwise_equal_parse_row(self):
        rng = np.random.default_rng(23)
        values = np.concatenate([
            rng.standard_normal(20_000),
            rng.standard_normal(5_000) * 10.0 ** rng.integers(-300, 300, 5_000),
            np.array([5e-324, 1e-310, 1.7976931348623157e308, -0.0, 0.0]),
        ])
        values = np.resize(values, (len(values) // 50, 50))
        rows = [(i + 1, format_row(None, row)) for i, row in enumerate(values)]
        block = parse_rows(rows, 50)
        assert np.array_equal(block.view(np.int64), values.view(np.int64))
        reference = np.array([parse_row(text, lineno, 50) for lineno, text in rows])
        assert np.array_equal(block.view(np.int64), reference.view(np.int64))
        shortest = [(i + 1, " ".join(map(repr, row.tolist()))) for i, row in enumerate(values)]
        assert np.array_equal(parse_rows(shortest, 50).view(np.int64), values.view(np.int64))

    def test_block_of_empty_rows_raises_for_the_first_without_a_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FormatError, match=r"^line 4: expected 2 values, got 0$"):
                parse_rows([(4, ""), (5, "")], 2)
        assert caught == []  # loadtxt's no-data warning would be a stray stderr line


class TestLookup:
    def test_known_surface_exact(self):
        table = EmbeddingTable(dim=2, vectors={"a": np.array([3.0, 4.0])})
        np.testing.assert_array_equal(lookup(table, "a"), [3.0, 4.0])

    def test_oov_deterministic(self):
        table = EmbeddingTable(dim=8, vectors={})
        np.testing.assert_array_equal(lookup(table, "mystery"), lookup(table, "mystery"))

    def test_oov_unit_norm(self):
        table = EmbeddingTable(dim=8, vectors={})
        for word in ["x", "yy", "zzz", "Ω"]:
            assert np.linalg.norm(lookup(table, word)) == pytest.approx(1.0, abs=1e-9)

    def test_oov_differs_across_surfaces(self):
        table = EmbeddingTable(dim=8, vectors={})
        assert not np.allclose(lookup(table, "one"), lookup(table, "two"))


class TestOovCache:
    def test_cached_vector_is_bitwise_the_drawn_one(self):
        table = EmbeddingTable(dim=8, vectors={})
        for word in ["x", "yy", "Ω"]:
            first, again = lookup(table, word), lookup(table, word)
            want = _oov_vector(word, 8)
            assert first.tobytes() == again.tobytes() == want.tobytes()

    def test_second_lookup_returns_the_same_read_only_array(self):
        table = EmbeddingTable(dim=8, vectors={})
        vec = lookup(table, "mystery")
        assert lookup(table, "mystery") is vec
        assert not vec.flags.writeable
        with pytest.raises(ValueError):
            vec[0] = 1.0

    def test_known_surfaces_are_not_cached(self):
        table = EmbeddingTable(dim=2, vectors={"a": np.array([3.0, 4.0])})
        lookup(table, "a")
        assert table._oov_cache == {}

    def test_tables_of_different_dim_share_no_vectors(self):
        small, large = EmbeddingTable(dim=4, vectors={}), EmbeddingTable(dim=8, vectors={})
        u, v = lookup(small, "word"), lookup(large, "word")
        assert u.shape == (4,) and v.shape == (8,)
        assert u.tobytes() == _oov_vector("word", 4).tobytes()
        assert v.tobytes() == _oov_vector("word", 8).tobytes()

    def test_equal_tables_keep_their_own_cache(self):
        vectors = {"a": np.array([1.0, 0.0])}
        first, second = EmbeddingTable(2, vectors), EmbeddingTable(2, vectors)
        vec = lookup(first, "oov")
        assert lookup(second, "oov") is not vec
        assert first == second  # the cache is not compared

    def test_overfilled_cache_stays_bounded_and_correct(self):
        table = EmbeddingTable(dim=3, vectors={})
        words = [f"w{i}" for i in range(OOV_CACHE_ROWS + 10)]
        for word in words:
            lookup(table, word)
            assert len(table._oov_cache) <= OOV_CACHE_ROWS
        assert len(table._oov_cache) == 10  # emptied once, when full
        for word in (words[0], words[OOV_CACHE_ROWS - 1], words[-1]):
            assert lookup(table, word).tobytes() == _oov_vector(word, 3).tobytes()

    def test_cache_is_no_constructor_argument(self):
        with pytest.raises(TypeError):
            EmbeddingTable(dim=2, vectors={}, _oov_cache={})
        assert "_oov_cache" not in repr(EmbeddingTable(dim=2, vectors={}))


class TestEmbedSentence:
    def test_padding_and_mask(self):
        table = EmbeddingTable(dim=2, vectors={"a": np.array([1.0, 0.0]),
                                               "b": np.array([0.0, 1.0])})
        m = embed_sentence(table, Sentence(["a", "b"]), n_max=4)
        assert m.shape == (2, 2)  # one row per token, none for n_max headroom
        np.testing.assert_array_equal(m[0], [1.0, 0.0])
        np.testing.assert_array_equal(m[1], [0.0, 1.0])

    def test_truncation_keeps_prefix(self):
        table = EmbeddingTable(dim=2, vectors={})
        s = Sentence(["t0", "t1", "t2", "t3", "t4"])
        m = embed_sentence(table, s, n_max=4)
        assert m.shape == (4, 2)
        np.testing.assert_array_equal(m[0], lookup(table, "t0"))
        np.testing.assert_array_equal(m[3], lookup(table, "t3"))

    def test_padding_rows_zero_norm(self):
        table = EmbeddingTable(dim=3, vectors={})
        m = embed_sentence(table, Sentence(["x"]), n_max=5)
        assert m.shape == (1, 3)  # no zero-norm padding rows
        np.testing.assert_array_equal(m[0], lookup(table, "x"))

    def test_invalid_n_max(self):
        table = EmbeddingTable(dim=3, vectors={})
        with pytest.raises(ConfigError, match="^n_max must be >= 1, got 0$"):
            embed_sentence(table, Sentence(["x"]), n_max=0)


class TestEmbeddingTable:
    def test_rejects_wrong_vector_length(self):
        with pytest.raises(ValueError):
            EmbeddingTable(dim=3, vectors={"a": np.array([1.0, 2.0])})

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            EmbeddingTable(dim=0, vectors={})
