import io

import numpy as np
import pytest

from simfuse.corpus import Sentence
from simfuse.embedding import (EmbeddingTable, embed_sentence,
                               load_text_embeddings, lookup,
                               save_text_embeddings)
from simfuse.errors import FormatError


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

    def test_oov_depends_on_seed(self):
        t0 = EmbeddingTable(dim=8, vectors={}, oov_seed=0)
        t1 = EmbeddingTable(dim=8, vectors={}, oov_seed=1)
        assert not np.allclose(lookup(t0, "word"), lookup(t1, "word"))

    def test_oov_differs_across_surfaces(self):
        table = EmbeddingTable(dim=8, vectors={})
        assert not np.allclose(lookup(table, "one"), lookup(table, "two"))


class TestEmbedSentence:
    def test_padding_and_mask(self):
        table = EmbeddingTable(dim=2, vectors={"a": np.array([1.0, 0.0]),
                                               "b": np.array([0.0, 1.0])})
        m = embed_sentence(table, Sentence.from_surfaces(["a", "b"]), n_max=4)
        assert m.shape == (2, 2)  # one row per token, none for n_max headroom
        np.testing.assert_array_equal(m[0], [1.0, 0.0])
        np.testing.assert_array_equal(m[1], [0.0, 1.0])

    def test_truncation_keeps_prefix(self):
        table = EmbeddingTable(dim=2, vectors={})
        s = Sentence.from_surfaces(["t0", "t1", "t2", "t3", "t4"])
        m = embed_sentence(table, s, n_max=4)
        assert m.shape == (4, 2)
        np.testing.assert_array_equal(m[0], lookup(table, "t0"))
        np.testing.assert_array_equal(m[3], lookup(table, "t3"))

    def test_padding_rows_zero_norm(self):
        table = EmbeddingTable(dim=3, vectors={})
        m = embed_sentence(table, Sentence.from_surfaces(["x"]), n_max=5)
        assert m.shape == (1, 3)  # no zero-norm padding rows
        np.testing.assert_array_equal(m[0], lookup(table, "x"))

    def test_invalid_n_max(self):
        table = EmbeddingTable(dim=3, vectors={})
        with pytest.raises(ValueError):
            embed_sentence(table, Sentence.from_surfaces(["x"]), n_max=0)


class TestEmbeddingTable:
    def test_rejects_wrong_vector_length(self):
        with pytest.raises(ValueError):
            EmbeddingTable(dim=3, vectors={"a": np.array([1.0, 2.0])})

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            EmbeddingTable(dim=0, vectors={})
