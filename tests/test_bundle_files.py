"""Bundle file formats (v2, and the v1 format that still loads), frozen as
literal bytes, and the errors a corrupt bundle or pair file gives through
``simfuse score``."""

import dataclasses
import hashlib
import io
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from simfuse import pipeline
from simfuse.cli import main
from simfuse.cnn import (DEFAULT_N_MAX, CnnParams, TrainConfig, cnn_train, init_params,
                         save_cnn_params)
from simfuse.embedding import (BLOCK_ROWS, EmbeddingTable, load_text_embeddings,
                               save_text_embeddings)
from simfuse.errors import ConfigError, FormatError
from simfuse.fusion import (LEARNED, WEIGHTED_SUM, FusionNet, FusionParams,
                            FusionWeights)
from simfuse.pipeline import ModelBundle, load_bundle, save_bundle
from simfuse.tfidf import CorpusStats, build_stats

from toy import DEFAULT_WEIGHTS, separable_toy_set

GOLDEN = {
    "cnn.params": (
        "simfuse-cnn v1 1 2 2 2\n"
        "rng_seed 7\n"
        "filters 0.5 -1.25 0.10000000000000001 3\n"
        "filter_bias 2.5000000000000002e-10\n"
        "dense_w 1 -2 0.25 4\n"
        "dense_b 0 -0.5\n"
        "out_w 1.5 -1\n"
        "out_b 0.75\n"
    ),
    "fusion.params": (
        "simfuse-fusion v1\n"
        "0.25 0.5 0.25\n"
        "hidden_w 0.10000000000000001 0.20000000000000001 0.29999999999999999"
        " -0.40000000000000002 0.5 -0.59999999999999998\n"
        "hidden_b 0 1\n"
        "out_w 2 -3\n"
        "out_b -0.125\n"
    ),
    "stats.tsv": (
        "#total_pairs=3\n"
        "x\t1\n"
        "y\t3\n"
    ),
    "vocab.txt": "a\nb\n",
    "embeddings.npy": (  # magic, version 1.0, header length 118, header, rows
        b"\x93NUMPY\x01\x00v\x00"
        + b"{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), }".ljust(117)
        + b"\n"
        + struct.pack("<4d", 1e-300, 3.0, 0.1, -2.0)
    ),
    "manifest.tsv": (
        "simfuse-bundle v2\n"
        "n_max\t32\n"
        "sha256\tcnn.params\tc7003c1352ff8cbc3a109399313462c3426cbfb536f2a070011649598e02024d\n"
        "sha256\tfusion.params\t3d2d748892cb2c6380d48f8dda2e02e20e42778900da450ae81232d8ebe13a76\n"
        "sha256\tstats.tsv\t25c1f95865c3ebdc7bd44c57f4639b8107275383021271be7edb6a1d1223c3cf\n"
        "sha256\tvocab.txt\t911169ddaaf146aff539f58c26c489af3b892dff0fe283c1c264c65ae5aa59a2\n"
        "sha256\tembeddings.npy\t7979608cda0ce65fb197dfe3837139b7f7278064f6c5b6008aa94268e7ade8b2\n"
    ),
}

# The v1 table file: word2vec text, as save_text_embeddings writes it.
V1_EMBEDDINGS_TEXT = (
    "2 2\n"
    "a 1e-300 3\n"
    "b 0.10000000000000001 -2\n"
)
V2_ONLY = ("manifest.tsv", "vocab.txt", "embeddings.npy")
V1_GOLDEN = {name: golden for name, golden in GOLDEN.items() if name not in V2_ONLY}
V1_GOLDEN["embeddings.txt"] = V1_EMBEDDINGS_TEXT


def _bytes(golden) -> bytes:
    return golden if isinstance(golden, bytes) else golden.encode("utf-8")


def save_v1_bundle(bundle, directory):
    """A v1 bundle: save_bundle's three parameter files, which v1 and v2
    share byte for byte, plus the table as word2vec text in embeddings.txt."""
    save_bundle(bundle, directory)
    for name in V2_ONLY:
        (directory / name).unlink()
    with open(directory / "embeddings.txt", "w", encoding="utf-8", newline="\n") as f:
        save_text_embeddings(bundle.table, f)


def tiny_bundle(mode=LEARNED):
    cnn_params = CnnParams(
        filters=np.array([[[0.5, -1.25], [0.1, 3.0]]]),
        filter_bias=np.array([2.5e-10]),
        dense_w=np.array([[1.0, -2.0], [0.25, 4.0]]),
        dense_b=np.array([0.0, -0.5]),
        out_w=np.array([1.5, -1.0]),
        out_b=0.75,
        rng_seed=7,
    )
    net = FusionNet(
        hidden_w=np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6]]),
        hidden_b=np.array([0.0, 1.0]),
        out_w=np.array([2.0, -3.0]),
        out_b=-0.125,
    )
    return ModelBundle(
        stats=CorpusStats(total_pairs=3, pair_doc_freq={"y": 3, "x": 1}),
        table=EmbeddingTable(dim=2, vectors={"b": np.array([0.1, -2.0]),
                                             "a": np.array([1e-300, 3.0])}),
        cnn_params=cnn_params,
        weights=FusionWeights(alpha=0.25, beta=0.5, gamma=0.25),
        fusion_params=FusionParams(mode=mode, net=net if mode == LEARNED else None),
    )


def _bitwise_equal(x, y) -> bool:
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


class TestGoldenFormat:
    def test_each_file_has_the_frozen_text(self, tmp_path):
        save_bundle(tiny_bundle(), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN)
        for name, golden in GOLDEN.items():
            assert (tmp_path / name).read_bytes() == _bytes(golden), name

    def test_manifest_holds_the_sha256_of_each_golden_file(self):
        lines = GOLDEN["manifest.tsv"].splitlines()[2:]
        assert lines == [f"sha256\t{name}\t{hashlib.sha256(_bytes(GOLDEN[name])).hexdigest()}"
                         for name in ("cnn.params", "fusion.params", "stats.tsv",
                                      "vocab.txt", "embeddings.npy")]

    def test_npy_file_reads_back_with_numpy(self, tmp_path):
        save_bundle(tiny_bundle(), tmp_path)
        matrix = np.load(tmp_path / "embeddings.npy", allow_pickle=False)
        assert matrix.dtype == np.dtype("<f8") and matrix.flags.c_contiguous
        assert _bitwise_equal(matrix, [[1e-300, 3.0], [0.1, -2.0]])

    def test_save_text_embeddings_has_the_frozen_text(self):
        stream = io.StringIO()
        save_text_embeddings(tiny_bundle().table, stream)
        assert stream.getvalue().encode("utf-8") == V1_EMBEDDINGS_TEXT.encode("utf-8")

    def test_weighted_sum_fusion_file_holds_only_the_weights(self, tmp_path):
        save_bundle(tiny_bundle(mode=WEIGHTED_SUM), tmp_path)
        assert (tmp_path / "fusion.params").read_bytes() == b"simfuse-fusion v1\n0.25 0.5 0.25\n"

    def test_golden_files_load_back_bitwise(self, tmp_path):
        for version, files in (("v2", GOLDEN), ("v1", V1_GOLDEN)):
            (tmp_path / version).mkdir()
            for name, golden in files.items():
                (tmp_path / version / name).write_bytes(_bytes(golden))
            self._assert_is_the_tiny_bundle(load_bundle(tmp_path / version))

    @staticmethod
    def _assert_is_the_tiny_bundle(got):
        want = tiny_bundle()
        assert got.n_max == want.n_max
        for field in ("filters", "filter_bias", "dense_w", "dense_b", "out_w", "out_b"):
            assert _bitwise_equal(getattr(got.cnn_params, field),
                                  getattr(want.cnn_params, field)), field
        assert got.cnn_params.rng_seed == 7
        for field in ("hidden_w", "hidden_b", "out_w", "out_b"):
            assert _bitwise_equal(getattr(got.fusion_params.net, field),
                                  getattr(want.fusion_params.net, field)), field
        assert got.fusion_params.mode == LEARNED
        assert got.weights == want.weights
        assert got.stats == want.stats
        assert sorted(got.table.vectors) == ["a", "b"]
        for word, vec in want.table.vectors.items():
            assert _bitwise_equal(got.table.vectors[word], vec), word


def _edge_rows(n_rows, dim):
    """Random bit patterns and normals, with edge values up front."""
    rng = np.random.default_rng(29)
    bits = rng.integers(-2 ** 63, 2 ** 63, size=n_rows * dim, dtype=np.int64)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = -0.0
    values[: n_rows * dim // 2] = rng.standard_normal(n_rows * dim // 2)
    values[:6] = [5e-324, -5e-324, 1.7976931348623157e308, 1e-310, 3.0, 0.1]
    return values.reshape(n_rows, dim)


class TestEmbeddingsRoundTrip:
    def test_save_load_save_is_byte_identical_over_several_blocks(self):
        # about three blocks: random bit patterns and normals, with edge values
        n_rows = 3 * BLOCK_ROWS - 7
        rows = _edge_rows(n_rows, 5)
        table = EmbeddingTable(dim=5, vectors={f"w{i}": rows[i] for i in range(n_rows)})
        first = io.StringIO()
        save_text_embeddings(table, first)
        back = load_text_embeddings(io.StringIO(first.getvalue()))
        second = io.StringIO()
        save_text_embeddings(back, second)
        assert second.getvalue().encode("utf-8") == first.getvalue().encode("utf-8")
        assert len(first.getvalue().splitlines()) == n_rows + 1
        for word, vec in table.vectors.items():
            assert _bitwise_equal(back.vectors[word], vec), word

    def test_v2_save_load_save_is_byte_identical_over_several_blocks(self, tmp_path):
        n_rows = 3 * BLOCK_ROWS - 7
        rows = _edge_rows(n_rows, 5)
        rows[1] = [-0.0, -1.7976931348623157e308, 2.2250738585072009e-308, -0.0, 1e-320]
        surfaces = [f"w{i}" for i in range(n_rows - 3)] + ["café", "日本語", "ẞ"]
        table = EmbeddingTable(dim=5, vectors=dict(zip(surfaces, rows)))
        bundle = dataclasses.replace(tiny_bundle(), table=table, cnn_params=init_params(dim=5))
        save_bundle(bundle, tmp_path / "first")
        back = load_bundle(tmp_path / "first")
        save_bundle(back, tmp_path / "second")
        names = sorted(p.name for p in (tmp_path / "first").iterdir())
        assert names == sorted(GOLDEN)
        for name in names:
            assert ((tmp_path / "first" / name).read_bytes()
                    == (tmp_path / "second" / name).read_bytes()), name
        assert len(back.table) == n_rows
        for word, vec in table.vectors.items():
            assert _bitwise_equal(back.table.vectors[word], vec), word

    def test_non_finite_value_in_a_later_block_names_its_surface(self, tmp_path):
        n_rows = 2 * BLOCK_ROWS + 3
        rows = _edge_rows(n_rows, 5)
        surfaces = [f"w{i:03d}" for i in range(n_rows)]
        save_bundle(dataclasses.replace(
            tiny_bundle(), table=EmbeddingTable(dim=5, vectors=dict(zip(surfaces, rows))),
            cnn_params=init_params(dim=5)), tmp_path)
        rows[BLOCK_ROWS + 7, 2] = np.inf
        _rehashed(lambda p: np.save(p, rows))(tmp_path / "embeddings.npy")
        with pytest.raises(FormatError, match=f"^embeddings.npy: non-finite value in the row "
                                              f"of 'w{BLOCK_ROWS + 7}'$"):
            load_bundle(tmp_path)

    # vocab.txt holds one surface per line, and str.splitlines reads it back:
    # a surface with a line break in it would come back split or changed
    @pytest.mark.parametrize("surface", ["a\x85b", "a\u2028b", "a\x0bb", "a\r"])
    def test_a_surface_with_a_line_break_is_refused_before_any_file_is_written(
            self, tmp_path, surface):
        vectors = {"b": np.array([0.1, -2.0]), surface: np.array([1e-300, 3.0])}
        bundle = dataclasses.replace(tiny_bundle(), table=EmbeddingTable(dim=2, vectors=vectors))
        message = f"vocab.txt: surface {surface!r} holds a line break"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            save_bundle(bundle, tmp_path / "model")
        assert not (tmp_path / "model").exists()

    # load_stats splits stats.tsv at tabs and line breaks
    @pytest.mark.parametrize("term", ["a\tb", "a\nb", "a\r"])
    def test_a_term_with_a_tab_or_line_break_is_refused_before_any_file_is_written(
            self, tmp_path, term):
        bundle = dataclasses.replace(tiny_bundle(), stats=CorpusStats(
            total_pairs=3, pair_doc_freq={"x": 1, term: 2}))
        message = f"stats.tsv: term {term!r} holds a tab or line break"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            save_bundle(bundle, tmp_path / "model")
        assert not (tmp_path / "model").exists()

    # the writer itself refuses, so that no direct call writes a file that
    # load_stats then refuses
    @pytest.mark.parametrize("term", ["a\tb", "a\nb", "a\r"])
    def test_save_stats_refuses_a_term_with_a_tab_or_line_break_writing_nothing(self, term):
        stream = io.StringIO()
        message = f"term {term!r} holds a tab or line break"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            pipeline.save_stats(CorpusStats(total_pairs=3, pair_doc_freq={"x": 1, term: 2}),
                                stream)
        assert stream.getvalue() == ""

    # the rows are written BLOCK_ROWS at a time, each block checked before it is
    # written, into a temporary directory that a refused save removes: it
    # leaves no file, and so no bundle that loads
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_is_refused_before_its_block_is_written(self, tmp_path,
                                                                       monkeypatch, value):
        n_rows = 2 * BLOCK_ROWS + 3
        rows = _edge_rows(n_rows, 5)
        rows[BLOCK_ROWS + 7, 2] = value
        surfaces = [f"w{i:03d}" for i in range(n_rows)]
        bundle = dataclasses.replace(
            tiny_bundle(), table=EmbeddingTable(dim=5, vectors=dict(zip(surfaces, rows))),
            cnn_params=init_params(dim=5))
        removed = {}

        def rmtree(path):  # what the temporary directory held when it was removed
            removed.update((p.name, p.stat().st_size) for p in Path(path).iterdir())
            real_rmtree(path)

        real_rmtree = pipeline.shutil.rmtree
        monkeypatch.setattr(pipeline.shutil, "rmtree", rmtree)
        with pytest.raises(FormatError, match=f"^embeddings.npy: non-finite value in the row "
                                              f"of 'w{BLOCK_ROWS + 7}'$"):
            save_bundle(bundle, tmp_path)
        header_size = len(_npy_bytes(np.zeros((n_rows, 5)), (1, 0))) - n_rows * 5 * 8
        assert removed["embeddings.npy"] == header_size + BLOCK_ROWS * 5 * 8
        assert "manifest.tsv" not in removed
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(FormatError, match="^manifest.tsv: not in "):
            load_bundle(tmp_path)

    # a refused save writes nothing into the directory: every file is moved
    # into place only after all of them are written
    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_a_refused_save_leaves_the_bundle_in_the_directory_as_it_was(
            self, tmp_path, trained_bundle, version):
        (save_v1_bundle if version == "v1" else save_bundle)(tiny_bundle(), tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        vectors = dict(trained_bundle.table.vectors)
        vectors["zz"] = np.full(trained_bundle.table.dim, np.inf)
        with pytest.raises(FormatError, match="^embeddings.npy: non-finite value in the row "
                                              "of 'zz'$"):
            save_bundle(dataclasses.replace(
                trained_bundle, table=EmbeddingTable(dim=trained_bundle.table.dim,
                                                     vectors=vectors)), tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        TestGoldenFormat._assert_is_the_tiny_bundle(load_bundle(tmp_path))

    # the directories the save made go; those that were there stay, empty,
    # and so does one another writer put a file into while the save ran
    @pytest.mark.parametrize("existing, target, other, left", [
        ("", "new/model", "", []),
        ("old", "old/new/model", "", ["old"]),
        ("old/new/model", "old/new/model", "", ["old", "old/new", "old/new/model"]),
        ("", "new/model", "new/other", ["new", "new/other"]),
        ("", "x/../new/model", "", [])])
    def test_a_refused_save_removes_the_directories_it_made(self, tmp_path, monkeypatch,
                                                            existing, target, other, left):
        (tmp_path / existing).mkdir(parents=True, exist_ok=True)
        save_stats = pipeline.save_stats

        def save_stats_beside_another_writer(stats, stream):
            if other:
                (tmp_path / other).write_text("kept")
            save_stats(stats, stream)

        monkeypatch.setattr(pipeline, "save_stats", save_stats_beside_another_writer)
        bundle = dataclasses.replace(tiny_bundle(), table=EmbeddingTable(
            dim=2, vectors={"a": np.array([np.inf, 1.0])}))
        with pytest.raises(FormatError, match="^embeddings.npy: non-finite value in the row "
                                              "of 'a'$"):
            save_bundle(bundle, tmp_path / target)
        assert sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")) == left
        if other:
            assert (tmp_path / other).read_text() == "kept"

    def test_a_save_over_a_bundle_leaves_no_other_file(self, tmp_path, trained_bundle):
        save_bundle(tiny_bundle(), tmp_path)
        save_bundle(trained_bundle, tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(GOLDEN)
        assert load_bundle(tmp_path).stats == trained_bundle.stats

    def test_the_empty_surface_round_trips(self, tmp_path):
        vectors = {"": np.array([0.1, -2.0]), "a": np.array([1e-300, 3.0])}
        save_bundle(dataclasses.replace(
            tiny_bundle(), table=EmbeddingTable(dim=2, vectors=vectors)), tmp_path)
        assert (tmp_path / "vocab.txt").read_bytes() == b"\na\n"
        back = load_bundle(tmp_path).table.vectors
        assert sorted(back) == ["", "a"]
        for word, vec in vectors.items():
            assert _bitwise_equal(back[word], vec), word


@pytest.fixture(scope="module")
def trained_bundle():
    dataset, table = separable_toy_set(n_per_class=5, dim=8)
    params, _ = cnn_train(dataset, table, TrainConfig(epochs=3, seed=11))
    return ModelBundle(stats=build_stats(dataset), table=table, cnn_params=params,
                       weights=DEFAULT_WEIGHTS, fusion_params=FusionParams(mode=WEIGHTED_SUM))


class TestV1AndV2:
    def test_same_training_gives_the_same_table_and_scores(self, trained_bundle, tmp_path,
                                                           capsys):
        save_bundle(trained_bundle, tmp_path / "v2")
        save_v1_bundle(trained_bundle, tmp_path / "v1")
        v1, v2 = load_bundle(tmp_path / "v1"), load_bundle(tmp_path / "v2")
        assert sorted(v2.table.vectors) == sorted(v1.table.vectors)
        for word, vec in v1.table.vectors.items():
            assert _bitwise_equal(v2.table.vectors[word], vec), word
            assert _bitwise_equal(trained_bundle.table.vectors[word], vec), word
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("1\tsame0a same0b same0c\tsame0a same0b same0c\t1\n"
                         "2\tleft1a left1b unseen\tright1a right1b right1c\t0\n"
                         "3\tsame2a oov1 oov2\tsame2a same2b left4c\t1\n", encoding="utf-8")
        digests = []
        for version in ("v1", "v2"):
            capsys.readouterr()
            assert main(["score", "--model", str(tmp_path / version), "--pairs", str(pairs)]) == 0
            out = capsys.readouterr().out
            assert len(out.splitlines()) == 3
            digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
        assert digests[0] == digests[1]

    def test_two_saves_are_byte_identical(self, trained_bundle, tmp_path):
        save_bundle(trained_bundle, tmp_path / "first")
        save_bundle(trained_bundle, tmp_path / "second")
        names = sorted(p.name for p in (tmp_path / "first").iterdir())
        assert names == sorted(GOLDEN)
        assert sorted(p.name for p in (tmp_path / "second").iterdir()) == names
        for name in names:
            assert ((tmp_path / "first" / name).read_bytes()
                    == (tmp_path / "second" / name).read_bytes()), name

    def test_saving_over_a_v1_bundle_migrates_it(self, trained_bundle, tmp_path):
        save_v1_bundle(tiny_bundle(), tmp_path)
        save_bundle(dataclasses.replace(trained_bundle, n_max=16), tmp_path)
        loaded = load_bundle(tmp_path)
        assert loaded.n_max == 16
        assert sorted(loaded.table.vectors) == sorted(trained_bundle.table.vectors)
        assert loaded.stats == trained_bundle.stats

    def test_n_max_comes_from_the_manifest(self, trained_bundle, tmp_path):
        save_bundle(dataclasses.replace(trained_bundle, n_max=16), tmp_path / "v2")
        assert load_bundle(tmp_path / "v2").n_max == 16
        assert load_bundle(tmp_path / "v2", n_max=16).n_max == 16
        with pytest.raises(FormatError, match="^manifest.tsv: bundle was trained with "
                                              "n_max 16, got 8$"):
            load_bundle(tmp_path / "v2", n_max=8)
        save_v1_bundle(trained_bundle, tmp_path / "v1")
        assert load_bundle(tmp_path / "v1").n_max == DEFAULT_N_MAX
        assert load_bundle(tmp_path / "v1", n_max=8).n_max == 8

    @pytest.mark.parametrize("version", ["v1", "v2"])
    @pytest.mark.parametrize("n_max", [0, -3])
    def test_an_n_max_below_1_is_refused_before_any_file_is_read(self, trained_bundle,
                                                                  tmp_path, version, n_max):
        directory = tmp_path / version
        (save_v1_bundle if version == "v1" else save_bundle)(trained_bundle, directory)
        for path in directory.iterdir():
            if path.name != "manifest.tsv":  # which tells a v2 bundle from a v1
                path.write_bytes(b"\xff")
        with pytest.raises(ConfigError, match=f"^n_max must be >= 1, got {n_max}$"):
            load_bundle(directory, n_max=n_max)


def _replace(old, new):
    """A corruption that replaces the one ``old`` in the file's text."""
    def corrupt(path):
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
    return corrupt


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _flip(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def _delete(path):
    path.unlink()


def _flip_last(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


def _replace_bytes(old, new):
    """A corruption that replaces the one ``old`` in the file's bytes."""
    def corrupt(path):
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
    return corrupt


def _after(name, corrupt_sibling, corrupt):
    """A corruption that applies ``corrupt_sibling`` to the file ``name`` beside
    the corrupted file, then ``corrupt`` to the file itself."""
    def both(path):
        corrupt_sibling(path.parent / name)
        corrupt(path)
    return both


def _rehashed(write):
    """A corruption that rewrites the file with ``write(path)`` and puts its
    new sha256 in the manifest, so that only the content checks can catch it."""
    def corrupt(path):
        write(path)
        manifest = path.parent / "manifest.tsv"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines = [f"sha256\t{path.name}\t{digest}" if line.startswith(f"sha256\t{path.name}\t")
                 else line for line in manifest.read_text(encoding="utf-8").splitlines()]
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return corrupt


def _npy_bytes(array, version):
    stream = io.BytesIO()
    np.lib.format.write_array(stream, array, version=version)
    return stream.getvalue()


def _huge_shape_npy(path):
    with open(path, "wb") as f:
        np.lib.format.write_array_header_1_0(
            f, {"descr": "<f8", "fortran_order": False, "shape": (2, 10 ** 12)})
        f.write(struct.pack("<4d", 1e-300, 3.0, 0.1, -2.0))


def _non_utf8(path):
    """A corruption that puts a 0xff byte, never valid UTF-8, at offset 5."""
    data = path.read_bytes()
    path.write_bytes(data[:5] + b"\xff" + data[6:])


def _dim_4_cnn_params(path):
    """CNN parameters of dimension 4, for the dimension-2 table of tiny_bundle."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        save_cnn_params(init_params(dim=4), f)


# (case id, bundle version, bundle file, corruption, expected message): the
# message is the whole error line after "error: ", or a pattern the whole
# line after it must match where the message holds a path
CORRUPTIONS = [
    ("cnn_non_numeric", "v1", "cnn.params", _replace("filters 0.5 ", "filters abc "),
     "cnn.params: line 3: non-numeric value"),
    ("cnn_rng_seed", "v1", "cnn.params", _replace("rng_seed 7", "rng_seed seven"),
     "cnn.params: line 2: rng_seed must be an integer, got 'seven'"),
    ("cnn_header_ints", "v1", "cnn.params",
     _replace("simfuse-cnn v1 1 2 2 2", "simfuse-cnn v1 1 2 two 2"),
     "cnn.params: line 1: a header size must be an integer, got 'two'"),
    ("cnn_zero_filters", "v1", "cnn.params",
     _replace("simfuse-cnn v1 1 2 2 2", "simfuse-cnn v1 0 2 2 2"),
     "cnn.params: line 1: header sizes must be >= 1, got [0, 2, 2, 2]"),
    ("cnn_negative_hidden", "v1", "cnn.params",
     _replace("simfuse-cnn v1 1 2 2 2", "simfuse-cnn v1 1 2 2 -2"),
     "cnn.params: line 1: header sizes must be >= 1, got [1, 2, 2, -2]"),
    ("cnn_nan_same_count", "v1", "cnn.params", _replace("filters 0.5 ", "filters nan "),
     "cnn.params: line 3: non-finite value"),
    ("stats_total_pairs", "v1", "stats.tsv", _replace("#total_pairs=3", "#total_pairs=three"),
     "stats.tsv: line 1: #total_pairs must be an integer, got 'three'"),
    ("stats_doc_freq", "v1", "stats.tsv", _replace("x\t1", "x\tone"),
     "stats.tsv: line 2: doc_freq must be an integer, got 'one'"),
    ("stats_doc_freq_above_total", "v1", "stats.tsv", _replace("y\t3", "y\t4"),
     "stats.tsv: document frequency out of range for ['y']"),
    ("fusion_non_numeric", "v1", "fusion.params", _replace("hidden_b 0 1", "hidden_b 0 one"),
     "fusion.params: line 4: non-numeric value"),
    ("fusion_no_hidden_units", "v1", "fusion.params",
     _replace(GOLDEN["fusion.params"].split("\n", 2)[2], "hidden_w\nhidden_b\nout_w\nout_b 0.7\n"),
     "fusion.params: line 4: hidden_b has no values"),
    ("fusion_weights_sum", "v1", "fusion.params", _replace("0.25 0.5 0.25", "0.5 0.5 0.5"),
     "fusion.params: fusion weights must sum to 1, got 1.5"),
    ("fusion_inconsistent_shapes", "v1", "fusion.params", _replace("out_w 2 -3", "out_w 2 -3 4"),
     "fusion.params: line 5: expected 2 values, got 3"),
    ("fusion_unknown_section", "v1", "fusion.params",
     _replace("out_b -0.125\n", "out_b -0.125\nextra 1 2\n"),
     "fusion.params: line 7: unknown fusion net section 'extra'"),
    ("embeddings_nan", "v1", "embeddings.txt", _replace("a 1e-300 3", "a nan 3"),
     "embeddings.txt: line 2: non-finite value"),
    ("embeddings_overflow", "v1", "embeddings.txt", _replace("a 1e-300 3", "a 1e200 1e200"),
     "pair 1: non-finite component score: w2vcnn=nan"),
    ("cnn_unknown_section", "v1", "cnn.params",
     _replace("out_b 0.75\n", "out_b 0.75\nextra 1 2\n"),
     "cnn.params: line 9: unknown CNN parameter section 'extra'"),
    ("cnn_missing_section", "v1", "cnn.params", _replace("dense_b 0 -0.5\n", ""),
     "cnn.params: missing CNN parameter sections: ['dense_b']"),
    ("cnn_without_rng_seed", "v1", "cnn.params", _replace("rng_seed 7\n", ""),
     "cnn.params: missing CNN parameter sections: ['rng_seed']"),
    # two faults: a section error comes before a value error on an earlier line
    ("cnn_unknown_section_after_a_non_numeric_value", "v1", "cnn.params",
     _replace("filters 0.5 -1.25 0.10000000000000001 3\n",
              "filters abc -1.25 0.10000000000000001 3\nextra 1 2\n"),
     "cnn.params: line 4: unknown CNN parameter section 'extra'"),
    ("fusion_missing_section", "v1", "fusion.params", _replace("hidden_b 0 1\n", ""),
     "fusion.params: missing fusion net sections: ['hidden_b']"),
    ("cnn_dimension_mismatch", "v1", "cnn.params", _dim_4_cnn_params,
     "cnn.params: CNN filters of dimension 4 do not match the embedding table's dimension 2"),
    ("cnn_empty", "v1", "cnn.params", _replace(GOLDEN["cnn.params"], ""),
     "cnn.params: empty CNN parameter file"),
    ("fusion_header_only", "v1", "fusion.params",
     _replace(GOLDEN["fusion.params"], "simfuse-fusion v1\n"),
     "fusion.params: fusion parameter file missing the weight triple"),
    ("stats_without_header", "v1", "stats.tsv", _replace("#total_pairs=3\n", ""),
     "stats.tsv: stats file must start with a #total_pairs= header"),
    ("stats_line_without_a_tab", "v1", "stats.tsv", _replace("x\t1", "x 1"),
     "stats.tsv: line 2: expected term<TAB>doc_freq"),
    # v2: every file truncated, flipped and deleted
    *[(f"v2_{name}_{how}", "v2", name, corrupt,
       re.compile(rf"{re.escape(name)}: \[Errno 2\] No such file or directory: '.*/"
                  rf"{re.escape(name)}'") if how == "deleted"
       else f"{name}: sha256 does not match manifest.tsv")
      for name in ("cnn.params", "fusion.params", "stats.tsv", "vocab.txt", "embeddings.npy")
      for how, corrupt in (("truncated", _truncate), ("flipped", _flip), ("deleted", _delete))],
    # an npy whose header or data changed: its sha256 is reported, even when a
    # file parsed before it is bad too (rehashed, it fails only to parse)
    ("v2_embeddings.npy_header_byte", "v2", "embeddings.npy",
     _replace_bytes(b"(2, 2)", b"(3, 2)"), "embeddings.npy: sha256 does not match manifest.tsv"),
    ("v2_embeddings.npy_data_byte", "v2", "embeddings.npy", _flip_last,
     "embeddings.npy: sha256 does not match manifest.tsv"),
    *[(f"v2_embeddings.npy_flipped_after_a_bad_{other}", "v2", "embeddings.npy",
       _after(other, _rehashed(bad), _flip), "embeddings.npy: sha256 does not match manifest.tsv")
      for other, bad in (("cnn.params", _replace("filters 0.5 ", "filters abc ")),
                         ("vocab.txt", lambda p: p.write_text("a\na\n")))],
    ("v2_manifest_truncated", "v2", "manifest.tsv", _truncate,
     "manifest.tsv: line 5: expected n_max<TAB>N or sha256<TAB>file<TAB>64 hex digits"),
    # the flipped byte is a digit of the stats.tsv digest
    ("v2_manifest_flipped", "v2", "manifest.tsv", _flip,
     "stats.tsv: sha256 does not match manifest.tsv"),
    ("v2_manifest_deleted", "v2", "manifest.tsv", _delete,
     re.compile(r"manifest\.tsv: not in .*, and neither is a v1 embeddings\.txt")),
    ("v2_manifest_unknown_version", "v2", "manifest.tsv",
     _replace("simfuse-bundle v2", "simfuse-bundle v3"),
     "manifest.tsv: line 1: expected 'simfuse-bundle v2', got 'simfuse-bundle v3'"),
    ("v2_manifest_without_n_max", "v2", "manifest.tsv", _replace("n_max\t32\n", ""),
     "manifest.tsv: no n_max line"),
    ("v2_manifest_n_max_zero", "v2", "manifest.tsv", _replace("n_max\t32\n", "n_max\t0\n"),
     "manifest.tsv: line 2: n_max must be >= 1, got 0"),
    ("v2_manifest_bad_hash_line", "v2", "manifest.tsv",
     _replace("\tvocab.txt\t911169dd", "\tvocab.txt\t911169d"),
     "manifest.tsv: line 6: expected n_max<TAB>N or sha256<TAB>file<TAB>64 hex digits"),
    ("v2_manifest_without_a_hash_line", "v2", "manifest.tsv",
     _replace(GOLDEN["manifest.tsv"].splitlines(keepends=True)[4], ""),
     "manifest.tsv: no sha256 line for stats.tsv"),
    # a bundle trained at n_max 32 must not be read at the n_max of a line added after
    ("v2_manifest_repeated_n_max", "v2", "manifest.tsv",
     _replace("n_max\t32\n", "n_max\t32\nn_max\t16\n"),
     "manifest.tsv: line 3: repeated n_max line"),
    ("v2_manifest_repeated_hash_line", "v2", "manifest.tsv",
     _replace(GOLDEN["manifest.tsv"].splitlines(keepends=True)[4],
              GOLDEN["manifest.tsv"].splitlines(keepends=True)[4] * 2),
     "manifest.tsv: line 6: repeated sha256 line for stats.tsv"),
    ("v2_cnn_dimension_mismatch", "v2", "cnn.params", _rehashed(_dim_4_cnn_params),
     "cnn.params: CNN filters of dimension 4 do not match the embedding table's dimension 2"),
    # v2, with a matching sha256: only the content checks stand in the way
    ("v2_npy_object_dtype", "v2", "embeddings.npy",
     _rehashed(lambda p: np.save(p, np.array([[1.0, 3.0], [0.1, -2.0]], dtype=object),
                                 allow_pickle=True)),
     "embeddings.npy: expected C-order float64 (<f8) values, got |O"),
    ("v2_npy_float32", "v2", "embeddings.npy",
     _rehashed(lambda p: np.save(p, np.array([[1.0, 3.0], [0.1, -2.0]], dtype=np.float32))),
     "embeddings.npy: expected C-order float64 (<f8) values, got <f4"),
    ("v2_npy_fortran_order", "v2", "embeddings.npy",
     _rehashed(lambda p: np.save(p, np.asfortranarray([[1.0, 3.0], [0.1, -2.0]]))),
     "embeddings.npy: expected C-order float64 (<f8) values, got Fortran-order <f8"),
    ("v2_npy_one_dimensional", "v2", "embeddings.npy",
     _rehashed(lambda p: np.save(p, np.array([1.0, 3.0, 0.1, -2.0]))),
     "embeddings.npy: expected a 2-D array, got shape (4,)"),
    ("v2_npy_rows_not_vocab", "v2", "embeddings.npy",
     _rehashed(lambda p: np.save(p, np.ones((3, 2)))),
     "embeddings.npy: 3 rows for 2 surfaces"),
    ("v2_npy_shape_larger_than_the_data", "v2", "embeddings.npy", _rehashed(_huge_shape_npy),
     "embeddings.npy: data size does not match the shape (2, 1000000000000)"),
    ("v2_npy_version_2", "v2", "embeddings.npy",
     _rehashed(lambda p: p.write_bytes(_npy_bytes(np.array([[1e-300, 3.0], [0.1, -2.0]]),
                                                  version=(2, 0)))),
     "embeddings.npy: npy version 2.0, expected 1.0"),
    ("v2_npy_nan", "v2", "embeddings.npy",
     _rehashed(lambda p: np.save(p, np.array([[np.nan, 3.0], [0.1, -2.0]]))),
     "embeddings.npy: non-finite value in the row of 'a'"),
    ("v2_npy_not_npy", "v2", "embeddings.npy",
     _rehashed(lambda p: p.write_bytes(b"PK\x03\x04 a zip archive, not an npy file")),
     "embeddings.npy: the magic string is not correct; expected b'\\x93NUMPY', "
     "got b'PK\\x03\\x04 a'"),
    ("v2_vocab_repeated_surface", "v2", "vocab.txt", _rehashed(lambda p: p.write_text("a\na\n")),
     "vocab.txt: line 2: repeated surface 'a'"),
    # a repeated record is an error, not overwritten by the last one; v2
    # with a matching sha256
    *[(f"{version}_{case}", version, name, _rehashed(corrupt) if version == "v2" else corrupt,
       message)
      for case, name, corrupt, message in (
          ("cnn_repeated_section", "cnn.params",
           _replace("filter_bias", "filters 0.5 -1.25 0.1 3\nfilter_bias"),
           "cnn.params: line 4: repeated CNN parameter section 'filters'"),
          ("cnn_repeated_rng_seed", "cnn.params", _replace("rng_seed 7\n", "rng_seed 7\n" * 2),
           "cnn.params: line 3: repeated CNN parameter section 'rng_seed'"),
          ("fusion_repeated_section", "fusion.params",
           _replace("out_b -0.125\n", "out_b -0.125\nout_b 5\n"),
           "fusion.params: line 7: repeated fusion net section 'out_b'"),
          ("stats_repeated_term", "stats.tsv", _replace("x\t1\n", "x\t1\nx\t3\n"),
           "stats.tsv: line 3: repeated term 'x'"))
      for version in ("v1", "v2")],
    # a byte that is not UTF-8 in each text file; v2 with a matching sha256
    *[(f"v1_{name}_not_utf8", "v1", name, _non_utf8,
       f"{name}: not UTF-8 text (invalid start byte)") for name in V1_GOLDEN],
    *[(f"v2_{name}_not_utf8", "v2", name,
       _non_utf8 if name == "manifest.tsv" else _rehashed(_non_utf8),
       f"{name}: not UTF-8 text (invalid start byte)")
      for name in ("cnn.params", "fusion.params", "stats.tsv", "vocab.txt", "manifest.tsv")],
]


@pytest.fixture()
def scoring_inputs(tmp_path):
    model = tmp_path / "model"
    save_v1_bundle(tiny_bundle(), model)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("1\ta b\tb a\t1\n2\ta\tc\t0\n", encoding="utf-8")
    return model, pairs


def _score(model, pairs):
    return main(["score", "--model", str(model), "--pairs", str(pairs)])


def test_uncorrupted_inputs_score(scoring_inputs, capsys):
    assert _score(*scoring_inputs) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.parametrize("version, name, corrupt, message",
                         [case[1:] for case in CORRUPTIONS],
                         ids=[case[0] for case in CORRUPTIONS])
def test_corrupt_bundle_file_exits_1_with_one_error_line(scoring_inputs, tmp_path, capsys,
                                                         version, name, corrupt, message):
    model, pairs = scoring_inputs  # a v1 bundle
    if version == "v2":
        model = tmp_path / "v2"
        save_bundle(tiny_bundle(), model)
    corrupt(model / name)
    assert _score(model, pairs) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    text = lines[0][len("error: "):]
    assert (message.fullmatch(text) if isinstance(message, re.Pattern) else text == message), text


# load_bundle's read order per version and phase: with every file from the
# k-th on made unreadable, the error is the k-th's.  A v2 file altered
# without its manifest line fails the sha256 phase, one rehashed the parse phase.
READ_ORDER = {
    "v1": ("embeddings.txt", "cnn.params", "fusion.params", "stats.tsv"),
    "v2_sha256": ("manifest.tsv", "cnn.params", "fusion.params", "stats.tsv", "vocab.txt",
                  "embeddings.npy"),
    "v2_parse": ("cnn.params", "fusion.params", "stats.tsv", "vocab.txt", "embeddings.npy"),
}


@pytest.mark.parametrize("order, first", [(order, k) for order, names in READ_ORDER.items()
                                          for k in range(len(names))])
def test_of_several_bad_files_the_first_one_read_is_reported(tmp_path, order, first):
    (save_v1_bundle if order == "v1" else save_bundle)(tiny_bundle(), tmp_path)
    names = READ_ORDER[order]
    # the manifest, first in the list, is corrupted after the files it lists
    for name in reversed(names[first:]):
        (_rehashed(_non_utf8) if order == "v2_parse" else _non_utf8)(tmp_path / name)
    if order == "v2_sha256" and first > 0:
        message = f"{names[first]}: sha256 does not match manifest.tsv"
    elif names[first] == "embeddings.npy":
        message = (r"embeddings.npy: the magic string is not correct; "
                   r"expected b'\x93NUMPY', got b'\x93NUMP\xff'")
    else:
        message = f"{names[first]}: not UTF-8 text (invalid start byte)"
    with pytest.raises(FormatError) as raised:
        load_bundle(tmp_path)
    assert str(raised.value) == message


class _CountingReads:
    """A binary file that adds the size of each read it returns to ``tally``."""

    def __init__(self, file, tally):
        self.file, self.tally = file, tally

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def __getattr__(self, name):
        return getattr(self.file, name)

    def read(self, size=-1):
        data = self.file.read(size)
        self.tally.append(len(data))
        return data

    def readinto(self, buffer):
        count = self.file.readinto(buffer)
        self.tally.append(count)
        return count


def _nan_first_value(path):
    """Puts a NaN in place of the first value of an npy file's rows."""
    with open(path, "r+b") as f:
        np.lib.format.read_magic(f)
        np.lib.format.read_array_header_1_0(f)
        f.write(struct.pack("<d", np.nan))


# a clean v2 load opens each hashed file once and reads each of its bytes
# once; a load failing on a rehashed bad file, before embeddings.npy is
# parsed or while it is, reads embeddings.npy once too
@pytest.mark.parametrize("name, corrupt, message", [
    (None, None, None),
    ("cnn.params", _replace("filters 0.5 ", "filters abc "), "line 3: non-numeric value"),
    ("embeddings.npy", _nan_first_value, "non-finite value in the row of 'w0'"),
], ids=["clean", "bad_cnn_params", "bad_embeddings_npy"])
def test_load_bundle_opens_and_reads_each_file_once(tmp_path, monkeypatch, name, corrupt,
                                                     message):
    table = EmbeddingTable(dim=2, vectors={f"w{i}": np.array([i, -0.5])
                                           for i in range(BLOCK_ROWS + 3)})
    save_bundle(dataclasses.replace(tiny_bundle(), table=table), tmp_path)
    reads = {hashed: [] for hashed in pipeline.HASHED_FILES}
    opens = dict.fromkeys(pipeline.HASHED_FILES, 0)

    def counting_open(file, mode="r", *args, **kwargs):
        opened = open(file, mode, *args, **kwargs)
        if Path(file).name not in reads:
            return opened
        opens[Path(file).name] += 1
        return _CountingReads(opened, reads[Path(file).name]) if "b" in mode else opened

    monkeypatch.setattr(pipeline, "open", counting_open, raising=False)
    if name is None:
        assert load_bundle(tmp_path).table.vectors.keys() == table.vectors.keys()
        for hashed in pipeline.HASHED_FILES:
            assert opens[hashed] == 1, hashed
            assert sum(reads[hashed]) == (tmp_path / hashed).stat().st_size, hashed
    else:
        _rehashed(corrupt)(tmp_path / name)
        with pytest.raises(FormatError) as raised:
            load_bundle(tmp_path)
        assert str(raised.value) == f"{name}: {message}"
        assert opens["embeddings.npy"] == 1
    assert sum(reads["embeddings.npy"]) == (tmp_path / "embeddings.npy").stat().st_size


# a sha256 mismatch, or a missing file, outranks a parse error in an earlier
# file: a text file rehashed but not UTF-8, with a later hashed file altered
# without its manifest line or deleted, fails on the later file
@pytest.mark.parametrize("earlier, later, fault", [
    (earlier, later, fault) for i, earlier in enumerate(pipeline.HASHED_FILES[:-1])
    for later in pipeline.HASHED_FILES[i + 1:] for fault in ("flipped", "deleted")])
def test_a_later_sha256_mismatch_or_missing_file_outranks_a_parse_error(tmp_path, earlier,
                                                                        later, fault):
    save_bundle(tiny_bundle(), tmp_path)
    _rehashed(_non_utf8)(tmp_path / earlier)
    (_flip if fault == "flipped" else _delete)(tmp_path / later)
    with pytest.raises(FormatError) as raised:
        load_bundle(tmp_path)
    assert str(raised.value) == (
        f"{later}: sha256 does not match manifest.tsv" if fault == "flipped"
        else f"{later}: [Errno 2] No such file or directory: '{tmp_path / later}'")


def test_non_finite_score_names_the_pair(scoring_inputs, capsys):
    model, pairs = scoring_inputs
    pairs.write_text("p7\tb\tb\t1\np8\ta b\tb a\t1\np9\ta\ta\t0\n", encoding="utf-8")
    path = model / "embeddings.txt"
    path.write_text(path.read_text(encoding="utf-8").replace("a 1e-300 3", "a 1e200 1e200"),
                    encoding="utf-8")
    assert _score(model, pairs) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("p7\t")  # pairs before it were scored
    assert captured.err.splitlines() == [
        "error: pair p8: non-finite component score: w2vcnn=nan"]


def test_non_utf8_pair_file_exits_1_naming_the_file(scoring_inputs, capsys):
    model, pairs = scoring_inputs
    pairs.write_bytes(b"1\ta \xff b\tb a\t1\n")
    assert _score(model, pairs) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {pairs}: not UTF-8 text (invalid start byte)"]


def test_annotated_token_without_a_surface_exits_1_naming_the_line(scoring_inputs, capsys):
    model, pairs = scoring_inputs
    pairs.write_text("1\ta b\tb a\t1\n2\ta|N|SUBJ |N|SUBJ\tb\t0\n", encoding="utf-8")
    assert _score(model, pairs) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {pairs}: line 2: empty surface in '|N|SUBJ'"]


# Pairs scored with the golden bundle, and the frozen ``simfuse score``
# output per fusion mode.  The stats hold x (df 1) and y (df 3 of 3 pairs,
# so idf 0); the table holds a and b.  g1 repeats "a", has "b" and "y" on
# one side only and "a", which the stats have never seen; "x" is out of the
# table's vocabulary and occurs on both sides.  g2's one shared term is y,
# so its TF-IDF score is 0.  g3 repeats the unseen, out-of-vocabulary "z".
GOLDEN_PAIRS = ("g1\ta a b x\ta x y\t1\n"
                "g2\tx y z z\tb y q\t0\n"
                "g3\tz q z\tz y\t1\n")
GOLDEN_SCORES = {
    LEARNED: (
        "g1\t0.5\t0.98005184034234238\t0.951402643322101\t0.051261806303014863\tdifferent\n"
        "g2\t0.20000000000000001\t0.98099849601586586\t0\t0.026738478018656215\tdifferent\n"
        "g3\t0.33333333333333331\t0.19210785906385169\t0.94868329805051377"
        "\t0.072777772613615205\tdifferent\n"
    ),
    WEIGHTED_SUM: (
        "g1\t0.5\t0.98005184034234238\t0.951402643322101\t0.8528765810016965\tsimilar\n"
        "g2\t0.20000000000000001\t0.98099849601586586\t0\t0.54049924800793292\tsimilar\n"
        "g3\t0.33333333333333331\t0.19210785906385169\t0.94868329805051377"
        "\t0.41655808737788763\tdifferent\n"
    ),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_SCORES))
def test_golden_bundle_scores_have_the_frozen_text(tmp_path, capsys, mode):
    save_bundle(tiny_bundle(mode), tmp_path / "model")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(GOLDEN_PAIRS, encoding="utf-8")
    assert _score(tmp_path / "model", pairs) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == GOLDEN_SCORES[mode]
