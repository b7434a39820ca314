"""Bundle file formats (v2, and the v1 format that still loads), frozen as
literal bytes, and the errors a corrupt bundle or pair file gives through
``simfuse score``."""

import dataclasses
import hashlib
import io
import struct

import numpy as np
import pytest

from simfuse.cli import main
from simfuse.cnn import (DEFAULT_N_MAX, CnnParams, TrainConfig, cnn_train, init_params,
                         save_cnn_params)
from simfuse.embedding import (BLOCK_ROWS, EmbeddingTable, load_text_embeddings,
                               save_text_embeddings)
from simfuse.errors import FormatError
from simfuse.fusion import (DEFAULT_WEIGHTS, LEARNED, WEIGHTED_SUM, FusionNet,
                            FusionParams, FusionWeights)
from simfuse.pipeline import ModelBundle, load_bundle, save_bundle
from simfuse.tfidf import CorpusStats, build_stats

from toy import separable_toy_set

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


def _dim_4_cnn_params(path):
    """CNN parameters of dimension 4, for the dimension-2 table of tiny_bundle."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        save_cnn_params(init_params(dim=4), f)


# (case id, bundle version, bundle file, corruption, expected message part)
CORRUPTIONS = [
    ("cnn_non_numeric", "v1", "cnn.params", _replace("filters 0.5 ", "filters abc "),
     "cnn.params: line 3: non-numeric value"),
    ("cnn_rng_seed", "v1", "cnn.params", _replace("rng_seed 7", "rng_seed seven"),
     "cnn.params: line 2: rng_seed must be an integer"),
    ("cnn_header_ints", "v1", "cnn.params",
     _replace("simfuse-cnn v1 1 2 2 2", "simfuse-cnn v1 1 2 two 2"),
     "cnn.params: line 1: a header size must be an integer"),
    ("cnn_nan_same_count", "v1", "cnn.params", _replace("filters 0.5 ", "filters nan "),
     "cnn.params: line 3: non-finite value"),
    ("stats_total_pairs", "v1", "stats.tsv", _replace("#total_pairs=3", "#total_pairs=three"),
     "stats.tsv: line 1: #total_pairs must be an integer"),
    ("stats_doc_freq", "v1", "stats.tsv", _replace("x\t1", "x\tone"),
     "stats.tsv: line 2: doc_freq must be an integer"),
    ("stats_doc_freq_above_total", "v1", "stats.tsv", _replace("y\t3", "y\t4"),
     "stats.tsv: document frequency out of range"),
    ("fusion_non_numeric", "v1", "fusion.params", _replace("hidden_b 0 1", "hidden_b 0 one"),
     "fusion.params: line 4: non-numeric value"),
    ("fusion_weights_sum", "v1", "fusion.params", _replace("0.25 0.5 0.25", "0.5 0.5 0.5"),
     "fusion.params: fusion weights must sum to 1"),
    ("fusion_inconsistent_shapes", "v1", "fusion.params", _replace("out_w 2 -3", "out_w 2 -3 4"),
     "fusion.params: line 5: expected 2 values, got 3"),
    ("fusion_unknown_section", "v1", "fusion.params",
     _replace("out_b -0.125\n", "out_b -0.125\nextra 1 2\n"),
     "fusion.params: line 7: unknown fusion net section 'extra'"),
    ("embeddings_nan", "v1", "embeddings.txt", _replace("a 1e-300 3", "a nan 3"),
     "embeddings.txt: line 2: non-finite value"),
    ("embeddings_overflow", "v1", "embeddings.txt", _replace("a 1e-300 3", "a 1e200 1e200"),
     "non-finite component score: w2vcnn=nan"),
    ("cnn_dimension_mismatch", "v1", "cnn.params", _dim_4_cnn_params,
     "cnn.params: CNN filters of dimension 4 do not match the embedding table's dimension 2"),
    # v2: every file truncated, flipped and deleted
    *[(f"v2_{name}_{how}", "v2", name, corrupt,
       f"{name}: [Errno 2] No such file or directory" if how == "deleted"
       else f"{name}: sha256 does not match manifest.tsv")
      for name in ("cnn.params", "fusion.params", "stats.tsv", "vocab.txt", "embeddings.npy")
      for how, corrupt in (("truncated", _truncate), ("flipped", _flip), ("deleted", _delete))],
    ("v2_manifest_truncated", "v2", "manifest.tsv", _truncate,
     "manifest.tsv: line 5: expected n_max<TAB>N or sha256<TAB>file<TAB>64 hex digits"),
    # the flipped byte is a digit of the stats.tsv digest
    ("v2_manifest_flipped", "v2", "manifest.tsv", _flip,
     "stats.tsv: sha256 does not match manifest.tsv"),
    ("v2_manifest_deleted", "v2", "manifest.tsv", _delete,
     "manifest.tsv: not in "),
    ("v2_manifest_unknown_version", "v2", "manifest.tsv",
     _replace("simfuse-bundle v2", "simfuse-bundle v3"),
     "manifest.tsv: line 1: expected 'simfuse-bundle v2', got 'simfuse-bundle v3'"),
    ("v2_manifest_without_n_max", "v2", "manifest.tsv", _replace("n_max\t32\n", ""),
     "manifest.tsv: no n_max line"),
    ("v2_manifest_n_max_zero", "v2", "manifest.tsv", _replace("n_max\t32\n", "n_max\t0\n"),
     "manifest.tsv: line 2: n_max must be >= 1"),
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
     "embeddings.npy: the magic string is not correct"),
    ("v2_vocab_repeated_surface", "v2", "vocab.txt", _rehashed(lambda p: p.write_text("a\na\n")),
     "vocab.txt: line 2: repeated surface 'a'"),
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
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert message in lines[0]


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
