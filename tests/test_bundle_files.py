"""Bundle file format, frozen as literal text, and the errors a corrupt
bundle or pair file gives through ``simfuse score``."""

import io

import numpy as np
import pytest

from simfuse.cli import main
from simfuse.cnn import CnnParams
from simfuse.embedding import (BLOCK_ROWS, EmbeddingTable, load_text_embeddings,
                               save_text_embeddings)
from simfuse.fusion import (LEARNED, WEIGHTED_SUM, FusionNet, FusionParams,
                            FusionWeights)
from simfuse.pipeline import ModelBundle, load_bundle, save_bundle
from simfuse.tfidf import CorpusStats

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
    "embeddings.txt": (
        "2 2\n"
        "a 1e-300 3\n"
        "b 0.10000000000000001 -2\n"
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
}


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
        for name, text in GOLDEN.items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name

    def test_weighted_sum_fusion_file_holds_only_the_weights(self, tmp_path):
        save_bundle(tiny_bundle(mode=WEIGHTED_SUM), tmp_path)
        assert (tmp_path / "fusion.params").read_bytes() == b"simfuse-fusion v1\n0.25 0.5 0.25\n"

    def test_golden_files_load_back_bitwise(self, tmp_path):
        for name, text in GOLDEN.items():
            (tmp_path / name).write_bytes(text.encode("utf-8"))
        want, got = tiny_bundle(), load_bundle(tmp_path)
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


class TestEmbeddingsRoundTrip:
    def test_save_load_save_is_byte_identical_over_several_blocks(self):
        # about three blocks: random bit patterns and normals, with edge values
        rng = np.random.default_rng(29)
        n_rows = 3 * BLOCK_ROWS - 7
        bits = rng.integers(-2 ** 63, 2 ** 63, size=n_rows * 5, dtype=np.int64)
        values = bits.view(np.float64)
        values[~np.isfinite(values)] = -0.0
        values[: n_rows * 5 // 2] = rng.standard_normal(n_rows * 5 // 2)
        values[:6] = [5e-324, -5e-324, 1.7976931348623157e308, 1e-310, 3.0, 0.1]
        rows = values.reshape(n_rows, 5)
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


# (case id, bundle file, text replaced, replacement, expected message part)
CORRUPTIONS = [
    ("cnn_non_numeric", "cnn.params", "filters 0.5 ", "filters abc ",
     "cnn.params: line 3: non-numeric value"),
    ("cnn_rng_seed", "cnn.params", "rng_seed 7", "rng_seed seven",
     "cnn.params: line 2: rng_seed must be an integer"),
    ("cnn_header_ints", "cnn.params", "simfuse-cnn v1 1 2 2 2", "simfuse-cnn v1 1 2 two 2",
     "cnn.params: line 1: a header size must be an integer"),
    ("cnn_nan_same_count", "cnn.params", "filters 0.5 ", "filters nan ",
     "cnn.params: line 3: non-finite value"),
    ("stats_total_pairs", "stats.tsv", "#total_pairs=3", "#total_pairs=three",
     "stats.tsv: line 1: #total_pairs must be an integer"),
    ("stats_doc_freq", "stats.tsv", "x\t1", "x\tone",
     "stats.tsv: line 2: doc_freq must be an integer"),
    ("stats_doc_freq_above_total", "stats.tsv", "y\t3", "y\t4",
     "stats.tsv: document frequency out of range"),
    ("fusion_non_numeric", "fusion.params", "hidden_b 0 1", "hidden_b 0 one",
     "fusion.params: line 4: non-numeric value"),
    ("fusion_weights_sum", "fusion.params", "0.25 0.5 0.25", "0.5 0.5 0.5",
     "fusion.params: fusion weights must sum to 1"),
    ("fusion_inconsistent_shapes", "fusion.params", "out_w 2 -3", "out_w 2 -3 4",
     "fusion.params: line 5: expected 2 values, got 3"),
    ("fusion_unknown_section", "fusion.params", "out_b -0.125\n", "out_b -0.125\nextra 1 2\n",
     "fusion.params: line 7: unknown fusion net section 'extra'"),
    ("embeddings_nan", "embeddings.txt", "a 1e-300 3", "a nan 3",
     "embeddings.txt: line 2: non-finite value"),
    ("embeddings_overflow", "embeddings.txt", "a 1e-300 3", "a 1e200 1e200",
     "non-finite component score: w2vcnn=nan"),
]


@pytest.fixture()
def scoring_inputs(tmp_path):
    model = tmp_path / "model"
    save_bundle(tiny_bundle(), model)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("1\ta b\tb a\t1\n2\ta\tc\t0\n", encoding="utf-8")
    return model, pairs


def _score(model, pairs):
    return main(["score", "--model", str(model), "--pairs", str(pairs)])


def test_uncorrupted_inputs_score(scoring_inputs, capsys):
    assert _score(*scoring_inputs) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("name, old, new, message",
                         [case[1:] for case in CORRUPTIONS],
                         ids=[case[0] for case in CORRUPTIONS])
def test_corrupt_bundle_file_exits_1_with_one_error_line(scoring_inputs, capsys,
                                                         name, old, new, message):
    model, pairs = scoring_inputs
    path = model / name
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert _score(model, pairs) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert message in lines[0]


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
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
