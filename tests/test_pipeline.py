import numpy as np
import pytest

from simfuse.cnn import DEFAULT_N_MAX, TrainConfig, cnn_train, init_params
from simfuse.corpus import BINARY, GRADED, Dataset, LabeledPair, Sentence
from simfuse.errors import EmptyCorpus, EmptyEval, LabelKindError
from simfuse.fusion import (DEFAULT_WEIGHTS, SIMILAR, WEIGHTED_SUM,
                            FusionParams, calibrate_weights)
from simfuse.pipeline import (ModelBundle, component_scores, evaluate,
                              load_bundle, save_bundle, score_with_bundle,
                              train_bundle, weights_from_scores)
from simfuse.tfidf import build_stats

from toy import separable_toy_set


def _pair(pid, a, b, label=1.0):
    return LabeledPair(id=pid, a=Sentence.from_surfaces(a),
                       b=Sentence.from_surfaces(b), label=label)


@pytest.fixture(scope="module")
def small_bundle():
    dataset, table = separable_toy_set(n_per_class=5, dim=8)
    stats = build_stats(dataset)
    params, _ = cnn_train(dataset, table, TrainConfig(epochs=3, seed=11))
    bundle = ModelBundle(stats=stats, table=table, cnn_params=params,
                         weights=DEFAULT_WEIGHTS,
                         fusion_params=FusionParams(mode=WEIGHTED_SUM))
    return dataset, bundle


class TestScorePair:
    def test_identical_pair(self, small_bundle):
        dataset, bundle = small_bundle
        identical = dataset.pairs[0]
        scores = score_with_bundle(bundle, identical)
        assert scores.jaccard == 1.0
        assert scores.tfidf == pytest.approx(1.0)
        assert scores.predicted == SIMILAR

    def test_disjoint_pair(self, small_bundle):
        dataset, bundle = small_bundle
        disjoint = dataset.pairs[-1]
        scores = score_with_bundle(bundle, disjoint)
        assert scores.jaccard == 0.0
        assert scores.tfidf == 0.0

    def test_all_fields_in_range(self, small_bundle):
        dataset, bundle = small_bundle
        for pair in dataset:
            s = score_with_bundle(bundle, pair)
            for value in (s.jaccard, s.w2vcnn, s.tfidf, s.fused):
                assert 0.0 <= value <= 1.0
            assert s.predicted in ("similar", "different")

    def test_deterministic(self, small_bundle):
        dataset, bundle = small_bundle
        pair = dataset.pairs[3]
        assert score_with_bundle(bundle, pair) == score_with_bundle(bundle, pair)

    def test_identical_beats_disjoint_with_default_weights(self, small_bundle):
        dataset, bundle = small_bundle
        identical = [score_with_bundle(bundle, p).fused
                     for p in dataset if p.label == 1.0]
        disjoint = [score_with_bundle(bundle, p).fused
                    for p in dataset if p.label == 0.0]
        assert min(identical) > max(disjoint)


class TestEvaluate:
    def test_identical_pairs_all_similar(self, small_bundle):
        dataset, bundle = small_bundle
        identical_only = Dataset(
            pairs=tuple(p for p in dataset if p.label == 1.0), label_kind=BINARY)
        report = evaluate(identical_only, bundle)
        assert report.accuracy == 1.0

    def test_inverted_labels_zero_accuracy(self, small_bundle):
        dataset, bundle = small_bundle
        inverted = Dataset(
            pairs=tuple(
                LabeledPair(id=p.id, a=p.a, b=p.b, label=1.0 - p.label)
                for p in dataset
            ),
            label_kind=BINARY,
        )
        perfect = evaluate(dataset, bundle)
        flipped = evaluate(inverted, bundle)
        assert perfect.accuracy + flipped.accuracy == pytest.approx(1.0)

    def test_graded_pearson_one_when_gold_matches_predictions(self, small_bundle):
        dataset, bundle = small_bundle
        graded_pairs = tuple(
            LabeledPair(id=p.id, a=p.a, b=p.b,
                        label=5.0 * score_with_bundle(bundle, p).fused)
            for p in dataset
        )
        graded = Dataset(pairs=graded_pairs, label_kind=GRADED)
        report = evaluate(graded, bundle)
        assert report.pearson == pytest.approx(1.0)
        assert report.spearman == pytest.approx(1.0)
        assert report.tp == report.tn == report.fp == report.fn == 0

    def test_empty_dataset(self, small_bundle):
        _, bundle = small_bundle
        with pytest.raises(EmptyEval):
            evaluate(Dataset(pairs=(), label_kind=BINARY), bundle)


class TestCalibrate:
    def test_crafted_per_model_metrics(self):
        # model 1 classifies perfectly, models 2 and 3 get half right
        gold = [True, True, False, False]
        triples = [
            (0.9, 0.9, 0.4),
            (0.6, 0.2, 0.2),
            (0.2, 0.7, 0.3),
            (0.3, 0.1, 0.2),
        ]
        weights = weights_from_scores(triples, gold, "accuracy")
        expected = calibrate_weights(1.0, 0.5, 0.5)
        assert weights.alpha == pytest.approx(expected.alpha)
        assert weights.beta == pytest.approx(expected.beta)
        assert weights.gamma == pytest.approx(expected.gamma)

    def test_consistent_with_component_scores(self, small_bundle):
        dataset, small = small_bundle
        bundle, _, _ = _train_bundle(dataset, small.table, factor="f1")
        triples = [
            component_scores(p, bundle.stats, bundle.table, bundle.cnn_params,
                             bundle.n_max)
            for p in dataset
        ]
        expected = weights_from_scores(triples, [p.label >= 0.5 for p in dataset], "f1")
        assert bundle.weights == expected
        # the CNN is the one the fixture trained with the same config
        assert np.array_equal(bundle.cnn_params.filters, small.cnn_params.filters)

    def test_rejects_unknown_factor(self, small_bundle):
        dataset, bundle = small_bundle
        with pytest.raises(ValueError):
            _train_bundle(dataset, bundle.table, factor="vibes")

    def test_rejects_graded(self, small_bundle):
        dataset, bundle = small_bundle
        graded = Dataset(pairs=dataset.pairs, label_kind=GRADED)
        with pytest.raises(LabelKindError):
            _train_bundle(graded, bundle.table)

    def test_rejects_empty(self, small_bundle):
        _, bundle = small_bundle
        with pytest.raises(EmptyCorpus):
            _train_bundle(Dataset(pairs=(), label_kind=BINARY), bundle.table)


def _train_bundle(dataset, table, factor="accuracy"):
    """train_bundle with the small_bundle fixture's CNN training config."""
    return train_bundle(dataset, table, TrainConfig(epochs=3, seed=11), n_max=DEFAULT_N_MAX,
                        fusion_mode=WEIGHTED_SUM, factor=factor)


class TestBundleIO:
    def test_round_trip_preserves_scores(self, small_bundle, tmp_path):
        dataset, bundle = small_bundle
        save_bundle(bundle, tmp_path / "model")
        loaded = load_bundle(tmp_path / "model")
        for pair in dataset.pairs[:4]:
            assert score_with_bundle(loaded, pair) == score_with_bundle(bundle, pair)

    def test_save_load_save_byte_identical(self, small_bundle, tmp_path):
        _, bundle = small_bundle
        first = tmp_path / "first"
        second = tmp_path / "second"
        save_bundle(bundle, first)
        save_bundle(load_bundle(first), second)
        names = sorted(p.name for p in first.iterdir())
        assert sorted(p.name for p in second.iterdir()) == names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_expected_files_present(self, small_bundle, tmp_path):
        _, bundle = small_bundle
        save_bundle(bundle, tmp_path / "model")
        names = sorted(p.name for p in (tmp_path / "model").iterdir())
        assert names == ["cnn.params", "embeddings.npy", "fusion.params", "manifest.tsv",
                         "stats.tsv", "vocab.txt"]

    def test_stats_round_trip(self, small_bundle, tmp_path):
        _, bundle = small_bundle
        save_bundle(bundle, tmp_path / "model")
        loaded = load_bundle(tmp_path / "model")
        assert loaded.stats.total_pairs == bundle.stats.total_pairs
        assert dict(loaded.stats.pair_doc_freq) == dict(bundle.stats.pair_doc_freq)


class TestMonotonicityWithUntrainedParams:
    def test_any_cnn_params_keep_ordering(self):
        # with the default weights, jaccard=tfidf=1 vs jaccard=tfidf=0
        # dominates whatever the CNN says (alpha+gamma > beta)
        dataset, table = separable_toy_set(n_per_class=3, dim=8)
        stats = build_stats(dataset)
        params = init_params(dim=8, n_filters=4, kernel_width=3, hidden=4, seed=99)
        bundle = ModelBundle(stats=stats, table=table, cnn_params=params,
                             weights=DEFAULT_WEIGHTS,
                             fusion_params=FusionParams(mode=WEIGHTED_SUM))
        identical = [score_with_bundle(bundle, p).fused for p in dataset if p.label == 1.0]
        disjoint = [score_with_bundle(bundle, p).fused for p in dataset if p.label == 0.0]
        assert min(identical) > max(disjoint)
