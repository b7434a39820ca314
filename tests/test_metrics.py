import numpy as np
import pytest
from scipy import stats as scipy_stats

from simfuse.errors import DimensionError, EmptyEval, UndefinedCorrelation
from simfuse.metrics import _average_ranks, confusion_counts, prf_metrics, rank_correlations


def _brute_force_counts(preds, labels):
    tp = sum(1 for p, l in zip(preds, labels) if p and l)
    tn = sum(1 for p, l in zip(preds, labels) if not p and not l)
    fp = sum(1 for p, l in zip(preds, labels) if p and not l)
    fn = sum(1 for p, l in zip(preds, labels) if not p and l)
    return tp, tn, fp, fn


def _loop_counts(predictions, labels):
    """Confusion counts by one branch per pair: the reference loop."""
    tp = tn = fp = fn = 0
    for pred, gold in zip(predictions, labels):
        pred, gold = bool(pred), bool(gold)
        if pred and gold:
            tp += 1
        elif not pred and not gold:
            tn += 1
        elif pred and not gold:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def _loop_ranks(values):
    """Average-tie ranks by a stable argsort and a scan over each run of
    equal values: the reference loop."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestConfusionCounts:
    def test_perfect(self):
        assert confusion_counts([1, 1, 0], [1, 1, 0]) == (2, 1, 0, 0)

    def test_complement(self):
        tp, tn, fp, fn = confusion_counts([0, 0, 1], [1, 1, 0])
        assert tp == 0 and tn == 0 and fp == 1 and fn == 2

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            preds = rng.integers(0, 2, size=n).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            assert confusion_counts(preds, labels) == _brute_force_counts(preds, labels)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            confusion_counts([1], [1, 0])

    def test_matches_the_loop_on_bool_arrays_and_other_truthy_values(self):
        rng = np.random.default_rng(75)
        values = [True, False, 1, 0, 0.7, 0.0, "", "x", None, [], [0], np.float64(-0.0)]
        for _ in range(300):
            n = int(rng.integers(0, 25))
            preds, labels = rng.integers(0, 2, size=(2, n)).astype(bool)
            assert confusion_counts(preds, labels) == _loop_counts(preds, labels)
            preds = [values[i] for i in rng.integers(0, len(values), size=n)]
            labels = [values[i] for i in rng.integers(0, len(values), size=n)]
            assert confusion_counts(preds, labels) == _loop_counts(preds, labels)


class TestPrfMetrics:
    def test_perfect(self):
        report = prf_metrics((2, 1, 0, 0))
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0

    def test_zero_over_zero_convention(self):
        report = prf_metrics((0, 3, 0, 1))
        assert report.precision == 0.0
        assert report.f1 == 0.0

    def test_balanced_half(self):
        report = prf_metrics((1, 1, 1, 1))
        assert report.accuracy == 0.5
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5

    def test_empty_counts(self):
        with pytest.raises(EmptyEval):
            prf_metrics((0, 0, 0, 0))

    def test_formulas_against_definition(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            tp, tn, fp, fn = (int(x) for x in rng.integers(0, 20, size=4))
            if tp + tn + fp + fn == 0:
                continue
            r = prf_metrics((tp, tn, fp, fn))
            assert r.accuracy == pytest.approx((tp + tn) / (tp + tn + fp + fn))
            if tp + fp:
                assert r.precision == pytest.approx(tp / (tp + fp))
            if tp + fn:
                assert r.recall == pytest.approx(tp / (tp + fn))
            if r.precision + r.recall:
                assert r.f1 == pytest.approx(
                    2 * r.precision * r.recall / (r.precision + r.recall))


class TestAverageRanks:
    def test_matches_the_loop_bitwise_with_ties_signed_zeros_inf_and_nan(self):
        rng = np.random.default_rng(76)
        pool = np.array([0.0, -0.0, 1.5, -1.5, 2.0, np.inf, -np.inf, np.nan])
        for _ in range(2000):
            n = int(rng.integers(0, 20))
            values = np.where(rng.random(n) < 0.7, pool[rng.integers(0, len(pool), size=n)],
                              rng.standard_normal(n))
            got, expected = _average_ranks(values), _loop_ranks(values)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_nans_rank_last_in_their_input_order(self):
        ranks = _average_ranks(np.array([np.nan, 2.0, -0.0, np.nan, 0.0]))
        assert ranks.tolist() == [4.0, 3.0, 1.5, 5.0, 1.5]
        # past 16 values an unstable sort no longer keeps the NaNs in order
        values = np.where(np.arange(40) % 3 == 0, np.nan, np.arange(40) * 7 % 5 - 2.0)
        nans = np.isnan(values)
        assert _average_ranks(values)[nans].tolist() == list(range(41 - nans.sum(), 41))


class TestRankCorrelations:
    def test_identical_sequences(self):
        pearson, spearman = rank_correlations([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert pearson == pytest.approx(1.0)
        assert spearman == pytest.approx(1.0)

    def test_negated(self):
        pearson, spearman = rank_correlations([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0])
        assert pearson == pytest.approx(-1.0)
        assert spearman == pytest.approx(-1.0)

    def test_hand_value(self):
        pearson, spearman = rank_correlations([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
        assert pearson == pytest.approx(0.5)
        assert spearman == pytest.approx(0.5)

    def test_matches_scipy(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            x = rng.standard_normal(n)
            # inject ties to exercise average ranking
            y = np.round(rng.standard_normal(n), 1)
            if np.unique(y).size < 2:
                continue
            pearson, spearman = rank_correlations(x, y)
            assert pearson == pytest.approx(scipy_stats.pearsonr(x, y).statistic, abs=1e-10)
            assert spearman == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-10)

    def test_pearson_affine_invariance(self):
        rng = np.random.default_rng(83)
        x = rng.standard_normal(25)
        y = rng.standard_normal(25)
        base, _ = rank_correlations(x, y)
        scaled, _ = rank_correlations(3.0 * x + 7.0, y)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_spearman_monotone_invariance(self):
        rng = np.random.default_rng(89)
        x = rng.uniform(0.1, 5.0, size=25)
        y = rng.uniform(0.1, 5.0, size=25)
        _, base = rank_correlations(x, y)
        _, warped = rank_correlations(np.exp(x), y)
        assert warped == pytest.approx(base, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(UndefinedCorrelation):
            rank_correlations([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(UndefinedCorrelation):
            rank_correlations([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            rank_correlations([1.0, 2.0], [1.0, 2.0, 3.0])
