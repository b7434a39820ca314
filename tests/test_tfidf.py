import math

import numpy as np
import pytest

from simfuse.corpus import BINARY, Dataset, LabeledPair, Sentence
from simfuse.errors import EmptyCorpus
from simfuse.tfidf import CorpusStats, build_stats, cosine_sim, idf, tfidf_vector


def _pair(pid, a, b, label=1.0):
    return LabeledPair(id=pid, a=Sentence(a),
                       b=Sentence(b), label=label)


def term_frequency(term, pair):
    """Occurrences of ``term`` across both sentences, over the size of the
    union of the two surface sets: the per-term reference that
    ``tfidf_vector``'s pair-wide count must equal bitwise."""
    occurrences = pair.a.words.count(term) + pair.b.words.count(term)
    union = set(pair.a.words) | set(pair.b.words)
    return occurrences / len(union)


@pytest.fixture()
def four_pair_corpus():
    # term "a" in pair 1 only; "b" in pairs 1 and 2; everything else unique
    pairs = (
        _pair("1", ["a", "b", "c"], ["a", "b", "d"]),
        _pair("2", ["b", "e"], ["f", "g"]),
        _pair("3", ["h", "i"], ["j", "k"]),
        _pair("4", ["l", "m"], ["n", "o"]),
    )
    return Dataset(pairs=pairs, label_kind=BINARY)


class TestBuildStats:
    def test_counts(self, four_pair_corpus):
        stats = build_stats(four_pair_corpus)
        assert stats.total_pairs == 4
        assert stats.doc_freq("a") == 1
        assert stats.doc_freq("b") == 2

    def test_term_in_both_sentences_counted_once(self, four_pair_corpus):
        stats = build_stats(four_pair_corpus)
        assert stats.doc_freq("a") == 1  # present in both sides of pair 1

    def test_absent_term_is_zero(self, four_pair_corpus):
        assert build_stats(four_pair_corpus).doc_freq("zzz") == 0

    def test_empty_dataset(self):
        with pytest.raises(EmptyCorpus):
            build_stats(Dataset(pairs=(), label_kind=BINARY))


class TestTermFrequency:
    """The reference term frequency, and the weights tfidf_vector builds on
    it (with no document frequencies, every term has idf log 4)."""

    @staticmethod
    def _stats():
        return CorpusStats(total_pairs=4, pair_doc_freq={})

    def test_shared_term(self):
        pair = _pair("1", ["a", "b", "c"], ["a", "b", "d"])
        assert term_frequency("a", pair) == 0.5  # 2 occurrences / union of 4
        assert tfidf_vector(pair.a, pair, self._stats())["a"] == 0.5 * math.log(4 / 1)

    def test_absent_term(self):
        pair = _pair("1", ["a", "b", "c"], ["a", "b", "d"])
        assert term_frequency("zzz", pair) == 0.0
        assert "zzz" not in tfidf_vector(pair.a, pair, self._stats())

    def test_can_exceed_one(self):
        pair = _pair("1", ["x"], ["x"])
        assert term_frequency("x", pair) == 2.0
        assert tfidf_vector(pair.a, pair, self._stats()) == {"x": 2.0 * math.log(4 / 1)}


class TestIdf:
    def test_direct_value(self, four_pair_corpus):
        stats = build_stats(four_pair_corpus)
        assert idf("a", stats) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_floor_at_zero(self):
        stats = CorpusStats(total_pairs=4, pair_doc_freq={"w": 4})
        assert idf("w", stats) == 0.0

    def test_unseen_term(self, four_pair_corpus):
        stats = build_stats(four_pair_corpus)
        assert idf("zzz", stats) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_monotone_in_doc_freq(self):
        values = [
            idf("w", CorpusStats(total_pairs=10, pair_doc_freq={"w": df}))
            for df in range(11)
        ]
        assert all(x >= y for x, y in zip(values, values[1:]))
        assert values[-1] == 0.0


class TestTfIdfVector:
    def test_frozen_weights(self, four_pair_corpus):
        stats = build_stats(four_pair_corpus)
        pair = four_pair_corpus.pairs[0]
        vec = tfidf_vector(pair.a, pair, stats)
        ln2 = math.log(2.0)
        ln43 = math.log(4.0 / 3.0)
        assert vec == pytest.approx({"a": 0.5 * ln2, "b": 0.5 * ln43, "c": 0.25 * ln2})

    def test_all_floored_gives_empty_vector(self):
        stats = CorpusStats(total_pairs=2, pair_doc_freq={"x": 2, "y": 2})
        pair = _pair("1", ["x", "y"], ["x"])
        assert tfidf_vector(pair.a, pair, stats) == {}

    def test_support_subset_of_sentence(self, four_pair_corpus):
        stats = build_stats(four_pair_corpus)
        pair = four_pair_corpus.pairs[0]
        vec = tfidf_vector(pair.b, pair, stats)
        assert set(vec) <= set(pair.b.surfaces())

    def test_disjoint_sentences_disjoint_support(self, four_pair_corpus):
        stats = build_stats(four_pair_corpus)
        pair = four_pair_corpus.pairs[2]
        u = tfidf_vector(pair.a, pair, stats)
        v = tfidf_vector(pair.b, pair, stats)
        assert not (u.keys() & v.keys())


class TestCosineSim:
    def test_self_similarity(self):
        v = {"a": 0.3, "b": 1.2}
        assert cosine_sim(v, v) == pytest.approx(1.0)

    def test_disjoint_support(self):
        u = {"a": 1.0}
        v = {"b": 1.0}
        assert cosine_sim(u, v) == 0.0

    def test_hand_value(self):
        u = {"a": 1.0, "b": 1.0}
        v = {"a": 1.0}
        assert cosine_sim(u, v) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_empty_vector_gives_zero(self):
        assert cosine_sim({}, {"a": 1.0}) == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        terms = list("abcdefgh")
        for _ in range(200):
            u = {
                t: float(rng.uniform(0.01, 2.0))
                for t in rng.choice(terms, size=rng.integers(1, 6), replace=False)
            }
            v = {
                t: float(rng.uniform(0.01, 2.0))
                for t in rng.choice(terms, size=rng.integers(1, 6), replace=False)
            }
            s = cosine_sim(u, v)
            assert s == cosine_sim(v, u)
            assert 0.0 <= s <= 1.0

    def test_never_exceeds_one_on_near_identical(self):
        # rounding in the norm product can push the raw ratio past 1
        v = {f"t{i}": 0.1 + 0.07 * i for i in range(9)}
        assert cosine_sim(v, v) <= 1.0


def _reference_idf(term, stats):
    """idf as one expression, with no table."""
    return max(0.0, math.log(stats.total_pairs / (1 + stats.doc_freq(term))))


def _reference_vector(s, pair, stats):
    """tfidf_vector as per-term term_frequency * idf."""
    weights = {}
    for term in sorted(set(s.surfaces())):
        w = term_frequency(term, pair) * _reference_idf(term, stats)
        if w > 0.0:
            weights[term] = w
    return weights


class TestPairCountingOracle:
    """tfidf_vector counts a pair's terms once and reads idf from a table; its
    weights and cosines must equal the per-term formula bitwise."""

    @pytest.fixture(scope="class")
    def random_pairs(self):
        # a small vocabulary makes repeats, one-sided and shared terms common
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(12)]

        def sentence():
            return [str(t) for t in rng.choice(vocab, size=int(rng.integers(1, 9)))]

        return [_pair(str(i), sentence(), sentence()) for i in range(300)]

    @pytest.fixture(scope="class")
    def stats(self, random_pairs):
        # statistics of the first pairs, without "w11" (so other pairs hold
        # a term the stats have never seen) and with "w0" in every sentence
        # (so its idf is floored at 0, and no sentence is left empty)
        seen = [_pair(p.id, [t for t in p.a.words if t != "w11"] + ["w0"],
                      [t for t in p.b.words if t != "w11"] + ["w0"])
                for p in random_pairs[:40]]
        return build_stats(Dataset(pairs=tuple(seen), label_kind=BINARY))

    def test_inputs_cover_the_cases(self, random_pairs, stats):
        assert stats.doc_freq("w11") == 0
        assert any(p.a.surfaces().count(t) > 1 for p in random_pairs for t in p.a.surfaces())
        assert any(set(p.a.surfaces()) - set(p.b.surfaces()) for p in random_pairs)
        assert _reference_idf("w0", stats) == 0.0

    def test_weights_and_cosines_equal_the_per_term_formula(self, random_pairs, stats):
        for pair in random_pairs:
            u, v = tfidf_vector(pair.a, pair, stats), tfidf_vector(pair.b, pair, stats)
            want_u = _reference_vector(pair.a, pair, stats)
            want_v = _reference_vector(pair.b, pair, stats)
            assert list(u.items()) == list(want_u.items())
            assert list(v.items()) == list(want_v.items())
            assert cosine_sim(u, v) == cosine_sim(want_u, want_v)

    def test_idf_table_holds_the_stats_vocabulary(self, random_pairs, stats):
        for pair in random_pairs:
            tfidf_vector(pair.a, pair, stats)
            tfidf_vector(pair.b, pair, stats)
        table = stats._idf_table
        assert list(table) == list(stats.pair_doc_freq)
        assert all(value == _reference_idf(term, stats) for term, value in table.items())

    def test_unseen_term_gets_log_total_pairs(self, stats):
        assert idf("never-seen", stats) == math.log(stats.total_pairs)
        assert "never-seen" not in stats._idf_table

    def test_idf_table_is_not_part_of_equality(self):
        stats = CorpusStats(total_pairs=4, pair_doc_freq={"w": 1})
        assert stats == CorpusStats(total_pairs=4, pair_doc_freq={"w": 1})
        assert "_idf_table" not in repr(stats)
