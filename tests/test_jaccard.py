import numpy as np
import pytest

from simfuse.corpus import Sentence
from simfuse.jaccard import (CoOccurrence, co_occurrence, component_weight,
                             jaccard_score)

ROLE_CHOICES = [None, "NONE", "SUBJ", "PRED", "OBJ", "ATTR", "ADV", "COMP"]


def _sentence(surfaces, roles=None):
    return Sentence(surfaces, roles)


def _weight_of(pairs):
    """Build a CoOccurrence straight from {word: (role_a, role_b)}."""
    return component_weight(CoOccurrence(words=frozenset(pairs), role_pairs=pairs))


class TestCoOccurrence:
    def test_intersection(self):
        c = co_occurrence(_sentence(["a", "b", "c"]), _sentence(["a", "b", "d"]))
        assert c.words == {"a", "b"}

    def test_disjoint(self):
        c = co_occurrence(_sentence(["a"]), _sentence(["b"]))
        assert c.words == frozenset()

    def test_duplicates_counted_once_with_first_roles(self):
        a = _sentence(["x", "x"], roles=["SUBJ", "OBJ"])
        b = _sentence(["x"], roles=["SUBJ"])
        c = co_occurrence(a, b)
        assert c.words == {"x"}
        assert c.role_pairs["x"] == ("SUBJ", "SUBJ")


class TestComponentWeight:
    def test_small_set_gate(self):
        assert _weight_of({"a": ("SUBJ", "SUBJ"), "b": ("OBJ", "OBJ")}) == 1.0

    def test_no_matching_roles(self):
        assert _weight_of({
            "a": ("SUBJ", "OBJ"), "b": (None, None), "c": ("PRED", "ADV"),
        }) == 1.0

    def test_two_matches_of_four(self):
        w = _weight_of({
            "a": ("SUBJ", "SUBJ"), "b": ("OBJ", "OBJ"),
            "c": ("PRED", "ADV"), "d": (None, "COMP"),
        })
        assert w == 1.5

    def test_none_role_never_matches(self):
        w = _weight_of({
            "a": ("NONE", "NONE"), "b": ("NONE", "NONE"), "c": (None, None),
        })
        assert w == 1.0


class TestJaccardScore:
    def test_half_overlap(self):
        a = _sentence(["a", "b", "c"])
        b = _sentence(["a", "b", "d"])
        assert jaccard_score(a, b) == 0.5

    def test_identical_with_matching_roles_clamps(self):
        roles = ["SUBJ", "PRED", "OBJ"]
        a = _sentence(["x", "y", "z"], roles)
        b = _sentence(["x", "y", "z"], roles)
        assert jaccard_score(a, b, clamp=False) == pytest.approx(4.0 / 3.0)
        assert jaccard_score(a, b) == 1.0

    def test_disjoint(self):
        assert jaccard_score(_sentence(["a"]), _sentence(["b"])) == 0.0

    def test_symmetry_random(self):
        rng = np.random.default_rng(5)
        alphabet = ["w0", "w1", "w2", "w3", "w4"]
        for _ in range(300):
            def random_sentence():
                n = int(rng.integers(1, 7))
                surfaces = [alphabet[i] for i in rng.integers(0, 5, size=n)]
                roles = [ROLE_CHOICES[i] for i in rng.integers(0, len(ROLE_CHOICES), size=n)]
                return _sentence(surfaces, roles)
            a, b = random_sentence(), random_sentence()
            assert jaccard_score(a, b) == jaccard_score(b, a)
            raw = jaccard_score(a, b, clamp=False)
            assert 0.0 <= raw <= 2.0
            assert jaccard_score(a, b) == min(1.0, raw)

    def test_weight_gate_below_three_common_words(self):
        a = _sentence(["x", "y"], ["SUBJ", "PRED"])
        b = _sentence(["x", "y"], ["SUBJ", "PRED"])
        # both roles match but only two words co-occur: no boost
        assert jaccard_score(a, b, clamp=False) == 1.0
