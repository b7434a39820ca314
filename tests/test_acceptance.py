"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with ``pytest tests/test_acceptance.py -v -s``).

The oracle tests re-derive expected values through independent routes
(literal algorithm transcriptions, full DP tables, central differences,
brute-force tallies) and require exact or stated-tolerance agreement.
"""

import time

import numpy as np
import pytest

from simfuse.attention import attention_weights, edit_distance, marginal_sums, \
    weighted_pair_matrices
from simfuse.cli import main as cli_main
from simfuse.cnn import (TrainConfig, cnn_forward, cnn_train, gradient_check,
                         init_params, loss_and_gradients, max_relative_error,
                         numeric_gradients)
from simfuse.corpus import Sentence
from simfuse.fusion import (DIFFERENT, SIMILAR, FusionParams, calibrate_weights,
                            classify, fuse)

from toy import DEFAULT_WEIGHTS, separable_toy_set

#: Reference weight rows: per-model metric triple (jaccard, cnn, tfidf)
#: and the expected (alpha, beta, gamma) it must reproduce within +-0.02.
CALIBRATION_REFERENCE = {
    "accuracy": ((0.79, 0.80, 0.25), (0.38, 0.40, 0.22)),
    "precision": ((0.54, 0.53, 0.22), (0.37, 0.36, 0.27)),
    "recall": ((0.11, 0.82, 0.97), (0.19, 0.38, 0.43)),
    "f1": ((0.18, 0.65, 0.36), (0.26, 0.42, 0.32)),
}

#: Reference fused scores and the classification each must produce.
CLASSIFICATION_REFERENCE = [
    (0.683, SIMILAR),
    (0.329, DIFFERENT),
    (0.483, DIFFERENT),
    (0.312, DIFFERENT),
]

ROLE_CHOICES = [None, "NONE", "SUBJ", "PRED", "OBJ", "ATTR", "ADV", "COMP"]


def _criterion(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def trained_toy_model():
    dataset, table = separable_toy_set(n_per_class=50, dim=16)
    start = time.monotonic()
    params, losses = cnn_train(dataset, table, TrainConfig(epochs=200, seed=3))
    elapsed = time.monotonic() - start
    return dataset, table, params, losses, elapsed


def test_criterion_1_weight_reconstruction():
    """Softmax over each per-model metric column reproduces the reference
    (alpha, beta, gamma) rows within 0.02 absolute per entry."""
    worst = 0.0
    for factor, (metrics, expected) in CALIBRATION_REFERENCE.items():
        weights = calibrate_weights(*metrics)
        got = (weights.alpha, weights.beta, weights.gamma)
        worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
    _criterion("weight-reconstruction", worst <= 0.02, f"max deviation {worst:.4f}")


def test_criterion_2_classification_rule():
    """The 0.5 decision rule classifies the four reference fused scores as
    similar, different, different, different."""
    results = [classify(score) == expected
               for score, expected in CLASSIFICATION_REFERENCE]
    _criterion("classification-rule", all(results),
               f"{sum(results)}/4 reference scores")


def _jaccard_by_transcription(sen_a, sen_b):
    """Literal step-by-step re-derivation of the role-weighted coefficient:
    collect common words by nested scan, count same-role words once at
    least three co-occur, weight the set ratio."""
    com_word = []
    for i in sen_a.surfaces():
        for j in sen_b.surfaces():
            if i == j and i not in com_word:
                com_word.append(i)

    def role_of(sentence, word):
        for surface, role in zip(sentence.words, sentence.roles):
            if surface == word:
                return role
        return None

    if len(com_word) >= 3:
        count = 0
        for word in com_word:
            role_a = role_of(sen_a, word)
            role_b = role_of(sen_b, word)
            if role_a is not None and role_a != "NONE" and role_a == role_b:
                count += 1
        alpha = 1.0 if count == 0 else (count + 1) / count
    else:
        alpha = 1.0
    union = set(sen_a.surfaces()) | set(sen_b.surfaces())
    return alpha * len(com_word) / len(union)


def test_criterion_3a_jaccard_oracle_equivalence():
    """1,000 random pairs (<=6 tokens, 5-surface alphabet, random roles):
    the library score equals the transcription exactly, zero mismatches."""
    from simfuse.jaccard import jaccard_score
    rng = np.random.default_rng(1234)
    alphabet = [f"w{i}" for i in range(5)]

    def random_sentence():
        n = int(rng.integers(1, 7))
        surfaces = [alphabet[i] for i in rng.integers(0, 5, size=n)]
        roles = [ROLE_CHOICES[i] for i in rng.integers(0, len(ROLE_CHOICES), size=n)]
        return Sentence(surfaces, roles)

    mismatches = 0
    for _ in range(1000):
        a, b = random_sentence(), random_sentence()
        raw = jaccard_score(a, b, clamp=False)
        if raw != _jaccard_by_transcription(a, b):
            mismatches += 1
        if jaccard_score(a, b) != min(1.0, raw):
            mismatches += 1
    _criterion("jaccard-oracle", mismatches == 0, f"{mismatches} mismatches")


def _dp_table_distance(u, v):
    table = [[0] * (len(v) + 1) for _ in range(len(u) + 1)]
    for i in range(len(u) + 1):
        table[i][0] = i
    for j in range(len(v) + 1):
        table[0][j] = j
    for i in range(1, len(u) + 1):
        for j in range(1, len(v) + 1):
            cost = 0 if u[i - 1] == v[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + cost)
    return table[-1][-1]


def test_criterion_3b_edit_distance_oracle():
    """1,000 random string pairs (length <= 8) against an independent DP
    table, plus symmetry and the triangle inequality."""
    rng = np.random.default_rng(4321)
    alphabet = list("abcd")

    def random_string():
        return "".join(rng.choice(alphabet, size=rng.integers(0, 9)))

    mismatches = sum(
        1 for _ in range(1000)
        if (lambda u, v: edit_distance(u, v) != _dp_table_distance(u, v)
            or edit_distance(u, v) != edit_distance(v, u))(random_string(), random_string())
    )
    triangle_violations = 0
    for _ in range(1000):
        x, y, z = random_string(), random_string(), random_string()
        if edit_distance(x, z) > edit_distance(x, y) + edit_distance(y, z):
            triangle_violations += 1
    _criterion("edit-distance-oracle",
               mismatches == 0 and triangle_violations == 0,
               f"{mismatches} mismatches, {triangle_violations} triangle violations")


def test_criterion_3c_gradient_correctness():
    """gradient_check stays below 1e-4 (epsilon 1e-4, float64) on 20 random
    initializations; a corrupted gradient is flagged above 1e-2."""
    rng = np.random.default_rng(99)

    def random_matrix(n, dim):
        return rng.standard_normal((n, dim))

    worst = 0.0
    for seed in range(20):
        params = init_params(dim=3, n_filters=4, kernel_width=2, hidden=3, seed=seed)
        a = random_matrix(int(rng.integers(1, 6)), 3)
        b = random_matrix(int(rng.integers(1, 6)), 3)
        label = float(rng.integers(0, 2))
        worst = max(worst, gradient_check(params, (a, b, label), epsilon=1e-4))

    params = init_params(dim=3, n_filters=4, kernel_width=2, hidden=3, seed=7)
    a, b = random_matrix(4, 3), random_matrix(3, 3)
    _, corrupted = loss_and_gradients(params, a, b, 1.0)
    corrupted = dict(corrupted)
    corrupted["out_b"] = np.array([corrupted["out_b"]])
    corrupted["filters"] = corrupted["filters"] + 0.05
    mutated = max_relative_error(corrupted, numeric_gradients(params, a, b, 1.0, 1e-4))

    ok = worst < 1e-4 and mutated > 1e-2
    _criterion("gradient-correctness", ok,
               f"worst {worst:.2e}, mutated {mutated:.2e}")


def test_criterion_3d_attention_normalization():
    """On 1,000 random grids both attention vectors sum to 1 within 1e-9
    and every entry is strictly positive."""
    rng = np.random.default_rng(555)
    failures = 0
    for _ in range(1000):
        n, m = (int(x) for x in rng.integers(1, 9, size=2))
        grid = rng.uniform(-1.0, 1.0, size=(n, m))
        row_vec, col_vec = marginal_sums(grid)
        pos_row = rng.uniform(0.0, 2.0, size=n)
        pos_col = rng.uniform(0.0, 2.0, size=m)
        for vec in attention_weights(row_vec, pos_row, col_vec, pos_col):
            if abs(vec.sum() - 1.0) > 1e-9 or not (vec > 0.0).all():
                failures += 1
    _criterion("attention-normalization", failures == 0, f"{failures} failures")


def _toy_training_accuracy(dataset, table, params, n_max=32):
    correct = 0
    for pair in dataset:
        mat_a, mat_b = weighted_pair_matrices(pair.a, pair.b, table, n_max)
        predicted = 1.0 if cnn_forward(params, mat_a, mat_b) >= 0.5 else 0.0
        correct += predicted == pair.label
    return correct / len(dataset)


def test_criterion_3e_training_sanity(trained_toy_model):
    """On the 100-pair separable toy set the trainer reaches >= 0.95
    training accuracy within 200 epochs in under 60 seconds."""
    dataset, table, params, _, elapsed = trained_toy_model
    accuracy = _toy_training_accuracy(dataset, table, params)
    ok = accuracy >= 0.95 and elapsed < 60.0
    _criterion("training-sanity", ok, f"accuracy {accuracy:.2f}, {elapsed:.1f}s")


def test_criterion_3f_end_to_end_monotonicity(trained_toy_model):
    """With the default weights in weighted-sum mode, every identical pair
    fuses strictly above every disjoint pair of the toy set."""
    from simfuse.jaccard import jaccard_score
    from simfuse.tfidf import build_stats, cosine_sim, tfidf_vector

    dataset, table, params, _, _ = trained_toy_model
    stats = build_stats(dataset)
    fusion_params = FusionParams()
    fused = {True: [], False: []}
    for pair in dataset:
        mat_a, mat_b = weighted_pair_matrices(pair.a, pair.b, table, 32)
        score_c = cnn_forward(params, mat_a, mat_b)
        score_j = jaccard_score(pair.a, pair.b)
        score_t = cosine_sim(tfidf_vector(pair.a, pair, stats),
                             tfidf_vector(pair.b, pair, stats))
        fused[pair.label == 1.0].append(
            fuse((score_j, score_c, score_t), DEFAULT_WEIGHTS, fusion_params))
    ok = min(fused[True]) > max(fused[False])
    _criterion("end-to-end-monotonicity", ok,
               f"min similar {min(fused[True]):.3f} > max different {max(fused[False]):.3f}")


def test_criterion_4_training_determinism(tmp_path):
    """Two cmd_train runs with the same config and seed write byte-identical
    model bundles."""
    rng = np.random.default_rng(2718)
    vocab = ["alpha", "beta", "gamma", "delta", "echo", "foxtrot"]
    pairs_text = (
        "1\talpha beta\talpha beta\t1\n"
        "2\tgamma delta\tgamma delta\t1\n"
        "3\talpha gamma\tdelta echo\t0\n"
        "4\tbeta echo\tfoxtrot alpha\t0\n"
    )
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(pairs_text, encoding="utf-8")
    lines = []
    for word in vocab:
        values = " ".join(f"{x:.6f}" for x in rng.standard_normal(4))
        lines.append(f"{word} {values}")
    embeddings = tmp_path / "embeddings.txt"
    embeddings.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 5\nseed = 13\n", encoding="utf-8")

    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        status = cli_main(["train", "--pairs", str(pairs), "--embeddings",
                           str(embeddings), "--out", str(out), "--config", str(config)])
        assert status == 0
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir())
    assert names == ["cnn.params", "embeddings.npy", "fusion.params", "manifest.tsv",
                     "stats.tsv", "vocab.txt"]
    same = all(
        (outputs[0] / f).read_bytes() == (outputs[1] / f).read_bytes()
        for f in names
    ) and sorted(p.name for p in outputs[1].iterdir()) == names
    _criterion("training-determinism", same, "6/6 bundle files byte-identical")
