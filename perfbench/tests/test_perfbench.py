"""Tests of the benchmark's own parts: ``python -m pytest perfbench/tests``."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import generate
import reference
import tracer as tracing
import workloads

SMALL = generate.SplitSpec(min_len=3, max_len=12, overlap=0.5, oov_rate=0.2, label_gap=0.3)
PAIRS = 24


def _generate(tmp_path: Path, seed: int, name: str):
    return generate.generate(seed, vocab=200, dim=8, split=SMALL, n_train=PAIRS,
                             n_test=PAIRS, directory=tmp_path / name)


def _files(files) -> list[bytes]:
    return [Path(p).read_bytes() for p in (files.embeddings, files.train, files.test)]


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    first = _files(_generate(tmp_path, 7, "a"))
    assert first == _files(_generate(tmp_path, 7, "b"))
    assert first != _files(_generate(tmp_path, 8, "c"))


def test_generator_files_parse_as_written(tmp_path):
    from simfuse.corpus import BINARY, parse_pair_file
    files = _generate(tmp_path, 3, "a")
    with open(files.test, encoding="utf-8") as stream:
        dataset = parse_pair_file(stream, BINARY)
    assert [(p.id, p.a.surfaces(), p.b.surfaces(), int(p.label)) for p in dataset] == \
        [(pid, a, b, label) for pid, a, b, label in files.test_pairs]
    assert {label for *_, label in files.test_pairs} == {0, 1}


def test_self_times_on_a_hand_built_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, ""),
        S("a", 1.0, 4.0, 0, ""),      # child of root
        S("a.x", 1.5, 2.0, 1, ""),    # grandchild: counts against a, not root
        S("b", 5.0, 9.0, 0, ""),
        S("b.y", 4.5, 6.0, 3, ""),    # starts before its parent: clipped to 5..6
        S("b.z", 5.5, 7.0, 3, ""),    # overlaps b.y: the union is counted once
        S("other", 20.0, 21.0, -1, "p1"),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 2.0, 1.5, 1.5, 1.0])
    stats = tracing.function_stats(spans)
    assert stats["root"] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 3.0})
    assert stats["b"]["self_s"] == pytest.approx(2.0)


def _reference_and_scores():
    want = reference.RefScores(0.25, 0.5, 0.75, 0.625, reference.SIMILAR)
    return want, replace(want)


def test_check_passes_identical_scores():
    want, got = _reference_and_scores()
    tally = reference.CheckTally()
    assert tally.record(got, want)
    assert (tally.failed, tally.bitwise_equal) == (0, 1)


def test_check_flags_a_perturbed_fused_score():
    want, got = _reference_and_scores()
    tally = reference.CheckTally()
    assert not tally.record(replace(got, fused=got.fused + 1e-6), want)
    # below the tolerance the pair passes, but is not counted as bitwise equal
    assert tally.record(replace(got, fused=math.nextafter(got.fused, 1.0)), want)
    assert (tally.pairs, tally.failed, tally.bitwise_equal) == (2, 1, 0)


def test_check_flags_a_nan_component_and_a_raised_pair():
    want, got = _reference_and_scores()
    tally = reference.CheckTally()
    # fuse() maps a NaN component to a fused 1.0; the NaN itself must fail the pair
    assert not tally.record(replace(got, w2vcnn=float("nan"), fused=1.0), want)
    assert not tally.record(None, want)
    assert tally.failed == 2


def _train_small_bundle(files):
    from simfuse import cnn, corpus, embedding, fusion, pipeline, tfidf
    with open(files.train, encoding="utf-8") as stream:
        dataset = corpus.parse_pair_file(stream, corpus.BINARY)
    with open(files.embeddings, encoding="utf-8") as stream:
        table = embedding.load_text_embeddings(stream)
    stats = tfidf.build_stats(dataset)
    config = cnn.TrainConfig(learning_rate=0.5, epochs=2, batch_size=8)
    params, _ = cnn.cnn_train(dataset, table, config)
    triples = [pipeline.component_scores(p, stats, table, params) for p in dataset]
    weights = pipeline.weights_from_scores(triples, [p.label >= 0.5 for p in dataset], "accuracy")
    fusion_params, _ = fusion.train_fusion(triples, [p.label for p in dataset], weights, config)
    return pipeline.ModelBundle(stats=stats, table=table, cnn_params=params, weights=weights,
                                fusion_params=fusion_params)


@pytest.mark.parametrize("learned", [True, False])
def test_reference_matches_the_library_bitwise(tmp_path, learned):
    """The reference, run as the benchmark runs it (tensors saved beside the
    generated files, scores read back), agrees with the library bit for bit."""
    import run
    from simfuse import corpus, fusion, pipeline
    files = _generate(tmp_path, 5, "a")
    bundle = _train_small_bundle(files)
    if not learned:
        bundle = replace(bundle, fusion_params=fusion.FusionParams())
    run.save_tensors(bundle, files.embeddings.parent / "params.npz")
    reference.main([str(files.embeddings.parent)])
    want = reference.read_reference(files.embeddings.parent / "reference.tsv")
    with open(files.test, encoding="utf-8") as stream:
        dataset = corpus.parse_pair_file(stream, corpus.BINARY)
    assert [pair.id for pair in dataset] == [pair_id for pair_id, _ in want]
    tally = reference.CheckTally()
    for pair, (_, scores) in zip(dataset, want):
        tally.record(pipeline.score_with_bundle(bundle, pair), scores)
    assert (tally.pairs, tally.failed, tally.bitwise_equal) == (PAIRS, 0, PAIRS)


def test_reference_reads_the_pairs_the_generator_wrote(tmp_path):
    files = _generate(tmp_path, 4, "a")
    assert reference.read_pairs(files.train) == files.train_pairs
    assert reference.read_pairs(files.test) == files.test_pairs


def test_tracer_wraps_names_callers_look_up_and_restores_them(tmp_path):
    import simfuse
    from simfuse import attention, cnn, corpus, embedding, pipeline
    originals = (attention.weighted_pair_matrices, cnn.weighted_pair_matrices,
                 attention.embed_sentence, simfuse.score_with_bundle)
    files = _generate(tmp_path, 2, "a")
    bundle = _train_small_bundle(files)
    with open(files.test, encoding="utf-8") as stream:
        pair = corpus.parse_pair_file(stream, corpus.BINARY).pairs[0]
    tracer = tracing.Tracer()
    names = tracer.install(simfuse)
    try:
        assert "pipeline.score_with_bundle" in names
        assert cnn.weighted_pair_matrices is attention.weighted_pair_matrices
        assert cnn.weighted_pair_matrices is not originals[0]
        tracer.enabled = True
        pipeline.score_with_bundle(bundle, pair)
        embedding.lookup(bundle.table, "surely-not-a-vocabulary-word")
    finally:
        tracer.uninstall()
    assert (attention.weighted_pair_matrices, cnn.weighted_pair_matrices,
            attention.embed_sentence, simfuse.score_with_bundle) == originals
    stats = tracing.function_stats(tracer.spans)
    assert stats["pipeline.score_with_bundle"]["calls"] == 1
    assert stats["attention.weighted_pair_matrices"]["calls"] == 1
    assert stats["embedding.embed_sentence"]["calls"] == 2
    assert stats["cnn.cnn_forward"]["calls"] == 1
    forward = next(s for s in tracer.spans if s.name == "cnn.cnn_forward")
    assert tracer.spans[forward.parent].name == "pipeline.component_scores"
    assert tracer.counts["embedding.oov_lookups"] >= 1
    assert tracer.counts["embedding.lookup"] == len(pair.a) + len(pair.b) + 1


def test_benchmark_json_matches_the_declared_workloads_and_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == \
        workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        workloads.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

