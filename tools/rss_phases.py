"""Resident memory after each phase of one benchmark-shaped round.

Usage::

    python3 tools/rss_phases.py WORKLOAD SEED SRC_DIR

``WORKLOAD`` names a workload of ``perfbench/workloads.py`` and ``SEED`` its
input seed; ``SRC_DIR`` is the ``src`` directory of the checkout under test.
The script writes the workload's inputs with ``perfbench/generate.py`` into a
temporary directory, then runs one round as ``perfbench/run.py`` does, in a
child process with BLAS pinned to one thread: set-up (parse the training
pairs, load the text embeddings), ``build_stats``, ``cnn_train``,
``component_scores`` of every training pair, ``weights_from_scores`` and
``train_fusion``, ``save_bundle``, then, with the training objects dropped,
``load_bundle``, the parse of the test split and a scoring pass over it, so
the parsed pairs' share of the scoring peak shows.  After the imports and
after each phase it prints one tab-separated line: the phase, the process's
peak resident size so far (``ru_maxrss``) and its current resident size, both
in MiB.  Nothing under ``perfbench/`` or ``SRC_DIR`` is written: the child
runs without bytecode caches, and the temporary directory is removed.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _report(phase: str) -> None:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open("/proc/self/statm", encoding="ascii") as statm:
        current = int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    print(f"{phase}\t{peak:.2f}\t{current:.2f}", flush=True)


def _round(workload_name: str, inputs: Path) -> None:
    """One round of ``workload_name`` on the files in ``inputs``; runs in the
    child, with the library on its path."""
    import workloads
    from simfuse import cnn, corpus, embedding, fusion, pipeline, tfidf

    wl = workloads.WORKLOADS[workload_name]
    _report("start")
    with open(inputs / "train.tsv", encoding="utf-8") as stream:
        dataset = corpus.parse_pair_file(stream, corpus.BINARY)
    with open(inputs / "embeddings.txt", encoding="utf-8") as stream:
        table = embedding.load_text_embeddings(stream)
    _report("setup")
    stats = tfidf.build_stats(dataset)
    _report("build_stats")
    config = cnn.TrainConfig(learning_rate=workloads.LEARNING_RATE, epochs=workloads.EPOCHS,
                             batch_size=workloads.BATCH_SIZE, seed=workloads.TRAIN_SEED)
    cnn_params, _ = cnn.cnn_train(dataset, table, config, n_max=workloads.N_MAX)
    _report("cnn_train")
    triples = [pipeline.component_scores(pair, stats, table, cnn_params, workloads.N_MAX)
               for pair in dataset]
    _report("component_scores")
    weights = pipeline.weights_from_scores(
        triples, [pair.label >= 0.5 for pair in dataset], "accuracy")
    fusion_params, _ = fusion.train_fusion(triples, [pair.label for pair in dataset], weights,
                                           config)
    if wl.fusion_mode == fusion.WEIGHTED_SUM:  # fitted, then dropped, as perfbench does
        fusion_params = fusion.FusionParams(mode=fusion.WEIGHTED_SUM, net=None)
    _report("train_fusion")
    bundle = pipeline.ModelBundle(stats=stats, table=table, cnn_params=cnn_params,
                                  weights=weights, fusion_params=fusion_params,
                                  n_max=workloads.N_MAX)
    pipeline.save_bundle(bundle, inputs / "bundle")
    _report("save_bundle")
    dataset = table = stats = bundle = triples = None
    bundle = pipeline.load_bundle(inputs / "bundle")
    _report("load_bundle")
    with open(inputs / "test.tsv", encoding="utf-8") as stream:
        test = corpus.parse_pair_file(stream, corpus.BINARY)
    _report("parse_test")
    for pair in test:
        pipeline.score_with_bundle(bundle, pair)
    _report("score_pass")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--round"]:
        sys.path.insert(0, str(PERFBENCH))
        _round(argv[1], Path(argv[2]))
        return 0
    if len(argv) != 3:
        sys.exit("usage: rss_phases.py WORKLOAD SEED SRC_DIR")
    workload, seed, src = argv[0], argv[1], Path(argv[2]).resolve()
    if not (src / "simfuse" / "__init__.py").is_file():
        sys.exit(f"error: no simfuse sources under {src}")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           **{var: "1" for var in BLAS_VARS}}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        if subprocess.run([sys.executable, str(PERFBENCH / "generate.py"), workload, seed,
                           str(inputs)], env=env).returncode:
            sys.exit(f"error: perfbench/generate.py {workload} {seed} failed")
        print("phase\tru_maxrss_mib\trss_mib", flush=True)
        return subprocess.run([sys.executable, __file__, "--round", workload, str(inputs)],
                              env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
