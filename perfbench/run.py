#!/usr/bin/env python3
"""simfuse benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload score_long_overlap --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Inputs are generated from ``--seed`` into a scratch
directory under ``.perfbench_work/``, which the run removes again.  A run
repeats rounds of one training, a reload of the saved bundle and one
scoring pass, until ``--seconds`` of measured time have passed, so that
every kind of sample is spread over the whole run.  Every scored pair is
checked against a frozen reference.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports per-module metrics, plus the
tracing overhead.  A summary goes to stderr; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing
from reference import CNN_TENSORS, NET_TENSORS, CheckTally, read_reference
from workloads import (BATCH_SIZE, END_TO_END, EPOCHS, LEARNING_RATE, N_MAX, PER_LAYER,
                       TRAIN_SEED, WORKLOADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 120
# The traced run fails when its top-level library spans cover less than
# this share of the traced rounds' measured time: the per-layer self
# times would then leave too much of the interval unexplained.
LIBRARY_SHARE_FLOOR = 0.9
clock = time.perf_counter


def _import_library():
    """Import simfuse from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "simfuse" / "__init__.py").is_file():
        sys.exit(f"error: no simfuse sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import simfuse
    if Path(simfuse.__file__).resolve().parent != (SRC / "simfuse").resolve():
        sys.exit(f"error: imported simfuse from {simfuse.__file__}, not from {SRC}")
    return simfuse


def _child(script: str, *args) -> None:
    """Run one of the benchmark's scripts in a child process and wait for it."""
    subprocess.run([sys.executable, str(HERE / script), *map(str, args)], check=True,
                   timeout=CHILD_TIMEOUT_S)


def save_tensors(bundle, path: Path) -> None:
    """The trained tensors of ``bundle`` in the layout ``reference.py`` reads."""
    p, net = bundle.cnn_params, bundle.fusion_params.net
    tensors = {name: getattr(p, name) for name in CNN_TENSORS}
    if net is not None:
        tensors.update({"net_" + name: getattr(net, name) for name in NET_TENSORS})
    w = bundle.weights
    np.savez(path, weights=np.array([w.alpha, w.beta, w.gamma]), n_max=bundle.n_max,
             **tensors)


@dataclass
class RunLog:
    """Raw samples of one run; metrics are computed from it at the end."""

    setup_s: list = field(default_factory=list)   # the workload's set-up
    train_s: list = field(default_factory=list)
    epoch_s: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)     # one scoring pass each
    latencies: list = field(default_factory=list)  # one score call each
    attempted: int = 0
    failed: int = 0

    def pairs_per_s(self) -> float:
        """All pairs scored over all the time of the scoring passes."""
        return len(self.latencies) / sum(self.pass_s)


class Bench:
    """One workload's inputs, the library calls on them, and their checks."""

    def __init__(self, workload, seed: int, directory: Path, tracer=None):
        from simfuse import cnn, corpus, embedding, fusion, pipeline, tfidf

        self.cnn, self.corpus, self.embedding = cnn, corpus, embedding
        self.fusion, self.pipeline, self.tfidf = fusion, pipeline, tfidf
        self.wl = workload
        self.tracer = tracer
        self.bundle_dir = directory / "bundle"
        self.inputs = directory / "inputs"
        _child("generate.py", workload.name, seed, self.inputs)
        self.embeddings = self.inputs / "embeddings.txt"
        self.train_file, self.test_file = self.inputs / "train.tsv", self.inputs / "test.tsv"
        self.tally = CheckTally()
        self.reference = None
        self.bundle_digest = None
        self.bundle = None

    # -- the library calls, in the order cli.cmd_train / cmd_score make them --
    def setup_train(self):
        with open(self.train_file, encoding="utf-8") as stream:
            dataset = self.corpus.parse_pair_file(stream, self.corpus.BINARY)
        with open(self.embeddings, encoding="utf-8") as stream:
            table = self.embedding.load_text_embeddings(stream)
        return dataset, table

    def train(self, dataset, table):
        """Returns the trained bundle and the time spent in ``cnn_train``."""
        cnn, pipeline = self.cnn, self.pipeline
        stats = self.tfidf.build_stats(dataset)
        config = cnn.TrainConfig(learning_rate=LEARNING_RATE, epochs=EPOCHS,
                                 batch_size=BATCH_SIZE, seed=TRAIN_SEED)
        start = clock()
        cnn_params, _ = cnn.cnn_train(dataset, table, config, n_max=N_MAX)
        cnn_s = clock() - start
        triples = [pipeline.component_scores(pair, stats, table, cnn_params, N_MAX)
                   for pair in dataset]
        weights = pipeline.weights_from_scores(
            triples, [pair.label >= 0.5 for pair in dataset], "accuracy")
        fusion_params, _ = self.fusion.train_fusion(
            triples, [pair.label for pair in dataset], weights, config)
        if self.wl.fusion_mode == self.fusion.WEIGHTED_SUM:  # fitted, then dropped, as the CLI does
            fusion_params = self.fusion.FusionParams(mode=self.fusion.WEIGHTED_SUM, net=None)
        bundle = pipeline.ModelBundle(stats=stats, table=table, cnn_params=cnn_params,
                                      weights=weights, fusion_params=fusion_params,
                                      n_max=N_MAX)
        pipeline.save_bundle(bundle, self.bundle_dir)
        return bundle, cnn_s

    def score_pass(self):
        """Parse the test split and score every pair, formatting each result
        as ``simfuse score`` does.  Returns (seconds, latencies, results)."""
        fmt = lambda x: format(x, ".17g")  # noqa: E731
        score, tracer = self.pipeline.score_with_bundle, self.tracer
        latencies, results, output = [], [], io.StringIO()  # stands in for stdout
        start = clock()
        with open(self.test_file, encoding="utf-8") as stream:
            dataset = self.corpus.parse_pair_file(stream, self.corpus.BINARY)
        for pair in dataset:
            if tracer is not None:
                tracer.pair_id = pair.id
            begin = clock()
            try:
                scores = score(self.bundle, pair)
            except Exception as exc:  # a failing pair is counted, the run goes on
                print(f"pair {pair.id}: {type(exc).__name__}: {exc}", file=sys.stderr)
                scores = None
            latencies.append(clock() - begin)
            if scores is not None:
                print(pair.id, fmt(scores.jaccard), fmt(scores.w2vcnn), fmt(scores.tfidf),
                      fmt(scores.fused), scores.predicted, sep="\t", file=output)
            results.append((pair.id, scores))
        return clock() - start, latencies, results

    # -- one round: training, reload and a scoring pass ----------------------
    def round(self, log: RunLog) -> float:
        """Runs one round; returns the measured seconds it took."""
        start = clock()
        dataset, table = self.setup_train()
        mid = clock()
        log.attempted += 1
        try:
            trained, cnn_s = self.train(dataset, table)
        except Exception as exc:
            print(f"training failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            log.failed += 1
            trained = None
        end = clock()
        measured = end - start
        if self.wl.setup == "train":
            log.setup_s.append(mid - start)
        if trained is not None:
            log.train_s.append(end - mid)
            log.epoch_s.append(cnn_s / EPOCHS)
            if not self._same_bundle_as_before():
                print("training is not deterministic: bundle bytes changed", file=sys.stderr)
                log.failed += 1
            if self.reference is None:
                self._build_reference(trained)
        if self.reference is None:
            raise RuntimeError("no bundle was trained; nothing to score")

        # Only one embedding table is alive at a time, so that peak memory
        # does not depend on how many rounds fit into the run.
        dataset = table = trained = None
        start = clock()
        self.bundle = self.pipeline.load_bundle(self.bundle_dir)
        loaded = clock() - start
        if self.wl.setup == "score":
            log.setup_s.append(loaded)
        elapsed, latencies, results = self.score_pass()
        log.pass_s.append(elapsed)
        log.latencies.extend(latencies)
        self._check(results, log)
        return measured + loaded + elapsed

    # -- correctness ---------------------------------------------------------
    def _same_bundle_as_before(self) -> bool:
        digest = hashlib.sha256()
        for name in sorted(os.listdir(self.bundle_dir)):
            digest.update(name.encode())
            # Read in blocks, so that the check adds nothing to peak memory.
            with open(self.bundle_dir / name, "rb") as stream:
                for block in iter(lambda: stream.read(1 << 20), b""):
                    digest.update(block)
        if self.bundle_digest is None:
            self.bundle_digest = digest.hexdigest()
        return digest.hexdigest() == self.bundle_digest

    def _build_reference(self, bundle):
        """Scores the test split with ``reference.py`` in a child process,
        from the generated files and the trained tensors alone."""
        save_tensors(bundle, self.inputs / "params.npz")
        _child("reference.py", self.inputs)
        self.reference = read_reference(self.inputs / "reference.tsv")

    def _check(self, results, log: RunLog):
        log.attempted += len(results)
        if [pid for pid, _ in results] != [pid for pid, _ in self.reference]:
            print("scored pair ids differ from the generated ones", file=sys.stderr)
            log.failed += len(results)
            return
        before = self.tally.failed
        for (_, got), (_, want) in zip(results, self.reference):
            self.tally.record(got, want)
        log.failed += self.tally.failed - before

    def heldout_accuracy(self, log: RunLog) -> float:
        """``pipeline.evaluate`` of the last round's reloaded bundle on the
        test split."""
        with open(self.test_file, encoding="utf-8") as stream:
            dataset = self.corpus.parse_pair_file(stream, self.corpus.BINARY)
        log.attempted += 1
        accuracy = self.pipeline.evaluate(dataset, self.bundle).accuracy
        if not accuracy >= self.wl.min_accuracy:
            print(f"held-out accuracy {accuracy} is below the floor {self.wl.min_accuracy}",
                  file=sys.stderr)
            log.failed += 1
        return accuracy


def machine_block() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(log: RunLog, accuracy: float) -> dict:
    return {
        "setup_s": statistics.median(log.setup_s),
        "pairs_per_s": log.pairs_per_s(),
        "pair_latency_p50_ms": float(np.median(log.latencies)) * 1e3,
        "train_s": statistics.median(log.train_s),
        "train_epoch_s": statistics.median(log.epoch_s),
        "heldout_accuracy": accuracy,
        "peak_rss_mb": _peak_rss_mb(),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of ``workload``: the result line and a summary for stderr."""
    simfuse = _import_library()
    harness_rss_mb = _peak_rss_mb()  # interpreter, numpy and the library's code
    WORK_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    tracer = tracing.Tracer() if trace else None
    try:
        bench = Bench(workload, seed, directory, tracer)
        if tracer is not None:
            tracer.install(simfuse)
        logs = {False: RunLog(), True: RunLog()}
        rounds = {False: 0, True: 0}
        round_s = {False: 0.0, True: 0.0}
        round_counts = []
        traced = False
        # Stop at the round boundary nearest to ``seconds`` of measured time.
        while (not rounds[False] or (trace and not rounds[True])
               or sum(round_s.values()) * (1 + 0.5 / sum(rounds.values())) < seconds):
            if tracer is not None:
                tracer.enabled = traced
                tracer.counts.clear()
                tracer.distinct.clear()
            # Drop the last round's bundle and collect its garbage, and
            # exempt what is alive now (the reference scores) from later
            # collections, so that the harness's own objects do not lengthen
            # the library's GC pauses.
            bench.bundle = None
            gc.collect()
            gc.freeze()
            round_s[traced] += bench.round(logs[traced])
            rounds[traced] += 1
            if traced:
                round_counts.append((dict(tracer.counts),
                                     {k: len(v) for k, v in tracer.distinct.items()}))
            if trace:
                traced = not traced
        if tracer is not None:
            tracer.enabled = False
        log = logs[False]
        accuracy = bench.heldout_accuracy(log)
        bench.bundle = None
        summary = {"workload": workload.name, "seed": seed,
                   "rounds": rounds[False] + rounds[True],
                   "measured_s": sum(round_s.values()),
                   "setup_samples": len(log.setup_s),
                   "score_calls": len(log.latencies) + len(logs[True].latencies),
                   "bitwise_equal_pairs": bench.tally.bitwise_equal,
                   "checked_pairs": bench.tally.pairs,
                   "max_abs_diff": bench.tally.max_abs_diff,
                   "harness_rss_mb": harness_rss_mb,
                   "machine": machine_block()}
        if tracer is not None:
            tracer.uninstall()
            tracer.write(WORK_DIR / f"spans_{workload.name}.tsv")
            metrics, account = per_layer(tracer, round_counts, rounds, round_s, logs, bench.tally)
            summary["trace"] = account
            names = PER_LAYER
            total = RunLog(attempted=log.attempted + logs[True].attempted + 1,
                           failed=log.failed + logs[True].failed + (not account["ok"]))
        else:
            metrics = end_to_end(log, accuracy)
            names = END_TO_END
            total = log
        summary["fail_rate"] = total.failed / max(total.attempted, 1)
        result = {
            "correct": total.failed == 0,
            "attempted": total.attempted,
            "failed": total.failed,
            "metrics": {name: {"value": metrics[name], "unit": names[name][0]}
                        for name in names},
        }
        return result, summary
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(directory, ignore_errors=True)


def per_layer(tracer, round_counts, rounds, round_s, logs, tally) -> tuple[dict, dict]:
    """Per-layer metrics from the spans and counters of the traced rounds,
    and the account of the traced interval with its check."""
    stats = tracing.function_stats(tracer.spans)
    traced_rounds = rounds[True]
    out = {}
    for name in PER_LAYER:
        function, _, stat = name.rpartition(".")
        if function in stats and stat in ("calls", "s", "self_s"):
            out[name] = stats[function][stat] / traced_rounds

    def count(key):
        return statistics.mean(c.get(key, 0) for c, _ in round_counts)

    def ratio(key):
        return statistics.mean(d.get(key, 0) / c[key] if c.get(key) else 0.0
                               for c, d in round_counts)

    out["embedding.lookup.calls"] = count("embedding.lookup")
    out["embedding.oov_lookups"] = count("embedding.oov_lookups")
    out["embedding.oov_distinct_ratio"] = ratio("embedding.oov_lookups")
    out["attention.edit_distance.calls"] = count("attention.edit_distance")
    out["attention.edit_distance.distinct_ratio"] = ratio("attention.edit_distance")
    out["tfidf.term_frequency.calls"] = count("tfidf.term_frequency")
    plain, traced = logs[False], logs[True]
    out["check.bitwise_equal_pairs"] = tally.bitwise_equal / (
        len(plain.pass_s) + len(traced.pass_s))
    out["pair_latency_p99_ms"] = float(np.percentile(plain.latencies, 99)) * 1e3
    out["trace.overhead_pairs_per_s"] = plain.pairs_per_s() - traced.pairs_per_s()
    out["trace.overhead_train_s"] = (statistics.median(traced.train_s)
                                     - statistics.median(plain.train_s))

    # Per round: the self times of all spans add up to the time inside
    # top-level spans, which covers the traced interval up to the harness's
    # own share (formatting, clock reads).  Take out the tracing overhead
    # and what is left stands for the untraced interval.
    top = sum(s.end - s.start for s in tracer.spans if s.parent < 0) / traced_rounds
    self_sum = sum(entry["self_s"] for entry in stats.values()) / traced_rounds
    untraced = round_s[False] / rounds[False]
    interval = round_s[True] / traced_rounds
    out["trace.library_share"] = top / interval
    account = {
        "untraced_interval_s": untraced, "traced_interval_s": interval,
        "overhead_s": interval - untraced, "top_level_s": top, "self_s_sum": self_sum,
        "self_s_minus_overhead_s": self_sum - (interval - untraced),
        "library_share": out["trace.library_share"],
        "ok": (abs(self_sum - top) <= 1e-9 * top
               and out["trace.library_share"] >= LIBRARY_SHARE_FLOOR),
    }
    if not account["ok"]:
        print(f"trace check failed: {account}", file=sys.stderr)
    return out, account


def run_all(args) -> int:
    """Each workload in its own process, so no state or memory carries over."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        print(f"{name}\t{lines[-1] if lines else ''}")
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    result, summary = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
