"""The benchmark in ``perfbench/`` still runs against the library: each
workload, shrunk to a few pairs, completes one round with tracing off and
on, reports every metric it declares and passes its own checks; without
tracing, every pair's scores also equal the reference scorer's bitwise.

A library change can keep perfbench's own unit tests green and still break
a full run, for instance by no longer calling a public function whose span
a per-layer metric reads.  The first test runs ``run.run`` itself, with
the generator and the reference scorer called in-process; the second pins
the one call training must keep making through its public name.
"""

import gc
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from simfuse import cnn
from toy import separable_toy_set

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import generate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _shrunk(workload):
    return replace(workload, vocab=300, train_pairs=40, test_pairs=20, min_accuracy=0.0)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_round_reports_every_metric_and_is_correct(name, trace, monkeypatch, tmp_path):
    wl = _shrunk(workloads.WORKLOADS[name])

    def child(script, *args):
        if script == "generate.py":
            _, seed, directory = args
            generate.generate(seed, wl.vocab, workloads.DIM, wl.split, wl.train_pairs,
                              wl.test_pairs, directory)
        else:
            reference.main([str(arg) for arg in args])

    monkeypatch.setattr(run, "_child", child)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    try:
        result, summary = run.run(wl, 1, 1e-3, trace)
    finally:
        gc.unfreeze()  # run.run freezes the objects alive at each round
    assert set(result["metrics"]) == set(workloads.PER_LAYER if trace else workloads.END_TO_END)
    assert result["correct"] is True
    if not trace:
        # every scored pair equals the frozen reference scorer's, bit for bit
        assert summary["checked_pairs"] > 0
        assert summary["bitwise_equal_pairs"] == summary["checked_pairs"]


def test_cnn_train_calls_the_public_loss_once_per_batch(monkeypatch):
    """The traced benchmark reads ``cnn.loss_and_gradients.s`` and
    ``.calls`` off a wrapper it puts at ``simfuse.cnn.loss_and_gradients``;
    training must look the loss up there, once per mini-batch."""
    calls = []
    original = cnn.loss_and_gradients

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(cnn, "loss_and_gradients", counting)
    dataset, table = separable_toy_set(n_per_class=5, dim=4)
    config = cnn.TrainConfig(epochs=3, batch_size=4)
    cnn.cnn_train(dataset, table, config)
    expected = config.epochs * math.ceil(len(dataset) / config.batch_size)
    assert len(calls) == expected, (
        f"cnn_train made {len(calls)} calls through simfuse.cnn.loss_and_gradients, "
        f"not {expected}; perfbench's per-layer cnn.loss_and_gradients.s and "
        f"cnn.loss_and_gradients.calls would not measure training")
