"""The benchmark in ``perfbench/`` still runs against the library: each
workload, shrunk to a few pairs, completes one round with tracing off and
on, reports every metric it declares and passes its own checks.

A library change can keep perfbench's own unit tests green and still break
a full run, for instance by no longer calling a public function whose span
a per-layer metric reads.  This test runs ``run.run`` itself, with the
generator and the reference scorer called in-process.
"""

import gc
import sys
from dataclasses import replace
from pathlib import Path

import pytest

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
        result, _ = run.run(wl, 1, 1e-3, trace)
    finally:
        gc.unfreeze()  # run.run freezes the objects alive at each round
    assert set(result["metrics"]) == set(workloads.PER_LAYER if trace else workloads.END_TO_END)
    assert result["correct"] is True
