"""tools/ab_bench.py: its verdicts on made-up (parent, change) value pairs, and
its handling of failed and incorrect runs of fake checkouts."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


def _pairs(parent, change):
    return list(zip(parent, change))


# ten parent runs around 1.0 with an interquartile range of 0.035
TIGHT = [0.96, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.04]
# ten parent runs around 1.0 with an interquartile range of 0.35
WIDE = [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]
# ten parent runs with a median of 1.0 and an interquartile range of 0.375
SKEWED = [0.7, 0.7, 0.7, 0.75, 1.0, 1.0, 1.05, 1.1, 1.1, 1.1]


@pytest.mark.parametrize("better, bound, parent, change, want", [
    # every change run faster by 0.1, the parent's spread 0.035: a gain
    ("lower", 0.25, TIGHT, [v - 0.1 for v in TIGHT], "gain"),
    ("higher", 0.25, TIGHT, [v + 0.1 for v in TIGHT], "gain"),
    # slower by 20% inside a 25% bound: no verdict; by 30%: worse
    ("lower", 0.25, TIGHT, [v * 1.2 for v in TIGHT], "-"),
    ("lower", 0.25, TIGHT, [v * 1.3 for v in TIGHT], "worse"),
    ("higher", 0.25, TIGHT, [v * 0.7 for v in TIGHT], "worse"),
    # a spread of 0.35 against a bound of 0.25, the medians equal: unresolved
    ("lower", 0.25, WIDE, list(reversed(WIDE)), "unresolved"),
    # a spread of 0.375 and every change run below every parent run: not
    # unresolved, and no gain, since the medians differ by less than 0.375
    ("lower", 0.25, SKEWED, [0.69] * 10, "-"),
    ("lower", 0.25, WIDE, [v - 1.0 for v in WIDE], "gain"),
    # worse beyond the bound wins over unresolved
    ("lower", 0.25, WIDE, [v * 1.5 for v in reversed(WIDE)], "worse"),
    # a metric without a bound gets a gain or nothing
    ("lower", None, WIDE, [v * 1.5 for v in WIDE], "-"),
    ("lower", None, TIGHT, [v - 0.1 for v in TIGHT], "gain"),
    # eight wins of ten are no gain, however far the medians move
    ("lower", 0.25, TIGHT, [v - 0.5 for v in TIGHT[:8]] + [2.0, 2.0], "-"),
])
def test_verdict(better, bound, parent, change, want):
    assert ab_bench.verdict(better, bound, _pairs(parent, change)) == want


def _checkout(root, run_py):
    """A fake checkout at ``root``: a ``perfbench/run.py`` and a
    BENCHMARK.json that declares ``train_s``."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(run_py, encoding="utf-8")
    (root / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "train_s", "unit": "s", "better": "lower", "bound": 0.25}],'
        ' "per_layer": []}', encoding="utf-8")
    return root


# prints one result line; the value and correctness come from the run's count
_RESULT = """import json, pathlib
count = pathlib.Path("count")
n = int(count.read_text()) + 1 if count.exists() else 1
count.write_text(str(n))
value, correct = {rule}
print(json.dumps({{"correct": correct, "attempted": 1, "failed": 0,
                  "metrics": {{"train_s": {{"value": value, "unit": "s"}}}}}}))
"""


def _main(parent, change, pairs):
    return ab_bench.main([str(parent), str(change), "--workload", "w", "--pairs", str(pairs),
                          "--seed", "1", "--seconds", "1"])


def test_a_failed_runs_stderr_tail_follows_its_line(tmp_path, capsys):
    failing = ("import sys\nfor _ in range(30):\n    print('line', file=sys.stderr)\n"
               "print('the workload exploded', file=sys.stderr)\nsys.exit(1)\n")
    parent = _checkout(tmp_path / "parent", _RESULT.format(rule="1.0, True"))
    change = _checkout(tmp_path / "change", failing)
    assert _main(parent, change, 1) == 1
    err = capsys.readouterr().err.splitlines()
    at = err.index("pair 1 change\tnull")
    tail = err[at + 1 : at + 1 + ab_bench.STDERR_TAIL]
    assert tail[-1] == "    the workload exploded"
    assert tail[:-1] == ["    line"] * (ab_bench.STDERR_TAIL - 1)


def test_a_pair_with_an_incorrect_side_is_left_out_of_the_rows(tmp_path, capsys):
    # the change's first run is not correct and would look twice as fast
    parent = _checkout(tmp_path / "parent", _RESULT.format(rule="1.0, True"))
    change = _checkout(tmp_path / "change",
                       _RESULT.format(rule="(0.5, False) if n == 1 else (1.0, True)"))
    assert _main(parent, change, 2) == 1
    out = capsys.readouterr().out.splitlines()
    row = next(line for line in out if line.startswith("train_s\t")).split("\t")
    assert row[3:7] == ["1 [1, 1]", "1 [1, 1]", "+0.0%", "0/1"]
    assert "# 1 of 2 pairs left out of the rows: a side failed or was not correct" in out
    assert "# change: 1 of 2 runs failed or not correct; 0 of 2 operations failed" in out
