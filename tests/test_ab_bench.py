"""The verdicts of tools/ab_bench.py, on made-up (parent, change) value pairs."""

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
