"""Interleaved benchmark runs of two checkouts, for judging a performance claim.

Usage::

    python3 tools/ab_bench.py PARENT CHANGE --workload W --pairs N --seed S --seconds T
        [--trace 0|1]

``PARENT`` and ``CHANGE`` are the roots of two source checkouts.  The script
runs ``perfbench/run.py --workload W --seed S --seconds T --trace X`` of each
checkout, from that checkout's root, ``N`` times, alternating which side runs
first in each pair.  Each run's result line goes to stderr as it arrives,
followed, for a run that failed or is not correct, by the last lines of its
own stderr.  Then it prints, for every metric of the runs, one tab-separated
row: the metric, its unit, the direction the change's ``BENCHMARK.json``
declares better, each side's median and quartiles, the change of the median
in percent, the pairs the change won (ties count for neither side), and a
verdict (see ``verdict``): ``gain``, ``worse`` or ``unresolved`` against the
metric's ``bound`` in that file, or ``-``.  The rows leave out every pair
with a side that failed or is not correct.  Final ``#`` rows count each
side's failed runs and failed operations, and the pairs left out; the exit
status is 1 when a pair was left out.  The script writes no file; the runs
clean up after themselves.

Passing the same checkout as both ``PARENT`` and ``CHANGE`` is an A/A control:
both sides run the same code, so its rows measure the host's own spread, the
median changes and pair wins that drift alone gives.  Read an A/B run against
an A/A run of the same workload, seed and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
WIN_SHARE = 0.9
STDERR_TAIL = 20


def _run(root: Path, args: argparse.Namespace) -> tuple[dict | None, list[str]]:
    """The result object of one benchmark run of the checkout at ``root``,
    or None when the run exits non-zero or prints no result, and the last
    ``STDERR_TAIL`` lines of the run's stderr."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    tail = done.stderr.splitlines()[-STDERR_TAIL:]
    if done.returncode != 0 or not lines:
        return None, tail
    return json.loads(lines[-1]), tail


def _declared(root: Path) -> dict[str, dict]:
    """{metric: its entry} as the checkout's BENCHMARK.json declares: each has
    ``better`` ("lower" or "higher"), and the end-to-end ones a ``bound``."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in declared["end_to_end"] + declared["per_layer"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(better: str, bound: float | None, pairs: list[tuple[float, float]]) -> str:
    """The verdict on one metric's (parent, change) value pairs.

    ``gain``: the change won at least nine tenths of the pairs and the medians
    differ by more than the parent's interquartile range.  ``worse``: the
    change's median is worse than the parent's by more than ``bound``, a
    fraction of the parent's median.  ``unresolved``: the parent's
    interquartile range is wider than that bound, and not every change run
    beats every parent run.  ``-`` otherwise; without a bound, only ``gain``
    can be given.
    """
    parent, change = [value for value, _ in pairs], [value for _, value in pairs]
    (p1, pm, p3), (_, cm, _) = _quartiles(parent), _quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if wins >= WIN_SHARE * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "gain"
    if bound is None:
        return "-"
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    if p3 - p1 > bound * abs(pm) and not all(sign * (c - p) > 0 for c in change
                                              for p in parent):
        return "unresolved"
    return "-"


def _row(name: str, unit: str, declared: dict, pairs: list[tuple[float, float]]) -> str:
    better = declared["better"]
    parent, change = [value for value, _ in pairs], [value for _, value in pairs]
    (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    delta = f"{100 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
    return (f"{name}\t{unit}\t{better}\t{pm:.6g} [{p1:.6g}, {p3:.6g}]\t"
            f"{cm:.6g} [{c1:.6g}, {c3:.6g}]\t{delta}\t{wins}/{len(pairs)}\t"
            f"{verdict(better, declared.get('bound'), pairs)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{side} {root} has no perfbench/run.py")
    declared = _declared(roots["change"])

    results: list[dict[str, dict | None]] = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side], tail = _run(roots[side], args)
            print(f"pair {i + 1} {side}\t{json.dumps(pair[side])}", file=sys.stderr)
            if pair[side] is None or not pair[side]["correct"]:
                for line in tail:
                    print(f"    {line}", file=sys.stderr)
            sys.stderr.flush()
        results.append(pair)

    complete = [pair for pair in results
                if all(run is not None and run["correct"] for run in pair.values())]
    print("metric\tunit\tbetter\tparent median [q1, q3]\tchange median [q1, q3]\t"
          "change\twins\tverdict")
    if complete:
        for name, entry in complete[0]["parent"]["metrics"].items():
            pairs = [(pair["parent"]["metrics"][name]["value"],
                      pair["change"]["metrics"][name]["value"]) for pair in complete]
            print(_row(name, entry["unit"], declared[name], pairs))
    for side in SIDES:
        runs = [pair[side] for pair in results]
        failed_runs = sum(run is None or not run["correct"] for run in runs)
        failed_ops = sum(run["failed"] for run in runs if run is not None)
        attempted = sum(run["attempted"] for run in runs if run is not None)
        print(f"# {side}: {failed_runs} of {len(runs)} runs failed or not correct; "
              f"{failed_ops} of {attempted} operations failed")
    print(f"# {len(results) - len(complete)} of {len(results)} pairs left out of the rows: "
          "a side failed or was not correct")
    return 0 if len(complete) == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
