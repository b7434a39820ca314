"""tools/rss_phases.py still runs one round against the library: each
workload, shrunk to a few dozen pairs and generated in-process, prints one
line per phase, in order, with its peak and current resident sizes."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

import generate  # noqa: E402
import workloads  # noqa: E402

_SPEC = importlib.util.spec_from_file_location("rss_phases", ROOT / "tools" / "rss_phases.py")
rss_phases = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(rss_phases)

PHASES = ["start", "setup", "build_stats", "cnn_train", "component_scores", "train_fusion",
          "save_bundle", "load_bundle", "parse_test", "score_pass"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_round_prints_every_phase_in_order(name, tmp_path, capsys):
    wl = replace(workloads.WORKLOADS[name], vocab=300, train_pairs=30, test_pairs=10)
    generate.generate(1, wl.vocab, workloads.DIM, wl.split, wl.train_pairs, wl.test_pairs,
                      tmp_path)
    rss_phases._round(name, tmp_path)
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [fields[0] for fields in lines] == PHASES
    for _, peak, current in lines:
        assert float(peak) > 0.0 and float(current) > 0.0
