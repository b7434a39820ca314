"""Digests of everything ``simfuse train`` and ``simfuse score`` write, for
checking that a change keeps every output byte.

Usage::

    python3 tools/output_digests.py SRC_DIR > digests.txt

``SRC_DIR`` is the ``src`` directory of the checkout under test.  The
script runs eight cases, four inputs each trained in both fusion modes and
then scored.  Three inputs are the benchmark workloads' seed-1 inputs,
written by ``perfbench/generate.py``, trained with the benchmark's training
settings (``perfbench/workloads.py``) and scored on the workload's test
split.  The fourth is the ``tests/test_cli.py`` example: its four pairs and
its 12-word dim-4 table drawn from seed 101, trained with ``epochs = 5`` and
``seed = 7`` and scored on the same four pairs.  Each run is
``python -m simfuse.cli`` with ``PYTHONPATH=SRC_DIR`` in a temporary
directory.  Each case's test split is also scored with a v1 copy of the
trained bundle: its ``cnn.params``, ``fusion.params`` and ``stats.tsv`` plus
the case's input embeddings as ``embeddings.txt``, with no manifest, so that
the v1 read path is compared too.  It prints one ``sha256  case/file`` line for every bundle file, the
``train`` stdout, the ``score`` stdout and the v1 ``score`` stdout
(``score-v1.stdout``): 72 lines.  Run it on two checkouts and ``diff`` the
outputs; the same bytes give an empty diff.  Nothing under ``perfbench/`` or
``SRC_DIR`` is written: children run without bytecode caches.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1
MODES = ("weighted_sum", "learned")
# the tests/test_cli.py example
CLI_PAIRS = """1\tred apple\tred apple\t1
2\tgreen pear\tgreen pear\t1
3\tblue fish\tyellow bird\t0
4\tcold snow\thot sand\t0
"""
CLI_VOCAB = ["red", "apple", "green", "pear", "blue", "fish",
             "yellow", "bird", "cold", "snow", "hot", "sand"]
CLI_TABLE_SEED = 101
CLI_CONFIG = "epochs = 5\nseed = 7\n"
# the bundle files a v1 bundle shares with v2, byte for byte
V1_PARAM_FILES = ("cnn.params", "fusion.params", "stats.tsv")


def _run(args: list[str], env: dict[str, str]) -> bytes:
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(args)} exited {done.returncode}:\n"
                 f"{done.stderr.decode(errors='replace')}")
    return done.stdout


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_cli_inputs(inputs: Path) -> None:
    """The tests/test_cli.py example as ``train.tsv`` (also ``test.tsv``) and
    ``embeddings.txt``."""
    inputs.mkdir()
    rng = np.random.default_rng(CLI_TABLE_SEED)
    lines = [f"{len(CLI_VOCAB)} 4"]
    for word in CLI_VOCAB:
        lines.append(f"{word} " + " ".join(f"{x:.6f}" for x in rng.standard_normal(4)))
    (inputs / "embeddings.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for split in ("train.tsv", "test.tsv"):
        (inputs / split).write_text(CLI_PAIRS, encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: output_digests.py SRC_DIR")
    src = Path(argv[0]).resolve()
    if not (src / "simfuse" / "cli.py").is_file():
        sys.exit(f"error: no simfuse sources under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    bench_config = (f"learning_rate = {workloads.LEARNING_RATE}\nepochs = {workloads.EPOCHS}\n"
                    f"batch_size = {workloads.BATCH_SIZE}\nseed = {workloads.TRAIN_SEED}\n"
                    f"n_max = {workloads.N_MAX}\n")
    with tempfile.TemporaryDirectory() as tmp:
        for name in (*workloads.WORKLOADS, "cli_example"):
            inputs = Path(tmp) / name
            if name == "cli_example":
                _write_cli_inputs(inputs)
                config = CLI_CONFIG
            else:
                _run([str(PERFBENCH / "generate.py"), name, str(SEED), str(inputs)], env)
                config = bench_config
            for mode in MODES:
                case = f"{name}-{mode}"
                cfg = Path(tmp) / f"{case}.cfg"
                cfg.write_text(f"{config}fusion_mode = {mode}\n", encoding="utf-8")
                model = Path(tmp) / case
                train_out = _run(["-m", "simfuse.cli", "train", "--pairs",
                                  str(inputs / "train.tsv"), "--embeddings",
                                  str(inputs / "embeddings.txt"), "--out", str(model),
                                  "--config", str(cfg)], env)
                score_out = _run(["-m", "simfuse.cli", "score", "--model", str(model),
                                  "--pairs", str(inputs / "test.tsv")], env)
                v1 = Path(tmp) / f"{case}-v1"
                v1.mkdir()
                for part in V1_PARAM_FILES:
                    shutil.copyfile(model / part, v1 / part)
                shutil.copyfile(inputs / "embeddings.txt", v1 / "embeddings.txt")
                # a v1 bundle records no n_max: it comes from the config
                score_v1_out = _run(["-m", "simfuse.cli", "score", "--model", str(v1),
                                     "--pairs", str(inputs / "test.tsv"), "--config", str(cfg)],
                                    env)
                for path in sorted(model.iterdir()):
                    print(f"{_digest(path.read_bytes())}  {case}/{path.name}")
                print(f"{_digest(train_out)}  {case}/train.stdout")
                print(f"{_digest(score_out)}  {case}/score.stdout")
                print(f"{_digest(score_v1_out)}  {case}/score-v1.stdout", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
