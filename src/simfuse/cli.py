"""Command-line surface: train a model bundle, score pair files, evaluate.

Exit codes: 0 success, 1 data/model error, 2 usage error.  All commands
are deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import IO, Callable, TypeVar

from . import pipeline
from .cnn import DEFAULT_N_MAX
from .corpus import BINARY, GRADED, LABEL_CONVENTIONS, ONE_IS_SIMILAR, Dataset, parse_pair_file
from .embedding import check_n_max, load_text_embeddings
from .errors import ConfigError, FormatError, SimfuseError, check_choice
from .fusion import FUSION_MODES, LEARNED
from .metrics import MetricReport
from .nn import TrainConfig

EMBEDDINGS_ENV_VAR = "SIMFUSE_EMBEDDINGS"

T = TypeVar("T")


@dataclass
class CliConfig:
    """Flat key=value configuration; command-line flags take precedence."""

    embedding_path: str | None = None
    n_max: int = DEFAULT_N_MAX
    seed: int = TrainConfig.seed
    learning_rate: float = TrainConfig.learning_rate
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    label_convention: str = ONE_IS_SIMILAR
    fusion_mode: str = LEARNED
    weighting_factor: str = "accuracy"
    train_config: TrainConfig = field(init=False, repr=False, compare=False)
    # the keys a config file set; parse_config_file fills it in
    file_keys: frozenset[str] = field(default=frozenset(), init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        check_n_max(self.n_max)
        self.train_config = TrainConfig(**{f.name: getattr(self, f.name)
                                           for f in fields(TrainConfig)})
        check_choice("label_convention", self.label_convention, LABEL_CONVENTIONS)
        check_choice("fusion_mode", self.fusion_mode, FUSION_MODES)
        check_choice("weighting_factor", self.weighting_factor, pipeline.CALIBRATION_FACTORS)


# key -> parser of its value: the type of each CliConfig default
_CONFIG_PARSERS = {f.name: str if f.default is None else type(f.default)
                   for f in fields(CliConfig) if f.init}


def parse_config_file(path: str) -> CliConfig:
    overrides = {}
    for lineno, line in enumerate(_read(path, list), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = _CONFIG_PARSERS[key](value)
        except ValueError:
            raise ConfigError(f"config line {lineno}: bad value for {key!r}") from None
    config = CliConfig(**overrides)
    config.file_keys = frozenset(overrides)
    return config


def _resolve_config(args: argparse.Namespace) -> CliConfig:
    if args.config:
        return parse_config_file(args.config)
    return CliConfig()


def _resolve_embeddings(args: argparse.Namespace, config: CliConfig) -> str:
    # Precedence: flag, then config file, then environment variable.
    path = args.embeddings or config.embedding_path or os.environ.get(EMBEDDINGS_ENV_VAR)
    if not path:
        raise ConfigError(
            "no embeddings given (use --embeddings, embedding_path in the "
            f"config file, or {EMBEDDINGS_ENV_VAR})"
        )
    return path


def _read(path: str, parse: Callable[[IO[str]], T]) -> T:
    """``parse`` of the UTF-8 text file at ``path``, without a leading byte
    order mark; a decode error or a FormatError ends in a FormatError that
    names the file."""
    with pipeline._naming(path, (FormatError,)), open(path, encoding="utf-8-sig") as stream:
        return parse(stream)


def _load_bundle(args: argparse.Namespace, config: CliConfig) -> pipeline.ModelBundle:
    # A v2 bundle knows its n_max; pass one only when the config file sets
    # it, so that a value differing from the bundle's is an error.
    n_max = config.n_max if "n_max" in config.file_keys else None
    return pipeline.load_bundle(args.model, n_max=n_max)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    embeddings_path = _resolve_embeddings(args, config)
    dataset = _read(args.pairs, lambda f: parse_pair_file(f, BINARY, config.label_convention))
    table = _read(embeddings_path, load_text_embeddings)
    bundle, cnn_losses, fusion_losses = pipeline.train_bundle(
        dataset, table, config.train_config, n_max=config.n_max,
        fusion_mode=config.fusion_mode, factor=config.weighting_factor)
    for epoch, loss in enumerate(cnn_losses, start=1):
        print(f"cnn_epoch\t{epoch}\t{_fmt(loss)}")
    for epoch, loss in enumerate(fusion_losses, start=1):
        print(f"fusion_epoch\t{epoch}\t{_fmt(loss)}")
    weights = bundle.weights
    print(f"weights\t{_fmt(weights.alpha)}\t{_fmt(weights.beta)}\t{_fmt(weights.gamma)}")
    pipeline.save_bundle(bundle, args.out)
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    bundle = _load_bundle(args, config)
    dataset = _read(args.pairs, lambda f: parse_pair_file(f, BINARY, config.label_convention))
    for pair in dataset:
        scores = pipeline.score_with_bundle(bundle, pair)
        if args.format == "json":
            print(json.dumps({"id": pair.id, **asdict(scores)}))
        else:
            print("\t".join([
                pair.id, _fmt(scores.jaccard), _fmt(scores.w2vcnn),
                _fmt(scores.tfidf), _fmt(scores.fused), scores.predicted,
            ]))
    return 0


def _check_not_binary_shaped(dataset: Dataset) -> None:
    # A "graded" file whose every label is exactly 0 or 1 is almost
    # certainly a binary file passed with --graded; refuse rather than
    # report meaningless correlations.
    if dataset.pairs and all(pair.label in (0.0, 1.0) for pair in dataset):
        raise FormatError(
            "all labels are 0/1; this looks like a binary pair file "
            "(drop --graded to evaluate it)"
        )


def _print_report(report: MetricReport, graded: bool) -> None:
    if graded:
        assert report.pearson is not None and report.spearman is not None
        print(f"{report.pearson * 100:.1f} / {report.spearman * 100:.1f}")
        return
    for name in ("accuracy", "precision", "recall", "f1"):
        print(f"{name}\t{getattr(report, name):.4f}")


def cmd_eval(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    bundle = _load_bundle(args, config)
    kind = GRADED if args.graded else BINARY
    dataset = _read(args.pairs, lambda f: parse_pair_file(f, kind, config.label_convention))
    if args.graded:
        _check_not_binary_shaped(dataset)
    report = pipeline.evaluate(dataset, bundle)
    _print_report(report, graded=args.graded)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simfuse",
        description="Sentence-pair similarity: train, score and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model bundle from a pair file")
    train.add_argument("--pairs", required=True, help="training TSV pair file")
    train.add_argument("--embeddings", help="word2vec-format text embeddings "
                       f"(falls back to config, then ${EMBEDDINGS_ENV_VAR})")
    train.add_argument("--out", required=True, help="bundle output directory")
    train.add_argument("--config", help="flat key = value config file")
    train.set_defaults(func=cmd_train)

    score = sub.add_parser("score", help="score pairs with a trained bundle")
    score.add_argument("--model", required=True, help="bundle directory")
    score.add_argument("--pairs", required=True, help="TSV pair file")
    score.add_argument("--format", choices=("tsv", "json"), default="tsv")
    score.add_argument("--config", help="flat key = value config file")
    score.set_defaults(func=cmd_score)

    evaluate = sub.add_parser("eval", help="evaluate a bundle on labeled pairs")
    evaluate.add_argument("--model", required=True, help="bundle directory")
    evaluate.add_argument("--pairs", required=True, help="TSV pair file")
    evaluate.add_argument("--graded", action="store_true",
                          help="treat labels as graded 0..5 scores")
    evaluate.add_argument("--config", help="flat key = value config file")
    evaluate.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SimfuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
