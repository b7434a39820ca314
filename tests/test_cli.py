import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from simfuse.cli import _CONFIG_PARSERS, CliConfig, main, parse_config_file
from simfuse.corpus import BINARY, parse_pair_file
from simfuse.embedding import load_text_embeddings
from simfuse.errors import ConfigError
from simfuse.fusion import LEARNED, WEIGHTED_SUM, fuse
from simfuse.pipeline import load_bundle, save_bundle, score_with_bundle, train_bundle

PAIRS = """1\tred apple\tred apple\t1
2\tgreen pear\tgreen pear\t1
3\tblue fish\tyellow bird\t0
4\tcold snow\thot sand\t0
"""

VOCAB = ["red", "apple", "green", "pear", "blue", "fish",
         "yellow", "bird", "cold", "snow", "hot", "sand"]


@pytest.fixture()
def workdir(tmp_path):
    rng = np.random.default_rng(101)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(PAIRS, encoding="utf-8")
    lines = [f"{len(VOCAB)} 4"]
    for word in VOCAB:
        values = " ".join(f"{x:.6f}" for x in rng.standard_normal(4))
        lines.append(f"{word} {values}")
    embeddings = tmp_path / "embeddings.txt"
    embeddings.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 5\nseed = 7\nfusion_mode = weighted_sum\n",
                      encoding="utf-8")
    return tmp_path, pairs, embeddings, config


def _train(workdir, out_name="model"):
    tmp_path, pairs, embeddings, config = workdir
    out = tmp_path / out_name
    status = main(["train", "--pairs", str(pairs), "--embeddings", str(embeddings),
                   "--out", str(out), "--config", str(config)])
    assert status == 0
    return out


class TestTrain:
    def test_creates_bundle(self, workdir, capsys):
        out = _train(workdir)
        captured = capsys.readouterr()
        names = sorted(p.name for p in out.iterdir())
        assert names == ["cnn.params", "embeddings.npy", "fusion.params", "manifest.tsv",
                         "stats.tsv", "vocab.txt"]
        lines = captured.out.splitlines()
        assert sum(1 for l in lines if l.startswith("cnn_epoch\t")) == 5
        # weighted_sum mode fits no combiner, so it prints no combiner losses
        assert sum(1 for l in lines if l.startswith("fusion_epoch\t")) == 0
        assert lines[-1].startswith("weights\t")

    def test_learned_mode_fits_the_combiner(self, workdir, tmp_path, capsys):
        _, pairs, embeddings, _ = workdir
        config = tmp_path / "learned.cfg"
        config.write_text("epochs = 5\nseed = 7\nfusion_mode = learned\n", encoding="utf-8")
        assert main(["train", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--out", str(tmp_path / "m"), "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for l in lines if l.startswith("fusion_epoch\t")) == 5
        assert len((tmp_path / "m" / "fusion.params").read_text().splitlines()) == 6

    @pytest.mark.parametrize("mode", [WEIGHTED_SUM, LEARNED])
    def test_writes_the_bundle_train_bundle_writes(self, workdir, tmp_path, mode):
        _, pairs, embeddings, _ = workdir
        config_path = tmp_path / f"{mode}.cfg"
        config_path.write_text(f"epochs = 5\nseed = 7\nfusion_mode = {mode}\n",
                               encoding="utf-8")
        assert main(["train", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--out", str(tmp_path / "cli"), "--config", str(config_path)]) == 0
        config = parse_config_file(str(config_path))
        with open(pairs, encoding="utf-8") as f:
            dataset = parse_pair_file(f, BINARY)
        with open(embeddings, encoding="utf-8") as f:
            table = load_text_embeddings(f)
        bundle, _, _ = train_bundle(dataset, table, config.train_config, n_max=config.n_max,
                                    fusion_mode=mode, factor=config.weighting_factor)
        save_bundle(bundle, tmp_path / "library")
        names = sorted(p.name for p in (tmp_path / "cli").iterdir())
        assert sorted(p.name for p in (tmp_path / "library").iterdir()) == names
        for name in names:
            assert ((tmp_path / "cli" / name).read_bytes()
                    == (tmp_path / "library" / name).read_bytes()), name

    def test_single_class_weighted_sum_trains(self, workdir, tmp_path):
        _, _, embeddings, config = workdir
        single = tmp_path / "single.tsv"
        single.write_text("1\tred apple\tred apple\t1\n2\tgreen pear\tgreen pear\t1\n",
                          encoding="utf-8")
        assert main(["train", "--pairs", str(single), "--embeddings", str(embeddings),
                     "--out", str(tmp_path / "m"), "--config", str(config)]) == 0

    @pytest.mark.parametrize("content, message", [
        (b"1 2\nr\xffd 1 1\n", "not UTF-8 text (invalid start byte)"),
        (b"1 2\nred nan 1\n", "line 2: non-finite value"),
        (b"0 4\n", "embedding file contains no vectors"),
    ], ids=["non_utf8", "nan", "header_only"])
    def test_bad_embeddings_file_named_in_one_error_line(self, workdir, tmp_path, capsys,
                                                         content, message):
        _, pairs, _, config = workdir
        bad = tmp_path / "bad_embeddings.txt"
        bad.write_bytes(content)
        status = main(["train", "--pairs", str(pairs), "--embeddings", str(bad),
                       "--out", str(tmp_path / "m"), "--config", str(config)])
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]

    def test_diverging_training_exits_1(self, workdir, tmp_path, capsys):
        _, pairs, _, config = workdir
        huge = tmp_path / "huge.txt"
        huge.write_text("".join(f"{w} 1e200 1e200 1e200 1e200\n" for w in VOCAB),
                        encoding="utf-8")
        status = main(["train", "--pairs", str(pairs), "--embeddings", str(huge),
                       "--out", str(tmp_path / "m"), "--config", str(config)])
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: training diverged in epoch 1: parameters must be finite"]

    def test_diverging_learning_rate_exits_1_with_one_error_line(self, workdir, tmp_path,
                                                                 capsys):
        _, pairs, embeddings, _ = workdir
        config = tmp_path / "huge_lr.cfg"
        config.write_text("epochs = 5\nseed = 7\nfusion_mode = weighted_sum\n"
                          "learning_rate = 1e12\n", encoding="utf-8")
        status = main(["train", "--pairs", str(pairs), "--embeddings", str(embeddings),
                       "--out", str(tmp_path / "m"), "--config", str(config)])
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: training diverged in epoch 5: parameters must be finite"]

    def test_missing_pairs_flag_is_usage_error(self, workdir):
        tmp_path, _, embeddings, _ = workdir
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--embeddings", str(embeddings), "--out", str(tmp_path / "m")])
        assert excinfo.value.code == 2

    def test_malformed_line_names_line_number(self, workdir, tmp_path, capsys):
        _, _, embeddings, _ = workdir
        bad = tmp_path / "bad.tsv"
        rows = [f"{i}\ta b\tc d\t1" for i in range(1, 7)]
        rows.append("7\tmissing column\t1")
        bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
        status = main(["train", "--pairs", str(bad), "--embeddings", str(embeddings),
                       "--out", str(tmp_path / "m")])
        assert status == 1
        assert "line 7" in capsys.readouterr().err

    def test_empty_sentence_column_names_its_line(self, workdir, tmp_path, capsys):
        _, _, embeddings, _ = workdir
        bad = tmp_path / "bad.tsv"
        bad.write_text(PAIRS + "5\tred apple\t\t1\n", encoding="utf-8")
        status = main(["train", "--pairs", str(bad), "--embeddings", str(embeddings),
                       "--out", str(tmp_path / "m")])
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: line 5: sentence has no words"]

    def test_byte_order_mark_on_embeddings_is_skipped(self, workdir, tmp_path):
        _, pairs, embeddings, config = workdir
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + embeddings.read_bytes())
        for name, path in (("plain", embeddings), ("marked", marked)):
            assert main(["train", "--pairs", str(pairs), "--embeddings", str(path),
                         "--out", str(tmp_path / name), "--config", str(config)]) == 0
        assert [(tmp_path / "marked" / f.name).read_bytes() == f.read_bytes()
                for f in sorted((tmp_path / "plain").iterdir())] == [True] * 6

    def test_embeddings_from_environment(self, workdir, monkeypatch, tmp_path):
        _, pairs, embeddings, config = workdir
        monkeypatch.setenv("SIMFUSE_EMBEDDINGS", str(embeddings))
        status = main(["train", "--pairs", str(pairs),
                       "--out", str(tmp_path / "env_model"), "--config", str(config)])
        assert status == 0

    def test_no_embeddings_anywhere(self, workdir, monkeypatch, tmp_path, capsys):
        _, pairs, _, _ = workdir
        monkeypatch.delenv("SIMFUSE_EMBEDDINGS", raising=False)
        status = main(["train", "--pairs", str(pairs), "--out", str(tmp_path / "m")])
        assert status == 1
        assert "embeddings" in capsys.readouterr().err

    def test_unknown_config_key(self, workdir, tmp_path, capsys):
        _, pairs, embeddings, _ = workdir
        config = tmp_path / "bad.cfg"
        config.write_text("momentum = 0.9\n", encoding="utf-8")
        status = main(["train", "--pairs", str(pairs), "--embeddings", str(embeddings),
                       "--out", str(tmp_path / "m"), "--config", str(config)])
        assert status == 1
        assert "momentum" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "seed = -1",
        "learning_rate = nan", "learning_rate = inf", "learning_rate = 0", "learning_rate = -0.1",
        "epochs = 0", "batch_size = 0", "n_max = 0",
        "fusion_mode = stacked", "weighting_factor = auc",
    ])
    def test_a_malformed_config_value_exits_1_with_one_error_line(self, workdir, tmp_path,
                                                                  capsys, line):
        _, pairs, embeddings, _ = workdir
        config = tmp_path / "bad.cfg"
        # two epochs keep a run short should the value be accepted; a later
        # line overrides an earlier one
        config.write_text(f"epochs = 2\n{line}\n", encoding="utf-8")
        status = main(["train", "--pairs", str(pairs), "--embeddings", str(embeddings),
                       "--out", str(tmp_path / "m"), "--config", str(config)])
        captured = capsys.readouterr()
        assert status == 1
        assert len(captured.err.splitlines()) == 1
        # the error names the key, so it is the config check that stopped the run
        assert captured.err.startswith("error: ") and line.split(" = ")[0] in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "m").exists()


class TestScore:
    def test_tsv_records(self, workdir, capsys):
        out = _train(workdir)
        _, pairs, _, _ = workdir
        capsys.readouterr()
        status = main(["score", "--model", str(out), "--pairs", str(pairs)])
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        first = lines[0].split("\t")
        assert first[0] == "1"
        assert float(first[1]) == 1.0  # identical pair: jaccard
        assert float(first[3]) == pytest.approx(1.0)  # identical pair: tfidf
        assert first[5] in ("similar", "different")

    def test_json_records(self, workdir, capsys):
        out = _train(workdir)
        _, pairs, _, _ = workdir
        capsys.readouterr()
        status = main(["score", "--model", str(out), "--pairs", str(pairs),
                       "--format", "json"])
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        record = json.loads(lines[0])
        assert set(record) == {"id", "jaccard", "w2vcnn", "tfidf", "fused", "predicted"}

    def test_emitted_components_refuse_to_fused(self, workdir, capsys):
        out = _train(workdir)
        _, pairs, _, _ = workdir
        capsys.readouterr()
        main(["score", "--model", str(out), "--pairs", str(pairs)])
        lines = capsys.readouterr().out.splitlines()
        bundle = load_bundle(out)
        for line in lines:
            fields = line.split("\t")
            triple = (float(fields[1]), float(fields[2]), float(fields[3]))
            assert fuse(triple, bundle.weights, bundle.fusion_params) == float(fields[4])

    def test_missing_bundle(self, workdir, tmp_path, capsys):
        _, pairs, _, _ = workdir
        status = main(["score", "--model", str(tmp_path / "nowhere"),
                       "--pairs", str(pairs)])
        assert status == 1

    def test_byte_order_mark_on_pairs_is_skipped(self, workdir, tmp_path, capsys):
        out = _train(workdir)
        _, pairs, _, _ = workdir
        marked = tmp_path / "marked.tsv"
        marked.write_bytes(b"\xef\xbb\xbf" + pairs.read_bytes())
        capsys.readouterr()
        main(["score", "--model", str(out), "--pairs", str(pairs)])
        plain = capsys.readouterr().out
        assert main(["score", "--model", str(out), "--pairs", str(marked)]) == 0
        assert capsys.readouterr().out == plain
        assert plain.startswith("1\t")

    def test_deterministic_output(self, workdir, capsys):
        out = _train(workdir)
        _, pairs, _, _ = workdir
        capsys.readouterr()
        main(["score", "--model", str(out), "--pairs", str(pairs)])
        first = capsys.readouterr().out
        main(["score", "--model", str(out), "--pairs", str(pairs)])
        second = capsys.readouterr().out
        assert first == second

    def test_deterministic_across_processes(self, workdir, capsys):
        # byte-identical even under different string-hash randomization
        import os
        import subprocess
        import sys
        out = _train(workdir)
        _, pairs, _, _ = workdir
        capsys.readouterr()
        # the child imports simfuse from this checkout's src, installed or not
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        results = []
        for hash_seed in ("1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
            proc = subprocess.run(
                [sys.executable, "-m", "simfuse.cli", "score",
                 "--model", str(out), "--pairs", str(pairs)],
                capture_output=True, env=env, check=True,
            )
            results.append(proc.stdout)
        assert results[0] == results[1]


class TestNMaxFromTheBundle:
    LONG = VOCAB + VOCAB[:8]  # 20 tokens, more than n_max = 16

    def _train_with_n_max_16(self, workdir):
        tmp_path, pairs, embeddings, _ = workdir
        config = tmp_path / "n16.cfg"
        config.write_text("epochs = 5\nseed = 7\nfusion_mode = weighted_sum\nn_max = 16\n",
                          encoding="utf-8")
        long_pairs = tmp_path / "long.tsv"
        long_pairs.write_text(PAIRS + f"5\t{' '.join(self.LONG)}\t{' '.join(self.LONG[::-1])}\t0\n",
                              encoding="utf-8")
        assert main(["train", "--pairs", str(pairs), "--embeddings", str(embeddings),
                     "--out", str(tmp_path / "m16"), "--config", str(config)]) == 0
        return tmp_path / "m16", long_pairs, config

    def test_score_without_a_config_uses_the_trained_n_max(self, workdir, capsys):
        model, long_pairs, config = self._train_with_n_max_16(workdir)
        outputs = []
        for extra in ([], ["--config", str(config)]):
            capsys.readouterr()
            assert main(["score", "--model", str(model), "--pairs", str(long_pairs)] + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 5
        # the truncation length shows in the long pair's CNN score
        bundle = load_bundle(model)
        assert bundle.n_max == 16
        with open(long_pairs, encoding="utf-8") as f:
            long_pair = parse_pair_file(f, BINARY).pairs[-1]
        assert (score_with_bundle(bundle, long_pair).w2vcnn
                != score_with_bundle(dataclasses.replace(bundle, n_max=32), long_pair).w2vcnn)

    def test_a_config_with_another_n_max_exits_1(self, workdir, tmp_path, capsys):
        model, long_pairs, _ = self._train_with_n_max_16(workdir)
        config = tmp_path / "n8.cfg"
        config.write_text("n_max = 8\n", encoding="utf-8")
        capsys.readouterr()
        for command in ("score", "eval"):
            assert main([command, "--model", str(model), "--pairs", str(long_pairs),
                         "--config", str(config)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "error: manifest.tsv: bundle was trained with n_max 16, got 8"]

    def test_config_file_records_the_keys_it_sets(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 3\nepochs = 2\n", encoding="utf-8")
        assert parse_config_file(str(path)).file_keys == {"seed", "epochs"}


class TestEval:
    def test_binary_metrics_perfect(self, workdir, capsys):
        out = _train(workdir)
        _, pairs, _, _ = workdir
        capsys.readouterr()
        status = main(["eval", "--model", str(out), "--pairs", str(pairs)])
        assert status == 0
        lines = capsys.readouterr().out.splitlines()
        values = {name: float(v) for name, v in (l.split("\t") for l in lines)}
        assert values == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_graded_perfect_prints_100(self, workdir, tmp_path, capsys):
        out = _train(workdir)
        _, pairs, _, _ = workdir
        capsys.readouterr()
        main(["score", "--model", str(out), "--pairs", str(pairs)])
        fused = [float(l.split("\t")[4]) for l in capsys.readouterr().out.splitlines()]
        original = pairs.read_text(encoding="utf-8").splitlines()
        graded_lines = []
        for line, f in zip(original, fused):
            cols = line.split("\t")
            cols[3] = repr(5.0 * f)
            graded_lines.append("\t".join(cols))
        graded_file = tmp_path / "graded.tsv"
        graded_file.write_text("\n".join(graded_lines) + "\n", encoding="utf-8")
        status = main(["eval", "--model", str(out), "--pairs", str(graded_file),
                       "--graded"])
        assert status == 0
        assert capsys.readouterr().out.strip() == "100.0 / 100.0"

    def test_graded_flag_on_binary_file(self, workdir, capsys):
        out = _train(workdir)
        _, pairs, _, _ = workdir
        capsys.readouterr()
        status = main(["eval", "--model", str(out), "--pairs", str(pairs), "--graded"])
        assert status == 1
        assert "binary" in capsys.readouterr().err

    def test_unparseable_graded_label_exits_1_naming_the_line(self, workdir, tmp_path,
                                                                capsys):
        out = _train(workdir)
        graded_file = tmp_path / "g.tsv"
        graded_file.write_text("1\ta b\tb c\t3.5\n2\ta\tb\tabc\n", encoding="utf-8")
        capsys.readouterr()
        status = main(["eval", "--model", str(out), "--pairs", str(graded_file), "--graded"])
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {graded_file}: line 2: unparseable graded label 'abc'"]

    def test_binary_eval_of_graded_file(self, workdir, tmp_path, capsys):
        out = _train(workdir)
        graded_file = tmp_path / "g.tsv"
        graded_file.write_text("1\ta b\tb c\t3.5\n", encoding="utf-8")
        status = main(["eval", "--model", str(out), "--pairs", str(graded_file)])
        assert status == 1

    def test_empty_pairs_file(self, workdir, tmp_path, capsys):
        out = _train(workdir)
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        status = main(["eval", "--model", str(out), "--pairs", str(empty)])
        assert status == 1


class TestConfigFile:
    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# comment\nn_max = 16\nlearning_rate = 0.1\n"
            "label_convention = zero_is_similar\nweighting_factor = f1\n",
            encoding="utf-8",
        )
        config = parse_config_file(str(path))
        assert config.n_max == 16
        assert config.learning_rate == 0.1
        assert config.label_convention == "zero_is_similar"
        assert config.weighting_factor == "f1"

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = zero\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_readme_block_lists_each_key_with_its_default(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config file", 1)[1].split("```\n")[1]
        entries = [line.split("#", 1)[0].split("=") for line in block.splitlines()]
        keys = [key.strip() for key, _ in entries]
        assert keys == list(_CONFIG_PARSERS)
        default = CliConfig()
        path = tmp_path / "c.cfg"
        for key, value in entries:
            key, value = key.strip(), value.strip()
            if not value:  # no default
                assert getattr(default, key) is None, key
                continue
            path.write_text(f"{key} = {value}\n", encoding="utf-8")
            got = getattr(parse_config_file(str(path)), key)
            assert (got, type(got)) == (getattr(default, key), type(getattr(default, key))), key

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"\xef\xbb\xbfepochs = 5\n")
        assert parse_config_file(str(path)).epochs == 5

    def test_integral_float_parses_as_float(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("learning_rate = 1\n", encoding="utf-8")
        got = parse_config_file(str(path)).learning_rate
        assert (got, type(got)) == (1.0, float)

    def test_fractional_epochs_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 2.5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="^config line 1: bad value for 'epochs'$"):
            parse_config_file(str(path))

    def test_invariant_violations_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_line_without_an_equals_sign_exits_1_naming_it(self, workdir, tmp_path, capsys):
        _, pairs, embeddings, _ = workdir
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 2\nseed 3\n", encoding="utf-8")
        status = main(["train", "--pairs", str(pairs), "--embeddings", str(embeddings),
                       "--out", str(tmp_path / "m"), "--config", str(path)])
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: config line 2: expected key = value"]
        assert not (tmp_path / "m").exists()

    def test_non_utf8_file_exits_1_naming_it(self, workdir, tmp_path, capsys):
        _, pairs, embeddings, _ = workdir
        path = tmp_path / "c.cfg"
        path.write_bytes(b"\xff\xfeepochs = 5\n")
        status = main(["train", "--pairs", str(pairs), "--embeddings", str(embeddings),
                       "--out", str(tmp_path / "m"), "--config", str(path)])
        assert status == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: not UTF-8 text (invalid start byte)"]
