"""End-to-end CLI: subcommand pipeline, exit codes, config handling,
output determinism."""

import json

import pytest

from capseq.cli import main
from capseq.config import ConfigError, parse_config_file


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """synth -> ingest once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw"
    data = root / "data"
    assert main([
        "synth", "--seed", "7", "--users", "6", "--pois", "40", "--days", "5",
        "--out-dir", str(raw),
    ]) == 0
    assert main([
        "ingest", "--checkins", str(raw / "checkins.csv"),
        "--friends", str(raw / "friendships.csv"),
        "--min-checkins", "10", "--out-dir", str(data),
    ]) == 0
    return root, raw, data


class TestPipeline:
    def test_synth_then_ingest_outputs(self, pipeline_dirs):
        root, raw, data = pipeline_dirs
        assert (raw / "checkins.csv").exists()
        assert (raw / "friendships.csv").exists()
        for name in ("sessions.jsonl", "encodings.json", "pois.json", "graph.json"):
            assert (data / name).exists()

    def test_features_command(self, pipeline_dirs, tmp_path):
        root, raw, data = pipeline_dirs
        out = tmp_path / "feat"
        assert main([
            "features", "--data-dir", str(data), "--out-dir", str(out),
        ]) == 0
        tables = json.loads((out / "tables.json").read_text())
        assert "stay" in tables and "popularity" in tables

    def test_train_generate_roundtrip(self, pipeline_dirs, tmp_path):
        root, raw, data = pipeline_dirs
        out = tmp_path / "run"
        assert main([
            "features", "--data-dir", str(data), "--out-dir", str(out),
        ]) == 0
        assert main([
            "train", "--data-dir", str(data), "--model", "caps-rnn",
            "--tables", str(out / "tables.json"),
            "--hidden-size", "12", "--n-layers", "1", "--embedding-size", "8",
            "--epochs", "3", "--lr", "0.05", "--seed", "3",
            "--out-dir", str(out),
        ]) == 0
        ckpt = out / "caps-rnn.ckpt"
        assert ckpt.exists() and ckpt.with_suffix(".ckpt.json").exists()
        curve = (out / "caps-rnn-loss.csv").read_text().splitlines()
        assert curve[0] == "# seed=3"
        assert len(curve) == 2 + 4  # header rows + epochs 0..3

        assert main([
            "generate", "--data-dir", str(data), "--checkpoint", str(ckpt),
            "--user", "u0000", "--length", "4", "--candidates", "3", "--k", "2",
            "--seed", "9", "--out-dir", str(out),
        ]) == 0
        lines = (out / "sequences.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["seed"] == 9 and header["model"] == "caps-rnn"
        records = [json.loads(l) for l in lines[1:]]
        assert len(records) == 2
        for rank, rec in enumerate(records):
            assert rec["rank"] == rank
            assert len(rec["pois"]) == 4
            assert len(rec["categories"]) == 4
            assert len(rec["displacement_km"]) == 3
        scores = [r["score"] for r in records]
        assert scores == sorted(scores, reverse=True)

    def test_train_zero_lr_constant_curve(self, pipeline_dirs, tmp_path):
        root, raw, data = pipeline_dirs
        out = tmp_path / "run0"
        assert main([
            "train", "--data-dir", str(data), "--model", "plain-rnn",
            "--hidden-size", "8", "--n-layers", "1", "--embedding-size", "6",
            "--epochs", "3", "--lr", "0", "--seed", "3", "--out-dir", str(out),
        ]) == 0
        rows = (out / "plain-rnn-loss.csv").read_text().splitlines()[2:]
        values = {row.split(",")[1] for row in rows}
        assert len(values) == 1

    def test_evaluate_all_models(self, pipeline_dirs, tmp_path):
        """Every registered model kind runs through one tiny evaluation."""
        root, raw, data = pipeline_dirs
        out = tmp_path / "eval_all"
        assert main([
            "evaluate", "--data-dir", str(data), "--models", "all",
            "--folds", "3", "--seed", "5", "--candidates", "3",
            "--hidden-size", "8", "--n-layers", "1", "--embedding-size", "6",
            "--epochs", "2", "--lr", "0.05",
            "--out-dir", str(out),
        ]) == 0
        report = (out / "eval_report.csv").read_text()
        for name in ("popularity", "markov", "apriori", "hits",
                     "plain-rnn", "caps-rnn", "caps-lstm"):
            assert f"{name},mean" in report

    def test_threads_flag_keeps_results_identical(self, pipeline_dirs, tmp_path):
        root, raw, data = pipeline_dirs
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"thr{threads}"
            assert main([
                "evaluate", "--data-dir", str(data),
                "--models", "popularity,apriori",
                "--folds", "3", "--seed", "5", "--candidates", "3",
                "--threads", threads, "--out-dir", str(out),
            ]) == 0
            reports.append((out / "eval_report.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_data_dir_env_fallback(self, pipeline_dirs, tmp_path, monkeypatch):
        root, raw, data = pipeline_dirs
        monkeypatch.setenv("CAPSEQ_DATA_DIR", str(data))
        out = tmp_path / "envfeat"
        assert main(["features", "--out-dir", str(out)]) == 0
        assert (out / "tables.json").exists()

    def test_missing_data_dir_is_usage_error(self, monkeypatch, tmp_path):
        monkeypatch.delenv("CAPSEQ_DATA_DIR", raising=False)
        assert main(["features", "--out-dir", str(tmp_path)]) == 1

    def test_evaluate_small(self, pipeline_dirs, tmp_path):
        root, raw, data = pipeline_dirs
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--data-dir", str(data),
            "--models", "popularity,markov",
            "--folds", "3", "--seed", "5", "--candidates", "3",
            "--sweep-lengths", "2,3",
            "--out-dir", str(out),
        ]) == 0
        report = (out / "eval_report.csv").read_text()
        assert report.startswith("# seed=5")
        assert "popularity,mean" in report and "markov,mean" in report
        assert (out / "timings.csv").exists()
        assert (out / "sweep.csv").exists()
        assert (out / "eval_report.txt").exists()

        rout = tmp_path / "rep"
        assert main([
            "report", "--eval-csv", str(out / "eval_report.csv"),
            "--sweep-csv", str(out / "sweep.csv"), "--out-dir", str(rout),
        ]) == 0
        assert (rout / "report.txt").exists()
        assert (rout / "sweep_popularity.csv").exists()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["synth", "--bogus"]) == 1

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert main([
            "ingest", "--checkins", str(tmp_path / "nope.csv"),
            "--out-dir", str(tmp_path),
        ]) == 2

    def test_diverged_training_is_numeric_error(self, pipeline_dirs, tmp_path,
                                                monkeypatch):
        from capseq.models.training import TrainingDivergedError

        def diverge(*args, **kwargs):
            raise TrainingDivergedError(2)

        monkeypatch.setattr("capseq.models.recommenders.train", diverge)
        root, raw, data = pipeline_dirs
        assert main([
            "train", "--data-dir", str(data), "--model", "plain-rnn",
            "--hidden-size", "8", "--n-layers", "1", "--embedding-size", "6",
            "--epochs", "3", "--lr", "0.05", "--seed", "3",
            "--out-dir", str(tmp_path),
        ]) == 3


# case -> (files to write, subcommand and its arguments, expected exit code);
# the test adds --data-dir and --out-dir after the subcommand
BAD_INPUTS = {
    "corrupt-tables-json": (
        {"tables.json": '{"encodings": {"poi_to_ix'},
        ["train", "--model", "plain-rnn", "--tables", "{tmp}/tables.json"], 2),
    "binary-tables": (
        {"tables.json": "\udcff\udcfe"},
        ["train", "--model", "plain-rnn", "--tables", "{tmp}/tables.json"], 2),
    "zero-epochs": ({}, ["train", "--model", "plain-rnn", "--epochs", "0"], 1),
    "apriori-zero-epsilon": (
        {"run.cfg": "epsilon_km = 0\n"},
        ["evaluate", "--models", "apriori", "--config", "{tmp}/run.cfg"], 1),
    "apriori-zero-beam": (
        {"run.cfg": "beam_width = 0\n"},
        ["evaluate", "--models", "apriori", "--config", "{tmp}/run.cfg"], 1),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_one_line(case, pipeline_dirs, tmp_path, capsys):
    files, argv, code = BAD_INPUTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8", errors="surrogateescape")
    root, raw, data = pipeline_dirs
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv[:1] + ["--data-dir", str(data), "--out-dir", str(tmp_path)]
                + argv[1:]) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err


class TestConfigFile:
    def test_parse_and_merge(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 4\nseed = 11  # comment\n", encoding="utf-8")
        values = parse_config_file(cfg)
        assert values == {"epochs": 4, "seed": 11}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_flags_override_file(self, pipeline_dirs, tmp_path):
        root, raw, data = pipeline_dirs
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\nhidden_size = 8\nn_layers = 1\n"
                       "embedding_size = 6\nlearning_rate = 0.0\nseed = 3\n",
                       encoding="utf-8")
        out = tmp_path / "cfgrun"
        assert main([
            "train", "--data-dir", str(data), "--model", "plain-rnn",
            "--config", str(cfg), "--epochs", "1", "--out-dir", str(out),
        ]) == 0
        rows = (out / "plain-rnn-loss.csv").read_text().splitlines()
        assert len(rows) == 2 + 2  # flag epochs=1 wins over file epochs=2


class TestDeterminism:
    def test_synth_and_train_outputs_reproducible(self, tmp_path):
        digests = []
        for run in range(2):
            raw = tmp_path / f"raw{run}"
            data = tmp_path / f"data{run}"
            out = tmp_path / f"out{run}"
            assert main([
                "synth", "--seed", "13", "--users", "4", "--pois", "25",
                "--days", "3", "--out-dir", str(raw),
            ]) == 0
            assert main([
                "ingest", "--checkins", str(raw / "checkins.csv"),
                "--friends", str(raw / "friendships.csv"),
                "--min-checkins", "5", "--out-dir", str(data),
            ]) == 0
            assert main([
                "train", "--data-dir", str(data), "--model", "caps-rnn",
                "--hidden-size", "8", "--n-layers", "1", "--embedding-size", "6",
                "--epochs", "2", "--lr", "0.05", "--seed", "13",
                "--out-dir", str(out),
            ]) == 0
            digests.append(
                tuple(
                    p.read_bytes()
                    for p in sorted((*raw.iterdir(), *data.iterdir(), *out.iterdir()))
                )
            )
        assert digests[0] == digests[1]
