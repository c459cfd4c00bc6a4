"""End-to-end CLI: subcommand pipeline, exit codes, config handling,
output determinism."""

import dataclasses
import json
import shutil
import struct
import tempfile
from pathlib import Path

import pytest

from capseq.cli import (
    CONFIG_KEYS, RECOMMENDERS, RUN_KEYS, _merged_config, _recommender, build_parser, main)
from capseq.baselines import PopularityRecommender
from capseq.config import ConfigError, parse_config_file
from capseq.data.io import load_dataset
from capseq.features import FeatureTables
from capseq.generation import GenRequest
from capseq.metrics import REPORT_COLUMNS
from capseq.models import MODEL_KINDS, PlainRnnRecommender
from capseq.numerics import SNAPSHOT_MAGIC, save_params


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
        assert "stay" in tables and "users" in tables
        assert len(tables["stored_sha256"]) == 64
        assert "dataset_sha256" not in tables

    def test_train_generate_roundtrip(self, pipeline_dirs, tmp_path):
        root, raw, data = pipeline_dirs
        out = tmp_path / "run"
        assert main([
            "train", "--data-dir", str(data), "--model", "caps-rnn",
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

    def test_data_dir_env_fallback(self, pipeline_dirs, tmp_path, monkeypatch):
        root, raw, data = pipeline_dirs
        monkeypatch.setenv("CAPSEQ_DATA_DIR", str(data))
        out = tmp_path / "envfeat"
        assert main(["features", "--out-dir", str(out)]) == 0
        assert (out / "tables.json").exists()

    def test_data_dir_flag_then_config_file_then_env(self, pipeline_dirs, tmp_path,
                                                    monkeypatch):
        root, raw, data = pipeline_dirs
        monkeypatch.setenv("CAPSEQ_DATA_DIR", str(tmp_path / "missing"))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"data_dir = {data}\n", encoding="utf-8")
        out = tmp_path / "cfgfeat"
        assert main(["features", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert (out / "tables.json").exists()
        cfg.write_text(f"data_dir = {tmp_path / 'missing'}\n", encoding="utf-8")
        assert main(["features", "--config", str(cfg), "--data-dir", str(data),
                     "--out-dir", str(out)]) == 0

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


@pytest.fixture(scope="module")
def bad_input_sources(pipeline_dirs):
    """The pipeline dataset and a small trained plain-rnn checkpoint."""
    root, raw, data = pipeline_dirs
    out = root / "ckpt"
    assert main([
        "train", "--data-dir", str(data), "--model", "plain-rnn",
        "--hidden-size", "4", "--n-layers", "1", "--embedding-size", "3",
        "--epochs", "1", "--out-dir", str(out),
    ]) == 0
    return data, out / "plain-rnn.ckpt"


def _with_sidecar(**changes):
    """Checkpoint sidecar edit: set the given keys."""
    def edit(raw: bytes) -> bytes:
        return json.dumps({**json.loads(raw), **changes}).encode("utf-8")
    return edit


def _snapshot_version(version: int):
    """Checkpoint snapshot edit: write ``version`` as its format version."""
    def edit(raw: bytes) -> bytes:
        at = len(SNAPSHOT_MAGIC)
        return raw[:at] + struct.pack("<H", version) + raw[at + 2:]
    return edit


def _swap_2d_dims(raw: bytes) -> bytes:
    """Checkpoint snapshot edit: swap the two dims of the first 2-D block
    whose dims differ, in its header; the size, so the data, stays."""
    at = len(SNAPSHOT_MAGIC)
    _, count = struct.unpack_from("<HI", raw, at)
    at += 6
    for _ in range(count):
        at += 2 + struct.unpack_from("<H", raw, at)[0]  # the name
        ndim = raw[at]
        dims = struct.unpack_from(f"<{ndim}I", raw, at + 1)
        if ndim == 2 and dims[0] != dims[1]:
            return raw[:at + 1] + struct.pack("<2I", *dims[::-1]) + raw[at + 9:]
        at += 1 + 4 * ndim
    raise AssertionError("the snapshot holds no 2-D block of two different dims")


def _snapshot_of_pois(n_pois: int):
    """Checkpoint snapshot edit: the snapshot of an untrained net of the
    ``bad_input_sources`` checkpoint's settings, built for ``n_pois`` POIs."""
    def edit(raw: bytes) -> bytes:
        net = PlainRnnRecommender(hidden_size=4, n_layers=1, embedding_size=3)._build_net(n_pois)
        with tempfile.TemporaryDirectory() as tmp:
            save_params(Path(tmp) / "s.ckpt", net.params)
            return (Path(tmp) / "s.ckpt").read_bytes()
    return edit


def _without_last_poi(raw: bytes) -> bytes:
    pois = json.loads(raw)
    del pois[str(len(pois) - 1)]
    return json.dumps(pois).encode("utf-8")


def _first_poi(**changes):
    """``pois.json`` edit: set the given fields of POI 0."""
    def edit(raw: bytes) -> bytes:
        pois = json.loads(raw)
        pois["0"].update(changes)
        return json.dumps(pois).encode("utf-8")
    return edit


def _with_first_session(change):
    """Dataset edit: ``change`` alters the first line of ``sessions.jsonl``,
    parsed, in place."""
    def edit(raw: bytes) -> bytes:
        first, rest = raw.split(b"\n", 1)
        session = json.loads(first)
        change(session)
        return json.dumps(session).encode("utf-8") + b"\n" + rest
    return edit


def _first_session_times(change):
    """Dataset edit: ``change`` maps every arrival and departure of the
    first session."""
    def change_times(session):
        for key in ("arrivals", "departures"):
            session[key] = [change(t) for t in session[key]]
    return _with_first_session(change_times)


def _encoding_index(kind: str, change):
    """Dataset edit: ``change`` maps the index 1 of the ``kind`` map of
    ``encodings.json``."""
    def edit(raw: bytes) -> bytes:
        encodings = json.loads(raw)
        labels = encodings[kind]
        label = next(label for label, ix in labels.items() if ix == 1)
        labels[label] = change(1)
        return json.dumps(encodings).encode("utf-8")
    return edit


# five sessions of user 0, each of one visit: nothing to train on
SINGLE_VISIT_SESSIONS = "".join(
    json.dumps({"user": 0, "pois": [day % 3], "arrivals": [1330905600 + 86400 * day],
                "departures": [1330905600 + 86400 * day + 600]}) + "\n"
    for day in range(5))

CHECKINS = ("userid,placeid,datetime,lat,lon,city,category\n"
            "u1,p1,1330905600,40.0,-74.0,,Food\n")
LONG_FIELD = "x" * 200_000  # over csv.field_size_limit(), 131,072 by default
GENERATE = ["generate", "--checkpoint", "{tmp}/m.ckpt", "--user", "u0000"]

# case -> (files to write, subcommand and its arguments, expected exit code).
# The test first copies the pipeline dataset to {tmp}/ds and the trained
# checkpoint to {tmp}/m.ckpt; a file given as text replaces its copy, one
# given as a function of its copy's bytes edits it. The test adds --out-dir, and --data-dir with the
# pipeline dataset unless the arguments name one or run ingest, which
# takes none.
BAD_INPUTS = {
    # train and generate build their tables; neither reads a tables file
    "train-tables-option": ({}, ["train", "--model", "plain-rnn", "--tables", "x"], 1),
    "generate-tables-option": ({}, GENERATE + ["--tables", "x"], 1),
    "zero-epochs": ({}, ["train", "--model", "plain-rnn", "--epochs", "0"], 1),
    "train-zero-batch-size": (
        {}, ["train", "--model", "plain-rnn", "--batch-size", "0"], 1),
    "train-negative-lr": ({}, ["train", "--model", "plain-rnn", "--lr", "-1"], 1),
    "train-nan-lr": ({}, ["train", "--model", "plain-rnn", "--lr", "nan"], 1),
    "train-inf-lr": ({}, ["train", "--model", "plain-rnn", "--lr", "inf"], 1),
    "train-zero-clip": ({}, ["train", "--model", "plain-rnn", "--clip", "0"], 1),
    "evaluate-zero-clip-in-config": (
        {"run.cfg": "clip_threshold = 0\n"},
        ["evaluate", "--models", "plain-rnn", "--config", "{tmp}/run.cfg"], 1),
    "apriori-zero-epsilon": (
        {"run.cfg": "epsilon_km = 0\n"},
        ["evaluate", "--models", "apriori", "--config", "{tmp}/run.cfg"], 1),
    "apriori-zero-beam": (
        {"run.cfg": "beam_width = 0\n"},
        ["evaluate", "--models", "apriori", "--config", "{tmp}/run.cfg"], 1),
    "apriori-nan-budget": (
        {"run.cfg": "budget_hours = nan\n"},
        ["evaluate", "--models", "apriori", "--config", "{tmp}/run.cfg"], 1),
    "apriori-negative-budget": (
        {"run.cfg": "budget_hours = -1\n"},
        ["evaluate", "--models", "apriori", "--config", "{tmp}/run.cfg"], 1),
    "popularity-nan-radius": (
        {"run.cfg": "radius_km = nan\n"},
        ["evaluate", "--models", "popularity", "--config", "{tmp}/run.cfg"], 1),
    "popularity-nan-growth-factor": (
        {"run.cfg": "growth_factor = nan\n"},
        ["evaluate", "--models", "popularity", "--config", "{tmp}/run.cfg"], 1),
    "hits-nan-region-radius": (
        {"run.cfg": "region_radius_km = nan\n"},
        ["evaluate", "--models", "hits", "--config", "{tmp}/run.cfg"], 1),
    "corrupt-encodings-json": (
        {"ds/encodings.json": '{"users": ['},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "corrupt-pois-json": (
        {"ds/pois.json": '{"0": {"id": '},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "corrupt-graph-json": (
        {"ds/graph.json": "\udcff"},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "corrupt-sessions-line": (
        {"ds/sessions.jsonl": lambda raw: raw + b'{"user": 0, "pois": [\n'},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    # JSON nested past the recursion limit is bad data like any other
    "deep-encodings-json": (
        {"ds/encodings.json": "[" * 100_000}, ["features", "--data-dir", "{tmp}/ds"], 2),
    "deep-graph-json": (
        {"ds/graph.json": "[" * 100_000}, ["features", "--data-dir", "{tmp}/ds"], 2),
    "deep-sessions-line": (
        {"ds/sessions.jsonl": lambda raw: raw + b"[" * 100_000 + b"\n"},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "deep-checkpoint-sidecar": ({"m.ckpt.json": "[" * 100_000}, GENERATE, 2),
    "encodings-json-a-list": (
        {"ds/encodings.json": "[]"}, ["features", "--data-dir", "{tmp}/ds"], 2),
    "pois-json-a-list": (
        {"ds/pois.json": "[]"}, ["features", "--data-dir", "{tmp}/ds"], 2),
    "graph-json-a-list": (
        {"ds/graph.json": "[]"}, ["features", "--data-dir", "{tmp}/ds"], 2),
    "sessions-line-a-list": (
        {"ds/sessions.jsonl": lambda raw: raw + b"[1]\n"},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "pois-json-missing-a-poi": (
        {"ds/pois.json": _without_last_poi}, ["features", "--data-dir", "{tmp}/ds"], 2),
    "pois-json-latitude-1000": (
        {"ds/pois.json": _first_poi(lat=1000.0)}, ["features", "--data-dir", "{tmp}/ds"], 2),
    # a float array reads "40.7" as 40.7 and true as 1.0
    "pois-json-string-latitude": (
        {"ds/pois.json": _first_poi(lat="40.7")}, ["features", "--data-dir", "{tmp}/ds"], 2),
    "pois-json-bool-longitude": (
        {"ds/pois.json": _first_poi(lon=True)},
        ["train", "--model", "plain-rnn", "--data-dir", "{tmp}/ds"], 2),
    "sessions-line-lengths-differ": (
        {"ds/sessions.jsonl": _with_first_session(lambda s: s["departures"].pop())},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "sessions-line-fractional-time": (
        {"ds/sessions.jsonl": _first_session_times(lambda t: t + 0.5)},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "sessions-line-float-poi-index": (
        {"ds/sessions.jsonl": _with_first_session(lambda s: s["pois"].__setitem__(0, 0.0))},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "sessions-line-bool-poi-index": (
        {"ds/sessions.jsonl": _with_first_session(lambda s: s["pois"].__setitem__(0, True))},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "sessions-line-float-user-index": (
        {"ds/sessions.jsonl": _with_first_session(lambda s: s.update(user=float(s["user"])))},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "sessions-line-bool-user-index": (
        {"ds/sessions.jsonl": _with_first_session(lambda s: s.update(user=s["user"] == 1))},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "sessions-line-string-time": (
        {"ds/sessions.jsonl": _first_session_times(str)},
        ["evaluate", "--models", "popularity", "--data-dir", "{tmp}/ds"], 2),
    "sessions-line-time-past-int64": (
        {"ds/sessions.jsonl": _first_session_times(lambda t: t + 2**63)},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "checkins-time-past-year-9999": (
        {"c.csv": CHECKINS.replace("1330905600", "99999999999999999999")},
        ["ingest", "--checkins", "{tmp}/c.csv", "--min-checkins", "0"], 2),
    "config-not-utf8": (
        {"run.cfg": "seed = 3 \udcff\n"}, ["features", "--config", "{tmp}/run.cfg"], 1),
    "config-missing": ({}, ["features", "--config", "{tmp}/missing.cfg"], 1),
    "config-a-directory": ({}, ["features", "--config", "{tmp}/ds"], 1),
    "data-dir-a-file": ({}, ["features", "--data-dir", "{tmp}/m.ckpt"], 2),
    "features-out-dir-a-file": ({}, ["features", "--out-dir", "{tmp}/m.ckpt"], 1),
    "evaluate-out-dir-a-file": (
        {}, ["evaluate", "--models", "popularity", "--out-dir", "{tmp}/m.ckpt"], 1),
    "train-out-dir-a-file": (
        {}, ["train", "--model", "plain-rnn", "--out-dir", "{tmp}/m.ckpt"], 1),
    "generate-out-dir-a-file": ({}, GENERATE + ["--out-dir", "{tmp}/m.ckpt"], 1),
    "train-negative-seed": ({}, ["train", "--model", "plain-rnn", "--seed", "-1"], 1),
    "generate-negative-seed": ({}, GENERATE + ["--seed", "-1"], 1),
    "evaluate-negative-seed": ({}, ["evaluate", "--models", "popularity", "--seed", "-1"], 1),
    "checkins-not-utf8": (
        {"c.csv": CHECKINS.replace("Food", "F\udcffood")},
        ["ingest", "--checkins", "{tmp}/c.csv"], 2),
    "friendships-not-utf8": (
        {"c.csv": CHECKINS, "f.csv": "userid1,userid2\nu1,u\udcff2\n"},
        ["ingest", "--checkins", "{tmp}/c.csv", "--friends", "{tmp}/f.csv"], 2),
    "checkins-field-over-csv-limit": (
        {"c.csv": CHECKINS.replace("Food", LONG_FIELD)},
        ["ingest", "--checkins", "{tmp}/c.csv"], 2),
    "friendships-field-over-csv-limit": (
        {"c.csv": CHECKINS, "f.csv": f"userid1,userid2\nu1,{LONG_FIELD}\n"},
        ["ingest", "--checkins", "{tmp}/c.csv", "--friends", "{tmp}/f.csv"], 2),
    "ingest-negative-min-checkins": (
        {"c.csv": CHECKINS},
        ["ingest", "--checkins", "{tmp}/c.csv", "--min-checkins", "-5"], 1),
    "encodings-user-index-past-end": (
        {"ds/encodings.json": _encoding_index("users", lambda ix: ix + 100)},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "encodings-float-poi-index": (
        {"ds/encodings.json": _encoding_index("pois", float)},
        ["train", "--model", "plain-rnn", "--data-dir", "{tmp}/ds"], 2),
    "encodings-bool-category-index": (
        {"ds/encodings.json": _encoding_index("categories", lambda ix: True)},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "train-no-session-of-two-visits": (
        {"ds/sessions.jsonl": SINGLE_VISIT_SESSIONS},
        ["train", "--model", "caps-rnn", "--data-dir", "{tmp}/ds"], 2),
    "evaluate-no-session-of-two-visits": (
        {"ds/sessions.jsonl": SINGLE_VISIT_SESSIONS},
        ["evaluate", "--models", "caps-rnn,markov", "--data-dir", "{tmp}/ds"], 2),
    "dataset-without-pois": (
        {"ds/encodings.json": '{"pois": {}, "categories": {}, "users": {}}',
         "ds/sessions.jsonl": ""},
        ["features", "--data-dir", "{tmp}/ds"], 2),
    "checkpoint-cut-to-100-bytes": (
        {"m.ckpt": lambda raw: raw[:100]}, GENERATE, 2),
    "checkpoint-cut-to-10-bytes": (
        {"m.ckpt": lambda raw: raw[:10]}, GENERATE, 2),
    "checkpoint-of-other-encodings": (
        {"m.ckpt.json": _with_sidecar(encodings_sha256="0" * 64)}, GENERATE, 2),
    "checkpoint-missing-blocks": (
        {"m.ckpt.json": _with_sidecar(kind="caps-rnn")}, GENERATE, 2),
    "checkpoint-unknown-kind": (
        {"m.ckpt.json": _with_sidecar(kind="transformer")}, GENERATE, 2),
    "checkpoint-snapshot-version-2": ({"m.ckpt": _snapshot_version(2)}, GENERATE, 2),
    "checkpoint-block-dims-swapped": ({"m.ckpt": _swap_2d_dims}, GENERATE, 2),
    # a snapshot and an older sidecar that agree on 2 POIs, for a dataset of more
    "checkpoint-of-two-pois": (
        {"m.ckpt": _snapshot_of_pois(2), "m.ckpt.json": _with_sidecar(n_pois=2)}, GENERATE, 2),
    "checkins-empty-file": ({"c.csv": ""}, ["ingest", "--checkins", "{tmp}/c.csv"], 2),
    "checkins-header-without-time-column": (
        {"c.csv": CHECKINS.replace("datetime,", "").replace("1330905600,", "")},
        ["ingest", "--checkins", "{tmp}/c.csv"], 2),
    "ingest-min-checkins-leaves-no-session": (
        {"c.csv": CHECKINS}, ["ingest", "--checkins", "{tmp}/c.csv", "--min-checkins", "2"], 2),
    "evaluate-unknown-model": ({}, ["evaluate", "--models", "nosuch"], 1),
    # u0000, user 0, is encoded, but only user 1 has sessions
    "generate-user-without-sessions": (
        {"ds/sessions.jsonl": SINGLE_VISIT_SESSIONS.replace('"user": 0', '"user": 1')},
        GENERATE + ["--data-dir", "{tmp}/ds"], 2),
    # argparse's choices check --model, so only a config file reaches this rule
    "train-unknown-model-in-config": (
        {"run.cfg": "model = nosuch\n"}, ["train", "--config", "{tmp}/run.cfg"], 1),
    "config-line-without-equals": (
        {"run.cfg": "seed 3\n"}, ["features", "--config", "{tmp}/run.cfg"], 1),
    "config-bad-value": (
        {"run.cfg": "seed = three\n"}, ["features", "--config", "{tmp}/run.cfg"], 1),
    "generate-unknown-user": (
        {}, ["generate", "--checkpoint", "{tmp}/m.ckpt", "--user", "nobody"], 2),
    "generate-unknown-start-poi": ({}, GENERATE + ["--start-poi", "nowhere"], 2),
    "generate-zero-length": ({}, GENERATE + ["--length", "0"], 1),
    "generate-zero-candidates": ({}, GENERATE + ["--candidates", "0"], 1),
    "generate-zero-k": ({}, GENERATE + ["--k", "0"], 1),
    "generate-k-above-candidates": (
        {}, GENERATE + ["--k", "20", "--candidates", "5"], 1),
    "generate-nan-start-hour": ({}, GENERATE + ["--start-hour", "nan"], 1),
    "generate-inf-start-hour": ({}, GENERATE + ["--start-hour", "inf"], 1),
    "generate-zero-length-in-config": (
        {"run.cfg": "length = 0\n"}, GENERATE + ["--config", "{tmp}/run.cfg"], 1),
    "evaluate-zero-folds": (
        {}, ["evaluate", "--models", "popularity", "--folds", "0"], 1),
    "evaluate-one-fold": (
        {}, ["evaluate", "--models", "popularity", "--folds", "1"], 1),
    "evaluate-zero-candidates": (
        {}, ["evaluate", "--models", "popularity", "--candidates", "0"], 1),
    "evaluate-sweep-length-not-a-number": (
        {}, ["evaluate", "--models", "popularity", "--sweep-lengths", "3,abc"], 1),
    "evaluate-zero-sweep-length": (
        {}, ["evaluate", "--models", "popularity", "--sweep-lengths", "0"], 1),
    "evaluate-no-model": ({}, ["evaluate", "--models", ","], 1),
    "evaluate-more-folds-than-sessions": (
        {}, ["evaluate", "--models", "popularity", "--folds", "1000"], 2),
}


# case -> what its one line must say, where another raise would give the
# same exit code
BAD_INPUT_MESSAGES = {
    "checkpoint-unknown-kind": "unknown model kind 'transformer'",
    "checkpoint-snapshot-version-2": "unsupported snapshot version 2",
    "checkpoint-block-dims-swapped": "shape mismatch for",
    "checkpoint-of-two-pois": "shape mismatch for",
    "checkins-empty-file": "empty file, header row required",
    "checkins-header-without-time-column": "missing required column for 'time'",
    "ingest-min-checkins-leaves-no-session": "no sessions remain after filtering",
    "evaluate-unknown-model": "unknown model 'nosuch'",
    "generate-user-without-sessions": "user 'u0000' has no observed check-ins",
    "train-unknown-model-in-config": "unknown model kind 'nosuch'",
    "config-line-without-equals": "expected 'key = value', got 'seed 3'",
    "config-bad-value": "bad value for seed",
    "train-inf-lr": "learning_rate must be finite, got inf",
    "deep-encodings-json": "encodings.json: JSON nested too deeply",
    "deep-graph-json": "graph.json: JSON nested too deeply",
    "deep-sessions-line": "JSON nested too deeply",
    "deep-checkpoint-sidecar": "cannot load checkpoint: maximum recursion depth exceeded",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_one_line(case, bad_input_sources, tmp_path, capsys):
    files, argv, code = BAD_INPUTS[case]
    data, ckpt = bad_input_sources
    shutil.copytree(data, tmp_path / "ds")
    for src in (ckpt, ckpt.with_suffix(".ckpt.json")):
        shutil.copy(src, tmp_path / src.name.replace("plain-rnn", "m"))
    for name, content in files.items():
        path = tmp_path / name
        if callable(content):
            path.write_bytes(content(path.read_bytes()))
        else:
            path.write_text(content, encoding="utf-8", errors="surrogateescape")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if "--data-dir" not in argv and argv[0] != "ingest":
        argv[1:1] = ["--data-dir", str(data)]
    assert main(argv[:1] + ["--out-dir", str(tmp_path)] + argv[1:]) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    if ("--config" in argv or "--seed" in argv) and code == 1:
        assert err.startswith("config error:"), err
    if "--out-dir" in argv:
        assert err.startswith("usage error: --out-dir"), err
    if "--tables" in argv:
        assert err.startswith("usage error: unrecognized arguments: --tables"), err
    assert BAD_INPUT_MESSAGES.get(case, "") in err, err
    for name, content in files.items():
        if name.startswith("ds/") and callable(content):  # an edit of a dataset file
            assert err.startswith(f"data error: {tmp_path / name}:"), err


def _sweep_csv(length: str) -> str:
    return ("# seed=7\nmodel,length,diversity,displacement_mean_km\n"
            f"popularity,{length},0.5,1.0\n")


# case -> sweep.csv text; a function of the good eval_report.csv text
# edits that file instead, and None makes the path a directory: the eval
# CSV's for an "eval-" case, the sweep CSV's for a "sweep-" case
REPORT_BAD_INPUTS = {
    "eval-cell-not-a-number": lambda good: good.replace(",0.5,", ",abc,", 1),
    "eval-without-sessions-column": lambda good: good.replace(",sessions", "").replace(
        ",3\n", "\n"),
    "sweep-length-not-a-number": _sweep_csv("x"),
    "sweep-not-utf8": _sweep_csv("2\udcff"),
    "sweep-without-length-column": (
        "model,diversity,displacement_mean_km\npopularity,0.5,1.0\n"),
    "sweep-without-diversity-column": (
        "model,length,displacement_mean_km\npopularity,3,1.0\n"),
    "eval-csv-a-directory": None,
    "sweep-csv-a-directory": None,
}


def test_report_non_numeric_cell_is_data_error(tmp_path, capsys):
    """Every row of REPORT_BAD_INPUTS exits 2 with one ``data error`` line;
    ``report`` takes no --data-dir, so these are not BAD_INPUTS rows."""
    row = ["popularity", "0", "0.5"] + ["0.5"] * (len(REPORT_COLUMNS) - 4) + ["3"]
    good = "\n".join(["# seed=7", ",".join(REPORT_COLUMNS), ",".join(row)]) + "\n"
    for case, content in REPORT_BAD_INPUTS.items():
        path = tmp_path / f"{case}.csv"
        argv = ["report", "--eval-csv", str(path), "--out-dir", str(tmp_path)]
        if content is None and case.startswith("eval-"):
            path.mkdir()
        elif callable(content):
            path.write_text(content(good), encoding="utf-8")
        else:
            path.write_text(good, encoding="utf-8")
            path = tmp_path / f"{case}-sweep.csv"
            if content is None:
                path.mkdir()
            else:
                path.write_text(content, encoding="utf-8", errors="surrogateescape")
            argv += ["--sweep-csv", str(path)]
        assert main(argv) == 2, case
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, (case, err)
        assert err.startswith(f"data error: {path}: "), (case, err)


def test_bad_out_dir_fails_before_training(bad_input_sources, tmp_path, monkeypatch,
                                          capsys):
    """``train`` makes its --out-dir before it fits, so a path that names a
    file costs no training run."""
    from capseq.models.recommenders import _NeuralRecommender

    fits = []
    monkeypatch.setattr(_NeuralRecommender, "fit", lambda *args: fits.append(args))
    data, ckpt = bad_input_sources
    assert main(["train", "--data-dir", str(data), "--model", "caps-lstm",
                 "--out-dir", str(ckpt)]) == 1
    assert capsys.readouterr().err.startswith("usage error: --out-dir")
    assert not fits


def test_stray_key_error_is_a_traceback(pipeline_dirs, tmp_path, monkeypatch):
    """Only an unknown id is a data error: a ``KeyError`` that a defect
    raises inside a command leaves ``main`` with its traceback, not exit 2."""
    def defect(*args, **kwargs):
        raise KeyError("stray")

    monkeypatch.setattr(FeatureTables, "build", defect)
    with pytest.raises(KeyError, match="stray"):
        main(["features", "--data-dir", str(pipeline_dirs[2]), "--out-dir", str(tmp_path)])


def test_ingest_reports_dropped_friendship_rows(pipeline_dirs, tmp_path, capsys):
    root, raw, data = pipeline_dirs
    friends = tmp_path / "f.csv"
    friends.write_text("userid1,userid2\nu0000,u0001\nu0002\n\n,u0003\n",
                       encoding="utf-8")
    assert main(["ingest", "--checkins", str(raw / "checkins.csv"),
                 "--friends", str(friends), "--min-checkins", "10",
                 "--out-dir", str(tmp_path / "ds")]) == 0
    assert "ingest: dropped 2 malformed friendship rows" in capsys.readouterr().err


def test_generate_start_hour_takes_any_float(bad_input_sources, tmp_path, capsys):
    """A value float() reads reaches the command even when argparse would
    take it for an option: -1e9 runs like -5, -inf is rejected as
    non-finite."""
    data, ckpt = bad_input_sources
    argv = ["generate", "--data-dir", str(data), "--checkpoint", str(ckpt),
            "--user", "u0000", "--length", "3", "--candidates", "2", "--k", "1",
            "--out-dir", str(tmp_path), "--start-hour"]
    assert main(argv + ["-5"]) == 0
    assert main(argv + ["-1e9"]) == 0
    capsys.readouterr()
    assert main(argv + ["-inf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "start_hour must be finite" in err
    assert len(err.strip().splitlines()) == 1, err


@pytest.mark.parametrize("flag", ["--users", "--pois", "--days"])
def test_synth_rejects_zero_size_with_one_line(flag, tmp_path, capsys):
    assert main(["synth", flag, "0", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def one_poi_data(tmp_path_factory):
    """A dataset whose catalogue holds a single POI."""
    root = tmp_path_factory.mktemp("one-poi")
    assert main(["synth", "--seed", "3", "--users", "2", "--pois", "1", "--days", "3",
                 "--out-dir", str(root / "raw")]) == 0
    assert main(["ingest", "--checkins", str(root / "raw" / "checkins.csv"),
                 "--min-checkins", "0", "--out-dir", str(root / "data")]) == 0
    return root / "data"


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_train_on_one_poi_is_a_data_error(kind, one_poi_data, tmp_path, capsys):
    assert main(["train", "--data-dir", str(one_poi_data), "--model", kind,
                 "--hidden-size", "4", "--n-layers", "1", "--embedding-size", "3",
                 "--epochs", "1", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "data error: need at least two POIs to model sequences\n"


def test_popularity_on_one_poi_repeats_the_start(one_poi_data, tmp_path):
    """Like Markov, HITS and Apriori, popularity returns a trip where
    every POI but the current one is used up, even with no other POI."""
    assert main(["evaluate", "--data-dir", str(one_poi_data), "--models", "popularity",
                 "--folds", "2", "--out-dir", str(tmp_path)]) == 0
    assert "popularity,mean" in (tmp_path / "eval_report.csv").read_text()
    sessions, encodings, graph = load_dataset(one_poi_data)
    tables = FeatureTables.build(sessions, graph, encodings)
    model = PopularityRecommender().fit(sessions, tables)
    trip = model.generate(GenRequest(user=0, start_poi=0, start_hour=9.0, length=3, k=1))
    assert [s.pois for s in trip] == [[0, 0, 0]]


class TestConfigFile:
    def test_parse_and_merge(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment line\n\nepochs = 4\n  \t\nseed = 11  # comment\n",
                       encoding="utf-8")
        values = parse_config_file(cfg, CONFIG_KEYS)
        assert values == {"epochs": 4, "seed": 11}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config_file(cfg, CONFIG_KEYS)
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_keys_are_the_run_keys_and_every_recommender_setting(self, tmp_path):
        """The config keys are the run keys plus every recommender field,
        typed by its default, and each setting written in a ``--config``
        file reaches that recommender's ``get_params()``."""
        fields = [f for cls in RECOMMENDERS.values() for f in dataclasses.fields(cls)]
        assert CONFIG_KEYS == {**RUN_KEYS, **{f.name: type(f.default) for f in fields}}
        assert all(RUN_KEYS.get(f.name, type(f.default)) is type(f.default) for f in fields)
        for name, cls in RECOMMENDERS.items():
            values = {f.name: f.default + (1 if isinstance(f.default, int) else 0.5)
                      for f in dataclasses.fields(cls)}
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()),
                           encoding="utf-8")
            args = build_parser().parse_args(["evaluate", "--config", str(cfg)])
            assert _recommender(name, _merged_config(args)).get_params() == values, name

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
