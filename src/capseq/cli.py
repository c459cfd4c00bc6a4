"""Command-line pipeline: synth, ingest, features, train, generate,
evaluate, report.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every output file records the root seed in its header; all randomness
derives from that one seed, so reruns with identical inputs reproduce
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config as configmod
from .baselines import (
    AprioriRecommender,
    HitsRecommender,
    MarkovRecommender,
    PopularityRecommender,
)
from .data import (
    DataError,
    Encodings,
    SocialGraph,
    TravelTimeModel,
    build_sessions,
    io as dataio,
    parse_checkins,
    parse_friendships,
    synth_dataset,
    training_sessions,
)
from .features import FeatureTables
from .generation import GenRequest
from .metrics import (
    cross_validate,
    report_csv,
    sweep_csv,
    text_tables,
    timings_csv,
)
from .models import (
    MODEL_KINDS,
    TrainingDivergedError,
    load_checkpoint,
)
from .numerics import NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DATA_DIR_ENV = "CAPSEQ_DATA_DIR"

BASELINE_FACTORIES = {
    "popularity": PopularityRecommender,
    "markov": MarkovRecommender,
    "apriori": AprioriRecommender,
    "hits": HitsRecommender,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="capseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_common(p):
        p.add_argument("--config", help="key = value config file (flags win)")
        p.add_argument("--seed", type=int, default=None, help="root seed (default 7)")
        p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="worker cap")

    p = sub.add_parser("synth", help="generate a synthetic check-in corpus")
    add_common(p)
    p.add_argument("--users", type=int, default=60)
    p.add_argument("--pois", type=int, default=200)
    p.add_argument("--days", type=int, default=30)

    p = sub.add_parser("ingest", help="check-in CSV -> canonical session dataset")
    add_common(p)
    p.add_argument("--checkins", required=True, help="check-in CSV path")
    p.add_argument("--friends", help="friendship edge CSV path")
    p.add_argument("--format", choices=["weeplaces", "gowalla"], default="weeplaces")
    p.add_argument("--min-checkins", type=int, default=None,
                   help="drop users below this many check-ins (default 25)")
    p.add_argument("--travel-time", choices=["deterministic", "lognormal"],
                   default="deterministic")

    p = sub.add_parser("features", help="build feature tables from a dataset")
    add_common(p)
    p.add_argument("--data-dir", default=None, help="ingested dataset directory")

    p = sub.add_parser("train", help="train a sequence model")
    add_common(p)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--tables", help="feature tables JSON (default: build)")
    p.add_argument("--model", choices=sorted(MODEL_KINDS), default=None)
    p.add_argument("--hidden-size", type=int, default=None)
    p.add_argument("--n-layers", type=int, default=None)
    p.add_argument("--embedding-size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--clip", dest="clip_threshold", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)

    p = sub.add_parser("generate", help="generate sequences from a checkpoint")
    add_common(p)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tables", help="feature tables JSON (default: build)")
    p.add_argument("--user", required=True, help="user id (raw)")
    p.add_argument("--start-poi", help="start POI id (default: user's most visited)")
    p.add_argument("--start-hour", type=float, default=9.0)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--candidates", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--no-repeat", action="store_true",
                   help="filter repeated POIs while sampling")
    p.add_argument("--consolidated", action="store_true",
                   help="rank candidates with constraint-discounted scores")

    p = sub.add_parser("evaluate", help="cross-validated model comparison")
    add_common(p)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--models", default="all",
                   help="comma list of: " + ",".join(
                       sorted(MODEL_KINDS) + sorted(BASELINE_FACTORIES)) + " or all")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--candidates", type=int, default=None)
    p.add_argument("--hidden-size", type=int, default=None)
    p.add_argument("--n-layers", type=int, default=None)
    p.add_argument("--embedding-size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--sweep-lengths", default="",
                   help="comma list of generation lengths for plot data")
    p.add_argument("--diversity-raw", action="store_true",
                   help="also emit unnormalized dissimilar-pair counts")

    p = sub.add_parser("report", help="format an evaluation CSV as text tables")
    add_common(p)
    p.add_argument("--eval-csv", required=True)
    p.add_argument("--sweep-csv", help="length-sweep CSV; emits per-model plot data")

    return parser


def _resolve_data_dir(args) -> Path:
    data_dir = getattr(args, "data_dir", None) or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise UsageError("--data-dir (or CAPSEQ_DATA_DIR) is required")
    return Path(data_dir)


def _out_dir(cfg) -> Path:
    out = Path(cfg.get("out_dir") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _merged_config(args) -> dict:
    file_values = {}
    if getattr(args, "config", None):
        file_values = configmod.parse_config_file(args.config)
    flag_values = {
        key: getattr(args, key)
        for key in configmod.CONFIG_KEYS
        if hasattr(args, key)
    }
    merged = configmod.merge_config(file_values, flag_values)
    merged.setdefault("seed", 7)
    merged.setdefault("threads", 1)
    return merged


def cmd_synth(args) -> int:
    cfg = _merged_config(args)
    seed = cfg["seed"]
    records, graph = synth_dataset(
        seed=seed, n_users=args.users, n_pois=args.pois, days=args.days
    )
    out = _out_dir(cfg)
    dataio.write_checkins_csv(out / "checkins.csv", records)
    dataio.write_friendships_csv(out / "friendships.csv", graph)
    print(f"synth: {len(records)} check-ins, {graph.n_edges()} friendships -> {out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    cfg = _merged_config(args)
    parsed = parse_checkins(args.checkins, args.format)
    if parsed.dropped:
        print(f"ingest: dropped {parsed.dropped} malformed rows", file=sys.stderr)
    graph = parse_friendships(args.friends) if args.friends else SocialGraph()
    travel = TravelTimeModel(args.travel_time)
    if args.travel_time == "lognormal":
        travel.fit(parsed.records)
    min_checkins = cfg.get("min_checkins")
    if min_checkins is None:
        min_checkins = 25
    sessions = build_sessions(parsed.records, travel, min_checkins=min_checkins)
    if not sessions:
        raise DataError("no sessions remain after filtering")
    encodings = Encodings.fit(sessions)
    out = _out_dir(cfg)
    dataio.save_dataset(out, sessions, encodings, graph)
    n_train = len(training_sessions(sessions))
    print(
        f"ingest: {len(sessions)} sessions ({n_train} trainable), "
        f"{encodings.n_users} users, {encodings.n_pois} POIs -> {out}"
    )
    return EXIT_OK


def cmd_features(args) -> int:
    cfg = _merged_config(args)
    sessions, encodings, graph = dataio.load_dataset(_resolve_data_dir(args))
    tables = FeatureTables.build(sessions, graph, encodings)
    out = _out_dir(cfg)
    tables.save(out / "tables.json")
    print(f"features: tables for {encodings.n_pois} POIs -> {out / 'tables.json'}")
    return EXIT_OK


def _load_tables(args, sessions, encodings, graph) -> FeatureTables:
    if getattr(args, "tables", None):
        try:
            return FeatureTables.load(args.tables)
        except ValueError as exc:  # bad JSON, text encoding or field value
            raise DataError(f"{args.tables}: not a feature tables file: {exc}") from exc
    return FeatureTables.build(sessions, graph, encodings)


def _construct(name: str, cls, kwargs: dict):
    """Build a recommender; a hyperparameter it rejects is a config error."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise configmod.ConfigError(f"{name}: {exc}") from exc


def _model_from_config(kind: str, cfg: dict):
    cls = MODEL_KINDS[kind]
    kwargs = {}
    for key in ("hidden_size", "n_layers", "embedding_size", "learning_rate",
                "clip_threshold", "batch_size", "epochs", "seed"):
        if cfg.get(key) is not None and key in cls._param_names():
            kwargs[key] = cfg[key]
    return _construct(kind, cls, kwargs)


def cmd_train(args) -> int:
    cfg = _merged_config(args)
    kind = cfg.get("model") or "caps-lstm"
    if kind not in MODEL_KINDS:
        raise UsageError(f"unknown model kind {kind!r}")
    sessions, encodings, graph = dataio.load_dataset(_resolve_data_dir(args))
    tables = _load_tables(args, sessions, encodings, graph)
    model = _model_from_config(kind, cfg)
    model.fit(training_sessions(sessions), tables)
    out = _out_dir(cfg)
    ckpt = out / f"{kind}.ckpt"
    model.save(ckpt)
    curve_path = out / f"{kind}-loss.csv"
    lines = [f"# seed={cfg['seed']}", "epoch,mean_nll"]
    lines += [f"{i},{v!r}" for i, v in enumerate(model.loss_curve_)]
    curve_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        f"train: {kind} nll {model.loss_curve_[0]:.4f} -> {model.loss_curve_[-1]:.4f} "
        f"over {len(model.loss_curve_) - 1} epochs; checkpoint {ckpt}"
    )
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = _merged_config(args)
    seed = cfg["seed"]
    sessions, encodings, graph = dataio.load_dataset(_resolve_data_dir(args))
    tables = _load_tables(args, sessions, encodings, graph)
    model = load_checkpoint(args.checkpoint, tables)

    user_ix = encodings.user(args.user)
    if args.start_poi:
        start_ix = encodings.poi(args.start_poi)
    else:
        counts: dict[int, int] = {}
        for s in sessions:
            if s.user_id == args.user:
                for v in s.visits:
                    ix = encodings.poi(v.poi.poi_id)
                    counts[ix] = counts.get(ix, 0) + 1
        if not counts:
            raise DataError(f"user {args.user!r} has no observed check-ins")
        start_ix = max(sorted(counts), key=lambda ix: counts[ix])

    request = GenRequest(
        user=user_ix,
        start_poi=start_ix,
        start_hour=args.start_hour,
        length=cfg.get("length") or 25,
        candidates=cfg.get("candidates") or 10,
        k=cfg.get("k") or min(10, cfg.get("candidates") or 10),
        no_repeat=args.no_repeat,
        consolidated=args.consolidated,
    )
    sequences = model.generate(request, seed=seed)
    out = _out_dir(cfg)
    path = out / "sequences.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"header": True, "seed": seed, "model": model.kind}) + "\n")
        for rank, seq in enumerate(sequences):
            steps = [
                tables.distance_km(a, b)
                for a, b in zip(seq.pois, seq.pois[1:])
            ]
            fh.write(
                json.dumps(
                    {
                        "user": args.user,
                        "rank": rank,
                        "score": seq.score,
                        "pois": [encodings.ix_to_poi[ix] for ix in seq.pois],
                        "categories": [
                            encodings.ix_to_cat[int(tables.poi_cat[ix])]
                            for ix in seq.pois
                        ],
                        "displacement_km": [round(d, 6) for d in steps],
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    print(f"generate: {len(sequences)} sequences -> {path}")
    return EXIT_OK


def _baseline_from_config(name: str, cfg: dict):
    cls = BASELINE_FACTORIES[name]
    kwargs = {
        key: cfg[key]
        for key in cls._param_names()
        if cfg.get(key) is not None
    }
    return _construct(name, cls, kwargs)


def _select_models(spec: str, cfg: dict) -> dict:
    names = sorted(BASELINE_FACTORIES) + sorted(MODEL_KINDS) if spec == "all" else [
        s.strip() for s in spec.split(",") if s.strip()
    ]
    models = {}
    for name in names:
        if name in BASELINE_FACTORIES:
            models[name] = _baseline_from_config(name, cfg)
        elif name in MODEL_KINDS:
            models[name] = _model_from_config(name, cfg)
        else:
            raise UsageError(f"unknown model {name!r}")
    return models


def cmd_evaluate(args) -> int:
    cfg = _merged_config(args)
    seed = cfg["seed"]
    sessions, encodings, graph = dataio.load_dataset(_resolve_data_dir(args))
    models = _select_models(args.models, cfg)
    sweep_lengths = [
        int(x) for x in args.sweep_lengths.split(",") if x.strip()
    ]
    result = cross_validate(
        sessions,
        graph,
        encodings,
        models,
        folds=cfg.get("folds") or 5,
        seed=seed,
        candidates=cfg.get("candidates") or 10,
        threads=cfg.get("threads") or 1,
        sweep_lengths=sweep_lengths,
    )
    out = _out_dir(cfg)
    (out / "eval_report.csv").write_text(
        report_csv(result, seed, include_raw=args.diversity_raw), encoding="utf-8"
    )
    (out / "timings.csv").write_text(timings_csv(result, seed), encoding="utf-8")
    if sweep_lengths:
        (out / "sweep.csv").write_text(sweep_csv(result, seed), encoding="utf-8")
    tables_text = text_tables(result)
    (out / "eval_report.txt").write_text(tables_text, encoding="utf-8")
    print(tables_text)
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _merged_config(args)
    from .metrics import EvalReport, EvalResult

    result = EvalResult()
    header: list = []
    for line in Path(args.eval_csv).read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if not header:
            header = line.split(",")
            continue
        row = dict(zip(header, line.split(",")))
        result.reports.append(
            EvalReport(
                model=row["model"],
                fold=row["fold"],
                precision_pair=float(row["precision_pair"]),
                recall_pair=float(row["recall_pair"]),
                pairs_f1=float(row["pairs_f1"]),
                diversity=float(row["diversity"]),
                displacement_sum_km=float(row["displacement_sum_km"]),
                displacement_mean_km=float(row["displacement_mean_km"]),
                sessions=int(row["sessions"]),
            )
        )
    out = _out_dir(cfg)
    tables_text = text_tables(result)
    (out / "report.txt").write_text(tables_text, encoding="utf-8")
    print(tables_text)

    if args.sweep_csv:
        per_model: dict[str, list] = {}
        sweep_header: list = []
        for line in Path(args.sweep_csv).read_text(encoding="utf-8").splitlines():
            if line.startswith("#") or not line.strip():
                continue
            if not sweep_header:
                sweep_header = line.split(",")
                continue
            row = dict(zip(sweep_header, line.split(",")))
            per_model.setdefault(row["model"], []).append(row)
        for model, rows in sorted(per_model.items()):
            path = out / f"sweep_{model}.csv"
            lines = ["length,diversity,displacement_mean_km"]
            for row in sorted(rows, key=lambda r: int(r["length"])):
                lines.append(
                    f"{row['length']},{row['diversity']},{row['displacement_mean_km']}"
                )
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            print(f"report: plot data -> {path}")
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "features": cmd_features,
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return EXIT_USAGE
        np.seterr(all="raise", under="ignore")
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except configmod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, NumericError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
