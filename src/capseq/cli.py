"""Command-line pipeline: synth, ingest, features, train, generate,
evaluate, report.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every output file records the root seed in its header; all randomness
derives from that one seed, so reruns with identical inputs reproduce
identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    DEFAULT_MIN_CHECKINS,
    DataError,
    ParseResult,
    SocialGraph,
    TravelTimeModel,
    UnknownIdError,
    build_sessions,
    io as dataio,
    parse_checkins,
    parse_friendships,
    synth_dataset,
)
from .features import FeatureTables
from .generation import GenRequest
from .metrics import (
    cross_validate,
    csv_rows,
    read_report_csv,
    report_csv,
    seeded_csv,
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
RECOMMENDERS = {**BASELINE_FACTORIES, **MODEL_KINDS}

# the config keys: the settings of a run, then every recommender's fields
RUN_KEYS = {"model": str, "seed": int, "min_checkins": int, "folds": int, "candidates": int,
            "k": int, "length": int, "data_dir": str, "out_dir": str}
CONFIG_KEYS = {
    **RUN_KEYS,
    **{field.name: type(field.default)
       for cls in RECOMMENDERS.values() for field in dataclasses.fields(cls)},
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # argparse reads "-1e9" or "-inf" as an unknown option; no capseq
        # option looks like a number, so whatever float() reads is a value
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> _Parser:
    parser = _Parser(prog="capseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_common(p):
        p.add_argument("--config", help="key = value config file (flags win)")
        p.add_argument("--seed", type=int, default=None, help="root seed (default 7)")
        p.add_argument("--out-dir", default=None, help="output directory")

    def add_model_flags(p):
        p.add_argument("--hidden-size", type=int, default=None)
        p.add_argument("--n-layers", type=int, default=None)
        p.add_argument("--embedding-size", type=int, default=None)
        p.add_argument("--lr", dest="learning_rate", type=float, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--batch-size", type=int, default=None)

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
                   help="drop users below this many check-ins "
                   f"(default {DEFAULT_MIN_CHECKINS})")
    p.add_argument("--travel-time", choices=["deterministic", "lognormal"],
                   default="deterministic")

    p = sub.add_parser("features", help="export a dataset's feature tables as JSON")
    add_common(p)
    p.add_argument("--data-dir", default=None, help="ingested dataset directory")

    p = sub.add_parser("train", help="train a sequence model")
    add_common(p)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--model", choices=sorted(MODEL_KINDS), default=None)
    add_model_flags(p)
    p.add_argument("--clip", dest="clip_threshold", type=float, default=None)

    p = sub.add_parser("generate", help="generate sequences from a checkpoint")
    add_common(p)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--checkpoint", required=True)
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
    add_model_flags(p)
    p.add_argument("--sweep-lengths", default="",
                   help="comma list of generation lengths for plot data")
    p.add_argument("--diversity-raw", action="store_true",
                   help="also emit unnormalized dissimilar-pair counts")

    p = sub.add_parser("report", help="format an evaluation CSV as text tables")
    add_common(p)
    p.add_argument("--eval-csv", required=True)
    p.add_argument("--sweep-csv", help="length-sweep CSV; emits per-model plot data")

    return parser


def _resolve_data_dir(cfg: dict) -> Path:
    """The dataset directory: the flag, else the config file, else the
    environment."""
    data_dir = cfg.get("data_dir") or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise UsageError("--data-dir (or data_dir in --config, or CAPSEQ_DATA_DIR) "
                         "is required")
    return Path(data_dir)


def _out_dir(cfg) -> Path:
    """The output directory, made if missing. ``train``, ``generate`` and
    ``evaluate`` make it before their work, so a bad path fails at once; a
    later failure leaves it behind, empty."""
    out = Path(cfg.get("out_dir") or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out-dir {out}: {exc.strerror}") from exc
    return out


def _merged_config(args) -> dict:
    """The ``--config`` file's values, with every flag that is set laid over them."""
    merged = {}
    if getattr(args, "config", None):
        merged = configmod.parse_config_file(args.config, CONFIG_KEYS)
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    merged.setdefault("seed", 7)
    if merged["seed"] < 0:
        raise configmod.ConfigError(f"seed must be >= 0, got {merged['seed']}")
    return merged


def cmd_synth(args) -> int:
    cfg = _merged_config(args)
    seed = cfg["seed"]
    try:
        records, graph = synth_dataset(
            seed=seed, n_users=args.users, n_pois=args.pois, days=args.days
        )
    except ValueError as exc:
        raise configmod.ConfigError(f"synth: {exc}") from exc
    out = _out_dir(cfg)
    dataio.write_checkins_csv(out / "checkins.csv", records)
    dataio.write_friendships_csv(out / "friendships.csv", graph)
    print(f"synth: {len(records)} check-ins, {graph.n_edges()} friendships -> {out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    cfg = _merged_config(args)
    min_checkins = _default(cfg, "min_checkins", DEFAULT_MIN_CHECKINS)
    if min_checkins < 0:
        raise configmod.ConfigError(f"min_checkins must be >= 0, got {min_checkins}")
    parsed = parse_checkins(args.checkins, args.format)
    friends = parse_friendships(args.friends) if args.friends else ParseResult([], 0)
    for what, result in (("check-in", parsed), ("friendship", friends)):
        if result.dropped:
            print(f"ingest: dropped {result.dropped} malformed {what} rows", file=sys.stderr)
    graph = SocialGraph(friends.records)
    travel = TravelTimeModel(args.travel_time)
    if args.travel_time == "lognormal":
        travel.fit(parsed.records)
    sessions = build_sessions(parsed.records, travel, min_checkins=min_checkins)
    if not sessions:
        raise DataError("no sessions remain after filtering")
    out = _out_dir(cfg)
    dataio.save_dataset(out, sessions, sessions.encodings, graph)
    n_train = int((sessions.columns[4] >= 2).sum())
    print(
        f"ingest: {len(sessions)} sessions ({n_train} trainable), "
        f"{sessions.encodings.n_users} users, {sessions.encodings.n_pois} POIs -> {out}"
    )
    return EXIT_OK


def _dataset_and_tables(cfg) -> tuple:
    """The sessions and encodings of the dataset directory, and the
    feature tables built from them."""
    sessions, encodings, graph = dataio.load_dataset(_resolve_data_dir(cfg))
    return sessions, encodings, FeatureTables.build(sessions, graph, encodings)


def cmd_features(args) -> int:
    cfg = _merged_config(args)
    _, encodings, tables = _dataset_and_tables(cfg)
    out = _out_dir(cfg)
    tables.save(out / "tables.json")
    print(f"features: tables for {encodings.n_pois} POIs -> {out / 'tables.json'}")
    return EXIT_OK


def _default(cfg: dict, key: str, default):
    """``cfg[key]`` unless unset; an explicit 0 is kept (and then rejected
    by whatever validates it), never swapped for the default."""
    value = cfg.get(key)
    return default if value is None else value


def _construct(name: str, cls, kwargs: dict):
    """Build a recommender or request; a value it rejects is a config error."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise configmod.ConfigError(f"{name}: {exc}") from exc


def _recommender(name: str, cfg: dict):
    """The recommender ``name``, with every parameter of it set in ``cfg``."""
    cls = RECOMMENDERS[name]
    kwargs = {key: cfg[key] for key in cls._param_names() if cfg.get(key) is not None}
    return _construct(name, cls, kwargs)


def cmd_train(args) -> int:
    cfg = _merged_config(args)
    out = _out_dir(cfg)
    kind = cfg.get("model") or "caps-lstm"
    if kind not in MODEL_KINDS:  # argparse checks --model; this checks the config key
        raise configmod.ConfigError(f"unknown model kind {kind!r}")
    sessions, encodings, tables = _dataset_and_tables(cfg)
    model = _recommender(kind, cfg)
    model.fit(sessions, tables)
    ckpt = out / f"{kind}.ckpt"
    model.save(ckpt)
    (out / f"{kind}-loss.csv").write_text(seeded_csv(cfg["seed"], "epoch,mean_nll", (
        f"{i},{v!r}" for i, v in enumerate(model.loss_curve_))), encoding="utf-8")
    print(
        f"train: {kind} nll {model.loss_curve_[0]:.4f} -> {model.loss_curve_[-1]:.4f} "
        f"over {len(model.loss_curve_) - 1} epochs; checkpoint {ckpt}"
    )
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = _merged_config(args)
    out = _out_dir(cfg)
    seed = cfg["seed"]
    sessions, encodings, tables = _dataset_and_tables(cfg)
    try:
        model = load_checkpoint(args.checkpoint, tables)
    except (OSError, ValueError, KeyError, TypeError, RecursionError, NumericError) as exc:
        raise DataError(f"{args.checkpoint}: cannot load checkpoint: {exc}") from exc

    user_ix = encodings.user(args.user)
    if args.start_poi:
        start_ix = encodings.poi(args.start_poi)
    else:
        users, pois = sessions.columns[:2]
        visited = pois[users == user_ix]
        if not len(visited):
            raise DataError(f"user {args.user!r} has no observed check-ins")
        start_ix = int(np.bincount(visited).argmax())  # the first of the most visited

    request = _construct("generate", GenRequest, dict(
        user=user_ix,
        start_poi=start_ix,
        start_hour=args.start_hour,
        no_repeat=args.no_repeat,
        consolidated=args.consolidated,
        **{key: cfg[key] for key in ("length", "candidates", "k") if cfg.get(key) is not None},
    ))
    sequences = model.generate(request, seed=seed)
    path = out / "sequences.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"header": True, "seed": seed, "model": model.kind}) + "\n")
        for rank, seq in enumerate(sequences):
            steps = tables.distance_km(seq.pois[:-1], seq.pois[1:]).tolist()
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


def _select_models(spec: str, cfg: dict) -> dict:
    names = sorted(BASELINE_FACTORIES) + sorted(MODEL_KINDS) if spec == "all" else [
        s.strip() for s in spec.split(",") if s.strip()
    ]
    if not names:
        raise UsageError(f"--models {spec!r} names no model")
    models = {}
    for name in names:
        if name not in RECOMMENDERS:
            raise UsageError(f"unknown model {name!r}")
        models[name] = _recommender(name, cfg)
    return models


def cmd_evaluate(args) -> int:
    cfg = _merged_config(args)
    out = _out_dir(cfg)
    seed = cfg["seed"]
    folds = _default(cfg, "folds", 5)
    candidates = _default(cfg, "candidates", 10)
    if folds < 2:
        raise configmod.ConfigError(f"folds must be >= 2, got {folds}")
    if candidates < 1:
        raise configmod.ConfigError(f"candidates must be >= 1, got {candidates}")
    try:
        sweep_lengths = [int(x) for x in args.sweep_lengths.split(",") if x.strip()]
    except ValueError as exc:
        raise configmod.ConfigError(f"sweep lengths: {exc}") from exc
    if any(n < 1 for n in sweep_lengths):
        raise configmod.ConfigError(
            f"sweep lengths must be >= 1, got {args.sweep_lengths!r}")
    sessions, encodings, graph = dataio.load_dataset(_resolve_data_dir(cfg))
    models = _select_models(args.models, cfg)
    result = cross_validate(
        sessions,
        graph,
        encodings,
        models,
        folds=folds,
        seed=seed,
        candidates=candidates,
        sweep_lengths=sweep_lengths,
    )
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


def _read_csv(path, parse):
    """``parse`` of the text of the CSV file at ``path``; a file that cannot
    be read, or that ``parse`` refuses, is a ``DataError`` naming it."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or a cell that is not a number
        raise DataError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise DataError(f"{path}: missing column {exc}") from exc


def _sweep_plots(text: str) -> dict:
    """Per model, the plot data lines of a ``sweep_csv`` text, by length."""
    plots: dict[str, list] = {}
    for row in sorted(csv_rows(text), key=lambda r: int(r["length"])):
        plots.setdefault(row["model"], ["length,diversity,displacement_mean_km"]).append(
            f"{row['length']},{row['diversity']},{row['displacement_mean_km']}")
    return plots


def cmd_report(args) -> int:
    cfg = _merged_config(args)
    result = _read_csv(args.eval_csv, read_report_csv)
    out = _out_dir(cfg)
    tables_text = text_tables(result)
    (out / "report.txt").write_text(tables_text, encoding="utf-8")
    print(tables_text)

    if args.sweep_csv:
        for model, lines in sorted(_read_csv(args.sweep_csv, _sweep_plots).items()):
            path = out / f"sweep_{model}.csv"
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
        return EXIT_USAGE
    except configmod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, UnknownIdError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, NumericError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
