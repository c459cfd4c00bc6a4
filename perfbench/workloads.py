"""The capseq benchmark's workloads.

Every workload runs the four user-facing stages of capseq in pipeline
order: ingest (raw CSV to loaded feature tables through the CLI), train
(recommender ``fit``), generate (top-k requests) and evaluate
(``cross_validate``). The stage a workload is named after runs at full
size on inputs made from the workload seed and is sized from
``--seconds``; the other three run as small fixed probes on a fixed
corpus, so that every end-to-end metric has a value on every workload
while the named stage does almost all of the work.

The program receives only inputs generated here, and every output it
returns is checked: CLI exit codes, reloaded tables, loss curves,
generated sequences and evaluation rows. Every recommender is wrapped
with a contract check: a generated sequence must start at the requested
POI and have the requested length.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

import capseq
from capseq import cli
from capseq.baselines import (
    AprioriRecommender,
    HitsRecommender,
    MarkovRecommender,
    PopularityRecommender,
)
from capseq.data import Encodings, build_sessions, parse_checkins, synth_dataset
from capseq.data import io as dataio
from capseq.features import FeatureTables
from capseq.generation import GenRequest
from capseq.metrics import assign_folds, cross_validate, report_csv
from capseq.models import MODEL_KINDS

from spans import SpanRecorder, instrument, layer_of, summarize

PROBE_SEED = 7          # probes always run on the same small corpus
SETUP_REPEATS = 3       # setup_s is the median of this many set-ups
FOLDS = 5
LAYERS = ("data", "features", "models", "numerics", "generation",
          "baselines", "metrics", "cli")
BASELINES = {
    "popularity": PopularityRecommender,
    "markov": MarkovRecommender,
    "hits": HitsRecommender,
    "apriori": AprioriRecommender,
}
NEURAL_KINDS = tuple(MODEL_KINDS)


# -- sizes -------------------------------------------------------------------


@dataclass(frozen=True)
class Corpus:
    users: int
    pois: int
    days: int


@dataclass(frozen=True)
class FitSpec:
    kind: str            # a key of capseq.models.MODEL_KINDS
    params: tuple        # (name, value) pairs for the recommender
    epochs: int
    every: int = 1       # fit on every n-th training session

    @property
    def label(self) -> str:
        dims = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}[{dims},epochs={self.epochs},every={self.every}]"

    def make(self):
        return MODEL_KINDS[self.kind](epochs=self.epochs, seed=0, **dict(self.params))


@dataclass(frozen=True)
class Stage:
    """One stage at one size. At full size it makes
    ``max(min_ops, round(seconds / (unit_s * passes)))`` operations; as a
    probe it makes ``min_ops``."""

    kind: str                 # "ingest" | "train" | "generate" | "cv"
    corpus: Corpus
    min_ops: int
    unit_s: float = 1.0       # approximate seconds per operation at seed
    fits: tuple = ()          # FitSpec: fitted per op (train) or in set-up (generate)
    baselines: tuple = ()     # cv: baseline names
    length: int = 25          # generate: request shape
    candidates: int = 10
    k: int = 10
    fresh_corpus: bool = False  # cv: a new corpus for every call
    passes: int = 1           # generate: times the request list is sent

    def ops(self, seconds: float, full: bool) -> int:
        if not full:
            return self.min_ops
        return max(self.min_ops, round(seconds / (self.unit_s * self.passes)))


def _p(**params) -> tuple:
    return tuple(sorted(params.items()))


SMALL_RNN = _p(hidden_size=48, n_layers=1, embedding_size=32, learning_rate=0.2)
SMALL_LSTM = _p(hidden_size=64, embedding_size=32, learning_rate=0.2)
WIDE_LSTM = _p(hidden_size=512, embedding_size=384)                  # CLI default
WIDE_RNN = _p(hidden_size=512, n_layers=1, embedding_size=384)
TINY_RNN = _p(hidden_size=16, n_layers=1, embedding_size=8, learning_rate=0.2)
SEED_CORPUS = Corpus(users=60, pois=200, days=30)
PROBE_CORPUS = Corpus(users=8, pois=60, days=10)

FULL = {
    "ingest": Stage("ingest", Corpus(users=120, pois=400, days=30),
                    min_ops=3, unit_s=2.3),
    "train": Stage("train", SEED_CORPUS, min_ops=1, unit_s=5.0, fits=(
        FitSpec("plain-rnn", SMALL_RNN, epochs=3),
        FitSpec("caps-rnn", SMALL_RNN, epochs=3),
        FitSpec("caps-lstm", SMALL_LSTM, epochs=2),
        FitSpec("caps-lstm", WIDE_LSTM, epochs=1, every=6),
    )),
    "generate": Stage("generate", SEED_CORPUS, min_ops=200, unit_s=0.085, passes=2, fits=(
        FitSpec("caps-lstm", SMALL_LSTM, epochs=1, every=2),
        FitSpec("caps-rnn", SMALL_RNN, epochs=1, every=2),
        FitSpec("plain-rnn", WIDE_RNN, epochs=1, every=6),
    )),
    "cv": Stage("cv", Corpus(users=4, pois=120, days=7), min_ops=7, unit_s=2.5,
                baselines=tuple(BASELINES), fresh_corpus=True),
}
PROBE = {
    "ingest": Stage("ingest", PROBE_CORPUS, min_ops=10),
    "train": Stage("train", PROBE_CORPUS, min_ops=20,
                   fits=(FitSpec("plain-rnn", TINY_RNN, epochs=4),)),
    "generate": Stage("generate", PROBE_CORPUS, min_ops=200, length=10, candidates=3, k=2,
                      passes=2,
                      fits=(FitSpec("plain-rnn", TINY_RNN, epochs=2),)),
    "cv": Stage("cv", PROBE_CORPUS, min_ops=6,
                baselines=("popularity", "markov", "hits")),
}
STAGE_ORDER = ("ingest", "train", "generate", "cv")

# workload name -> the stage it runs at full size
WORKLOADS = {
    "train": "train",
    "generate": "generate",
    "cv-baselines": "cv",
    "ingest": "ingest",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
    "fit_seq_per_s": "seq/s",
    "train_nll": "nats",
    "gen_p50_ms": "ms",
    "gen_p95_ms": "ms",
    "cv_s": "s",
    "pairs_f1": "1",
    "displacement_km": "km",
    "ingest_s": "s",
}


# -- operation accounting ----------------------------------------------------


class Timing(NamedTuple):
    kernel: int     # index of the calibration sample taken just before the op
    wall: float     # seconds


class ContractCounter:
    """Counts, per recommender, generated sequences that do not start at
    the requested POI or do not have the requested length."""

    def __init__(self):
        self.requests = Counter()
        self.sequences = Counter()
        self.wrong_start = Counter()
        self.wrong_length = Counter()
        self.bad_sequences = Counter()
        self.bad_requests = Counter()

    def check(self, name: str, request: GenRequest, sequences) -> bool:
        ok = True
        for seq in sequences:
            self.sequences[name] += 1
            start_ok = bool(seq.pois) and seq.pois[0] == request.start_poi
            length_ok = len(seq.pois) == request.length
            self.wrong_start[name] += not start_ok
            self.wrong_length[name] += not length_ok
            if not (start_ok and length_ok):
                self.bad_sequences[name] += 1
                ok = False
        self.bad_requests[name] += not ok
        return ok

    def call(self, name: str, generate, request: GenRequest, seed: int):
        """``generate(request, seed=seed)``, counted and checked."""
        self.requests[name] += 1
        out = generate(request, seed=seed)
        self.check(name, request, out)
        return out

    def wrap(self, cls, name: str):
        """A subclass of ``cls`` whose ``generate`` is counted and checked.
        ``clone_unfitted`` keeps the subclass, so the cross-validation
        clones are counted too."""
        counter = self

        def generate(self, request, seed=0):
            return counter.call(name, super(checked, self).generate, request, seed)

        checked = type(f"Checked{cls.__name__}", (cls,), {"generate": generate})
        return checked

    def ok_ratio(self, name: str) -> float:
        n = self.sequences[name]
        return 1.0 - self.bad_sequences[name] / n if n else 1.0

    def as_dict(self) -> dict:
        return {
            name: {
                "requests": self.requests[name],
                "sequences": self.sequences[name],
                "wrong_start": self.wrong_start[name],
                "wrong_length": self.wrong_length[name],
                "bad_sequences": self.bad_sequences[name],
            }
            for name in sorted(self.requests)
        }


class Pass:
    """Operation tallies and timings of one measured pass, traced or not.

    An operation is a CLI ingest, a fit, a cross_validate call or one
    recommender ``generate`` request (also those made inside
    cross_validate). It fails when it raises, when a CLI call exits
    non-zero, or, for a request, when a sequence breaks the contract.
    """

    def __init__(self, recorder: SpanRecorder | None = None):
        self.recorder = recorder
        self.contract = ContractCounter()
        self.attempts = 0       # operations other than generate requests
        self.raised = 0         # operations that raised or exited non-zero
        self.problems: list[str] = []   # failed output checks and errors
        self.kernels: list[float] = []  # calibration kernel seconds, one before each op
        self.timings: list[Timing] = []

    def span(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def attempt(self, label: str, fn, request: bool = False):
        """Run one operation; returns (timing, result) or None if it
        failed. ``request`` operations are counted by the contract
        counter instead of here."""
        self.attempts += not request
        if self.recorder is not None:
            self.recorder.run_id += 1
        self.kernels.append(calibration_kernel())
        started = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # counted as a failed operation
            self.raised += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        timing = Timing(len(self.kernels) - 1, time.perf_counter() - started)
        self.timings.append(timing)
        return timing, result

    def seconds(self, timing: Timing) -> float:
        """An operation's time at reference machine speed: its wall time
        scaled by the two kernel samples taken before it and the two
        taken after it. Only valid once the pass has ended."""
        local = statistics.median(self.kernels[max(0, timing.kernel - 1):timing.kernel + 3])
        return timing.wall * CALIBRATION_REF_S / local

    @property
    def op_seconds(self) -> float:
        return sum(self.seconds(t) for t in self.timings)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    @property
    def attempted(self) -> int:
        return self.attempts + sum(self.contract.requests.values())

    @property
    def failed(self) -> int:
        return self.raised + sum(self.contract.bad_requests.values())


# -- set-up ------------------------------------------------------------------


@dataclass
class Split:
    sessions: list
    graph: object
    encodings: Encodings
    train: list
    held: list
    tables: FeatureTables | None = None


def make_split(corpus: Corpus, seed: int, with_tables: bool = True) -> Split:
    """Synthesize a corpus, sessionize it and hold out fold 0."""
    records, graph = synth_dataset(
        seed=seed, n_users=corpus.users, n_pois=corpus.pois, days=corpus.days)
    sessions = build_sessions(records)
    encodings = Encodings.fit(sessions)
    fold_of, _ = assign_folds(sessions, FOLDS, seed)
    train = [s for i, s in enumerate(sessions) if fold_of[i] != 0]
    held = [s for i, s in enumerate(sessions) if fold_of[i] == 0 and len(s) >= 2]
    tables = FeatureTables.build(train, graph, encodings) if with_tables else None
    return Split(sessions, graph, encodings, train, held, tables)


def fit_sessions(split: Split, spec: FitSpec) -> list:
    return split.train[:: spec.every]


def request_list(split: Split, stage: Stage, seed: int, count: int) -> list:
    """Requests drawn from the held-out sessions: (model index, request).
    Models take turns, and each model's requests take turns between
    plain, consolidated scores and no repeats. Thirds keep every
    percentile reported away from the border between two request shapes,
    which differ in cost."""
    rng = np.random.default_rng([seed, 1])
    enc = split.encodings
    out = []
    for i in range(count):
        shape = i // len(stage.fits) % 3
        session = split.held[int(rng.integers(len(split.held)))]
        first = session.visits[0]
        out.append((i % len(stage.fits), GenRequest(
            user=enc.user(session.user_id),
            start_poi=enc.poi(first.poi.poi_id),
            start_hour=first.hour,
            length=stage.length,
            candidates=stage.candidates,
            k=stage.k,
            consolidated=shape == 1,
            no_repeat=shape == 2,
        )))
    return out


def request_digest(requests: list) -> str:
    rows = [[m, r.user, r.start_poi, r.start_hour, r.length, r.candidates,
             r.k, r.consolidated, r.no_repeat] for m, r in requests]
    return sha256(json.dumps(rows))


def sha256(text) -> str:
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def prepare(stage: Stage, seed: int, count: int, workdir: Path) -> dict:
    """Inputs of one stage, made from ``seed``; includes set-up fits."""
    if stage.kind == "ingest":
        records, graph = synth_dataset(
            seed=seed, n_users=stage.corpus.users, n_pois=stage.corpus.pois,
            days=stage.corpus.days)
        workdir.mkdir(parents=True, exist_ok=True)
        checkins, friends = workdir / "checkins.csv", workdir / "friendships.csv"
        dataio.write_checkins_csv(checkins, records)
        dataio.write_friendships_csv(friends, graph)
        return {"checkins": checkins, "friends": friends, "out": workdir / "data"}
    if stage.kind == "cv":
        corpora = []
        for j in range(count if stage.fresh_corpus else 1):
            split = make_split(stage.corpus, seed * 1000 + j if stage.fresh_corpus
                               else seed, with_tables=False)
            corpora.append((split.sessions, split.graph, split.encodings))
        return {"corpora": corpora}
    split = make_split(stage.corpus, seed)
    prepared = {"split": split}
    if stage.kind == "generate":
        prepared["models"] = [spec.make().fit(fit_sessions(split, spec), split.tables)
                              for spec in stage.fits]
        prepared["requests"] = request_list(split, stage, seed, count)
    return prepared


# -- stages ------------------------------------------------------------------


# Each stage runner is a generator that yields once after every
# operation, so that ``interleave`` can spread the operations of all four
# stages evenly over the pass; the code after its last yield checks the
# outputs and stores the stage's metrics in ``out``.


def run_ingest(stage: Stage, prep: dict, count: int, seed: int, run: Pass,
               out: dict):
    checkins, friends, data = prep["checkins"], prep["friends"], prep["out"]

    def once():
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), np.errstate():
            with run.span("cli.ingest"):
                codes.append(cli.main(["ingest", "--checkins", str(checkins),
                                       "--friends", str(friends),
                                       "--out-dir", str(data)]))
            with run.span("cli.features"):
                codes.append(cli.main(["features", "--data-dir", str(data),
                                       "--out-dir", str(data)]))
        if codes != [0, 0]:
            raise RuntimeError(f"CLI exit codes {codes}")
        return FeatureTables.load(data / "tables.json")

    timings, digests, tables = [], set(), None
    for _ in range(count):
        done = run.attempt("ingest", once)
        if done is not None:
            timings.append(done[0])
            tables = done[1]
            digests.add(sha256((data / "tables.json").read_bytes()))
        yield
    if not timings:
        return
    out["ingest_s"] = statistics.median(run.seconds(t) for t in timings)
    run.expect(len(digests) == 1, "ingest: tables.json differs between repeats")
    # the CLI output must agree with the library run on the same CSV
    sessions, encodings, _ = dataio.load_dataset(data)
    reference = build_sessions(parse_checkins(checkins).records)
    run.expect(len(sessions) == len(reference),
               f"ingest: {len(sessions)} sessions, library gives {len(reference)}")
    run.expect(tables.n_pois == encodings.n_pois == Encodings.fit(reference).n_pois,
               "ingest: POI count differs between dataset, tables and library")
    out["digests"]["tables_json"] = sorted(digests)[0]


def run_train(stage: Stage, prep: dict, count: int, seed: int, run: Pass,
              out: dict):
    split = prep["split"]
    cycles, curves = [], None
    for _ in range(count):
        seq_epochs, timings, cycle = 0, [], []
        for spec in stage.fits:
            sessions = fit_sessions(split, spec)
            done = run.attempt(spec.label, lambda: spec.make().fit(sessions, split.tables))
            if done is not None:
                timings.append(done[0])
                seq_epochs += sum(len(s) >= 2 for s in sessions) * spec.epochs
                cycle.append([float(x) for x in done[1].loss_curve_])
            yield
        if len(cycle) < len(stage.fits):
            continue
        cycles.append((seq_epochs, timings))
        if curves is None:
            curves = cycle
        run.expect(cycle == curves, "train: loss curves differ between repeats")
    if curves is None:
        return
    for spec, curve in zip(stage.fits, curves):
        # an epoch's loss is taken before each batch's update, so a one-batch
        # epoch repeats the starting loss; a rise means training went wrong
        run.expect(all(math.isfinite(x) for x in curve)
                   and curve[-1] <= curve[0] * (1 + 1e-9),
                   f"train: {spec.label} raised its loss: {curve}")
    out["fit_seq_per_s"] = statistics.median(
        n / sum(run.seconds(t) for t in timings) for n, timings in cycles)
    out["train_nll"] = statistics.fmean(c[-1] for c in curves)
    out["digests"]["loss_curves"] = sha256(json.dumps(curves))
    out["detail"]["final_loss"] = {spec.label: c[-1] for spec, c in zip(stage.fits, curves)}


def run_generate(stage: Stage, prep: dict, count: int, seed: int, run: Pass,
                 out: dict):
    split, requests, models = prep["split"], prep["requests"], prep["models"]
    names = [spec.kind for spec in stage.fits]
    timings = [[] for _ in requests]
    outputs = [None] * len(requests)
    # every pass sends the whole request list; a request's latency is the
    # best of its passes, which lie a pass apart in time, so that a burst
    # of host noise must hit every pass to move it
    for _ in range(stage.passes):
        for i, (m, request) in enumerate(requests):
            done = run.attempt("generate", lambda: run.contract.call(
                names[m], models[m].generate, request, i), request=True)
            yield
            if done is None:
                continue
            timings[i].append(done[0])
            seqs = done[1]
            got = [[s.pois, s.score] for s in seqs]
            if outputs[i] is not None:
                run.expect(got == outputs[i],
                           f"generate: request {i} gave another result when repeated")
                continue
            outputs[i] = got
            run.expect(len(seqs) == request.k, f"generate: request {i} returned "
                       f"{len(seqs)} sequences, asked for {request.k}")
            run.expect(all(0 <= p < split.encodings.n_pois for s in seqs for p in s.pois),
                       f"generate: request {i} returned an unknown POI")
            scores = [s.score for s in seqs]
            run.expect(scores == sorted(scores, reverse=True),
                       f"generate: request {i} is not ranked by score")
    if any(len(t) < stage.passes for t in timings):
        return
    seconds = [[run.seconds(t) for t in ts] for ts in timings]
    ms = np.asarray([min(t) for t in seconds]) * 1e3
    out["gen_p50_ms"] = float(np.percentile(ms, 50))
    out["gen_p95_ms"] = float(np.percentile(ms, 95))
    out["digests"]["requests"] = request_digest(requests)
    out["digests"]["sequences"] = sha256(json.dumps(outputs))
    out["detail"]["requests"] = len(requests)
    out["detail"]["passes"] = stage.passes


def run_cv(stage: Stage, prep: dict, count: int, seed: int, run: Pass,
           out: dict):
    corpora = prep["corpora"]
    models = {name: run.contract.wrap(BASELINES[name], name)()
              for name in stage.baselines}
    timings, f1s, disps, reports = [], [], [], []
    for j in range(count):
        sessions, graph, encodings = corpora[j % len(corpora)]

        def once():
            with run.span("metrics.cross_validate"):
                return cross_validate(sessions, graph, encodings, models,
                                      folds=FOLDS, seed=seed)

        done = run.attempt("cross_validate", once)
        yield
        if done is None:
            continue
        timings.append(done[0])
        result = done[1]
        rows = [result.aggregate(name) for name in stage.baselines]
        for r in result.reports:
            values = (r.pairs_f1, r.precision_pair, r.recall_pair, r.diversity)
            run.expect(all(0.0 <= v <= 1.0 for v in values)
                       and math.isfinite(r.displacement_mean_km)
                       and r.displacement_mean_km >= 0.0,
                       f"cv: row out of range: {r}")
        f1s.append(statistics.fmean(r.pairs_f1 for r in rows))
        disps.append(statistics.fmean(r.displacement_mean_km for r in rows))
        reports.append(report_csv(result, seed))
    if len(timings) < count:
        return
    if not stage.fresh_corpus:
        run.expect(len(set(reports)) == 1, "cv: eval_report differs between repeats")
    # corpora differ in cost; their mean varies less across seeds than a median
    out["cv_s"] = statistics.fmean(run.seconds(t) for t in timings)
    out["pairs_f1"] = statistics.fmean(f1s)
    out["displacement_km"] = statistics.fmean(disps)
    out["digests"]["eval_report"] = sha256("".join(reports))


RUNNERS = {"ingest": run_ingest, "train": run_train,
           "generate": run_generate, "cv": run_cv}


# -- machine speed -----------------------------------------------------------
#
# On a shared host the speed of the same code changes by up to a factor
# of two, often several times a minute. A fixed kernel that touches no
# capseq code is therefore timed before every operation and around every
# set-up, and each operation's time is scaled to a machine on which the
# kernel takes CALIBRATION_REF_S, by the kernel samples taken next to it
# (Pass.seconds). Scaling by samples next to the operation follows a
# speed change in the middle of a run; one median for the whole run does
# not, and flips between the two speeds when a run spends about half its
# time at each. The kernel mixes the three kinds of work capseq's hot
# paths are made of: interpreted arithmetic, building small containers
# and small NumPy operations; a loop of arithmetic alone tracks capseq's
# speed far less well.

CALIBRATION_REF_S = 1e-3
SETUP_KERNELS = 5       # kernel samples before and after each set-up
_CAL_MATRIX = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
_CAL_VECTOR = np.linspace(0.0, 1.0, 48)


def calibration_kernel() -> float:
    """Seconds taken by the fixed calibration workload."""
    started = time.perf_counter()
    x = 0
    for i in range(4000):
        x += i * i % 7
    table = {}
    for i in range(300):
        table[i] = [i, float(i)]
    for _ in range(60):
        (np.tanh(_CAL_MATRIX @ _CAL_VECTOR) + _CAL_VECTOR).sum()
    return time.perf_counter() - started


def interleave(runners: list) -> None:
    """Run (generator, number of operations) pairs one operation at a
    time, the operations of each spread evenly over the whole pass, then
    let every runner finish."""
    order = sorted(((i + 0.5) / n, r)
                   for r, (_, n) in enumerate(runners) for i in range(n))
    for _, r in order:
        next(runners[r][0])
    for gen, _ in runners:
        for _ in gen:
            raise RuntimeError("a stage ran more operations than it planned")


# -- one benchmark run -------------------------------------------------------


def plan(workload: str, seed: int, seconds: float, sizes: dict,
         probes: dict) -> list:
    """(stage, input seed, count) for each stage in pipeline order: the
    workload's own stage at full size on the workload seed, the others
    as probes on the probe seed. ``count`` is in stage units: CLI runs,
    training cycles, requests or cross_validate calls."""
    steps = []
    for kind in STAGE_ORDER:
        full = kind == WORKLOADS[workload]
        stage = sizes[kind] if full else probes[kind]
        steps.append((stage, seed if full else PROBE_SEED, stage.ops(seconds, full)))
    return steps


def set_up(steps: list, workdir: Path) -> tuple:
    """Median over SETUP_REPEATS set-ups of the set-up time at reference
    speed, and the last set-up."""
    times, prepared = [], None
    for _ in range(SETUP_REPEATS):
        kernels = [calibration_kernel() for _ in range(SETUP_KERNELS)]
        started = time.perf_counter()
        prepared = [prepare(stage, seed, count, workdir / f"{stage.kind}-{i}")
                    for i, (stage, seed, count) in enumerate(steps)]
        wall = time.perf_counter() - started
        kernels += [calibration_kernel() for _ in range(SETUP_KERNELS)]
        times.append(wall * CALIBRATION_REF_S / statistics.median(kernels))
    return statistics.median(times), prepared


def measure(steps: list, prepared: list, run: Pass) -> dict:
    out = {"digests": {}, "detail": {}}
    interleave([
        (RUNNERS[stage.kind](stage, prep, count, seed, run, out),
         count * {"train": len(stage.fits), "generate": stage.passes}.get(stage.kind, 1))
        for (stage, seed, count), prep in zip(steps, prepared)
    ])
    return out


def layer_metrics(recorder: SpanRecorder, traced: Pass, plain: Pass) -> dict:
    stats = summarize(recorder.spans)

    def total(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def own(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    m = {
        "data.parse_checkins_s": total("data.parse_checkins"),
        "data.build_sessions_s": total("data.build_sessions"),
        "data.save_dataset_s": total("data.save_dataset"),
        "data.load_dataset_s": total("data.load_dataset"),
        "features.build_s": total("features.build"),
        "features.build_calls": calls("features.build"),
        "features.save_s": total("features.save"),
        "features.load_s": total("features.load"),
    }
    for read in ("preference", "consolidated", "attribute_vector", "distance_km"):
        m[f"features.{read}_calls"] = recorder.counts[f"features.{read}"]
    m["models.encode_sessions_s"] = total("models.encode_sessions")
    m["models.make_batch_s"] = total("models.make_batch")
    for kind in NEURAL_KINDS:
        forward = total(f"models.{kind}.forward")
        m[f"models.{kind}.forward_s"] = forward
        m[f"models.{kind}.backward_s"] = total(f"models.{kind}.loss_and_grads") - forward
    m["numerics.sgd_step_s"] = total("numerics.sgd_step")
    m["models.forward_step_s"] = total("models.forward_step")
    m["models.forward_step_calls"] = calls("models.forward_step")
    m["generation.generate_self_s"] = own("generation.generate")
    m["generation.score_sequence_s"] = total("generation.score_sequence")
    m["generation.sample_next_s"] = total("generation.sample_next")
    for name in BASELINES:
        n = calls(f"baselines.{name}.generate")
        m[f"baselines.{name}.fit_s"] = total(f"baselines.{name}.fit")
        m[f"baselines.{name}.generate_ms"] = (
            total(f"baselines.{name}.generate") / n * 1e3 if n else 0.0)
        m[f"baselines.{name}.contract_ok_ratio"] = plain.contract.ok_ratio(name)
    m["metrics.cross_validate_self_s"] = own("metrics.cross_validate")
    m["cli.ingest_self_s"] = own("cli.ingest")
    m["cli.features_self_s"] = own("cli.features")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(row["self_s"] for name, row in stats.items()
                                   if layer_of(name) == layer)
        m[f"{layer}.calls"] = sum(row["calls"] for name, row in stats.items()
                                  if layer_of(name) == layer) + sum(
            n for name, n in recorder.counts.items() if layer_of(name) == layer)
    m["trace.overhead_s"] = traced.op_seconds - plain.op_seconds
    m["trace.overhead_ratio"] = m["trace.overhead_s"] / plain.op_seconds
    m["trace.spans"] = len(recorder.spans)
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS that NumPy loaded, asked through
    its own C API; "unknown" when it cannot be found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return "unknown"


def stamp(workload: str, seed: int, seconds: float, root: Path) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                             capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "git_sha": sha or "unknown",
        "capseq": capseq.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        root: Path, sizes: dict = FULL, probes: dict = PROBE) -> dict:
    """One benchmark run. Returns {"stamp", "summary", "detail"}; summary
    is the JSON object the benchmark prints last."""
    tmp = workdir / f"run-{os.getpid()}"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # a traced run measures the same work twice at half size:
            # untraced, then traced, so their difference is the overhead
            steps = plan(workload, seed, seconds / 2 if trace else seconds,
                         sizes, probes)
            setup_s, prepared = set_up(steps, tmp)
            # the set-up data lives for the whole run; keep the cyclic
            # collector from rescanning it at random points of the
            # measured operations
            gc.collect()
            gc.freeze()
            plain = Pass()
            out = measure(steps, prepared, plain)
            problems = plain.problems
            if trace:
                recorder = SpanRecorder()
                traced = Pass(recorder)
                with instrument(recorder):
                    measure(steps, prepared, traced)
                recorder.write(workdir / f"spans-{workload}-seed{seed}.jsonl")
                problems = problems + traced.problems
    finally:
        gc.unfreeze()
        shutil.rmtree(tmp, ignore_errors=True)
    calibration_ms = statistics.median(plain.kernels) * 1e3
    detail = out["detail"]
    detail.update(contract=plain.contract.as_dict(), problems=problems)
    if trace:
        metrics = layer_metrics(recorder, traced, plain)
        units = {name: unit_of(name) for name in metrics}
    else:
        missing = set(END_TO_END_UNITS) - set(out) - {"setup_s", "ok_ratio", "peak_rss_mb"}
        if missing:
            raise RuntimeError(f"no value for {sorted(missing)}: {problems}")
        out.update(setup_s=setup_s, ok_ratio=1.0 - plain.failed / plain.attempted,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {name: out[name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    # total operation time as measured and at reference speed
    detail["op_seconds"] = {"wall": sum(t.wall for t in plain.timings),
                            "reference": plain.op_seconds}
    summary = {
        "correct": not problems,
        "attempted": plain.attempted,
        "failed": plain.raised,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    info = stamp(workload, seed, seconds, root)
    info.update(calibration_ms=calibration_ms, digests=out["digests"])
    return {"stamp": info, "summary": summary, "detail": detail}
