"""Sequence evaluation: pairs-F1, diversity, displacement, and the
cross-validation harness producing per-model reports.

pairs-F1 scores ordered POI pairs shared between predicted and actual
sequences; diversity is the fraction of POI pairs with distinct
categories; displacement is the position-wise great-circle distance in
km between predicted and actual stops.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data.types import DataError, Encodings, Session, SocialGraph
from .features import FeatureTables
from .generation import GenRequest
from .geo import haversine_km


def ordered_pairs(seq: Sequence) -> set:
    return {(seq[i], seq[j]) for i in range(len(seq)) for j in range(i + 1, len(seq))}


def pairs_f1(actual: Sequence, predicted: Sequence) -> tuple:
    """(precision, recall, F1) over ordered POI pairs.

    When both sequences are single elements there are no pairs at all;
    the score is 1 if they are the same POI, else 0.
    """
    if not actual or not predicted:
        raise ValueError("sequences must be non-empty")
    a_pairs = ordered_pairs(actual)
    p_pairs = ordered_pairs(predicted)
    if not a_pairs and not p_pairs:
        v = 1.0 if list(actual) == list(predicted) else 0.0
        return v, v, v
    correct = len(a_pairs & p_pairs)
    precision = correct / len(p_pairs) if p_pairs else 0.0
    recall = correct / len(a_pairs) if a_pairs else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def diversity(categories: Sequence) -> float:
    """Fraction of unordered position pairs whose categories differ."""
    n = len(categories)
    if n < 2:
        raise ValueError("diversity needs at least two items")
    return diversity_raw(categories) / (n * (n - 1) / 2.0)


def diversity_raw(categories: Sequence) -> int:
    """Unnormalized count of dissimilar pairs."""
    n = len(categories)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if categories[i] != categories[j]
    )


def displacement(actual_coords, predicted_coords) -> tuple:
    """(sum km, mean km) of position-wise distances between two equally
    long sequences of (lat, lon)."""
    n = len(actual_coords)
    if len(predicted_coords) != n:
        raise ValueError(
            f"displacement needs equal lengths, got {n} and {len(predicted_coords)}"
        )
    dists = [
        haversine_km(a[0], a[1], p[0], p[1])
        for a, p in zip(actual_coords, predicted_coords)
    ]
    total = sum(dists)
    return total, (total / n if n else 0.0)


# the per-session metrics, in the order ``_evaluate`` returns them
METRICS = (
    "precision_pair",
    "recall_pair",
    "pairs_f1",
    "diversity",
    "displacement_sum_km",
    "displacement_mean_km",
    "diversity_raw",
)
_DIVERSITY = METRICS.index("diversity")
_DISPLACEMENT_MEAN = METRICS.index("displacement_mean_km")


@dataclass
class EvalReport:
    model: str
    fold: str
    precision_pair: float
    recall_pair: float
    pairs_f1: float
    diversity: float
    displacement_sum_km: float
    displacement_mean_km: float
    seconds: float = 0.0
    sessions: int = 0
    diversity_raw: float = 0.0


@dataclass
class SweepPoint:
    model: str
    length: int
    diversity: float
    displacement_mean_km: float


@dataclass
class EvalResult:
    reports: list = field(default_factory=list)   # per fold + aggregate rows
    sweep: list = field(default_factory=list)     # optional length sweep

    def aggregate(self, model: str) -> EvalReport:
        for r in self.reports:
            if r.model == model and r.fold == "mean":
                return r
        raise KeyError(model)


def assign_folds(
    sessions: Sequence[Session], folds: int, seed: int
) -> tuple[dict, list]:
    """Per-user shuffled round-robin fold assignment.

    Returns (session index -> fold, evaluated user ids). Users with
    fewer than ``folds`` sessions are excluded from evaluation (their
    sessions always train) with a warning.
    """
    rng = np.random.default_rng(seed)
    by_user: dict[str, list] = {}
    for i, s in enumerate(sessions):
        by_user.setdefault(s.user_id, []).append(i)
    fold_of: dict[int, int] = {}
    evaluated = []
    for user in sorted(by_user):
        indices = by_user[user]
        if len(indices) < folds:
            warnings.warn(
                f"user {user!r} has {len(indices)} sessions < {folds} folds; "
                "excluded from evaluation",
                stacklevel=2,
            )
            for i in indices:
                fold_of[i] = -1
            continue
        evaluated.append(user)
        order = rng.permutation(len(indices))
        for pos, j in enumerate(order):
            fold_of[indices[j]] = pos % folds
    return fold_of, evaluated


def poi_geography(sessions: Sequence[Session], encodings: Encodings):
    """Ground-truth (coords, category) per encoded POI over the whole
    corpus; metrics use these regardless of what a training fold saw."""
    coords = np.zeros((encodings.n_pois, 2))
    cats = np.zeros(encodings.n_pois, dtype=np.int64)
    for session in sessions:
        for visit in session.visits:
            ix = encodings.poi(visit.poi.poi_id)
            coords[ix] = (visit.poi.lat, visit.poi.lon)
            cats[ix] = encodings.category(visit.poi.category)
    return coords, cats


def _evaluate(model, i, session, length, geography, encodings, seed, candidates):
    """Generate ``length`` stops from held-out session ``i``'s first POI
    and hour, and score them against the session: the METRICS values.

    A trip shorter than the session is scored as it stands: pairs-F1
    precision over its own pairs, recall over the session's, and
    displacement over the common prefix.
    """
    coords, cats_of = geography
    actual = [encodings.poi(v.poi.poi_id) for v in session.visits]
    request = GenRequest(
        user=encodings.user(session.user_id),
        start_poi=actual[0],
        start_hour=session.visits[0].hour,
        length=length,
        candidates=candidates,
        k=1,
    )
    predicted = model.generate(request, seed=seed * 100003 + i)[0].pois
    p, r, f1 = pairs_f1(actual, predicted)
    cats = [int(cats_of[ix]) for ix in predicted]
    div = diversity(cats) if len(cats) >= 2 else 0.0
    n = min(len(actual), len(predicted))
    d_sum, d_mean = displacement(coords[actual[:n]], coords[predicted[:n]])
    return p, r, f1, div, d_sum, d_mean, float(diversity_raw(cats))


def cross_validate(
    sessions: Sequence[Session],
    graph: SocialGraph,
    encodings: Encodings,
    models: dict,
    folds: int = 5,
    seed: int = 0,
    candidates: int = 10,
    sweep_lengths: Sequence[int] = (),
) -> EvalResult:
    """Fit every model on each training split and score its generated
    sequences against the held-out sessions, seeding each model with the
    held-out session's first POI and hour."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    sessions = list(sessions)
    if max(Counter(s.user_id for s in sessions).values(), default=0) < folds:
        raise DataError(f"no user has at least {folds} sessions to evaluate")
    fold_of, _ = assign_folds(sessions, folds, seed)
    geography = poi_geography(sessions, encodings)

    result = EvalResult()
    per_model_fold_rows: dict[str, list] = {name: [] for name in models}
    sweep_acc: dict[tuple, list] = {}

    for fold in range(folds):
        train = [s for i, s in enumerate(sessions) if fold_of[i] != fold]
        held = [
            (i, s)
            for i, s in enumerate(sessions)
            if fold_of[i] == fold and len(s) >= 2
        ]
        tables = FeatureTables.build(train, graph, encodings)
        for name, prototype in models.items():
            started = time.perf_counter()
            model = prototype.clone_unfitted().fit(train, tables)
            context = (geography, encodings, seed, candidates)
            rows = [_evaluate(model, i, s, len(s), *context) for i, s in held]
            elapsed = time.perf_counter() - started
            means = np.asarray(rows).mean(axis=0) if rows else np.zeros(len(METRICS))
            report = EvalReport(
                model=name,
                fold=str(fold),
                seconds=elapsed,
                sessions=len(rows),
                **{m: float(v) for m, v in zip(METRICS, means)},
            )
            result.reports.append(report)
            per_model_fold_rows[name].append(report)

            for length in sweep_lengths:
                swept = [_evaluate(model, i, s, length, *context) for i, s in held]
                sweep_acc.setdefault((name, length), []).extend(
                    (row[_DIVERSITY], row[_DISPLACEMENT_MEAN]) for row in swept
                )

    for name, fold_rows in per_model_fold_rows.items():
        result.reports.append(
            EvalReport(
                model=name,
                fold="mean",
                seconds=float(np.sum([r.seconds for r in fold_rows])),
                sessions=int(np.sum([r.sessions for r in fold_rows])),
                # one np.mean per field, not one reduction over all of them,
                # so that no last bit moves
                **{m: float(np.mean([getattr(r, m) for r in fold_rows])) for m in METRICS},
            )
        )

    for (name, length), vals in sorted(sweep_acc.items()):
        arr = np.asarray(vals)
        result.sweep.append(
            SweepPoint(
                model=name,
                length=length,
                diversity=float(arr[:, 0].mean()) if len(arr) else 0.0,
                displacement_mean_km=float(arr[:, 1].mean()) if len(arr) else 0.0,
            )
        )
    return result


# -- report output -----------------------------------------------------------

REPORT_COLUMNS = ["model", "fold", *METRICS[:-1], "sessions"]


def report_csv(result: EvalResult, seed: int, include_raw: bool = False) -> str:
    """Deterministic CSV of the metric rows (timings go elsewhere so the
    bytes are reproducible across runs)."""
    columns = REPORT_COLUMNS + (["diversity_raw"] if include_raw else [])
    lines = [f"# seed={seed}", ",".join(columns)]
    for r in result.reports:
        row = [r.model, r.fold]
        row += [f"{getattr(r, m):.6f}" for m in METRICS[:-1]]
        row.append(str(r.sessions))
        if include_raw:
            row.append(f"{r.diversity_raw:.6f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def csv_rows(text: str) -> list:
    """One dict per data row of a CSV written here: ``#`` lines and blank
    lines are skipped, and the first other line is the header."""
    header, rows = None, []
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return rows


def read_report_csv(text: str) -> EvalResult:
    """The metric rows of a ``report_csv`` text; seconds are not in it and
    read 0, and so does ``diversity_raw`` when its column is absent."""
    result = EvalResult()
    for row in csv_rows(text):
        row.setdefault("diversity_raw", "0")
        result.reports.append(
            EvalReport(
                model=row["model"],
                fold=row["fold"],
                sessions=int(row["sessions"]),
                **{m: float(row[m]) for m in METRICS},
            )
        )
    return result


def timings_csv(result: EvalResult, seed: int) -> str:
    lines = [f"# seed={seed}", "model,fold,seconds"]
    for r in result.reports:
        lines.append(f"{r.model},{r.fold},{r.seconds:.3f}")
    return "\n".join(lines) + "\n"


def sweep_csv(result: EvalResult, seed: int) -> str:
    lines = [f"# seed={seed}", "model,length,diversity,displacement_mean_km"]
    for p in result.sweep:
        lines.append(
            f"{p.model},{p.length},{p.diversity:.6f},{p.displacement_mean_km:.6f}"
        )
    return "\n".join(lines) + "\n"


def text_tables(result: EvalResult) -> str:
    """Human-readable pair-score and diversity/displacement tables."""
    means = [r for r in result.reports if r.fold == "mean"]
    w = max([len("Model")] + [len(r.model) for r in means]) + 2
    out = ["Pair score performance", ""]
    header = f"{'Model':<{w}}{'Precision':>12}{'Recall':>12}{'Pairs-F1':>12}"
    out.append(header)
    out.append("-" * len(header))
    for r in sorted(means, key=lambda r: r.pairs_f1):
        out.append(
            f"{r.model:<{w}}{r.precision_pair:>12.5f}"
            f"{r.recall_pair:>12.5f}{r.pairs_f1:>12.5f}"
        )
    out += ["", "Diversity and displacement", ""]
    header = f"{'Model':<{w}}{'Diversity':>12}{'Displacement(km)':>18}"
    out.append(header)
    out.append("-" * len(header))
    for r in sorted(means, key=lambda r: -r.displacement_mean_km):
        out.append(
            f"{r.model:<{w}}{r.diversity:>12.5f}{r.displacement_mean_km:>18.5f}"
        )
    return "\n".join(out) + "\n"
