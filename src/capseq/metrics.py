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
    """(sum km, mean km) of position-wise distances; unequal lengths are
    truncated to the shorter sequence with a warning."""
    na, np_ = len(actual_coords), len(predicted_coords)
    if na != np_:
        warnings.warn(
            f"displacement: unequal lengths {na} vs {np_}; truncating",
            stacklevel=2,
        )
    n = min(na, np_)
    dists = [
        haversine_km(a[0], a[1], p[0], p[1])
        for a, p in zip(actual_coords[:n], predicted_coords[:n])
    ]
    total = sum(dists)
    return total, (total / n if n else 0.0)


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


def _evaluate_session(model, session, geography, encodings, seed, candidates):
    coords, cats_of = geography
    actual_ixs = [encodings.poi(v.poi.poi_id) for v in session.visits]
    request = GenRequest(
        user=encodings.user(session.user_id),
        start_poi=actual_ixs[0],
        start_hour=session.visits[0].hour,
        length=len(session),
        candidates=candidates,
        k=1,
    )
    predicted = model.generate(request, seed=seed)[0]
    p, r, f1 = pairs_f1(actual_ixs, predicted.pois)
    cats = [int(cats_of[ix]) for ix in predicted.pois]
    div = diversity(cats) if len(cats) >= 2 else 0.0
    raw = float(diversity_raw(cats))
    actual_coords = [coords[ix] for ix in actual_ixs]
    pred_coords = [coords[ix] for ix in predicted.pois]
    d_sum, d_mean = displacement(actual_coords, pred_coords)
    return p, r, f1, div, d_sum, d_mean, raw


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
            rows = [
                _evaluate_session(
                    model, session, geography, encodings,
                    seed=seed * 100003 + i, candidates=candidates,
                )
                for i, session in held
            ]
            elapsed = time.perf_counter() - started
            arr = np.asarray(rows) if rows else np.zeros((0, 7))
            means = arr.mean(axis=0) if len(arr) else np.zeros(7)
            report = EvalReport(
                model=name,
                fold=str(fold),
                precision_pair=float(means[0]),
                recall_pair=float(means[1]),
                pairs_f1=float(means[2]),
                diversity=float(means[3]),
                displacement_sum_km=float(means[4]),
                displacement_mean_km=float(means[5]),
                seconds=elapsed,
                sessions=len(rows),
                diversity_raw=float(means[6]),
            )
            result.reports.append(report)
            per_model_fold_rows[name].append(report)

            for length in sweep_lengths:
                vals = _sweep_fold(
                    model, held, geography, encodings, length, seed, candidates
                )
                sweep_acc.setdefault((name, length), []).extend(vals)

    for name, fold_rows in per_model_fold_rows.items():
        result.reports.append(
            EvalReport(
                model=name,
                fold="mean",
                precision_pair=float(np.mean([r.precision_pair for r in fold_rows])),
                recall_pair=float(np.mean([r.recall_pair for r in fold_rows])),
                pairs_f1=float(np.mean([r.pairs_f1 for r in fold_rows])),
                diversity=float(np.mean([r.diversity for r in fold_rows])),
                displacement_sum_km=float(
                    np.mean([r.displacement_sum_km for r in fold_rows])
                ),
                displacement_mean_km=float(
                    np.mean([r.displacement_mean_km for r in fold_rows])
                ),
                seconds=float(np.sum([r.seconds for r in fold_rows])),
                sessions=int(np.sum([r.sessions for r in fold_rows])),
                diversity_raw=float(np.mean([r.diversity_raw for r in fold_rows])),
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


def _sweep_fold(model, held, geography, encodings, length, seed, candidates):
    """Generate fixed-length sequences from each held-out start and
    collect (diversity, truncated mean displacement)."""
    coords, cats_of = geography
    out = []
    for i, session in held:
        actual_ixs = [encodings.poi(v.poi.poi_id) for v in session.visits]
        request = GenRequest(
            user=encodings.user(session.user_id),
            start_poi=actual_ixs[0],
            start_hour=session.visits[0].hour,
            length=length,
            candidates=candidates,
            k=1,
        )
        predicted = model.generate(request, seed=seed * 100003 + i)[0]
        cats = [int(cats_of[ix]) for ix in predicted.pois]
        div = diversity(cats) if len(cats) >= 2 else 0.0
        n = min(len(actual_ixs), len(predicted.pois))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, d_mean = displacement(
                [coords[ix] for ix in actual_ixs[:n]],
                [coords[ix] for ix in predicted.pois[:n]],
            )
        out.append((div, d_mean))
    return out


# -- report output -----------------------------------------------------------

REPORT_COLUMNS = [
    "model",
    "fold",
    "precision_pair",
    "recall_pair",
    "pairs_f1",
    "diversity",
    "displacement_sum_km",
    "displacement_mean_km",
    "sessions",
]


def report_csv(result: EvalResult, seed: int, include_raw: bool = False) -> str:
    """Deterministic CSV of the metric rows (timings go elsewhere so the
    bytes are reproducible across runs)."""
    columns = REPORT_COLUMNS + (["diversity_raw"] if include_raw else [])
    lines = [f"# seed={seed}", ",".join(columns)]
    for r in result.reports:
        row = [
            r.model,
            r.fold,
            f"{r.precision_pair:.6f}",
            f"{r.recall_pair:.6f}",
            f"{r.pairs_f1:.6f}",
            f"{r.diversity:.6f}",
            f"{r.displacement_sum_km:.6f}",
            f"{r.displacement_mean_km:.6f}",
            str(r.sessions),
        ]
        if include_raw:
            row.append(f"{r.diversity_raw:.6f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


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
