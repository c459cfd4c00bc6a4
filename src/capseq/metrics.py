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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data.types import DataError, Encodings, Session, SessionTable, SocialGraph
from .features import FeatureTables
from .generation import GenRequest
from .geo import haversine_km
from .numerics import sequential_sum


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
    return _pair_share(diversity_raw(categories), n)


def _pair_share(count: int, n: int) -> float:
    """``count`` as a share of the unordered pairs of ``n`` items."""
    return count / (n * (n - 1) / 2.0)


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
    total = sequential_sum(dists)
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


def assign_folds(sessions: SessionTable, folds: int, seed: int) -> tuple[np.ndarray, list]:
    """Per-user shuffled round-robin fold assignment, users by sorted id.

    Returns (the fold of each session, evaluated user ids). Users with
    fewer than ``folds`` sessions are excluded from evaluation (their
    sessions always train, fold -1) with a warning.
    """
    rng = np.random.default_rng(seed)
    users, lengths = sessions.columns[0], sessions.columns[4]
    owner = users[np.cumsum(lengths) - lengths]  # each session's user
    order = np.argsort(owner, kind="stable")
    seen, at = np.unique(owner[order], return_index=True)
    names = sessions.encodings.ix_to_user
    fold_of = np.full(len(owner), -1, dtype=np.int64)
    evaluated = []
    for user, indices in sorted(zip([names[u] for u in seen.tolist()], np.split(order, at[1:]))):
        if len(indices) < folds:
            warnings.warn(
                f"user {user!r} has {len(indices)} sessions < {folds} folds; "
                "excluded from evaluation",
                stacklevel=2,
            )
            continue
        evaluated.append(user)
        fold_of[indices[rng.permutation(len(indices))]] = np.arange(len(indices)) % folds
    return fold_of, evaluated


def _evaluate(model, i, user, actual, hour, length, encodings, seed, candidates):
    """Generate ``length`` stops for encoded ``user`` from held-out session
    ``i``'s first POI and arrival ``hour``, and score them against
    ``actual``, the session's encoded POIs: the METRICS values.

    A trip shorter than the session is scored as it stands: pairs-F1
    precision over its own pairs, recall over the session's, and
    displacement over the common prefix. Coordinates and categories are
    the catalogue's, whatever the training split saw.
    """
    coords, cats_of = encodings.poi_coords, encodings.poi_cat
    request = GenRequest(
        user=user,
        start_poi=actual[0],
        start_hour=hour,
        length=length,
        candidates=candidates,
        k=1,
    )
    predicted = model.generate(request, seed=seed * 100003 + i)[0].pois
    p, r, f1 = pairs_f1(actual, predicted)
    cats = [int(cats_of[ix]) for ix in predicted]
    raw = diversity_raw(cats)
    div = _pair_share(raw, len(cats)) if len(cats) >= 2 else 0.0
    n = min(len(actual), len(predicted))
    d_sum, d_mean = displacement(coords[actual[:n]], coords[predicted[:n]])
    return p, r, f1, div, d_sum, d_mean, float(raw)


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
    table = SessionTable.of(sessions, encodings)
    users, pois, arrivals, _, lengths = table.columns
    firsts = np.cumsum(lengths) - lengths
    if np.bincount(users[firsts]).max(initial=0) < folds:
        raise DataError(f"no user has at least {folds} sessions to evaluate")
    fold_of, _ = assign_folds(table, folds, seed)
    users, pois, hours = users.tolist(), pois.tolist(), (arrivals // 3600 % 24).tolist()
    # each session's encoded user, POIs and first arrival hour
    encoded = [(users[a], pois[a:a + n], hours[a])
               for a, n in zip(firsts.tolist(), lengths.tolist())]

    result = EvalResult()
    sweep_acc: dict[tuple, list] = {}

    for fold in range(folds):
        train = table.select(fold_of != fold)
        held = [(i, *encoded[i])
                for i in np.flatnonzero((fold_of == fold) & (lengths >= 2)).tolist()]
        tables = FeatureTables.build(train, graph, encodings)
        for name, prototype in models.items():
            started = time.perf_counter()
            model = prototype.clone_unfitted().fit(train, tables)
            context = (encodings, seed, candidates)
            rows = [_evaluate(model, i, u, actual, hour, len(actual), *context)
                    for i, u, actual, hour in held]
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

            for length in sweep_lengths:
                swept = [_evaluate(model, i, u, actual, hour, length, *context)
                         for i, u, actual, hour in held]
                sweep_acc.setdefault((name, length), []).extend(
                    (row[_DIVERSITY], row[_DISPLACEMENT_MEAN]) for row in swept
                )

    for name in models:
        fold_rows = [r for r in result.reports if r.model == name]
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


def seeded_csv(seed: int, header: str, lines) -> str:
    """The text of a CSV file written here: a ``# seed=`` line, the header
    line, then ``lines``, the data lines."""
    return "\n".join([f"# seed={seed}", header, *lines]) + "\n"


def report_csv(result: EvalResult, seed: int, include_raw: bool = False) -> str:
    """Deterministic CSV of the metric rows (timings go elsewhere so the
    bytes are reproducible across runs)."""
    columns = REPORT_COLUMNS + (["diversity_raw"] if include_raw else [])
    lines = []
    for r in result.reports:
        row = [r.model, r.fold]
        row += [f"{getattr(r, m):.6f}" for m in METRICS[:-1]]
        row.append(str(r.sessions))
        if include_raw:
            row.append(f"{r.diversity_raw:.6f}")
        lines.append(",".join(row))
    return seeded_csv(seed, ",".join(columns), lines)


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
    return seeded_csv(seed, "model,fold,seconds",
                      (f"{r.model},{r.fold},{r.seconds:.3f}" for r in result.reports))


def sweep_csv(result: EvalResult, seed: int) -> str:
    return seeded_csv(seed, "model,length,diversity,displacement_mean_km", (
        f"{p.model},{p.length},{p.diversity:.6f},{p.displacement_mean_km:.6f}"
        for p in result.sweep))


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
