"""Free-running sequence generation from a trained recurrent model.

Each candidate rollout samples the next POI from the model's
multinomial output, feeds it back as the next input, advances the clock
by the POI's expected stay plus travel time, and recomputes the
attribute vector. A request's candidates step together as one batch:
one ``forward_step`` per step for all of them, and one draw per row.
Every candidate still owns an RNG stream derived from (seed, candidate
index) and draws from it alone, so each row is the rollout that
candidate would make on its own, and rollouts stay reproducible.
Candidates are then ranked by the summed preference score of their
POIs and the top k are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureTables, HOURS
from .geo import WALK_SPEED_KMH


@dataclass
class GenRequest:
    user: int | None          # encoded user index (None -> generalized scores)
    start_poi: int            # encoded POI index
    start_hour: float
    length: int = 25
    candidates: int = 10
    k: int = 10
    no_repeat: bool = False
    consolidated: bool = False  # rank with constraint-discounted scores

    def __post_init__(self):
        if not math.isfinite(self.start_hour):
            raise ValueError(f"start_hour must be finite, got {self.start_hour}")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.k < 1 or self.candidates < self.k:
            raise ValueError("need candidates >= k >= 1")


@dataclass
class GeneratedSequence:
    pois: list
    step_probs: list
    score: float
    hours: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pois)


def sample_rows(probs: np.ndarray, rngs) -> np.ndarray:
    """Draw one index per row of a (B, K) array of categorical weights;
    row ``b`` draws from ``rngs[b]`` alone and gets the index that
    ``rngs[b].choice(K, p=row / row.sum())`` would give."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    if len(rngs) != len(probs):
        raise ValueError(f"{len(probs)} rows of probabilities, {len(rngs)} streams")
    totals = probs.sum(axis=1, keepdims=True)
    if not (np.isfinite(totals).all() and (totals > 0).all()):
        raise ValueError("probabilities must be positive and finite")
    if (probs < 0).any():
        raise ValueError("probabilities must be non-negative")
    # Generator.choice's own arithmetic: normalise, cumulate, renormalise,
    # then count the cdf entries <= one uniform draw (a right-side search)
    cdf = (probs / totals).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    uniform = np.array([rng.random() for rng in rngs])
    return (cdf <= uniform[:, None]).sum(axis=1)


def sample_next(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one POI index from a categorical distribution."""
    return int(sample_rows(np.reshape(probs, (1, -1)), [rng])[0])


def _rollout(net, request: GenRequest, tables: FeatureTables, rngs) -> list:
    """Roll out one candidate per RNG stream, all of them as one batch."""
    seqs = [
        GeneratedSequence(pois=[request.start_poi], step_probs=[], score=0.0,
                          hours=[float(request.start_hour) % HOURS])
        for _ in rngs
    ]
    rows = np.arange(len(seqs))
    state = net.init_state(len(seqs))
    feat = (
        tables.expected_feature(
            request.user, request.start_poi, int(request.start_hour)
        )
        / tables.feature_scale
    )
    feats = np.repeat(feat[None, :], len(seqs), axis=0)
    clock = [float(request.start_hour)] * len(seqs)
    stay = tables.stay.mean_stay
    current = np.full(len(seqs), request.start_poi, dtype=np.int64)
    prev = [None] * len(seqs)
    visited = np.zeros((len(seqs), net.n_pois), dtype=bool)
    visited[:, request.start_poi] = True
    for _ in range(request.length - 1):
        attrs = tables.attribute_rows(
            current, [int(hour) % HOURS for hour in clock], prev
        ) / tables.attribute_scale
        state, _, probs = net.forward_step(state, current, attrs, feats)
        p = probs
        if request.no_repeat:
            p = np.where(visited, 0.0, probs)
            spent = p.sum(axis=1) <= 0
            p[spent] = probs[spent]  # everything visited: fall back to repeats
        nxt = sample_rows(p, rngs)
        advance = (
            stay[current] + tables.distance_km(current, nxt) / WALK_SPEED_KMH * 3600.0
        )
        clock = [
            (hour + step / 3600.0) % HOURS for hour, step in zip(clock, advance.tolist())
        ]
        for seq, poi, prob, hour in zip(seqs, nxt.tolist(), probs[rows, nxt].tolist(), clock):
            seq.pois.append(poi)
            seq.step_probs.append(prob)
            seq.hours.append(hour)
        visited[rows, nxt] = True
        prev, current = current.tolist(), nxt
    return seqs


def advance_hours(tables: FeatureTables, pois, start_hour: float) -> list:
    """Hour-of-day at each POI of a sequence, advancing by expected stay
    plus travel time between consecutive stops. ``pois`` may also hold
    one equally long sequence per row: then one read serves them all,
    and the hours come back as one list per row."""
    pois = np.asarray(pois, dtype=np.int64)
    km = tables.distance_km(pois[..., :-1], pois[..., 1:])  # checks the indices
    advance = tables.stay.mean_stay[pois[..., :-1]] / 3600.0 + km / WALK_SPEED_KMH
    out = []
    for steps in np.atleast_2d(advance).tolist():
        hours = [float(start_hour) % HOURS]
        hour = float(start_hour)
        for step in steps:
            hour = (hour + step) % HOURS
            hours.append(hour)
        out.append(hours)
    return out if pois.ndim > 1 else out[0]


def score_sequence(
    seq,
    user: int | None,
    tables: FeatureTables,
    consolidated: bool = False,
):
    """Sum of per-POI preference scores at the hour each POI is reached;
    optionally the constraint-discounted variant. ``seq`` may also be a
    list of sequences: then one read serves them all, and the scores
    come back as a list."""
    seqs = [seq] if isinstance(seq, GeneratedSequence) else seq
    pois = np.array([poi for s in seqs for poi in s.pois], dtype=np.int64)
    hours = np.array([hour for s in seqs for hour in s.hours], dtype=np.int64)
    scores = tables.preference(user, pois, hours)
    ends = np.cumsum([len(s.pois) for s in seqs]).tolist()
    if consolidated:  # every stop but a sequence's first, against the one before
        later = np.ones(len(pois), dtype=bool)
        later[[0] + ends[:-1]] = False
        scores[later] *= tables.discount(pois[later], pois[np.flatnonzero(later) - 1])
    scores = scores.tolist()
    totals = []
    for start, end in zip([0] + ends, ends):
        total = 0.0
        for score in scores[start:end]:  # left to right; np.sum adds pairwise
            total += score
        totals.append(total)
    return totals[0] if isinstance(seq, GeneratedSequence) else totals


def top_k(scores, k: int) -> list:
    """Indices of the ``k`` highest scores, best first; a tie keeps the
    earlier candidate."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def generate(
    net,
    request: GenRequest,
    tables: FeatureTables,
    seed: int = 0,
) -> list:
    """Top-k generated sequences, best score first; ties keep the
    earlier candidate."""
    rngs = [np.random.default_rng([seed, cand]) for cand in range(request.candidates)]
    scored = _rollout(net, request, tables, rngs)
    scores = score_sequence(scored, request.user, tables, request.consolidated)
    for seq, score in zip(scored, scores):
        seq.score = score
    return [scored[i] for i in top_k(scores, request.k)]
