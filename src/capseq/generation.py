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
from .geo import travel_seconds


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
    row ``b`` draws from ``rngs[b]`` alone and gets the index that the
    ``choice`` of ``rngs[b]`` would give with ``p=row / row.sum()``."""
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


def next_hour(hour, stay_s, travel_s):
    """The clock's one step: the hour of day after ``stay_s`` and ``travel_s``
    seconds (floats or arrays). A sequence's hours start at its start hour
    modulo ``HOURS``, and each later one is this step of the one before."""
    return (hour + (stay_s + travel_s) / 3600.0) % HOURS


def _rollout(net, request: GenRequest, tables: FeatureTables, rngs) -> list:
    """Roll out one candidate per RNG stream, all of them as one batch."""
    clock = np.full(len(rngs), float(request.start_hour) % HOURS)
    seqs = [
        GeneratedSequence(pois=[request.start_poi], step_probs=[], score=0.0,
                          hours=[hour])
        for hour in clock.tolist()
    ]
    rows = np.arange(len(seqs))
    state = net.init_state(len(seqs))
    feat = (
        tables.expected_feature(request.user, request.start_poi, int(clock[0]))
        / tables.feature_scale
    )
    feats = np.repeat(feat[None, :], len(seqs), axis=0)
    stay = tables.stay.mean_stay
    current = np.full(len(seqs), request.start_poi, dtype=np.int64)
    prev = [None] * len(seqs)
    visited = np.zeros((len(seqs), net.n_pois), dtype=bool)
    visited[:, request.start_poi] = True
    for _ in range(request.length - 1):
        attrs = tables.attribute_rows(
            current, clock.astype(np.int64) % HOURS, prev
        ) / tables.attribute_scale
        state, _, probs = net.forward_step(state, current, attrs, feats)
        p = probs
        if request.no_repeat:
            p = np.where(visited, 0.0, probs)
            spent = p.sum(axis=1) <= 0
            p[spent] = probs[spent]  # everything visited: fall back to repeats
        nxt = sample_rows(p, rngs)
        clock = next_hour(clock, stay[current], travel_seconds(tables.distance_km(current, nxt)))
        for seq, poi, prob, hour in zip(seqs, nxt.tolist(), probs[rows, nxt].tolist(),
                                        clock.tolist()):
            seq.pois.append(poi)
            seq.step_probs.append(prob)
            seq.hours.append(hour)
        visited[rows, nxt] = True
        prev, current = current.tolist(), nxt
    return seqs


def advance_hours(tables: FeatureTables, seqs, start_hour: float) -> list:
    """Hour of day at each POI of each of the equally long sequences
    ``seqs``, one list per sequence, from one read of the tables."""
    pois = np.asarray(seqs, dtype=np.int64)
    travel = travel_seconds(tables.distance_km(pois[:, :-1], pois[:, 1:])).tolist()
    out = []
    for stays, walks in zip(tables.stay.mean_stay[pois[:, :-1]].tolist(), travel):
        hours = [float(start_hour) % HOURS]
        for stay_s, travel_s in zip(stays, walks):
            hours.append(next_hour(hours[-1], stay_s, travel_s))
        out.append(hours)
    return out


def score_sequence(seqs, user: int | None, tables: FeatureTables,
                   consolidated: bool = False) -> list:
    """Per sequence of ``seqs``, the sum of its POIs' preference scores at
    the hour each is reached, from one read of the tables; optionally the
    constraint-discounted variant."""
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
    return totals


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
