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
    state = net.init_state(len(seqs))
    feat = (
        tables.expected_feature(
            request.user, request.start_poi, int(request.start_hour)
        )
        / tables.feature_scale
    )
    feats = np.repeat(feat[None, :], len(seqs), axis=0)
    clock = [float(request.start_hour)] * len(seqs)
    for _ in range(request.length - 1):
        current = [seq.pois[-1] for seq in seqs]
        attrs = tables.attribute_rows(
            current,
            [int(hour) % HOURS for hour in clock],
            [seq.pois[-2] if len(seq.pois) > 1 else None for seq in seqs],
        ) / tables.attribute_scale
        state, _, probs = net.forward_step(state, np.array(current), attrs, feats)
        p = probs
        if request.no_repeat:
            p = probs.copy()
            np.put_along_axis(p, np.array([seq.pois for seq in seqs]), 0.0, axis=1)
            spent = p.sum(axis=1) <= 0
            p[spent] = probs[spent]  # everything visited: fall back to repeats
        nxt = sample_rows(p, rngs).tolist()
        for b, (seq, cur, poi) in enumerate(zip(seqs, current, nxt)):
            seq.step_probs.append(float(probs[b, poi]))
            advance = (
                tables.stay.mean(cur)
                + tables.distance_km(cur, poi) / WALK_SPEED_KMH * 3600.0
            )
            clock[b] = (clock[b] + advance / 3600.0) % HOURS
            seq.pois.append(poi)
            seq.hours.append(clock[b])
    return seqs


def advance_hours(tables: FeatureTables, pois, start_hour: float) -> list:
    """Hour-of-day at each POI of a sequence, advancing by expected stay
    plus travel time between consecutive stops."""
    hours = [float(start_hour) % HOURS]
    hour = float(start_hour)
    for a, b in zip(pois, pois[1:]):
        advance = (
            tables.stay.mean(a) / 3600.0
            + tables.distance_km(a, b) / WALK_SPEED_KMH
        )
        hour = (hour + advance) % HOURS
        hours.append(hour)
    return hours


def score_sequence(
    seq: GeneratedSequence,
    user: int | None,
    tables: FeatureTables,
    consolidated: bool = False,
) -> float:
    """Sum of per-POI preference scores at the hour each POI is reached;
    optionally the constraint-discounted variant."""
    total = 0.0
    prev = None
    for poi, hour in zip(seq.pois, seq.hours):
        if consolidated and prev is not None:
            total += tables.consolidated(user, poi, int(hour), prev)
        else:
            total += tables.preference(user, poi, int(hour))
        prev = poi
    return total


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
    for seq in scored:
        seq.score = score_sequence(seq, request.user, tables, request.consolidated)
    order = sorted(range(len(scored)), key=lambda i: (-scored[i].score, i))
    return [scored[i] for i in order[: request.k]]
