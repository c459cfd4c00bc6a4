"""Free-running sequence generation from a trained recurrent model.

Each candidate rollout samples the next POI from the model's
multinomial output, feeds it back as the next input, advances the clock
by the POI's expected stay plus travel time, and rebuilds the attribute
context. A request's candidates step together as one batch: per step,
one ``forward_step``, one gather of attribute rows and one distance read,
which advances the clock and is the next step's distance from the
previous stop. The products of the request's whole-sequence features
are computed once, before the first step. A request that steps at least
as many rows (candidates x (length - 1)) as the net's ``input_table`` has
(n_pois + 1) gathers each step's input-layer terms from that table, built
once per net; a smaller one multiplies them per step. Every step of every
request multiplies by the net's ``right_operands``, row-major copies of its
weights, built once per net too. Each candidate
draws all its uniforms at once from its own stream, derived from (seed,
candidate index), so each row is the rollout that candidate would make
alone. A step draws from its logits' unnormalised softmax weights with
``draw_rows``, the package's one categorical draw, which Markov walks
and ``sample_next`` use too.

Every fixed-length recommender, these rollouts and the popularity,
Markov and HITS baselines, hands its (candidates, length) POI array to
``ranked``: the top k rows by summed preference score, best first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureTables, HOURS
from .geo import travel_seconds
from .numerics import sequential_sum


@dataclass
class GenRequest:
    user: int | None          # encoded user index (None -> generalized scores)
    start_poi: int            # encoded POI index
    start_hour: float
    length: int = 25
    candidates: int = 10
    k: int | None = None      # None -> min(10, candidates)
    no_repeat: bool = False
    consolidated: bool = False  # rank with constraint-discounted scores

    def __post_init__(self):
        if self.k is None:
            self.k = min(10, self.candidates)
        if not math.isfinite(self.start_hour):
            raise ValueError(f"start_hour must be finite, got {self.start_hour}")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.k < 1 or self.candidates < self.k:
            raise ValueError("need candidates >= k >= 1")


@dataclass
class GeneratedSequence:
    pois: list
    step_probs: list = field(default_factory=list)  # nothing fills it; perfbench/tests pass it
    score: float = 0.0
    hours: list = field(default_factory=list)


def draw_rows(weights: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """One index per row of the (B, K) non-negative ``weights``, in one inverse-CDF
    pass: ``choice``'s index for ``p=row / row.sum()`` from a next double ``uniform[b]``,
    except within rounding of a normalised cumulative boundary. ``ValueError``
    unless each row's total is positive and finite; signs are not checked."""
    cdf = weights.cumsum(axis=1)
    total = cdf[:, -1:]
    if not ((total > 0) & (total < np.inf)).all():  # a NaN total fails both
        raise ValueError("probabilities must be positive and finite")
    return (cdf <= uniform[:, None] * total).sum(axis=1)


def sample_next(probs: np.ndarray, rng: np.random.Generator) -> int:
    """One POI index drawn from a categorical distribution by ``draw_rows``;
    ``ValueError`` for a negative entry or a zero, NaN or infinite total."""
    probs = np.asarray(probs, dtype=np.float64).reshape(1, -1)
    if probs.min(initial=0.0) < 0:
        raise ValueError("probabilities must be non-negative")
    return int(draw_rows(probs, np.array([rng.random()]))[0])


def first_hour(start_hour) -> float:
    """A sequence's first hour, in [0, HOURS): its start hour modulo ``HOURS``,
    or 0.0 (the bucket every table read takes) where that rounds to ``HOURS``."""
    hour = float(start_hour) % HOURS
    return hour if hour < HOURS else 0.0


def next_hour(hour, stay_s, travel_s):
    """The clock's one step: the hour of day after ``stay_s`` and ``travel_s``
    seconds (floats or arrays). A sequence's hours start at ``first_hour``
    of its start hour, and each later one is this step of the one before."""
    return (hour + (stay_s + travel_s) / 3600.0) % HOURS


def _rollout(net, request: GenRequest, tables: FeatureTables, rngs) -> tuple:
    """Roll out one candidate per RNG stream, all of them as one batch:
    the (candidates, length) arrays of their POIs and hours."""
    steps = request.length - 1
    draws = np.array([rng.random(steps) for rng in rngs])  # (candidates, steps)
    n = len(draws)
    pois = np.full((n, request.length), request.start_poi, dtype=np.int64)
    hours = np.full((n, request.length), first_hour(request.start_hour))
    state = net.init_state(n)
    feat = tables.expected_feature(request.user, request.start_poi, int(hours[0, 0]))
    feats = np.repeat(feat[None, :] / tables.feature_scale, n, axis=0)
    terms = net.sequence_terms(feats)  # shared by every step of the request
    # The table's one product costs about what this request saves only if it
    # steps at least the table's rows; the choice reads the request alone, so
    # a request's bits do not depend on the requests before it.
    table = net.input_table() if n * steps > net.n_pois else None
    right = net.right_operands()
    stay = tables.stay.mean_stay
    dist_prev = np.zeros(n)  # no previous stop before the start
    for t in range(steps):
        current, clock = pois[:, t], hours[:, t]
        attrs = tables.attribute_rows(current, clock.astype(np.int64), dist_prev)
        attrs /= tables.attribute_scale
        state, w = net.forward_step(state, current, attrs, feats, terms=terms, table=table,
                                    right=right)
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)  # the softmax's weights, unnormalised
        if request.no_repeat:
            unseen = w.copy()
            unseen[np.arange(n)[:, None], pois[:, : t + 1]] = 0.0  # the POIs visited so far
            w = np.where(unseen.any(axis=1, keepdims=True), unseen, w)  # all visited: repeats
        nxt = draw_rows(w, draws[:, t])
        dist_prev = tables.distance_km(current, nxt)
        pois[:, t + 1] = nxt
        hours[:, t + 1] = next_hour(clock, stay[current], travel_seconds(dist_prev))
    return pois, hours


def advance_hours(tables: FeatureTables, pois, start_hour: float) -> np.ndarray:
    """Hour of day at each stop of each row of the (n, length) POI array
    ``pois``, as an (n, length) array, from one read of the tables."""
    pois = np.asarray(pois, dtype=np.int64)
    travel = travel_seconds(tables.distance_km(pois[:, :-1], pois[:, 1:])).tolist()
    out = []
    for stays, walks in zip(tables.stay.mean_stay[pois[:, :-1]].tolist(), travel):
        hours = [first_hour(start_hour)]
        for stay_s, travel_s in zip(stays, walks):
            hours.append(next_hour(hours[-1], stay_s, travel_s))
        out.append(hours)
    return np.array(out)


def score_sequence(pois, hours, user: int | None, tables: FeatureTables,
                   consolidated: bool = False) -> list:
    """Per row of the (n, length) arrays ``pois`` and ``hours``, the sum of
    its POIs' preference scores at the hour each is reached, from one read
    of the tables; for ``consolidated``, every stop but the first is
    discounted against the one before it."""
    pois = np.asarray(pois, dtype=np.int64)
    scores = tables.preference(user, pois, hours)
    if consolidated:
        scores[:, 1:] *= tables.discount(pois[:, 1:], pois[:, :-1])
    return [sequential_sum(row) for row in scores.tolist()]


def top_k(scores, k: int) -> list:
    """Indices of the ``k`` highest scores, best first; a tie keeps the
    earlier candidate."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]


def ranked(request: GenRequest, tables: FeatureTables, pois, hours=None,
           scores=None) -> list:
    """The top ``request.k`` rows of the (candidates, length) POI array
    ``pois`` as sequences, best first; a tie keeps the earlier row.
    ``hours`` default to ``advance_hours`` of the rows and ``scores`` to
    ``score_sequence``, discounted for a consolidated request; given
    scores, only the top rows are clocked."""
    pois = np.asarray(pois, dtype=np.int64)
    if scores is None:
        if hours is None:
            hours = advance_hours(tables, pois, request.start_hour)
        scores = score_sequence(pois, hours, request.user, tables, request.consolidated)
    top = top_k(scores, request.k)
    pois = pois[top]
    hours = advance_hours(tables, pois, request.start_hour) if hours is None else hours[top]
    return [GeneratedSequence(pois=p, score=scores[i], hours=h)
            for i, p, h in zip(top, pois.tolist(), hours.tolist())]


def generate(net, request: GenRequest, tables: FeatureTables, seed: int = 0) -> list:
    """Top-k generated sequences, best score first; ties keep the
    earlier candidate."""
    rngs = [np.random.default_rng([seed, cand]) for cand in range(request.candidates)]
    pois, hours = _rollout(net, request, tables, rngs)
    return ranked(request, tables, pois, hours=hours)
