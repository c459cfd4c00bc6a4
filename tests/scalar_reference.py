"""Scalar table reads and generation loops, kept as a test oracle.

``FeatureTables`` answers preference, distance and constraint reads for
whole index arrays at once, and generation makes one such read per
rollout step or per sequence. This module keeps the earlier form of the
same arithmetic: one Python-float evaluation per POI, per step and per
stop, in the order the formulas define, reading only the statistics
arrays, the POI coordinates and the visit counts, stay means and
distance bounds of the document a built ``FeatureTables`` saves; it
sums the pooled visit counts and min-max scales the stay means itself.
Every array read must equal it bit for bit.

``sample_rows`` is ``Generator.choice``'s own categorical arithmetic
over a batch of rows, and ``rollout`` draws with it; ``generation.draw_rows``,
the package's one draw, must give its index except where a uniform lies
within rounding of a normalised cumulative boundary.

``apriori_search`` is the earlier Apriori beam search, one ``_Trip`` per
candidate and one Python sort per level, over ``neighbour_lists`` of
tuples; the array search must return its trips, hours and scores.

``popularity_next`` is the earlier popularity radius search, which
tests every radius of the growth sequence for an eligible POI and stops
with a ``LookupError`` once the radius holds every POI not excluded; the
package's search must make its picks.

``encode_session`` and ``make_batch`` are the earlier training padder:
one ``EncodedSequence`` per session, padded again into each mini-batch.
A gather of ``training.encode_sessions``' rows must equal its batch.

``session_tables`` is the earlier per-visit table build: the stay
statistics, step distances, distance bounds and session features of
``FeatureTables.build``, one ``Session`` at a time, which its array
statistics must equal bit for bit; ``encode_session`` reads its
``step_km`` and ``feature_vector``.

``interest_stats`` is the earlier dense interest computation: one pass
over a (rows, n_pois) visit-count matrix for the full data, and one
more per hour of day over the POIs visited at that hour. The one-pass
block statistics of ``FeatureTables`` must equal it bit for bit.

``markov_fit`` is the earlier Markov fit, which encodes each ``Session``
itself and counts its starts and transitions; every chain of the fit
over a ``SessionTable`` must equal its chains bit for bit.

``great_circle_km`` is the earlier one-step haversine formula, which
converts and takes the cosine of both ends on every call, and
``derive_visits`` the earlier visit derivation: one ``Poi`` and one
such distance per check-in. ``capseq.geo`` must equal the formula bit
for bit. ``travel_log_mu`` is the earlier lognormal travel-time fit: the
check-ins grouped by user, each user's sorted by time, and one such
distance per consecutive pair; ``TravelTimeModel.fit`` must give its
``log_mu`` bit for bit.

``load_session_table`` is the earlier ``sessions.jsonl`` reader of
``load_dataset``: ``_read_json`` with ``_session_fields`` on every line,
up to the first it raises for, then the content checks over the lines
before that one. The columnar scan must give its table, or raise its
error with the same message.

``parse_checkins``, ``build_sessions`` (with ``sessionize`` and
``filter_users``), ``fit_encodings`` and ``load_sessions`` are the
earlier object-per-row data layer: one ``Record`` per CSV row, one
``Visit`` per visit (``derive_visits``) and one ``Session`` per session,
each with its own checks, and one encoding pass over every visit. The
columnar parse, session build and dataset load must give the same
records, sessions (per-visit ``Poi``s included), encodings, catalogue
and first bad line.

``rnn_loss_and_grads`` and ``lstm_loss_and_grads`` are the earlier
per-cell backpropagation through time, each loop over the steps written
out around its own cell with the output-layer backward inline; the one
loop of ``RecurrentNet.loss_and_grads`` must give their loss and every
gradient block bit for bit.

``assign_folds`` is the earlier fold assignment over ``Session`` objects:
the session indices grouped per user id in a dict, users in sorted id
order, one permutation draw per evaluated user, a fold per index. The
array assignment over a table's users column must give the same folds,
evaluated users and warnings.

``lstm_step`` is the earlier ``ContextLstm._step``, which reads each
gate's own weight blocks and makes two products per gate; the step over
the stacked gate blocks must give its logits, state and every cache
entry bit for bit.

``session_lines`` is the earlier ``sessions.jsonl`` writer of
``save_dataset``, one ``JSONEncoder.encode`` call with sorted keys per
session, and ``stored_sha256`` the earlier digest of a tables
document, one ``json.dumps`` of its stored fields together. The lines
``save_dataset`` writes, and the text and digest of ``FeatureTables.save``,
must equal theirs byte for byte.

Every sum of Python floats here adds left to right from 0.0, with
``left_to_right``, so the oracle's bits do not depend on the Python
version.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import tempfile
import warnings
from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from capseq import numerics
from capseq.baselines.apriori import DEFAULT_BEAM_WIDTH, DEFAULT_BUDGET_HOURS
from capseq.baselines.markov import POPULATION, MarkovModel, UserChain
from capseq.data import TravelTimeModel
from capseq.data.io import INT64_MAX, INT64_MIN, _read_json, _session_fields
from capseq.data.parse import FORMATS, _parse_timestamp, _rows
from capseq.data.types import (
    DataError, Poi, Session, SessionTable, UnknownIdError, Visit, check_checkin)
from capseq.features import ATTRIBUTE_DIM, HOURS, FeatureTables, StayStats
from capseq.features.tables import _Interest, _divide, _friend_slots, _ordered_mean
from capseq.generation import GeneratedSequence, next_hour
from capseq.geo import EARTH_RADIUS_KM, WALK_SPEED_KMH, haversine_km, travel_seconds
from capseq.models import MAX_STEPS, Batch
from capseq.models.lstm import GATES


class Record(NamedTuple):
    """One check-in as an object, as the earlier data layer held it: the
    fields in ``CHECKIN_FIELDS`` order. It is a tuple of those fields as
    well, so a list of them is check-in rows that the package takes."""

    user_id: str
    poi_id: str
    timestamp: int
    lat: float
    lon: float
    category: str
    city: str | None = None


def checkin_records(checkins) -> list:
    """The ``Record`` of each row of ``Checkins`` columns, in order."""
    columns = (getattr(checkins, field.name) for field in fields(checkins))
    return [Record(*row) for row in zip(*columns)]


def saved_document(tables: FeatureTables) -> dict:
    """The JSON document ``tables.save`` writes, read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tables.json"
        tables.save(path)
        return json.loads(path.read_text(encoding="utf-8"))


def left_to_right(values) -> float:
    """``values`` added one at a time from 0.0; the builtin ``sum`` over
    floats compensates from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


class ScalarTables:
    """One-element lookups over the statistics of a ``FeatureTables``."""

    def __init__(self, tables):
        self.tables = tables
        d = saved_document(tables)
        self.counts_lt = {}
        pooled = tables.n_users * tables.n_pois * HOURS
        for u, cells in d["users"]:
            for key, n in cells.items():
                poi, hour = key.split(":")
                cell = int(poi) * HOURS + int(hour)
                self.counts_lt[u * tables.n_pois * HOURS + cell] = n
                self.counts_lt[pooled + cell] = self.counts_lt.get(pooled + cell, 0) + n
        self.stay = {int(poi): v for poi, v in d["stay"]["mean"].items()}
        means = list(self.stay.values())
        lo, hi = min(means, default=0.0), max(means, default=0.0)
        self.stay_norm = {poi: (v - lo) / (hi - lo) if hi > lo else 0.0
                          for poi, v in self.stay.items()}
        global_mean = d["stay"]["global_mean"]
        self.global_stay = global_mean, (global_mean - lo) / (hi - lo) if hi > lo else 0.0
        self.dist_in = {int(poi): tuple(b) for poi, b in d["dist_in"].items()}
        self.dist_global = tuple(d["dist_global"])
        self.attr_table, self.attr_scale = self._attribute_table()

    def check_poi(self, poi: int) -> None:
        if not 0 <= poi < self.tables.n_pois:
            raise KeyError(poi)

    def distance_km(self, a: int, b: int) -> float:
        self.check_poi(a)
        self.check_poi(b)
        (lat1, lon1), (lat2, lon2) = self.tables.poi_coords[a], self.tables.poi_coords[b]
        return haversine_km(lat1, lon1, lat2, lon2)

    def stay_mean(self, poi: int) -> float:
        return self.stay.get(poi, self.global_stay[0])

    def preference(self, u, poi: int, hour) -> float:
        t = self.tables
        self.check_poi(poi)
        if u is not None and not 0 <= u < t.n_users:
            raise UnknownIdError(f"unknown user index {u}: encodings are closed-world")
        row = u if u is not None and t._max_lt[u] else t.n_users
        return self.row_preference(row, poi, int(hour) % HOURS)

    def row_preference(self, row: int, poi: int, hour: int) -> float:
        t = self.tables
        cat = t.poi_cat.item(poi)
        theta = t._stats.alpha.item(row, cat)
        top = t._max_lt[row]
        key = (row * t.n_pois + poi) * HOURS + hour
        norm_count = self.counts_lt.get(key, 0) / top if top else 0.0
        freq_term = (1.0 - theta) * norm_count
        g = t._stats.g.item(row, cat)
        cat_term = theta * g * t._catacc.item(row, cat, hour) if g else 0.0
        beta = t._beta.item(row, cat)
        return beta * (freq_term + cat_term) + (1.0 - beta) * t._stats.ast.item(row, poi)

    @staticmethod
    def _scaled(d: float, lo: float, hi: float) -> float:
        span = hi - lo
        if span <= 0:
            return 0.0 if d <= lo else 1.0
        return min(max((d - lo) / span, 0.0), 1.0)

    def distance_constraint(self, poi: int, current: int) -> float:
        lo, hi = self.dist_in.get(poi, self.dist_global)
        return self._scaled(self.distance_km(current, poi), lo, hi)

    def travel_time_constraint(self, poi: int, current: int) -> float:
        lo, hi = self.dist_global
        return self._scaled(self.distance_km(current, poi), lo, hi)

    def discount(self, poi: int, current: int) -> float:
        values = [self.distance_constraint(poi, current),
                  self.travel_time_constraint(poi, current)]
        return 1.0 - left_to_right(values) / len(values)

    def consolidated(self, u, poi: int, hour, current=None) -> float:
        ps = self.preference(u, poi, hour)
        if current is None:
            return ps
        return ps * self.discount(poi, current)

    def _attribute_table(self):
        t = self.tables
        table = np.zeros((t.n_pois, HOURS, ATTRIBUTE_DIM))
        ps_max = 0.0
        for poi in range(t.n_pois):
            for hour in range(HOURS):
                ps = self.row_preference(t.n_users, poi, hour)
                table[poi, hour] = (
                    [self.stay_norm.get(poi, self.global_stay[1]), t.ast_poi[poi],
                     t.astcat_hour[t.poi_cat[poi], hour], ps, t.poi_cat[poi], 0.0]
                    + t.popularity[poi].tolist()
                )
                ps_max = max(ps_max, abs(ps))
        scale = t.attribute_scale.copy()
        scale[3] = max(1.0, ps_max)
        return table, scale

    def attribute_vector(self, poi: int, hour: int, prev) -> np.ndarray:
        row = self.attr_table[poi, hour].copy()
        if prev is not None:
            row[5] = self.distance_km(prev, poi)
        return row


def sample_rows(probs: np.ndarray, uniform) -> np.ndarray:
    """Draw one index per row of a (B, K) array of categorical weights:
    row ``b`` gets the index that ``choice`` with ``p=row / row.sum()``
    gives from a generator whose next double is ``uniform[b]``. Column t of
    the streams' ``rng.random(n)`` blocks holds the doubles of their t-th draws."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    if len(uniform) != len(probs):
        raise ValueError(f"{len(probs)} rows of probabilities, {len(uniform)} draws")
    totals = probs.sum(axis=1, keepdims=True)
    if not ((totals > 0) & (totals < np.inf)).all():  # a NaN total fails both
        raise ValueError("probabilities must be positive and finite")
    if probs.min(initial=0.0) < 0:
        raise ValueError("probabilities must be non-negative")
    # Generator.choice's own arithmetic: normalise, cumulate, renormalise,
    # then count the cdf entries <= the uniform draw (a right-side search)
    cdf = (probs / totals).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= np.asarray(uniform)[:, None]).sum(axis=1)


def first_hour(start_hour) -> float:
    """The start hour modulo HOURS, with a result that rounds to HOURS
    (a tiny negative start hour) read as 0.0."""
    hour = float(start_hour) % HOURS
    return 0.0 if hour == HOURS else hour


def rollout(net, request, ref: ScalarTables, rngs) -> list:
    """All candidates as one batch, with every table read made per row
    and one uniform drawn per stream and step; the clock is each
    sequence's list of hours."""
    tables = ref.tables
    seqs = [GeneratedSequence(pois=[request.start_poi], hours=[first_hour(request.start_hour)])
            for _ in rngs]
    state = net.init_state(len(seqs))
    feat = (
        tables.expected_feature(request.user, request.start_poi, int(seqs[0].hours[0]))
        / tables.feature_scale
    )
    feats = np.repeat(feat[None, :], len(seqs), axis=0)
    for _ in range(request.length - 1):
        current = [seq.pois[-1] for seq in seqs]
        attrs = np.array([
            ref.attribute_vector(cur, int(seq.hours[-1]) % HOURS,
                                 seq.pois[-2] if len(seq.pois) > 1 else None)
            for cur, seq in zip(current, seqs)
        ]) / ref.attr_scale
        state, logits = net.forward_step(state, np.array(current), attrs, feats)
        probs = numerics.softmax(logits)
        p = probs
        if request.no_repeat:
            p = probs.copy()
            np.put_along_axis(p, np.array([seq.pois for seq in seqs]), 0.0, axis=1)
            spent = p.sum(axis=1) <= 0
            p[spent] = probs[spent]
        nxt = sample_rows(p, [rng.random() for rng in rngs]).tolist()
        for seq, cur, poi in zip(seqs, current, nxt):
            travel = ref.distance_km(cur, poi) / WALK_SPEED_KMH * 3600.0
            seq.hours.append((seq.hours[-1] + (ref.stay_mean(cur) + travel) / 3600.0) % HOURS)
            seq.pois.append(poi)
    return seqs


def advance_hours(ref: ScalarTables, pois, start_hour: float) -> list:
    hours = [first_hour(start_hour)]
    for a, b in zip(pois, pois[1:]):
        travel = ref.distance_km(a, b) / WALK_SPEED_KMH * 3600.0
        hours.append((hours[-1] + (ref.stay_mean(a) + travel) / 3600.0) % HOURS)
    return hours


def score_sequence(seq, user, ref: ScalarTables, consolidated: bool = False) -> float:
    total = 0.0
    prev = None
    for poi, hour in zip(seq.pois, seq.hours):
        if consolidated and prev is not None:
            total += ref.consolidated(user, poi, int(hour), prev)
        else:
            total += ref.preference(user, poi, int(hour))
        prev = poi
    return total


def generate(net, request, ref: ScalarTables, seed: int = 0) -> list:
    rngs = [np.random.default_rng([seed, cand]) for cand in range(request.candidates)]
    scored = rollout(net, request, ref, rngs)
    for seq in scored:
        seq.score = score_sequence(seq, request.user, ref, request.consolidated)
    order = sorted(range(len(scored)), key=lambda i: (-scored[i].score, i))
    return [scored[i] for i in order[: request.k]]


@dataclass
class _Trip:
    pois: tuple
    hours: tuple
    elapsed: float  # travel + stay seconds so far
    travel: float   # travel seconds only (final tie-break)
    score: float


def neighbour_lists(tables: FeatureTables, epsilon_km: float) -> list:
    """Per POI ``last``, the ascending ``(nxt, km, travel_s, discount)``
    entries of every other POI within ``epsilon_km`` of it.

    ``discount`` is ``FeatureTables.discount``, the factor
    ``FeatureTables.consolidated`` applies to the preference score of
    ``nxt`` when the trip stands at ``last``. Distances and discounts
    come from the same table reads, in the same direction, as a step of
    the search would make them, so every float, and with it every
    threshold test and score tie, is the same as computing them per step.
    """
    pois = np.arange(tables.n_pois)
    km = tables.distance_km(pois[:, None], pois)
    # row-major, so each POI's entries come out together and ascending
    last, nxt = np.nonzero(~(km > epsilon_km) & (pois[:, None] != pois))
    km = km[last, nxt]
    entries = zip(nxt.tolist(), km.tolist(), travel_seconds(km).tolist(),
                  tables.discount(nxt, last).tolist())
    out = [[] for _ in pois]
    for row, entry in zip(last.tolist(), entries):
        out[row].append(entry)
    return [tuple(row) for row in out]


def apriori_search(
    tables: FeatureTables,
    neighbours: list,
    user: int | None,
    start: int,
    start_hour: float,
    length: int,
    budget_hours: float = DEFAULT_BUDGET_HOURS,
    k: int = 10,
    beam_width: int | None = DEFAULT_BEAM_WIDTH,
) -> list:
    """Top-k trips from ``start`` over precomputed ``neighbour_lists``."""
    budget = budget_hours * 3600.0
    every_poi = np.arange(tables.n_pois)
    stay = tables.stay.mean_stay.tolist()
    preferences = tables.preference(user, every_poi[:, None], np.arange(HOURS)).tolist()

    def extensions(trip: _Trip) -> list:
        pois = trip.pois
        last = pois[-1]
        hour = trip.hours[-1]
        out = []
        for nxt, _, travel, discount in neighbours[last]:
            if nxt in pois:
                continue
            elapsed = trip.elapsed + travel + stay[nxt]
            if elapsed > budget:
                continue
            new_hour = next_hour(hour, stay[last], travel)
            ps = preferences[nxt][int(new_hour)]
            out.append(
                _Trip(
                    pois=pois + (nxt,),
                    hours=trip.hours + (new_hour,),
                    elapsed=elapsed,
                    travel=trip.travel + travel,
                    score=trip.score + ps * discount,
                )
            )
        return out

    hour = first_hour(start_hour)
    seed_trip = _Trip(
        pois=(start,),
        hours=(hour,),
        elapsed=stay[start],
        travel=0.0,
        score=tables.preference(user, start, int(hour)),
    )
    level = [seed_trip]
    completed: list[_Trip] = []
    while level and len(level[0].pois) < length:
        nxt_level: list[_Trip] = []
        for trip in level:
            grown = extensions(trip)
            if not grown:
                completed.append(trip)  # dead end, kept as fallback
            nxt_level.extend(grown)
        nxt_level.sort(key=lambda t: (-t.score, t.travel, t.pois))
        if beam_width is not None:
            nxt_level = nxt_level[:beam_width]
        level = nxt_level
    full = level if level else []
    pool = full or completed or [seed_trip]
    pool = sorted(pool, key=lambda t: (-t.score, t.travel, t.pois))[:k]
    return [
        GeneratedSequence(pois=list(t.pois), score=t.score, hours=list(t.hours))
        for t in pool
    ]


def popularity_next(counts, dists, exclusions, radius_km, growth_factor) -> int:
    n = len(counts)
    excluded = np.zeros(n, dtype=bool)
    for e in exclusions:
        excluded[e] = True
    if excluded.all():
        raise LookupError("every POI is excluded; nothing to recommend")
    max_dist = float(dists[~excluded].max())
    radius = radius_km
    while True:
        eligible = (~excluded) & (dists <= radius)
        if eligible.any():
            masked = np.where(eligible, counts, -1.0)
            return int(np.argmax(masked))
        if radius >= max_dist:
            raise LookupError("no eligible POI found at any radius")
        radius *= growth_factor


def compute_stay_stats(sessions, encodings) -> StayStats:
    """Per-POI stay time: each visitor's mean stay first, then averaged
    over the POI's visitors; min-max normalized across POIs. POIs with
    no visits fall back to the global mean."""
    per_user_poi: dict[tuple[int, int], list] = defaultdict(list)
    for session in sessions:
        u = encodings.user(session.user_id)
        for visit in session.visits:
            per_user_poi[(u, encodings.poi(visit.poi.poi_id))].append(visit.stay)
    sums: dict[int, float] = defaultdict(float)
    visitors: dict[int, int] = defaultdict(int)
    for (u, l), stays in per_user_poi.items():
        sums[l] += sum(stays) / len(stays)
        visitors[l] += 1
    mean_stay = {l: s / visitors[l] for l, s in sums.items()}
    global_mean = left_to_right(mean_stay.values()) / len(mean_stay) if mean_stay else 0.0
    return StayStats.from_means(encodings.n_pois, list(mean_stay), list(mean_stay.values()),
                                global_mean)


def step_km(tables, session) -> list:
    """Distance in km between each pair of consecutive visits."""
    pois = [tables.encodings.poi(visit.poi.poi_id) for visit in session.visits]
    ends = tables.poi_coords[pois].tolist()
    return [haversine_km(*a, *b) for a, b in zip(ends, ends[1:])]


def feature_vector(tables, session, dists: list) -> np.ndarray:
    """Whole-sequence features: start/end category and place codes,
    mean consecutive distance (of ``dists``, its ``step_km``),
    start/end hours."""
    first, last = session.visits[0], session.visits[-1]
    start_ix = tables.encodings.poi(first.poi.poi_id)
    end_ix = tables.encodings.poi(last.poi.poi_id)
    mean_dist = left_to_right(dists) / len(dists) if dists else 0.0
    return np.array(
        [
            float(tables.poi_cat[start_ix]),
            float(tables.poi_cat[end_ix]),
            float(start_ix),
            float(end_ix),
            mean_dist,
            float(first.hour),
            float(last.hour),
        ]
    )


def build_distance_bounds(tables, sessions, step_km) -> None:
    """Observed incoming travel distances per target POI, which
    ``discount`` scales by; ``step_km`` holds each session's
    ``step_km``."""
    bounds: dict[int, tuple] = {}
    for session, dists in zip(sessions, step_km):
        for b, d in zip(session.visits[1:], dists):
            l = tables.encodings.poi(b.poi.poi_id)
            lo, hi = bounds.get(l, (d, d))
            bounds[l] = (min(lo, d), max(hi, d))
    every = [d for dists in step_km for d in dists]
    tables._set_distance_bounds(list(bounds), list(bounds.values()),
                                (min(every), max(every)) if every else (0.0, 0.0))


def build_session_features(tables, sessions, step_km) -> None:
    """Historical mean of whole-sequence features keyed by (user,
    start POI, start-hour bucket), with coarser fallbacks. Used to
    estimate the feature vector at generation time, when the end of
    the sequence is not known yet."""
    acc: dict[tuple, list] = defaultdict(list)
    for session, dists in zip(sessions, step_km):
        vec = feature_vector(tables, session, dists)
        u = tables.encodings.user(session.user_id)
        start = tables.encodings.poi(session.visits[0].poi.poi_id)
        bucket = session.visits[0].hour // tables.HOUR_BUCKET
        acc[(u, start, bucket)].append(vec)
        acc[(u, bucket)].append(vec)
        acc[(u,)].append(vec)
    tables._session_features = {
        key: np.mean(vecs, axis=0) for key, vecs in acc.items()
    }


def session_tables(sessions, encodings) -> FeatureTables:
    """Tables holding what the per-visit build set from ``sessions``: the
    stay statistics, the distance bounds and the session features."""
    tables = FeatureTables(encodings)
    tables.stay = compute_stay_stats(sessions, encodings)
    dists = [step_km(tables, session) for session in sessions]
    build_distance_bounds(tables, sessions, dists)
    build_session_features(tables, sessions, dists)
    return tables


@dataclass
class EncodedSequence:
    inputs: np.ndarray   # (T,) int
    targets: np.ndarray  # (T,) int
    attrs: np.ndarray    # (T, ATTRIBUTE_DIM)
    feat: np.ndarray     # (FEATURE_DIM,)


def encode_session(session, tables: FeatureTables) -> EncodedSequence:
    """Teacher-forcing encoding of one session (length >= 2), capped at
    ``MAX_STEPS`` steps."""
    if len(session) < 2:
        raise ValueError("training sessions must have at least two visits")
    visits = session.visits[: MAX_STEPS + 1]
    ixs = [tables.encodings.poi(v.poi.poi_id) for v in visits]
    dists = step_km(tables, session)  # one haversine per step, for both uses
    attrs = tables.attribute_rows(
        ixs[:-1], [v.hour for v in visits[:-1]], [0.0] + dists[: len(ixs) - 2]
    ) / tables.attribute_scale
    feat = feature_vector(tables, session, dists) / tables.feature_scale
    return EncodedSequence(
        inputs=np.asarray(ixs[:-1], dtype=np.int64),
        targets=np.asarray(ixs[1:], dtype=np.int64),
        attrs=attrs,
        feat=feat,
    )


def make_batch(sequences, pad_ix: int) -> Batch:
    B = len(sequences)
    T = max(len(s.inputs) for s in sequences)
    a_dim = sequences[0].attrs.shape[1]
    inputs = np.full((B, T), pad_ix, dtype=np.int64)
    targets = np.zeros((B, T), dtype=np.int64)
    mask = np.zeros((B, T))
    attrs = np.zeros((B, T, a_dim))
    feats = np.zeros((B, len(sequences[0].feat)))
    for b, seq in enumerate(sequences):
        n = len(seq.inputs)
        inputs[b, :n] = seq.inputs
        targets[b, :n] = seq.targets
        mask[b, :n] = 1.0
        attrs[b, :n, :] = seq.attrs
        feats[b] = seq.feat
    return Batch(inputs, targets, mask, attrs, feats)


def _cat_sums(values: np.ndarray, poi_cat: np.ndarray, n_cats: int) -> np.ndarray:
    """(rows, n_cats) sums of a (rows, n_pois) array over each category's
    POIs, added one at a time in ascending POI order."""
    rows = values.shape[0]
    bins = (np.arange(rows)[:, None] * n_cats + poi_cat).ravel()
    sums = np.bincount(bins, weights=values.ravel(), minlength=rows * n_cats)
    return sums.reshape(rows, n_cats)


def _interest(counts, slots, stay_norm, poi_cat, n_cats) -> _Interest:
    """Aggregate-stay interest of every row of a (rows, n_pois) visit-count
    matrix; ``slots`` (see ``_friend_slots``) names each row's friends."""
    total = counts.sum(axis=1)[:, None]
    visited = counts > 0
    alpha = _divide(_cat_sums(counts, poi_cat, n_cats), total, total > 0)
    own = _divide(stay_norm, _divide(counts, total, visited), visited)
    distinct = _cat_sums(visited, poi_cat, n_cats)
    g = _divide(1.0, distinct, distinct > 0)
    social = g * _cat_sums(own, poi_cat, n_cats)
    # in place, to keep few (rows, n_pois) temporaries alive; products and
    # sums commute exactly, so this is (1 - alpha) * own + alpha * social
    a = alpha[:, poi_cat]
    ac = a * social[:, poi_cat]
    own *= 1.0 - a
    ac += own
    del a, own

    n_friends = np.zeros((len(counts), 1), dtype=np.int64)
    friend_seen = np.zeros_like(visited)
    ast = np.zeros(counts.shape)
    for who, k in slots:
        n_friends[who] += 1
        friend_seen[who] |= visited[k]
        ast[who] += ac[k]
    shared = np.where(visited & friend_seen, counts, 0)
    psi = _divide(shared.sum(axis=1)[:, None], total, total > 0)
    gamma = _divide(_cat_sums(shared, poi_cat, n_cats), total, total > 0)
    # (1 - psi) * ac + psi * friend_sum / n_friends; psi is 0 without friends
    ast *= psi
    np.divide(ast, n_friends, out=ast, where=n_friends > 0)
    ast += (1.0 - psi) * ac
    return _Interest(alpha, g, ac, ast, psi, gamma)


def _category_interest(counts, slots, stay_norm, poi_cat, n_cats) -> np.ndarray:
    """(rows, n_cats) per-user interest in whole categories: the user's
    categorical interest summed over the category's visited POIs,
    socially blended with the same sums of the user's friends."""
    it = _interest(counts, slots, stay_norm, poi_cat, n_cats)
    own = _cat_sums(np.where(counts > 0, it.ac, 0.0), poi_cat, n_cats)
    social = np.zeros(own.shape)
    for who, k in slots:
        social[who] += own[k]
    return (1.0 - it.gamma) * own + it.gamma * social


def _astcat_hour(tables, slots, order: np.ndarray, entries: tuple) -> np.ndarray:
    """Population mean of per-user category interest, with every
    statistic restricted to one hour's check-ins (stay norms stay
    global)."""
    n_users, n_cats = tables.n_users, tables.encodings.n_categories
    row, poi, hour, counts = entries
    users = row < n_users
    astcat_hour = np.zeros((n_cats, HOURS))
    for h in range(HOURS):
        at = users & (hour == h)
        # only the POIs visited at this hour, ascending: every sum
        # skips the others' zero terms and keeps its order
        cols = np.flatnonzero(np.bincount(poi[at], minlength=tables.n_pois))
        sliced = np.zeros((n_users, len(cols)), dtype=np.int64)
        sliced[row[at], np.searchsorted(cols, poi[at])] = counts[at]
        per_user = _category_interest(
            sliced, slots, tables.stay.normalized[cols], tables.poi_cat[cols], n_cats
        )
        astcat_hour[:, h] = _ordered_mean(per_user, order, n_users)
    return astcat_hour


def interest_stats(tables: FeatureTables) -> tuple:
    """The full data's ``_Interest``, pooled row last, and ``astcat_hour``
    of ``tables``, from the visit counts and friend lists of its saved
    document."""
    d = saved_document(tables)
    n_users, n_pois = tables.n_users, tables.n_pois
    counts = np.zeros((n_users + 1, n_pois), dtype=np.int64)
    order, rows, pois, hours, visits = [], [], [], [], []
    for u, cells in d["users"]:
        order.append(u)
        for key, n in cells.items():
            poi, hour = map(int, key.split(":"))
            counts[u, poi] += n
            counts[n_users, poi] += n
            for column, value in zip((rows, pois, hours, visits), (u, poi, hour, n)):
                column.append(value)
    slots = _friend_slots([d["friends"][str(u)] for u in range(n_users)])
    stats = _interest(counts, slots, tables.stay.normalized, tables.poi_cat,
                      tables.encodings.n_categories)
    entries = tuple(np.array(x, dtype=np.int64) for x in (rows, pois, hours, visits))
    return stats, _astcat_hour(tables, slots, np.array(order, dtype=np.int64), entries)


def markov_fit(sessions, encodings) -> MarkovModel:
    """Count session starts and transitions, then Laplace-smooth."""
    starts: dict[int, list] = defaultdict(list)
    pairs: dict[int, list] = defaultdict(list)
    for session in sessions:
        u = encodings.user(session.user_id)
        ixs = [encodings.poi(v.poi.poi_id) for v in session.visits]
        for key in (u, POPULATION):
            starts[key].append(ixs[0])
            pairs[key].extend(zip(ixs, ixs[1:]))

    chains = {}
    for u in starts:
        alphabet = sorted(set(starts[u]).union(*pairs[u]))
        n = len(alphabet)
        index = {poi: i for i, poi in enumerate(alphabet)}
        initial = np.full(n, 1.0, dtype=np.float64)
        np.add.at(initial, [index[p] for p in starts[u]], 1.0)
        initial /= initial.sum()
        transition = np.full((n, n), 1.0, dtype=np.float64)
        for a, b in pairs[u]:
            transition[index[a], index[b]] += 1.0
        transition /= transition.sum(axis=1, keepdims=True)
        chains[u] = UserChain(alphabet, index, initial, transition)
    return MarkovModel(chains, encodings.n_users, encodings.n_pois)


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Distance in km between two (lat, lon) points in decimal degrees."""
    lat1, lon1, lat2, lon2 = map(math.radians, (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = (math.sin(dlat / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def derive_visits(records, travel_time) -> list:
    """One user's timestamp-sorted check-ins as visits: the departure is
    the next arrival less the travel time, clamped to the arrival; the last
    visit stays the median stay (30 minutes without one)."""
    pois = [Poi(r.poi_id, r.lat, r.lon, r.category) for r in records]
    visits = []
    for i in range(len(records) - 1):
        a, b = pois[i], pois[i + 1]
        dist = great_circle_km(a.lat, a.lon, b.lat, b.lon)
        if travel_time.mode == "deterministic" or travel_time.log_mu is None:
            tt = travel_seconds(dist)
        else:
            tt = dist * math.exp(travel_time.log_mu)
        departure = records[i + 1].timestamp - int(round(tt))
        departure = max(departure, records[i].timestamp)
        visits.append(Visit(pois[i], records[i].timestamp, departure))
    stays = [v.stay for v in visits]
    median_stay = int(statistics.median(stays)) if stays else 30 * 60
    last = records[-1]
    visits.append(Visit(pois[-1], last.timestamp, last.timestamp + median_stay))
    return visits


def parse_checkins(path, fmt: str = "weeplaces") -> tuple:
    """(records, dropped) of a check-in CSV: each row's cells read through a
    dict of the header names (so the last cell of a repeated name that the
    row reaches), one ``Record`` per row, a row ``check_checkin`` refuses
    dropped, and one sort by (user, time)."""
    rows = _rows(path, "check-in")
    names = [name.strip().lower() for name in next(rows)]
    column = {field: next((c for c in candidates if c in names), None)
              for field, candidates in FORMATS[fmt].items()}
    records, dropped = [], 0
    for values in rows:
        if not values:
            continue
        cells = dict(zip(names, values))
        cell = {field: cells.get(name, "") for field, name in column.items()}
        try:
            record = Record(
                cell["user"].strip(), cell["poi"].strip(), _parse_timestamp(cell["time"]),
                float(cell["lat"].strip()), float(cell["lon"].strip()),
                cell["category"].strip(), cell["city"].strip() or None)
            check_checkin(*record)
            records.append(record)
        except ValueError:
            dropped += 1
    records.sort(key=attrgetter("user_id", "timestamp"))
    return records, dropped


def sessionize(visits, user_id: str) -> list:
    """Greedy split: a new session starts when the next arrival falls
    outside 8 hours of the current session's start."""
    sessions, current, start = [], [], None
    for visit in visits:
        if start is None or visit.arrival > start + 8 * 3600:
            if current:
                sessions.append(Session(user_id, tuple(current)))
            current, start = [visit], visit.arrival
        else:
            current.append(visit)
    if current:
        sessions.append(Session(user_id, tuple(current)))
    return sessions


def filter_users(sessions, min_checkins: int) -> list:
    """Every session of the users with at least ``min_checkins`` visits."""
    counts: dict[str, int] = defaultdict(int)
    for s in sessions:
        counts[s.user_id] += len(s)
    return [s for s in sessions if counts[s.user_id] >= min_checkins]


def build_sessions(records, travel_time=None, min_checkins: int = 0) -> list:
    """The sessions of ``records``: users in sorted order, each user's
    records by time with ties in input order, a record at the previous
    kept time dropped, then ``derive_visits``, ``sessionize`` and
    ``filter_users``."""
    travel_time = travel_time or TravelTimeModel()
    sessions = []
    records = sorted(records, key=attrgetter("user_id", "timestamp"))
    for user_id, user_records in groupby(records, key=attrgetter("user_id")):
        deduped = []
        for r in user_records:
            if not deduped or r.timestamp > deduped[-1].timestamp:
                deduped.append(r)
        sessions.extend(sessionize(derive_visits(deduped, travel_time), user_id))
    return filter_users(sessions, min_checkins) if min_checkins else sessions


def fit_encodings(sessions) -> tuple:
    """(users, categories, POIs, coordinates, POI categories) of one pass
    over every visit: each label first seen first, and a POI catalogued
    at its first visit's place."""
    pois, cats, users, coords, poi_cat = {}, {}, {}, [], []
    for session in sessions:
        users.setdefault(session.user_id, len(users))
        for visit in session.visits:
            poi = visit.poi
            cats.setdefault(poi.category, len(cats))
            if poi.poi_id not in pois:
                pois[poi.poi_id] = len(pois)
                coords.append((poi.lat, poi.lon))
                poi_cat.append(cats[poi.category])
    return users, cats, pois, coords, poi_cat


def load_sessions(path, encodings) -> list:
    """The sessions of a ``sessions.jsonl`` file under ``encodings``, one
    line at a time: each visit at its POI's catalogue place; the first bad
    line raises ``DataError`` naming it."""
    pois = dict(enumerate(encodings.pois()))

    def session(obj) -> Session:
        values = [obj["user"], *obj["pois"], *obj["arrivals"], *obj["departures"]]
        bad = [v for v in values if type(v) is not int]
        if bad:
            raise ValueError(f"{bad[0]!r} is not an integer")
        visits = tuple(Visit(pois[p], a, d) for p, a, d in zip(
            obj["pois"], obj["arrivals"], obj["departures"], strict=True))
        out = Session(encodings.ix_to_user[obj["user"]], visits)
        if visits[0].arrival < INT64_MIN or max(obj["departures"]) > INT64_MAX:
            raise ValueError("a visit time is not a 64-bit integer")
        return out

    with open(path, "rb") as fh:
        return [_read_json(f"{path}:{lineno}", line, session)
                for lineno, line in enumerate(fh, start=1) if line.strip()]


def load_session_table(path, encodings) -> SessionTable:
    """The sessions of a ``sessions.jsonl`` file under ``encodings``, read
    one line at a time; the first bad line raises ``DataError`` naming
    it."""
    lines, users, lengths, pois, arrivals, departures = [], [], [], [], [], []
    error = None
    with open(path, "rb") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    user, p, a, d = _read_json(f"{path}:{lineno}", line, _session_fields)
                    lines.append(lineno)
                    users.append(user)
                    lengths.append(len(p))
                    pois += p
                    arrivals += a
                    departures += d
        except DataError as exc:
            error = exc
    users, lengths, pois, arrivals, departures = (np.array(x, dtype=np.int64) for x in (
        users, lengths, pois, arrivals, departures))
    at = np.repeat(np.arange(len(lines)), lengths)
    rising = np.ones(len(at), dtype=bool)
    rising[1:] = (arrivals[1:] > arrivals[:-1]) | (at[1:] != at[:-1])
    faults = [(np.flatnonzero((users < 0) | (users >= encodings.n_users)),
               "a user index that is not encoded"),
              (at[(pois < 0) | (pois >= encodings.n_pois)], "a POI index that is not encoded"),
              (at[~rising], "arrivals that do not strictly increase"),
              (at[departures < arrivals], "a departure before its arrival")]
    found = [(bad[0], what) for bad, what in faults if len(bad)]
    if found:
        i, what = min(found, key=lambda f: f[0])
        raise DataError(f"{path}:{lines[i]}: invalid content: a session with {what}")
    if error is not None:
        raise error
    return SessionTable(users[at], pois, arrivals, departures, lengths, encodings,
                        encodings.pois(), pois)


def travel_log_mu(records) -> float | None:
    """``log_mu`` of a lognormal ``TravelTimeModel`` fitted on ``records``:
    the mean ln(seconds per km) of consecutive same-user check-ins more
    than 50 m and 0 s apart."""
    samples = []
    by_user = defaultdict(list)
    for r in records:
        by_user[r.user_id].append(r)
    for user_records in by_user.values():
        user_records.sort(key=lambda r: r.timestamp)
        for a, b in zip(user_records, user_records[1:]):
            dist = great_circle_km(a.lat, a.lon, b.lat, b.lon)
            gap = b.timestamp - a.timestamp
            if dist > 0.05 and gap > 0:
                samples.append(math.log(gap / dist))
    return statistics.fmean(samples) if samples else None


def assign_folds(sessions, folds: int, seed: int) -> tuple:
    """(session index -> fold, evaluated user ids), -1 for the sessions
    of users with fewer than ``folds`` of them, who are warned about."""
    rng = np.random.default_rng(seed)
    by_user: dict = {}
    for i, s in enumerate(sessions):
        by_user.setdefault(s.user_id, []).append(i)
    fold_of, evaluated = {}, []
    for user in sorted(by_user):
        indices = by_user[user]
        if len(indices) < folds:
            warnings.warn(f"user {user!r} has {len(indices)} sessions < {folds} folds; "
                          "excluded from evaluation")
            fold_of.update(dict.fromkeys(indices, -1))
            continue
        evaluated.append(user)
        for pos, j in enumerate(rng.permutation(len(indices))):
            fold_of[indices[j]] = pos % folds
    return fold_of, evaluated


def _output_backward(net, probs, batch, t, top_h, grads):
    """Add step ``t``'s output-layer grads (V, c, G) to ``grads``;
    returns the loss gradient w.r.t. the top hidden state."""
    B = len(probs)
    dlogits = probs.copy()
    dlogits[np.arange(B), batch.targets[:, t]] -= 1.0
    dlogits *= (batch.mask[:, t] / B)[:, None]
    grads["V"] += dlogits.T @ top_h
    grads["c"] += dlogits.sum(axis=0)
    if net.contextual:
        grads["G"] += dlogits.T @ batch.feats
    return dlogits @ net.params["V"]


def rnn_loss_and_grads(net, batch):
    """``ContextRnn.loss_and_grads``: mean NLL and gradients by BPTT."""
    p = net.params
    B, T = batch.inputs.shape
    steps = net._forward_sequence(batch, collect_cache=True)

    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    carry = [np.zeros((B, net.hidden_size)) for _ in range(net.n_layers)]
    loss = 0.0
    for t in range(T - 1, -1, -1):
        probs, cache = steps[t]
        loss += net._step_nll(probs, batch, t)
        dh = _output_backward(net, probs, batch, t, cache[-1][4], grads)

        attrs_t = batch.attrs[:, t, :]
        for layer in range(net.n_layers - 1, -1, -1):
            layer_in, h_prev, gate, rec, h = cache[layer]
            dh_total = dh + carry[layer]
            dpre = dh_total * (1.0 - h * h)
            grads[f"U{layer}"] += dpre.T @ layer_in
            grads[f"W{layer}"] += dpre.T @ rec
            grads[f"b{layer}"] += dpre.sum(axis=0)
            if net.contextual:
                grads[f"F{layer}"] += dpre.T @ batch.feats
            drec = dpre @ p[f"W{layer}"]
            if net.contextual:
                carry[layer] = drec * gate
                dgate = drec * h_prev
                dz = dgate * gate * (1.0 - gate)
                grads[f"P{layer}"] += dz.T @ attrs_t
                grads[f"pb{layer}"] += dz.sum(axis=0)
            else:
                carry[layer] = drec
            dx = dpre @ p[f"U{layer}"]
            if layer > 0:
                dh = dx
            else:
                np.add.at(grads["emb"], batch.inputs[:, t], dx)
    return loss / B, grads


def lstm_loss_and_grads(net, batch):
    """``ContextLstm.loss_and_grads``: mean NLL and gradients by BPTT."""
    p = net.params
    B, T = batch.inputs.shape
    steps = net._forward_sequence(batch, collect_cache=True)

    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    dh_next = np.zeros((B, net.hidden_size))
    dc_next = np.zeros((B, net.hidden_size))
    loss = 0.0
    for t in range(T - 1, -1, -1):
        probs, cache = steps[t]
        x, h_prev, c_prev, gate_a, hg, i, f, z, c, o, tc, h = cache[0]
        loss += net._step_nll(probs, batch, t)
        dh = _output_backward(net, probs, batch, t, h, grads) + dh_next

        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        di = dc * z
        dz = dc * i
        df = dc * c_prev
        dc_prev = dc * f

        dpre = {
            "i": di * i * (1.0 - i),
            "f": df * f * (1.0 - f),
            "z": dz * (1.0 - z * z),
            "o": do * o * (1.0 - o),
        }
        dhg = np.zeros_like(h_prev)
        dx = np.zeros_like(x)
        attrs_t = batch.attrs[:, t, :]
        for g in GATES:
            d = dpre[g]
            grads[f"Wx{g}"] += d.T @ x
            grads[f"Wh{g}"] += d.T @ hg
            grads[f"b{g}"] += d.sum(axis=0)
            if g != "z":
                grads[f"wc{g}"] += (d * c_prev).sum(axis=0)
                dc_prev = dc_prev + d * p[f"wc{g}"]
            grads["Wq"] += d.T @ batch.feats
            dhg += d @ p[f"Wh{g}"]
            dx += d @ p[f"Wx{g}"]
        dh_next = dhg * gate_a
        dgate = dhg * h_prev
        dza = dgate * gate_a * (1.0 - gate_a)
        grads["P"] += dza.T @ attrs_t
        grads["pb"] += dza.sum(axis=0)
        dc_next = dc_prev
        np.add.at(grads["emb"], batch.inputs[:, t], dx)
    return loss / B, grads


def lstm_step(net, state, inputs, attrs, terms, cache=None):
    """``ContextLstm._step``, one gate at a time."""
    p = net.params
    h_prev, c_prev = state
    feat_in, feat_out = terms
    x = p["emb"][inputs]
    gate_a = numerics.sigmoid(attrs @ p["P"].T + p["pb"])
    hg = h_prev * gate_a

    def pre(g: str, out: np.ndarray | None = None) -> np.ndarray:
        out = np.add(x @ p[f"Wx{g}"].T, hg @ p[f"Wh{g}"].T, out=out)
        out += p[f"b{g}"]
        if g != "z":
            out += c_prev * p[f"wc{g}"]
        out += feat_in
        return out

    ifo = np.empty((3,) + h_prev.shape)
    for g, out in zip("ifo", ifo):
        pre(g, out)
    i, f, o = numerics.sigmoid(ifo, out=ifo)
    z = np.tanh(pre("z"))
    c = f * c_prev + i * z
    tc = np.tanh(c)
    h = o * tc
    logits = h @ p["V"].T + p["c"] + feat_out
    if cache is not None:
        cache.append((x, h_prev, c_prev, gate_a, hg, i, f, z, c, o, tc, h))
    return (h, c), logits


def session_lines(sessions, encodings) -> list:
    """One ``sessions.jsonl`` line per ``Session``: its encoded user, POIs,
    arrivals and departures through one encoder call with sorted keys."""
    encode = json.JSONEncoder(sort_keys=True).encode
    return [encode({"user": encodings.user(s.user_id),
                    "pois": [encodings.poi(v.poi.poi_id) for v in s.visits],
                    "arrivals": [v.arrival for v in s.visits],
                    "departures": [v.departure for v in s.visits]})
            for s in sessions]


def stored_sha256(d: dict) -> str:
    """SHA-256 of the fields of a tables document that are not its
    encodings and catalogue, dumped together with sorted keys."""
    keys = ("stay", "friends", "users", "dist_in", "dist_global", "session_features")
    text = json.dumps({key: d[key] for key in keys}, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
