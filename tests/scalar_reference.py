"""Scalar table reads and generation loops, kept as a test oracle.

``FeatureTables`` answers preference, distance and constraint reads for
whole index arrays at once, and generation makes one such read per
rollout step or per sequence. This module keeps the earlier form of the
same arithmetic: one Python-float evaluation per POI, per step and per
stop, in the order the formulas define, reading only the statistics
arrays, the POI coordinates and the visit counts, stay means and
distance bounds of ``to_dict`` of a built ``FeatureTables``. Every array read must equal it bit for bit.

``apriori_search`` is the earlier Apriori beam search, one ``_Trip`` per
candidate and one Python sort per level, over ``neighbour_lists`` of
tuples; the array search must return its trips, hours and scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from capseq.baselines.apriori import DEFAULT_BEAM_WIDTH, DEFAULT_BUDGET_HOURS
from capseq.features import ATTRIBUTE_DIM, HOURS, FeatureTables
from capseq.generation import GeneratedSequence, next_hour, sample_rows
from capseq.geo import WALK_SPEED_KMH, haversine_km, travel_seconds


class ScalarTables:
    """One-element lookups over the statistics of a ``FeatureTables``."""

    def __init__(self, tables):
        self.tables = tables
        d = tables.to_dict()
        self.counts_lt = {}
        rows = [(int(u), st) for u, st in d["users"].items()]
        for row, st in rows + [(tables.n_users, d["pooled"])]:
            for key, n in st["counts_lt"].items():
                poi, hour = key.split(":")
                self.counts_lt[(row * tables.n_pois + int(poi)) * HOURS + int(hour)] = n
        self.stay = {int(poi): v for poi, v in d["stay"]["mean"].items()}
        self.stay_norm = {int(poi): v for poi, v in d["stay"]["norm"].items()}
        self.global_stay = d["stay"]["global_mean"], d["stay"]["global_norm"]
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
        user = u is not None and 0 <= u < t.n_users
        row = u if user and t._max_lt[u] else t.n_users
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
        total = 0
        for value in values:  # builtin sum() compensates from Python 3.12 on
            total += value
        return 1.0 - total / len(values)

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
    seqs = [
        GeneratedSequence(pois=[request.start_poi], step_probs=[], score=0.0,
                          hours=[first_hour(request.start_hour)])
        for _ in rngs
    ]
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
        state, _, probs = net.forward_step(state, np.array(current), attrs, feats)
        p = probs
        if request.no_repeat:
            p = probs.copy()
            np.put_along_axis(p, np.array([seq.pois for seq in seqs]), 0.0, axis=1)
            spent = p.sum(axis=1) <= 0
            p[spent] = probs[spent]
        nxt = sample_rows(p, [rng.random() for rng in rngs]).tolist()
        for b, (seq, cur, poi) in enumerate(zip(seqs, current, nxt)):
            seq.step_probs.append(float(probs[b, poi]))
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
        GeneratedSequence(
            pois=list(t.pois), step_probs=[], score=t.score, hours=list(t.hours)
        )
        for t in pool
    ]
