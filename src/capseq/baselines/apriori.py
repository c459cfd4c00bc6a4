"""Apriori-style trip construction under distance and time constraints.

Starting from a seed POI, candidate trips grow level by level from the
POIs within the distance threshold of the last stop; any extension that
repeats a POI, breaks the threshold, or pushes cumulative travel + stay
time past the budget is pruned. A greedy beam keeps the search
tractable; beam width ``None`` enumerates exhaustively (used as the
test oracle mode). Trips are ranked by summed constraint-discounted
preference score, lower total travel time breaking ties.

The part of the search that does not depend on the request is done
once per fit: ``neighbour_lists`` gives every POI its POIs within the
threshold, with the walking time and the constraint discount of the
step, from one read of the tables' pairwise distance matrix. A request
then reads only those lists, and the preference scores of every (POI,
hour) as one array read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..generation import GenRequest, GeneratedSequence
from ..geo import WALK_SPEED_KMH
from ..features import HOURS, FeatureTables
from ..models.base import SequenceRecommender

DEFAULT_EPSILON_KM = 2.0
DEFAULT_BUDGET_HOURS = 8.0
DEFAULT_BEAM_WIDTH = 100


@dataclass
class _Trip:
    pois: tuple
    hours: tuple
    elapsed: float  # travel + stay seconds so far
    travel: float   # travel seconds only (final tie-break)
    score: float


def _check_settings(epsilon_km: float, beam_width: int | None) -> None:
    if not epsilon_km > 0:
        raise ValueError(f"epsilon_km must be > 0, got {epsilon_km}")
    if beam_width is not None and beam_width < 1:
        raise ValueError(f"beam_width must be None or >= 1, got {beam_width}")


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
    entries = zip(nxt.tolist(), km.tolist(), (km / WALK_SPEED_KMH * 3600.0).tolist(),
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
            new_hour = (hour + (stay[last] + travel) / 3600.0) % HOURS
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

    seed_trip = _Trip(
        pois=(start,),
        hours=(float(start_hour) % HOURS,),
        elapsed=stay[start],
        travel=0.0,
        score=tables.preference(user, start, int(start_hour)),
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


def apriori_generate(
    tables: FeatureTables,
    user: int | None,
    start: int,
    start_hour: float,
    length: int,
    epsilon_km: float = DEFAULT_EPSILON_KM,
    budget_hours: float = DEFAULT_BUDGET_HOURS,
    k: int = 10,
    beam_width: int | None = DEFAULT_BEAM_WIDTH,
) -> list:
    """Top-k trips from ``start``; every returned trip respects the
    distance threshold between consecutive stops and the time budget."""
    _check_settings(epsilon_km, beam_width)
    return apriori_search(
        tables,
        neighbour_lists(tables, epsilon_km),
        user,
        start,
        start_hour,
        length,
        budget_hours=budget_hours,
        k=k,
        beam_width=beam_width,
    )


class AprioriRecommender(SequenceRecommender):
    def __init__(
        self,
        epsilon_km: float = DEFAULT_EPSILON_KM,
        budget_hours: float = DEFAULT_BUDGET_HOURS,
        beam_width: int | None = DEFAULT_BEAM_WIDTH,
    ):
        _check_settings(epsilon_km, beam_width)
        self.epsilon_km = epsilon_km
        self.budget_hours = budget_hours
        self.beam_width = beam_width

    def fit(self, sessions, tables=None):
        if tables is None:
            raise ValueError("AprioriRecommender.fit requires feature tables")
        _check_settings(self.epsilon_km, self.beam_width)
        self.tables_ = tables
        self.neighbours_ = neighbour_lists(tables, self.epsilon_km)
        return self

    def generate(self, request: GenRequest, seed: int = 0):
        self._check_fitted("tables_", "neighbours_")
        return apriori_search(
            self.tables_,
            self.neighbours_,
            request.user,
            request.start_poi,
            request.start_hour,
            request.length,
            budget_hours=self.budget_hours,
            k=request.k,
            beam_width=self.beam_width,
        )
