"""Apriori-style trip construction under distance and time constraints.

Starting from a seed POI, candidate trips grow level by level from the
POIs within the distance threshold of the last stop; any extension that
repeats a POI, breaks the threshold, or pushes cumulative travel + stay
time past the budget is pruned. A greedy beam keeps the search
tractable; beam width ``None`` enumerates exhaustively (used as the
test oracle mode). Trips are ranked by summed constraint-discounted
preference score, lower total travel time and then the POIs, compared
as tuples, breaking ties.

The part of the search that does not depend on the request is done
once per fit: ``neighbour_arrays`` gives every POI its POIs within the
threshold, with the walking time and the constraint discount of the
step, as one CSR index from one read of the tables' pairwise distance
matrix. Scores read the tables' ``preference_table`` of the user, which
the tables fill once per statistics row. Each level of the search is
one set of array operations over the level's trips: gather every
trip's neighbours, mask the visited and the over-budget ones, step the
clock, add the scores and rank the survivors with one ``np.lexsort``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..generation import GenRequest, GeneratedSequence, first_hour, next_hour
from ..geo import travel_seconds
from ..features import FeatureTables
from ..models.base import SequenceRecommender, check_non_negative, check_positive

DEFAULT_EPSILON_KM = 2.0
DEFAULT_BUDGET_HOURS = 8.0
DEFAULT_BEAM_WIDTH = 100


class Neighbours(NamedTuple):
    """CSR index: POI ``last``'s entries are ``starts[last]:starts[last + 1]``."""
    starts: np.ndarray
    nxt: np.ndarray
    travel_s: np.ndarray
    discount: np.ndarray


def neighbour_arrays(tables: FeatureTables, epsilon_km: float) -> Neighbours:
    """Per POI ``last``, the ascending ``nxt`` of every other POI within
    ``epsilon_km`` of it, with the walking time ``travel_s`` there and
    ``discount``: ``FeatureTables.discount``, the factor
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
    starts = np.searchsorted(last, np.arange(tables.n_pois + 1))
    return Neighbours(starts, nxt, travel_seconds(km[last, nxt]),
                      tables.discount(nxt, last))


def _ranked(pois: np.ndarray, travel: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Row order by (-score, travel, pois), each row of ``pois`` compared
    as a tuple. Rows of different lengths (dead ends, -1 past the last
    stop) differ within both, since a dead end begins no other trip."""
    return np.lexsort((*pois.T[::-1], travel, -score))


def apriori_search(tables: FeatureTables, neighbours: Neighbours, user: int | None,
                   start: int, start_hour: float, length: int,
                   budget_hours: float = DEFAULT_BUDGET_HOURS, k: int = 10,
                   beam_width: int | None = DEFAULT_BEAM_WIDTH) -> list:
    """Top-k trips from ``start`` over precomputed ``neighbour_arrays``,
    scored by the tables' ``preference_table`` of ``user``.

    A level is (trips, ``length``) arrays of POIs (-1 past the level) and
    hours, and per-trip arrays of elapsed travel + stay seconds, travel
    seconds and score. Trips no POI extends are kept, as arrays, and
    returned, best first, only when no trip reaches ``length``.
    ``UnknownIdError`` for a user or start outside the tables."""
    tables.check_user(user)
    tables.check_poi(start)
    budget = budget_hours * 3600.0
    stay = tables.stay.mean_stay
    hour = first_hour(start_hour)
    pois = np.array([[start] + [-1] * (length - 1)])
    hours = np.array([[hour] + [np.nan] * (length - 1)])
    elapsed = stay[[start]]
    travel = np.zeros(1)
    score = np.array([tables.preference(user, start, int(hour))])
    preferences = tables.preference_table(user)
    dead = []
    for step in range(1, length):
        last = pois[:, step - 1]
        first = neighbours.starts[last]
        count = neighbours.starts[last + 1] - first
        parent = np.repeat(np.arange(len(last)), count)
        entry = np.arange(len(parent)) + np.repeat(first - (count.cumsum() - count), count)
        nxt = neighbours.nxt[entry]
        visited = np.zeros(len(nxt), dtype=bool)
        for column in pois.T[:step - 1]:  # no POI neighbours itself
            visited |= column[parent] == nxt
        grown_elapsed = elapsed[parent] + neighbours.travel_s[entry] + stay[nxt]
        keep = ~visited & ~(grown_elapsed > budget)
        parent, entry, nxt, grown_elapsed = (
            parent[keep], entry[keep], nxt[keep], grown_elapsed[keep])
        ends = np.bincount(parent, minlength=len(last)) == 0
        dead.append((pois[ends], hours[ends], travel[ends], score[ends]))
        step_travel = neighbours.travel_s[entry]
        grown_hour = next_hour(hours[parent, step - 1], stay[last[parent]], step_travel)
        grown_score = score[parent] + (preferences[nxt, grown_hour.astype(np.int64)]
                                       * neighbours.discount[entry])
        rows = np.arange(len(grown_score))
        if beam_width is not None and len(rows) > beam_width:
            # the rows scoring at least the beam_width-th best: every tie at the cut stays
            cut = np.partition(grown_score, len(rows) - beam_width)[len(rows) - beam_width]
            rows = np.flatnonzero(grown_score >= cut)
        parent = parent[rows]
        pois = pois[parent]
        pois[:, step] = nxt[rows]
        travel = travel[parent] + step_travel[rows]
        score = grown_score[rows]
        best = _ranked(pois[:, :step + 1], travel, score)[:beam_width]
        hours = hours[parent[best]]
        hours[:, step] = grown_hour[rows[best]]
        pois, travel, score = pois[best], travel[best], score[best]
        elapsed = grown_elapsed[rows[best]]
        if not len(score):
            break
    if not len(score):  # no trip reached ``length``: the dead ends stand in
        pois, hours, travel, score = map(np.concatenate, zip(*dead))
    top = _ranked(pois, travel, score)[:k]
    return [
        GeneratedSequence(pois=p[p >= 0].tolist(), score=s, hours=h[p >= 0].tolist())
        for p, h, s in zip(pois[top], hours[top], score[top].tolist())
    ]


@dataclass(eq=False, kw_only=True)
class AprioriRecommender(SequenceRecommender):
    epsilon_km: float = DEFAULT_EPSILON_KM
    budget_hours: float = DEFAULT_BUDGET_HOURS
    beam_width: int | None = DEFAULT_BEAM_WIDTH

    def __post_init__(self):
        check_positive(epsilon_km=self.epsilon_km)
        check_non_negative(budget_hours=self.budget_hours)
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError(f"beam_width must be None or >= 1, got {self.beam_width}")

    def fit(self, sessions, tables):
        self.tables_ = tables
        self.neighbours_ = neighbour_arrays(tables, self.epsilon_km)
        return self

    def generate(self, request: GenRequest, seed: int = 0):
        self._check_request(request, "neighbours_")
        return apriori_search(self.tables_, self.neighbours_, request.user, request.start_poi,
                              request.start_hour, request.length, budget_hours=self.budget_hours,
                              k=request.k, beam_width=self.beam_width)
