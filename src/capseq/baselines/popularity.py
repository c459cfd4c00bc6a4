"""Popularity baseline: most-visited POI within an expanding radius.

From the current location, pick the most popular POI inside the radius
that is not already in the list; when nothing qualifies the radius grows
by a fixed factor until a POI is found or every POI is excluded. A full
list excludes only the current POI, and a lone POI repeats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.types import SessionTable
from ..generation import GenRequest, first_hour, next_hour, ranked
from ..generation import score_sequence  # unused here: the benchmark tracer patches it
from ..geo import travel_seconds
from ..models.base import SequenceRecommender, check_positive

DEFAULT_RADIUS_KM = 2.0
DEFAULT_GROWTH = 1.5


def check_search(radius_km: float, growth_factor: float) -> None:
    """``ValueError`` unless the radius is positive and the growth factor
    above 1: from any other the search never ends or answers an excluded POI."""
    check_positive(radius_km=radius_km)
    if not growth_factor > 1.0:  # NaN fails too
        raise ValueError(f"growth_factor must be > 1, got {growth_factor}")


def popularity_next(
    counts: np.ndarray,
    dists: np.ndarray,
    exclusions,
    radius_km: float = DEFAULT_RADIUS_KM,
    growth_factor: float = DEFAULT_GROWTH,
) -> int:
    """Most-visited POI not excluded within the (expanding) radius, with
    ``dists`` the km from the current POI to each POI; ties go to the lower index.
    ``ValueError`` for a radius or growth factor ``check_search`` refuses."""
    check_search(radius_km, growth_factor)
    excluded = np.zeros(len(counts), dtype=bool)
    for e in exclusions:
        excluded[e] = True
    if excluded.all():
        raise LookupError("every POI is excluded; nothing to recommend")
    # the radius grows until it holds the nearest POI not excluded
    nearest, radius = dists[~excluded].min(), radius_km
    while radius < nearest:
        radius *= growth_factor
    return int(np.argmax(np.where(~excluded & (dists <= radius), counts, -1.0)))


@dataclass(eq=False, kw_only=True)
class PopularityRecommender(SequenceRecommender):
    """Deterministic nearest-popular chain from the start POI."""

    radius_km: float = DEFAULT_RADIUS_KM
    growth_factor: float = DEFAULT_GROWTH

    def __post_init__(self):
        check_search(self.radius_km, self.growth_factor)

    def fit(self, sessions, tables):
        self.tables_ = tables
        pois = SessionTable.of(sessions, tables.encodings).pois
        self.counts_ = np.bincount(pois, minlength=tables.encodings.n_pois).astype(float)
        return self

    def generate(self, request: GenRequest, seed: int = 0):
        self._check_request(request, "counts_")
        tables = self.tables_
        pois = [request.start_poi]
        hours = [first_hour(request.start_hour)]
        exclusions = {request.start_poi}
        current = request.start_poi
        every_poi = np.arange(tables.n_pois)
        stay = tables.stay.mean_stay
        for _ in range(request.length - 1):
            if len(exclusions) == tables.n_pois:  # pool exhausted: revisit, not truncate
                exclusions = {current} if tables.n_pois > 1 else set()
            dists = tables.distance_km(current, every_poi)
            nxt = popularity_next(self.counts_, dists, exclusions,
                                  self.radius_km, self.growth_factor)
            # the clock of advance_hours, from the row this step already read
            hours.append(next_hour(hours[-1], float(stay[current]),
                                   travel_seconds(float(dists[nxt]))))
            exclusions.add(nxt)
            current = nxt
            pois.append(nxt)
        return ranked(request, tables, [pois], hours=np.array([hours]))
