"""Popularity baseline: most-visited POI within an expanding radius.

From the current location, pick the most popular POI inside the radius
that is not already in the list; when nothing qualifies the radius grows
by a fixed factor until a POI is found or every POI is excluded.
"""

from __future__ import annotations

import numpy as np

from ..generation import GenRequest, GeneratedSequence, advance_hours, score_sequence
from ..geo import haversine_km_vec
from ..models.base import SequenceRecommender

DEFAULT_RADIUS_KM = 2.0
DEFAULT_GROWTH = 1.5


def popularity_next(
    counts: np.ndarray,
    coords: np.ndarray,
    current_ix: int,
    exclusions,
    radius_km: float = DEFAULT_RADIUS_KM,
    growth_factor: float = DEFAULT_GROWTH,
) -> int:
    """Most-visited POI within the (expanding) radius of ``current_ix``
    that is not excluded. Ties break toward the lower index."""
    n = len(counts)
    excluded = np.zeros(n, dtype=bool)
    for e in exclusions:
        excluded[e] = True
    if excluded.all():
        raise LookupError("every POI is excluded; nothing to recommend")
    dists = haversine_km_vec(
        np.full(n, coords[current_ix, 0]),
        np.full(n, coords[current_ix, 1]),
        coords[:, 0],
        coords[:, 1],
    )
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


class PopularityRecommender(SequenceRecommender):
    """Deterministic nearest-popular chain from the start POI."""

    def __init__(self, radius_km: float = DEFAULT_RADIUS_KM,
                 growth_factor: float = DEFAULT_GROWTH):
        if radius_km <= 0 or growth_factor <= 1.0:
            raise ValueError("radius_km must be > 0 and growth_factor > 1")
        self.radius_km = radius_km
        self.growth_factor = growth_factor

    def fit(self, sessions, tables=None):
        if tables is None:
            raise ValueError("PopularityRecommender.fit requires feature tables")
        self.tables_ = tables
        counts = np.zeros(tables.encodings.n_pois)
        for session in sessions:
            for visit in session.visits:
                counts[tables.encodings.poi(visit.poi.poi_id)] += 1.0
        self.counts_ = counts
        return self

    def generate(self, request: GenRequest, seed: int = 0):
        self._check_fitted("counts_", "tables_")
        tables = self.tables_
        pois = [request.start_poi]
        exclusions = {request.start_poi}
        current = request.start_poi
        for _ in range(request.length - 1):
            try:
                nxt = popularity_next(
                    self.counts_, tables.poi_coords, current, exclusions,
                    self.radius_km, self.growth_factor,
                )
            except LookupError:
                # pool exhausted: allow revisits rather than truncate
                exclusions = {current}
                nxt = popularity_next(
                    self.counts_, tables.poi_coords, current, exclusions,
                    self.radius_km, self.growth_factor,
                )
            exclusions.add(nxt)
            current = nxt
            pois.append(nxt)
        hours = advance_hours(tables, pois, request.start_hour)
        seq = GeneratedSequence(pois=pois, step_probs=[], score=0.0, hours=hours)
        seq.score = score_sequence(seq, request.user, tables)
        return [seq]
