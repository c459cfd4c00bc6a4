"""HITS baseline (Zheng et al., WWW 2009): regional hub/authority
ranking of observed sub-trips.

Locations are grouped into regions by greedy leader clustering. Power
iteration on each region's block of the (n_users, n_pois) visit-count
matrix yields user hub scores and location authority scores. Candidates
are the contiguous sub-sequences of the sessions' per-region runs,
indexed by (start POI, length); a candidate scores the sum of its POIs'
authorities times the mean hub score of the users who were seen
traversing at least one of its consecutive POI pairs.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from ..generation import GenRequest, GeneratedSequence, advance_hours, top_k
from ..geo import haversine_km
from ..models.base import SequenceRecommender, check_positive

DEFAULT_REGION_RADIUS_KM = 10.0
POWER_TOL = 1e-8
POWER_MAX_ITER = 100


def cluster_regions(coords: np.ndarray, radius_km: float = DEFAULT_REGION_RADIUS_KM):
    """Greedy leader clustering over POI indices (deterministic: POIs
    are scanned in index order). Returns region id per POI."""
    n = len(coords)
    region = np.full(n, -1, dtype=np.int64)
    leaders: list[int] = []
    for ix in range(n):
        for rid, leader in enumerate(leaders):
            d = haversine_km(coords[ix, 0], coords[ix, 1],
                             coords[leader, 0], coords[leader, 1])
            if d <= radius_km:
                region[ix] = rid
                break
        else:
            region[ix] = len(leaders)
            leaders.append(ix)
    return region


def power_iterate(adjacency: np.ndarray, tol: float = POWER_TOL,
                  max_iter: int = POWER_MAX_ITER):
    """HITS power iteration; returns (hub, authority), L2-normalized."""
    n_users, n_locs = adjacency.shape
    hub = np.ones(n_users) / np.sqrt(n_users)
    auth = np.ones(n_locs) / np.sqrt(n_locs)
    for _ in range(max_iter):
        new_auth = adjacency.T @ hub
        norm = np.linalg.norm(new_auth)
        if norm > 0:
            new_auth /= norm
        new_hub = adjacency @ new_auth
        norm = np.linalg.norm(new_hub)
        if norm > 0:
            new_hub /= norm
        delta = max(np.abs(new_auth - auth).max(), np.abs(new_hub - hub).max())
        hub, auth = new_hub, new_auth
        if delta < tol:
            break
    return hub, auth


class HitsModel(NamedTuple):
    region_of_poi: np.ndarray  # (n_pois,) region id
    hub: np.ndarray            # (n_regions, n_users) hub score, 0.0 off the region
    authority: np.ndarray      # (n_pois,) authority score within the POI's region
    pair_users: dict           # (poi, poi) -> set of users who made that step
    windows: dict              # (start POI, length) -> observed windows, first seen first
    region_ranked: list        # per region: its POIs, most authority first


def hits_fit(sessions, encodings, coords,
             radius_km: float = DEFAULT_REGION_RADIUS_KM) -> HitsModel:
    region_of_poi = cluster_regions(coords, radius_km)
    n_regions = int(region_of_poi.max()) + 1 if len(region_of_poi) else 0

    visits = np.zeros((encodings.n_users, len(region_of_poi)))
    pair_users: dict[tuple, set] = defaultdict(set)
    windows: dict[tuple, dict] = defaultdict(dict)  # dict keys drop repeats in order
    for session in sessions:
        u = encodings.user(session.user_id)
        ixs = [encodings.poi(v.poi.poi_id) for v in session.visits]
        np.add.at(visits, (u, ixs), 1.0)
        for a, b in zip(ixs, ixs[1:]):
            pair_users[(a, b)].add(u)
        # candidate windows never cross a region border
        for _, run in groupby(ixs, key=region_of_poi.__getitem__):
            run = list(run)
            for ln in range(2, len(run) + 1):
                for i in range(len(run) - ln + 1):
                    windows[(run[i], ln)][tuple(run[i : i + ln])] = None

    hub = np.zeros((n_regions, encodings.n_users))
    authority = np.zeros(len(region_of_poi))
    region_ranked = []
    for rid in range(n_regions):
        locs = np.flatnonzero(region_of_poi == rid)
        users = np.flatnonzero(visits[:, locs].any(axis=1))
        if users.size:
            hub[rid, users], authority[locs] = power_iterate(visits[np.ix_(users, locs)])
        else:
            warnings.warn(f"region {rid} has no visits; skipped", stacklevel=2)
        # stable, so equal authorities keep index order
        region_ranked.append(locs[np.argsort(-authority[locs], kind="stable")].tolist())
    return HitsModel(region_of_poi, hub, authority, dict(pair_users),
                     {key: list(seen) for key, seen in windows.items()}, region_ranked)


def sequence_score(model: HitsModel, pois) -> float:
    """Authority mass of the POIs times the mean hub score of users who
    traversed any consecutive pair of the sequence."""
    auth = float(sum(model.authority[p] for p in pois))
    users: set = set()
    for a, b in zip(pois, pois[1:]):
        users |= model.pair_users.get((a, b), set())
    if not users:
        return 0.0
    hubs = model.hub[model.region_of_poi[pois[0]], sorted(users)].tolist()
    return auth * (sum(hubs) / len(hubs))


@dataclass(eq=False, kw_only=True)
class HitsRecommender(SequenceRecommender):
    region_radius_km: float = DEFAULT_REGION_RADIUS_KM

    def __post_init__(self):
        check_positive(region_radius_km=self.region_radius_km)

    def fit(self, sessions, tables):
        self.tables_ = tables
        self.model_ = hits_fit(sessions, tables.encodings, tables.poi_coords,
                               self.region_radius_km)
        return self

    def generate(self, request: GenRequest, seed: int = 0):
        self._check_fitted("model_", "tables_")
        model = self.model_
        pool = model.windows.get((request.start_poi, request.length))
        if not pool:
            # no observed window of this length starts here: repeat the most
            # authoritative POIs of the region after the start
            ranked = model.region_ranked[model.region_of_poi[request.start_poi]]
            filler = [l for l in ranked if l != request.start_poi] or [request.start_poi]
            pool = [(request.start_poi, *(filler * request.length)[: request.length - 1])]
        scores = [sequence_score(model, pois) for pois in pool]
        top = top_k(scores, request.k)
        # every window has request.length stops: one read for all of them
        hours = advance_hours(self.tables_, [pool[i] for i in top], request.start_hour)
        return [
            GeneratedSequence(pois=list(pool[i]), step_probs=[], score=scores[i], hours=h)
            for i, h in zip(top, hours)
        ]
