"""HITS baseline: regional hub/authority ranking of observed sub-trips.

Locations are grouped into regions by greedy leader clustering; within
each region, power iteration on the user-location visit matrix yields
user hub scores and location authority scores. Candidate sequences come
from contiguous sub-sequences observed in the region's sessions; a
candidate scores the sum of its POIs' authorities times the mean hub
score of the users who were seen traversing at least one of its
consecutive POI pairs.
"""

from __future__ import annotations

import warnings
from collections import defaultdict

import numpy as np

from ..generation import GenRequest, GeneratedSequence, advance_hours, top_k
from ..geo import haversine_km
from ..models.base import SequenceRecommender

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
        delta = max(
            float(np.abs(new_auth - auth).max()),
            float(np.abs(new_hub - hub).max()),
        )
        hub, auth = new_hub, new_auth
        if delta < tol:
            break
    return hub, auth


class HitsModel:
    def __init__(self, region_of_poi, hub, authority, pair_users, region_windows,
                 region_ranked):
        self.region_of_poi = region_of_poi       # poi -> region id
        self.hub = hub                           # (region, user) -> hub score
        self.authority = authority               # poi -> authority score
        self.pair_users = pair_users             # (poi, poi) -> set of users
        self.region_windows = region_windows     # region -> {length: [windows]}
        self.region_ranked = region_ranked       # region -> POIs, most authority first


def hits_fit(sessions, encodings, coords,
             radius_km: float = DEFAULT_REGION_RADIUS_KM) -> HitsModel:
    region_of_poi = cluster_regions(coords, radius_km)
    n_regions = int(region_of_poi.max()) + 1 if len(region_of_poi) else 0

    visits: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    region_users: dict[int, set] = defaultdict(set)
    pair_users: dict[tuple, set] = defaultdict(set)
    region_seqs: dict[int, list] = defaultdict(list)
    for session in sessions:
        u = encodings.user(session.user_id)
        ixs = [encodings.poi(v.poi.poi_id) for v in session.visits]
        for l in ixs:
            rid = int(region_of_poi[l])
            visits[rid][(u, l)] += 1.0
            region_users[rid].add(u)
        for a, b in zip(ixs, ixs[1:]):
            pair_users[(a, b)].add(u)
        # split the session into per-region runs for the candidate pool
        run: list[int] = []
        run_rid = None
        for l in ixs:
            rid = int(region_of_poi[l])
            if run_rid is None or rid == run_rid:
                run.append(l)
                run_rid = rid
            else:
                region_seqs[run_rid].append(run)
                run = [l]
                run_rid = rid
        if run:
            region_seqs[run_rid].append(run)

    hub: dict[tuple, float] = {}
    authority = np.zeros(len(region_of_poi))
    for rid in range(n_regions):
        users = sorted(region_users.get(rid, ()))
        locs = sorted(np.flatnonzero(region_of_poi == rid).tolist())
        if not users or not visits.get(rid):
            warnings.warn(f"region {rid} has no visits; skipped", stacklevel=2)
            continue
        adjacency = np.zeros((len(users), len(locs)))
        loc_pos = {l: j for j, l in enumerate(locs)}
        for (u, l), n in visits[rid].items():
            adjacency[users.index(u), loc_pos[l]] = n
        h, a = power_iterate(adjacency)
        for i, u in enumerate(users):
            hub[(rid, u)] = float(h[i])
        for j, l in enumerate(locs):
            authority[l] = float(a[j])

    region_windows: dict[int, dict] = defaultdict(lambda: defaultdict(list))
    for rid, seqs in region_seqs.items():
        for seq in seqs:
            for ln in range(2, len(seq) + 1):
                for i in range(len(seq) - ln + 1):
                    window = tuple(seq[i : i + ln])
                    bucket = region_windows[rid][ln]
                    if window not in bucket:
                        bucket.append(window)
    region_ranked = []
    for rid in range(n_regions):
        locs = np.flatnonzero(region_of_poi == rid)
        # stable, so equal authorities keep index order
        region_ranked.append(locs[np.argsort(-authority[locs], kind="stable")].tolist())
    return HitsModel(region_of_poi, hub, authority, dict(pair_users),
                     {r: dict(v) for r, v in region_windows.items()}, region_ranked)


def sequence_score(model: HitsModel, pois) -> float:
    """Authority mass of the POIs times the mean hub score of users who
    traversed any consecutive pair of the sequence."""
    auth = float(sum(model.authority[p] for p in pois))
    users: set = set()
    for a, b in zip(pois, pois[1:]):
        users |= model.pair_users.get((a, b), set())
    if not users:
        return 0.0
    rid = int(model.region_of_poi[pois[0]])
    hubs = [model.hub.get((rid, u), 0.0) for u in sorted(users)]
    return auth * (sum(hubs) / len(hubs))


class HitsRecommender(SequenceRecommender):
    def __init__(self, region_radius_km: float = DEFAULT_REGION_RADIUS_KM):
        if region_radius_km <= 0:
            raise ValueError("region_radius_km must be > 0")
        self.region_radius_km = region_radius_km

    def fit(self, sessions, tables=None):
        if tables is None:
            raise ValueError("HitsRecommender.fit requires feature tables")
        self.tables_ = tables
        self.model_ = hits_fit(
            sessions, tables.encodings, tables.poi_coords, self.region_radius_km
        )
        return self

    def generate(self, request: GenRequest, seed: int = 0):
        self._check_fitted("model_", "tables_")
        model = self.model_
        rid = int(model.region_of_poi[request.start_poi])
        windows = model.region_windows.get(rid, {}).get(request.length, [])
        pool = [w for w in windows if w[0] == request.start_poi]
        if not pool:
            # no observed window of this length starts here: repeat the most
            # authoritative POIs of the region after the start
            ranked = model.region_ranked[rid]
            filler = [l for l in ranked if l != request.start_poi] or [request.start_poi]
            pois = [request.start_poi] + [
                int(filler[i % len(filler)]) for i in range(request.length - 1)
            ]
            pool = [tuple(pois)]
        scores = [sequence_score(model, pois) for pois in pool]
        return [
            GeneratedSequence(
                pois=list(pool[i]),
                step_probs=[],
                score=scores[i],
                hours=advance_hours(self.tables_, pool[i], request.start_hour),
            )
            for i in top_k(scores, request.k)
        ]
