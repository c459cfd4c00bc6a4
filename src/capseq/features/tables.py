"""Preference statistics and context vectors derived from check-in sessions.

The pipeline: per-POI stay time -> per-user aggregate stay interest
(with categorical and social blending) -> temporal preference scores ->
per-step attribute vectors and per-sequence feature vectors consumed by
the sequence models.

All POIs, users and categories are handled as dense encoded integers;
``FeatureTables.build`` does the encoding. Every interest statistic comes
from dense (rows, n_pois) visit-count arrays: ``_interest`` turns one
such matrix into category shares, categorical and socially blended
interest, once for the full data (the pooled population as an extra
row) and once per hour of day. Every float sum adds its terms one at a
time in a fixed order (users in first-appearance order, friends
ascending, a category's POIs ascending), so the tables equal a literal
evaluation of the defining formulas in that order bit for bit; the test
suite keeps an independent literal transcription to cross-check them.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from ..geo import haversine_km
from ..data.types import Encodings, Session, SocialGraph

HOURS = 24
# attribute vector: 6 scalars + 24 hourly popularity entries
ATTRIBUTE_DIM = 6 + HOURS
FEATURE_DIM = 7


@dataclass
class StayStats:
    """Mean stay seconds per POI and its 0-1 min-max normalization."""

    mean_stay: dict
    normalized: dict
    global_mean: float
    global_norm: float

    def mean(self, poi_ix: int) -> float:
        return self.mean_stay.get(poi_ix, self.global_mean)

    def norm(self, poi_ix: int) -> float:
        return self.normalized.get(poi_ix, self.global_norm)


def _minmax(values: dict) -> tuple[dict, float, float]:
    if not values:
        return {}, 0.0, 0.0
    lo = min(values.values())
    hi = max(values.values())
    span = hi - lo
    if span <= 0.0:
        return {k: 0.0 for k in values}, lo, hi
    return {k: (v - lo) / span for k, v in values.items()}, lo, hi


def compute_stay_stats(sessions: Sequence[Session], encodings: Encodings) -> StayStats:
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
    normalized, lo, hi = _minmax(mean_stay)
    global_mean = sum(mean_stay.values()) / len(mean_stay) if mean_stay else 0.0
    span = hi - lo
    global_norm = (global_mean - lo) / span if span > 0 else 0.0
    return StayStats(mean_stay, normalized, global_mean, global_norm)


def temporal_popularity(sessions: Sequence[Session], encodings: Encodings) -> np.ndarray:
    """(n_pois, 24) check-in counts normalized by the single largest
    (poi, hour) count; every entry in [0, 1]."""
    counts = np.zeros((encodings.n_pois, HOURS))
    for session in sessions:
        for visit in session.visits:
            counts[encodings.poi(visit.poi.poi_id), visit.hour] += 1.0
    top = counts.max()
    if top > 0:
        counts /= top
    return counts


def _divide(num, den, where) -> np.ndarray:
    """``num / den`` where ``where`` holds, 0.0 elsewhere (never divides
    by zero)."""
    shape = np.broadcast_shapes(np.shape(num), np.shape(den), np.shape(where))
    return np.divide(num, den, out=np.zeros(shape), where=where)


def _cat_sums(values: np.ndarray, poi_cat: np.ndarray, n_cats: int) -> np.ndarray:
    """(rows, n_cats) sums of a (rows, n_pois) array over each category's
    POIs, added one at a time in ascending POI order."""
    rows = values.shape[0]
    bins = (np.arange(rows)[:, None] * n_cats + poi_cat).ravel()
    sums = np.bincount(bins, weights=values.ravel(), minlength=rows * n_cats)
    return sums.reshape(rows, n_cats)


def _ordered_mean(values: np.ndarray, order: np.ndarray, n_users: int) -> np.ndarray:
    """Column sums of the rows ``order`` names, added one row at a time in
    that order, over ``n_users``."""
    cols = values.shape[1]
    if not n_users:
        return np.zeros(cols)
    bins = np.tile(np.arange(cols), len(order))
    return np.bincount(bins, weights=values[order].ravel(), minlength=cols) / n_users


def _friend_slots(friends: list) -> list:
    """Slot j pairs every user with more than j friends (as row arrays)
    with that user's j-th friend; adding slot by slot sums each user's
    friends in list order."""
    slots = []
    for j in range(max(map(len, friends), default=0)):
        who = [u for u, fs in enumerate(friends) if len(fs) > j]
        slots.append((np.array(who), np.array([friends[u][j] for u in who])))
    return slots


class _Interest(NamedTuple):
    alpha: np.ndarray  # (rows, n_cats) share of the row's check-ins in the category
    g: np.ndarray  # (rows, n_cats) 1 / distinct POIs of the category visited
    ac: np.ndarray  # (rows, n_pois) categorical aggregate-stay interest
    ast: np.ndarray  # (rows, n_pois) socially blended interest
    psi: np.ndarray  # (rows, 1) share of check-ins at friend-shared POIs
    gamma: np.ndarray  # (rows, n_cats) the same, per category


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


def _index(value, high: int, what: str) -> int:
    """``value`` (an int or its decimal string) as an index below ``high``."""
    ix = int(value) if isinstance(value, str) else value
    if type(ix) is not int or not 0 <= ix < high:
        raise ValueError(f"{what} {value!r} is not an index below {high}")
    return ix


def _array(value, shape: tuple, what: str, dtype=float) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"{what}: shape {arr.shape}, expected {shape}")
    return arr


class FeatureTables:
    """All context statistics bundle: built once, then immutable.

    Lookups use encoded integer ids throughout (see ``Encodings``). Per-user
    arrays have one row per user plus the pooled population as row
    ``n_users``.
    """

    def __init__(self, encodings: Encodings):
        self.encodings = encodings
        self.n_pois = encodings.n_pois
        self.n_users = encodings.n_users
        self.stay: StayStats | None = None
        self.popularity: np.ndarray | None = None
        self.poi_coords: np.ndarray | None = None
        self.poi_cat: np.ndarray | None = None
        self.ast_poi: np.ndarray | None = None
        self.astcat_hour: np.ndarray | None = None  # (n_categories, 24)
        self._friends: list = []  # per user, ascending
        self._counts_lt: dict = {}  # (row * n_pois + poi) * 24 + hour -> visits
        self._max_lt: list = []  # per row, largest (poi, hour) count
        self._catacc: np.ndarray | None = None  # (rows, n_cats, 24)
        self._stay_norm: np.ndarray | None = None  # (n_pois,)
        self._slots: list = []  # see _friend_slots
        self._stats: _Interest | None = None  # full data, pooled row last
        self._beta: np.ndarray | None = None  # (n_users + 1, n_cats)
        self._dist_in: dict[int, tuple[float, float]] = {}
        self._dist_global = (0.0, 0.0)
        self._attr_table: np.ndarray | None = None  # (n_pois, 24, ATTRIBUTE_DIM)
        self._attr_scale: np.ndarray | None = None
        self._feat_scale: np.ndarray | None = None
        self._session_features: dict[tuple, np.ndarray] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        sessions: Sequence[Session],
        graph: SocialGraph | None = None,
        encodings: Encodings | None = None,
    ) -> "FeatureTables":
        encodings = encodings or Encodings.fit(sessions)
        graph = graph or SocialGraph()
        tables = cls(encodings)
        tables.stay = compute_stay_stats(sessions, encodings)
        tables.popularity = temporal_popularity(sessions, encodings)

        n_users, n_pois = encodings.n_users, encodings.n_pois
        coords = np.zeros((n_pois, 2))
        cats = np.zeros(n_pois, dtype=np.int64)
        users, pois, hours = [], [], []
        for session in sessions:
            u = encodings.user(session.user_id)
            for visit in session.visits:
                l = encodings.poi(visit.poi.poi_id)
                coords[l] = (visit.poi.lat, visit.poi.lon)
                cats[l] = encodings.category(visit.poi.category)
                users.append(u)
                pois.append(l)
                hours.append(visit.hour)
        tables.poi_coords = coords
        tables.poi_cat = cats
        tables._friends = [
            sorted(encodings.user(f) for f in graph.friends(encodings.ix_to_user[u])
                   if f in encodings.user_to_ix)
            for u in range(n_users)
        ]
        users = np.array(users, dtype=np.int64)
        cells = np.array(pois, dtype=np.int64) * HOURS + np.array(hours, dtype=np.int64)
        entries = tables._set_counts(
            np.concatenate([users * n_pois * HOURS + cells, n_users * n_pois * HOURS + cells]),
            np.ones(2 * len(cells), dtype=np.int64),
        )

        order = np.array(list(dict.fromkeys(users.tolist())), dtype=np.int64)
        tables.ast_poi = _ordered_mean(tables._stats.ast, order, n_users)
        tables._build_astcat_hour(order, entries)
        tables._build_beta()
        tables._build_distance_bounds(sessions, encodings)
        tables._build_session_features(sessions, encodings)
        return tables

    def _set_counts(self, keys: np.ndarray, counts: np.ndarray) -> tuple:
        """Everything read from the visit counts: ``keys`` holds
        ``(row * n_pois + poi) * 24 + hour`` and ``counts`` its visits
        (repeats add up). Returns the (row, poi, hour, visits) entries,
        ascending."""
        rows, n_pois = self.n_users + 1, self.n_pois
        n_cats = self.encodings.n_categories
        order = np.argsort(keys, kind="stable")
        keys, counts = keys[order], counts[order]
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        keys, counts = keys[first], np.add.reduceat(counts, first)
        row, cell = np.divmod(keys, n_pois * HOURS)
        poi, hour = np.divmod(cell, HOURS)
        self._counts_lt = dict(zip(keys.tolist(), counts.tolist()))
        visits = np.bincount(
            row * n_pois + poi, weights=counts, minlength=rows * n_pois
        ).astype(np.int64).reshape(rows, n_pois)
        max_lt = np.zeros(rows, dtype=np.int64)
        np.maximum.at(max_lt, row, counts)
        self._max_lt = max_lt.tolist()
        # keys ascend, so each (row, category, hour) adds its POIs in order
        self._catacc = np.bincount(
            (row * n_cats + self.poi_cat[poi]) * HOURS + hour,
            weights=counts / visits[row, poi],
            minlength=rows * n_cats * HOURS,
        ).reshape(rows, n_cats, HOURS)
        self._stay_norm = np.array([self.stay.norm(l) for l in range(n_pois)])
        self._slots = _friend_slots(self._friends)
        self._stats = _interest(
            visits, self._slots, self._stay_norm, self.poi_cat, n_cats
        )
        return row, poi, hour, counts

    def _build_astcat_hour(self, order: np.ndarray, entries: tuple) -> None:
        """Population mean of per-user category interest, with every
        statistic restricted to one hour's check-ins (stay norms stay
        global)."""
        n_users, n_cats = self.n_users, self.encodings.n_categories
        row, poi, hour, counts = entries
        users = row < n_users
        astcat_hour = np.zeros((n_cats, HOURS))
        for h in range(HOURS):
            at = users & (hour == h)
            # only the POIs visited at this hour, ascending: every sum
            # skips the others' zero terms and keeps its order
            cols = np.flatnonzero(np.bincount(poi[at], minlength=self.n_pois))
            sliced = np.zeros((n_users, len(cols)), dtype=np.int64)
            sliced[row[at], np.searchsorted(cols, poi[at])] = counts[at]
            per_user = _category_interest(
                sliced, self._slots, self._stay_norm[cols], self.poi_cat[cols], n_cats
            )
            astcat_hour[:, h] = _ordered_mean(per_user, order, n_users)
        self.astcat_hour = astcat_hour

    def _build_beta(self) -> None:
        """Category weight per user via tf-idf over check-in 'documents',
        min-max normalized to [0, 1] within each user (and the pooled
        row); 0 for users without check-ins."""
        alpha = self._stats.alpha
        users_with_cat = np.count_nonzero(alpha[: self.n_users], axis=0).tolist()
        idf = np.array(
            [math.log(self.n_users / n) if n else 0.0 for n in users_with_cat]
        )
        raw = alpha * idf
        lo = raw.min(axis=1, initial=np.inf)[:, None]
        span = raw.max(axis=1, initial=-np.inf)[:, None] - lo
        self._beta = _divide(raw - lo, span, span > 0)

    def _build_distance_bounds(self, sessions, encodings) -> None:
        """Observed incoming travel distances per target POI, for the
        constraint normalization."""
        bounds: dict[int, list] = {}
        gmin, gmax = math.inf, -math.inf
        for session in sessions:
            for a, b in zip(session.visits, session.visits[1:]):
                d = haversine_km(a.poi.lat, a.poi.lon, b.poi.lat, b.poi.lon)
                l = encodings.poi(b.poi.poi_id)
                if l in bounds:
                    lo, hi = bounds[l]
                    bounds[l] = [min(lo, d), max(hi, d)]
                else:
                    bounds[l] = [d, d]
                gmin, gmax = min(gmin, d), max(gmax, d)
        self._dist_in = {l: (lo, hi) for l, (lo, hi) in bounds.items()}
        self._dist_global = (gmin, gmax) if gmin <= gmax else (0.0, 0.0)

    HOUR_BUCKET = 6  # sessions bucketed by start-hour quadrant

    def _build_session_features(self, sessions, encodings) -> None:
        """Historical mean of whole-sequence features keyed by (user,
        start POI, start-hour bucket), with coarser fallbacks. Used to
        estimate the feature vector at generation time, when the end of
        the sequence is not known yet."""
        acc: dict[tuple, list] = defaultdict(list)
        for session in sessions:
            vec = self.feature_vector(session)
            u = encodings.user(session.user_id)
            start = encodings.poi(session.visits[0].poi.poi_id)
            bucket = session.visits[0].hour // self.HOUR_BUCKET
            acc[(u, start, bucket)].append(vec)
            acc[(u, bucket)].append(vec)
            acc[(u,)].append(vec)
        self._session_features = {
            key: np.mean(vecs, axis=0) for key, vecs in acc.items()
        }

    def expected_feature(self, u: int | None, start_ix: int, hour: int) -> np.ndarray:
        """Best historical estimate of the sequence features for a
        rollout from (user, start POI, hour)."""
        self._check_poi(start_ix)
        bucket = (int(hour) % HOURS) // self.HOUR_BUCKET
        for key in ((u, start_ix, bucket), (u, bucket), (u,)):
            vec = self._session_features.get(key)
            if vec is not None:
                out = vec.copy()
                out[0] = float(self.poi_cat[start_ix])
                out[2] = float(start_ix)
                out[5] = float(int(hour) % HOURS)
                return out
        return self.feature_vector_for_start(start_ix, hour)

    # -- lookups ---------------------------------------------------------

    def _check_poi(self, poi_ix: int) -> None:
        if not 0 <= poi_ix < self.n_pois:
            raise KeyError(f"unknown poi index {poi_ix}: encodings are closed-world")

    def _is_user(self, u) -> bool:
        return u is not None and 0 <= u < self.n_users

    def distance_km(self, a_ix: int, b_ix: int) -> float:
        self._check_poi(a_ix)
        self._check_poi(b_ix)
        (lat1, lon1), (lat2, lon2) = self.poi_coords[a_ix], self.poi_coords[b_ix]
        return haversine_km(lat1, lon1, lat2, lon2)

    def beta(self, u: int | None, cat: int) -> float:
        if u is None:
            return self._beta.item(self.n_users, cat)
        return self._beta.item(u, cat) if self._is_user(u) else 0.0

    def ast(self, u: int, poi_ix: int) -> float:
        self._check_poi(poi_ix)
        return self._stats.ast.item(u, poi_ix) if self._is_user(u) else 0.0

    def ast_cat_user(self, u: int, poi_ix: int) -> float:
        self._check_poi(poi_ix)
        return self._stats.ac.item(u, poi_ix) if self._is_user(u) else 0.0

    def preference(self, u: int | None, poi_ix: int, hour: int) -> float:
        """Temporal preference score; ``u=None`` (or a user without any
        history) uses the population-generalized score."""
        self._check_poi(poi_ix)
        row = u if self._is_user(u) and self._max_lt[u] else self.n_users
        return self._preference(row, poi_ix, int(hour) % HOURS)

    def _preference(self, row: int, poi_ix: int, hour: int) -> float:
        """Preference of stats row ``row`` for a POI at ``hour`` (0-23):
        visit frequency at that hour, blended with the hourly visit shares
        of the row's same-category POIs, against aggregate-stay interest."""
        cat = self.poi_cat.item(poi_ix)
        it = self._stats
        theta = it.alpha.item(row, cat)
        top = self._max_lt[row]
        key = (row * self.n_pois + poi_ix) * HOURS + hour
        norm_count = self._counts_lt.get(key, 0) / top if top else 0.0
        freq_term = (1.0 - theta) * norm_count
        g = it.g.item(row, cat)
        cat_term = theta * g * self._catacc.item(row, cat, hour) if g else 0.0
        beta = self._beta.item(row, cat)
        return beta * (freq_term + cat_term) + (1.0 - beta) * it.ast.item(row, poi_ix)

    def distance_constraint(self, poi_ix: int, current_ix: int) -> float:
        """Distance from the current location, min-max normalized by the
        observed incoming travel distances of the target POI."""
        d = self.distance_km(current_ix, poi_ix)
        lo, hi = self._dist_in.get(poi_ix, self._dist_global)
        span = hi - lo
        if span <= 0:
            return 0.0 if d <= lo else 1.0
        return min(max((d - lo) / span, 0.0), 1.0)

    def travel_time_constraint(self, poi_ix: int, current_ix: int) -> float:
        """Travel time to the target, normalized by the global observed
        incoming-distance bounds (travel time is monotone in distance)."""
        d = self.distance_km(current_ix, poi_ix)
        lo, hi = self._dist_global
        span = hi - lo
        if span <= 0:
            return 0.0 if d <= lo else 1.0
        return min(max((d - lo) / span, 0.0), 1.0)

    DEFAULT_CONSTRAINTS = ("distance", "travel_time")

    def constraint_values(self, poi_ix, current_ix, names=None) -> list:
        registry = {
            "distance": self.distance_constraint,
            "travel_time": self.travel_time_constraint,
        }
        names = names or self.DEFAULT_CONSTRAINTS
        return [registry[n](poi_ix, current_ix) for n in names]

    def consolidated(
        self,
        u: int | None,
        poi_ix: int,
        hour: int,
        current_ix: int | None = None,
        constraint_names=None,
    ) -> float:
        """Preference score discounted by the mean of the normalized
        constraint measures against the current location."""
        ps = self.preference(u, poi_ix, hour)
        if current_ix is None:
            return ps
        values = self.constraint_values(poi_ix, current_ix, constraint_names)
        return ps * (1.0 - sum(values) / len(values))

    # -- context vectors --------------------------------------------------

    def attribute_vector(
        self, poi_ix: int, hour: int, prev_poi_ix: int | None = None
    ) -> np.ndarray:
        """Per-step context: stay, interest, hourly category interest,
        preference, category code, distance to the previous stop, and the
        24-hour popularity profile of the POI."""
        return self.attribute_rows([poi_ix], [int(hour) % HOURS], [prev_poi_ix])[0]

    def attribute_rows(self, pois, hours, prevs) -> np.ndarray:
        """Attribute vectors of many steps as one (n, ATTRIBUTE_DIM)
        array: row i is ``attribute_vector(pois[i], hours[i], prevs[i])``
        for hours of day 0-23, with ``None`` in ``prevs`` for no previous
        stop. Every field but ``dist_prev`` is a gather from the static
        (POI, hour) table."""
        pois = np.asarray(pois, dtype=np.int64)
        bad = pois[(pois < 0) | (pois >= self.n_pois)]
        if bad.size:
            self._check_poi(int(bad[0]))
        if self._attr_table is None:
            self._build_attribute_table()
        rows = self._attr_table[pois, hours]
        for i, (prev, cur) in enumerate(zip(prevs, pois.tolist())):
            if prev is not None:
                rows[i, 5] = self.distance_km(prev, cur)
        return rows

    def feature_vector(self, session: Session) -> np.ndarray:
        """Whole-sequence features: start/end category and place codes,
        mean consecutive distance, start/end hours."""
        first, last = session.visits[0], session.visits[-1]
        start_ix = self.encodings.poi(first.poi.poi_id)
        end_ix = self.encodings.poi(last.poi.poi_id)
        dists = [
            haversine_km(a.poi.lat, a.poi.lon, b.poi.lat, b.poi.lon)
            for a, b in zip(session.visits, session.visits[1:])
        ]
        mean_dist = sum(dists) / len(dists) if dists else 0.0
        return np.array(
            [
                float(self.poi_cat[start_ix]),
                float(self.poi_cat[end_ix]),
                float(start_ix),
                float(end_ix),
                mean_dist,
                float(first.hour),
                float(last.hour),
            ]
        )

    def feature_vector_for_start(self, start_ix: int, hour: int) -> np.ndarray:
        """Generation-time stand-in: the end of the sequence is unknown,
        so end fields anchor to the start."""
        self._check_poi(start_ix)
        cat = float(self.poi_cat[start_ix])
        h = float(int(hour) % HOURS)
        return np.array([cat, cat, float(start_ix), float(start_ix), 0.0, h, h])

    # -- model input scaling ------------------------------------------------
    #
    # The vectors above keep their natural units (label codes, km, hours)
    # so statistics stay inspectable; the networks consume them divided by
    # these fixed per-dimension scales so raw code magnitudes cannot swamp
    # the learned projections.

    @property
    def attribute_scale(self) -> np.ndarray:
        if self._attr_scale is None:
            self._build_attribute_table()
        return self._attr_scale

    def _build_attribute_table(self) -> None:
        """The static fields of every (POI, hour) attribute vector, with
        ``dist_prev`` left at 0, and the per-field input scales."""
        table = np.zeros((self.n_pois, HOURS, ATTRIBUTE_DIM))
        ps_max = 0.0
        for l in range(self.n_pois):
            for h in range(HOURS):
                ps = self._preference(self.n_users, l, h)
                table[l, h, 3] = ps
                ps_max = max(ps_max, abs(ps))
            table[l, :, 0] = self.stay.norm(l)
        table[:, :, 1] = self.ast_poi[:, None]
        table[:, :, 2] = self.astcat_hour[self.poi_cat]
        table[:, :, 4] = self.poi_cat[:, None]
        table[:, :, 6:] = self.popularity[:, None, :]
        scale = np.ones(ATTRIBUTE_DIM)
        scale[1] = max(1.0, float(np.abs(self.ast_poi).max(initial=0.0)))
        scale[2] = max(1.0, float(np.abs(self.astcat_hour).max(initial=0.0)))
        scale[3] = max(1.0, ps_max)
        scale[4] = max(1.0, self.encodings.n_categories - 1.0)
        scale[5] = max(1.0, self._dist_global[1])
        self._attr_table = table
        self._attr_scale = scale

    @property
    def feature_scale(self) -> np.ndarray:
        if self._feat_scale is None:
            cat_scale = max(1.0, self.encodings.n_categories - 1.0)
            poi_scale = max(1.0, self.n_pois - 1.0)
            dist_scale = max(1.0, self._dist_global[1])
            self._feat_scale = np.array(
                [cat_scale, cat_scale, poi_scale, poi_scale, dist_scale,
                 float(HOURS - 1), float(HOURS - 1)]
            )
        return self._feat_scale

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        stats: dict[int, dict] = defaultdict(
            lambda: {"total": 0, "counts": {}, "counts_lt": {}, "cat_counts": {}}
        )
        for key, n in self._counts_lt.items():
            row, cell = divmod(key, self.n_pois * HOURS)
            l, c = str(cell // HOURS), str(self.poi_cat.item(cell // HOURS))
            st = stats[row]
            st["total"] += n
            st["counts"][l] = st["counts"].get(l, 0) + n
            st["counts_lt"][f"{l}:{cell % HOURS}"] = n
            st["cat_counts"][c] = st["cat_counts"].get(c, 0) + n
        users = [u for u in range(self.n_users) if self._max_lt[u]]
        beta = self._beta.tolist()
        return {
            "encodings": self.encodings.to_dict(),
            "stay": {
                "mean": {str(k): v for k, v in sorted(self.stay.mean_stay.items())},
                "norm": {str(k): v for k, v in sorted(self.stay.normalized.items())},
                "global_mean": self.stay.global_mean,
                "global_norm": self.stay.global_norm,
            },
            "popularity": self.popularity.tolist(),
            "poi_coords": self.poi_coords.tolist(),
            "poi_cat": self.poi_cat.tolist(),
            "ast_poi": self.ast_poi.tolist(),
            "astcat_hour": self.astcat_hour.tolist(),
            "friends": {str(u): fs for u, fs in enumerate(self._friends)},
            "users": {str(u): stats[u] for u in users},
            "pooled": stats[self.n_users],
            "beta": {f"{u}:{c}": v for u in users for c, v in enumerate(beta[u])},
            "beta_pooled": {str(c): v for c, v in enumerate(beta[self.n_users])},
            "dist_in": {str(l): list(b) for l, b in sorted(self._dist_in.items())},
            "dist_global": list(self._dist_global),
            "session_features": {
                ":".join(str(k) for k in key): vec.tolist()
                for key, vec in sorted(self._session_features.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureTables":
        """Tables from ``to_dict`` output. Raises ``ValueError`` for
        anything else: a missing field, a wrong type or shape, or an
        index out of range."""
        try:
            return cls._from_dict(d)
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from exc
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"field of the wrong type: {exc}") from exc

    @classmethod
    def _from_dict(cls, d: dict) -> "FeatureTables":
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        encodings = Encodings.from_dict(d["encodings"])
        n_users, n_pois = encodings.n_users, encodings.n_pois
        n_cats = encodings.n_categories
        tables = cls(encodings)
        tables.stay = StayStats(
            {_index(k, n_pois, "stay POI"): float(v) for k, v in d["stay"]["mean"].items()},
            {_index(k, n_pois, "stay POI"): float(v) for k, v in d["stay"]["norm"].items()},
            float(d["stay"]["global_mean"]),
            float(d["stay"]["global_norm"]),
        )
        tables.popularity = _array(d["popularity"], (n_pois, HOURS), "popularity")
        tables.poi_coords = _array(d["poi_coords"], (n_pois, 2), "poi_coords")
        tables.poi_cat = np.array(
            [_index(c, n_cats, "poi_cat") for c in d["poi_cat"]], dtype=np.int64
        )
        if len(tables.poi_cat) != n_pois:
            raise ValueError(f"poi_cat: {len(tables.poi_cat)} entries, expected {n_pois}")
        tables.ast_poi = _array(d["ast_poi"], (n_pois,), "ast_poi")
        tables.astcat_hour = _array(d["astcat_hour"], (n_cats, HOURS), "astcat_hour")
        tables._friends = [[] for _ in range(n_users)]
        for u, fs in d["friends"].items():
            tables._friends[_index(u, n_users, "user")] = [
                _index(f, n_users, "friend") for f in fs
            ]

        keys, counts = [], []
        stats = [(_index(u, n_users, "user"), st) for u, st in d["users"].items()]
        for row, st in stats + [(n_users, d["pooled"])]:
            for key, n in st["counts_lt"].items():
                l, t = key.split(":")
                cell = _index(l, n_pois, "POI") * HOURS + _index(t, HOURS, "hour")
                keys.append(row * n_pois * HOURS + cell)
                counts.append(_index(n, 1 << 53, "visit count"))
        tables._set_counts(
            np.array(keys, dtype=np.int64), np.array(counts, dtype=np.int64)
        )

        beta = np.zeros((n_users + 1, n_cats))
        for key, v in d["beta"].items():
            u, c = key.split(":")
            beta[_index(u, n_users, "beta user"), _index(c, n_cats, "category")] = v
        for c, v in d["beta_pooled"].items():
            beta[n_users, _index(c, n_cats, "category")] = v
        tables._beta = beta
        tables._dist_in = {
            _index(k, n_pois, "dist_in POI"): tuple(_array(v, (2,), "dist_in").tolist())
            for k, v in d["dist_in"].items()
        }
        tables._dist_global = tuple(_array(d["dist_global"], (2,), "dist_global").tolist())
        tables._session_features = {
            tuple(int(x) for x in key.split(":")): _array(
                vec, (FEATURE_DIM,), "session_features"
            )
            for key, vec in d["session_features"].items()
        }
        return tables

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True), encoding="utf-8"
        )

    @classmethod
    def load(cls, path) -> "FeatureTables":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
