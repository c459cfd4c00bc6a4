"""Preference statistics and context vectors derived from check-in sessions.

The pipeline: per-POI stay time -> per-user aggregate stay interest
(with categorical and social blending) -> temporal preference scores ->
per-step attribute vectors and per-sequence feature vectors consumed by
the sequence models.

All POIs, users and categories are handled as dense encoded integers;
``FeatureTables.build`` does the encoding. The implementation here is
the optimized one (sufficient statistics + algebraic regrouping); the
test suite keeps an independent literal transcription of the defining
formulas to cross-check it.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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


class _UserStats:
    """Sufficient statistics of one user's (or the pooled population's)
    visits: counts per location, per (location, hour), distinct
    locations per category."""

    __slots__ = ("total", "counts", "counts_lt", "cat_counts", "locs_by_cat",
                 "locations", "max_lt")

    def __init__(self):
        self.total = 0
        self.counts: dict[int, int] = {}
        self.counts_lt: dict[tuple[int, int], int] = {}
        self.cat_counts: dict[int, int] = {}
        self.locs_by_cat: dict[int, list] = {}
        self.locations: set = set()
        self.max_lt = 0

    def add(self, l: int, cat: int, hour: int) -> None:
        self.total += 1
        self.counts[l] = self.counts.get(l, 0) + 1
        key = (l, hour)
        self.counts_lt[key] = self.counts_lt.get(key, 0) + 1
        self.cat_counts[cat] = self.cat_counts.get(cat, 0) + 1
        if l not in self.locations:
            self.locations.add(l)
            self.locs_by_cat.setdefault(cat, []).append(l)

    def finalize(self) -> None:
        self.max_lt = max(self.counts_lt.values(), default=0)
        for locs in self.locs_by_cat.values():
            locs.sort()


class _AstComputation:
    """Aggregate-stay interest over a visit collection.

    ``visits``: user -> list of (location, category, hour). The same
    machinery runs on the full data and on hour-restricted slices.
    """

    def __init__(
        self,
        visits: dict[int, list],
        friends: dict[int, list],
        stay_norm,
        n_users: int,
    ):
        self.friends = friends
        self.stay_norm = stay_norm
        self.n_users = n_users
        self.stats: dict[int, _UserStats] = {}
        for u, vlist in visits.items():
            st = _UserStats()
            for l, c, h in vlist:
                st.add(l, c, h)
            st.finalize()
            self.stats[u] = st

        # locations shared with friends, for the social blending weights
        self._shared: dict[int, set] = {}
        for u, st in self.stats.items():
            shared: set = set()
            for k in friends.get(u, ()):
                kst = self.stats.get(k)
                if kst is not None:
                    shared |= st.locations & kst.locations
            self._shared[u] = shared

        self._s_cache: dict[tuple[int, int], float] = {}

    def catfrac(self, u: int, cat: int) -> float:
        st = self.stats.get(u)
        if st is None or st.total == 0:
            return 0.0
        return st.cat_counts.get(cat, 0) / st.total

    def psi1(self, u: int) -> float:
        """Fraction of the user's check-ins at locations any friend
        also visited."""
        st = self.stats.get(u)
        if st is None or st.total == 0:
            return 0.0
        shared = self._shared.get(u, set())
        common = sum(n for l, n in st.counts.items() if l in shared)
        return common / st.total

    def gamma1(self, u: int, cat: int) -> float:
        """Fraction of the user's check-ins at friend-shared locations
        of this category."""
        st = self.stats.get(u)
        if st is None or st.total == 0:
            return 0.0
        shared = self._shared.get(u, set())
        cat_locs = set(st.locs_by_cat.get(cat, ()))
        common = sum(n for l, n in st.counts.items() if l in shared and l in cat_locs)
        return common / st.total

    def _norm_count(self, u: int, l: int) -> float:
        """V'(u, l): visit share of location l among u's check-ins."""
        st = self.stats[u]
        return st.counts.get(l, 0) / st.total

    def _f_term(self, u: int, l: int) -> float:
        st = self.stats.get(u)
        if st is None or st.counts.get(l, 0) == 0:
            return 0.0
        return self.stay_norm(l) / self._norm_count(u, l)

    def _g_term(self, u: int, cat: int) -> float:
        st = self.stats.get(u)
        if st is None:
            return 0.0
        locs = st.locs_by_cat.get(cat)
        return 1.0 / len(locs) if locs else 0.0

    def _s_term(self, u: int, cat: int) -> float:
        """Sum over the user's distinct same-category locations of
        normalized stay over visit share."""
        key = (u, cat)
        cached = self._s_cache.get(key)
        if cached is not None:
            return cached
        st = self.stats.get(u)
        total = 0.0
        if st is not None:
            for l in st.locs_by_cat.get(cat, ()):
                total += self.stay_norm(l) / self._norm_count(u, l)
        self._s_cache[key] = total
        return total

    def ast_cat(self, u: int, l: int, cat: int) -> float:
        """Categorical aggregate-stay interest of user u in location l."""
        alpha = self.catfrac(u, cat)
        own = self._f_term(u, l)
        social = self._g_term(u, cat) * self._s_term(u, cat)
        return (1.0 - alpha) * own + alpha * social

    def ast(self, u: int, l: int, cat: int) -> float:
        """Socially blended aggregate-stay interest."""
        base = self.ast_cat(u, l, cat)
        friends = self.friends.get(u, ())
        if not friends:
            return base
        psi = self.psi1(u)
        friend_sum = sum(self.ast_cat(k, l, cat) for k in friends)
        return (1.0 - psi) * base + psi * friend_sum / len(friends)

    def _cat_interest_sum(self, u: int, cat: int) -> float:
        st = self.stats.get(u)
        if st is None:
            return 0.0
        return sum(self.ast_cat(u, l, cat) for l in st.locs_by_cat.get(cat, ()))

    def user_cat_interest(self, u: int, cat: int) -> float:
        """Per-user interest in a whole category, socially blended."""
        gamma = self.gamma1(u, cat)
        own = self._cat_interest_sum(u, cat)
        social = sum(self._cat_interest_sum(j, cat) for j in self.friends.get(u, ()))
        return (1.0 - gamma) * own + gamma * social

    def aggregate_cat(self, categories: Iterable[int]) -> dict:
        """Category -> mean user interest over the full population."""
        out = {}
        if self.n_users == 0:
            return {c: 0.0 for c in categories}
        for c in categories:
            out[c] = (
                sum(self.user_cat_interest(u, c) for u in self.stats) / self.n_users
            )
        return out


def _preference(
    comp: _AstComputation, u: int, poi_ix: int, cat: int, hour: int, beta: float
) -> float:
    """Temporal preference score of stats key ``u`` of ``comp`` for a POI
    of category ``cat`` at ``hour`` (0-23), with category weight ``beta``:
    visit frequency at that hour, blended with the hourly visit shares of
    the user's same-category POIs, against aggregate-stay interest."""
    st = comp.stats[u]
    theta = comp.catfrac(u, cat)

    count_lt = st.counts_lt.get((poi_ix, hour), 0)
    norm_count = count_lt / st.max_lt if st.max_lt else 0.0
    freq_term = (1.0 - theta) * norm_count

    cat_term = 0.0
    g = comp._g_term(u, cat)
    if g:
        acc = 0.0
        for l in st.locs_by_cat.get(cat, ()):
            acc += st.counts_lt.get((l, hour), 0) / st.counts[l]
        cat_term = theta * g * acc
    return beta * (freq_term + cat_term) + (1.0 - beta) * comp.ast(u, poi_ix, cat)


class FeatureTables:
    """All context statistics bundle: built once, then immutable.

    Lookups use encoded integer ids throughout (see ``Encodings``).
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
        self._comp: _AstComputation | None = None
        self._pooled: _AstComputation | None = None
        self._friends: dict[int, list] = {}
        self._beta: dict[tuple[int, int], float] = {}
        self._beta_pooled: dict[int, float] = {}
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

        coords = np.zeros((encodings.n_pois, 2))
        cats = np.zeros(encodings.n_pois, dtype=np.int64)
        visits: dict[int, list] = defaultdict(list)
        pooled: dict[int, list] = {0: []}
        for session in sessions:
            u = encodings.user(session.user_id)
            for visit in session.visits:
                l = encodings.poi(visit.poi.poi_id)
                c = encodings.category(visit.poi.category)
                coords[l] = (visit.poi.lat, visit.poi.lon)
                cats[l] = c
                visits[u].append((l, c, visit.hour))
                pooled[0].append((l, c, visit.hour))
        tables.poi_coords = coords
        tables.poi_cat = cats

        friends = {
            encodings.user(u): sorted(
                encodings.user(f) for f in graph.friends(u) if f in encodings.user_to_ix
            )
            for u in encodings.user_to_ix
        }
        tables._friends = friends
        tables._comp = _AstComputation(
            visits, friends, tables.stay.norm, encodings.n_users
        )
        tables._pooled = _AstComputation(pooled, {}, tables.stay.norm, 1)

        tables._build_ast_aggregates(visits, friends)
        tables._build_beta()
        tables._build_distance_bounds(sessions, encodings)
        tables._build_session_features(sessions, encodings)
        return tables

    def _build_ast_aggregates(self, visits, friends) -> None:
        comp = self._comp
        ast_poi = np.zeros(self.n_pois)
        for l in range(self.n_pois):
            c = int(self.poi_cat[l])
            total = sum(comp.ast(u, l, c) for u in comp.stats)
            ast_poi[l] = total / self.n_users if self.n_users else 0.0
        self.ast_poi = ast_poi

        n_cats = self.encodings.n_categories
        astcat_hour = np.zeros((n_cats, HOURS))
        for hour in range(HOURS):
            hour_visits = {
                u: [(l, c, h) for (l, c, h) in vlist if h == hour]
                for u, vlist in visits.items()
            }
            hour_visits = {u: v for u, v in hour_visits.items() if v}
            hcomp = _AstComputation(hour_visits, friends, self.stay.norm, self.n_users)
            agg = hcomp.aggregate_cat(range(n_cats))
            for c in range(n_cats):
                astcat_hour[c, hour] = agg[c]
        self.astcat_hour = astcat_hour

    def _build_beta(self) -> None:
        """Category weight per user via tf-idf over check-in 'documents',
        min-max normalized to [0, 1] within each user."""
        comp = self._comp
        n_cats = self.encodings.n_categories
        users_with_cat = np.zeros(n_cats)
        for st in comp.stats.values():
            for c in st.cat_counts:
                users_with_cat[c] += 1

        def idf(c: int) -> float:
            return math.log(self.n_users / users_with_cat[c]) if users_with_cat[c] else 0.0

        for u, st in comp.stats.items():
            raw = {
                c: (st.cat_counts.get(c, 0) / st.total) * idf(c) if st.total else 0.0
                for c in range(n_cats)
            }
            normalized, _, _ = _minmax(raw)
            for c, v in normalized.items():
                self._beta[(u, c)] = v

        pooled = self._pooled.stats[0]
        raw = {
            c: (pooled.cat_counts.get(c, 0) / pooled.total) * idf(c)
            if pooled.total
            else 0.0
            for c in range(n_cats)
        }
        self._beta_pooled, _, _ = _minmax(raw)

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

    def distance_km(self, a_ix: int, b_ix: int) -> float:
        self._check_poi(a_ix)
        self._check_poi(b_ix)
        (lat1, lon1), (lat2, lon2) = self.poi_coords[a_ix], self.poi_coords[b_ix]
        return haversine_km(lat1, lon1, lat2, lon2)

    def beta(self, u: int | None, cat: int) -> float:
        if u is None:
            return self._beta_pooled.get(cat, 0.0)
        return self._beta.get((u, cat), 0.0)

    def ast(self, u: int, poi_ix: int) -> float:
        self._check_poi(poi_ix)
        return self._comp.ast(u, poi_ix, int(self.poi_cat[poi_ix]))

    def ast_cat_user(self, u: int, poi_ix: int) -> float:
        self._check_poi(poi_ix)
        return self._comp.ast_cat(u, poi_ix, int(self.poi_cat[poi_ix]))

    def preference(self, u: int | None, poi_ix: int, hour: int) -> float:
        """Temporal preference score; ``u=None`` (or a user without any
        history) uses the population-generalized score."""
        self._check_poi(poi_ix)
        hour = int(hour) % HOURS
        cat = int(self.poi_cat[poi_ix])
        if u is None or u not in self._comp.stats:
            return _preference(self._pooled, 0, poi_ix, cat, hour, self.beta(None, cat))
        return _preference(self._comp, u, poi_ix, cat, hour, self.beta(u, cat))

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
            cat = int(self.poi_cat[l])
            beta = self.beta(None, cat)
            for h in range(HOURS):
                ps = _preference(self._pooled, 0, l, cat, h, beta)
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
        comp = self._comp

        def stats_dict(st: _UserStats) -> dict:
            return {
                "total": st.total,
                "counts": {str(k): v for k, v in sorted(st.counts.items())},
                "counts_lt": {
                    f"{l}:{t}": v for (l, t), v in sorted(st.counts_lt.items())
                },
                "cat_counts": {str(k): v for k, v in sorted(st.cat_counts.items())},
            }

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
            "friends": {str(u): v for u, v in sorted(self._friends.items())},
            "users": {str(u): stats_dict(st) for u, st in sorted(comp.stats.items())},
            "pooled": stats_dict(self._pooled.stats[0]),
            "beta": {f"{u}:{c}": v for (u, c), v in sorted(self._beta.items())},
            "beta_pooled": {str(c): v for c, v in sorted(self._beta_pooled.items())},
            "dist_in": {str(l): list(b) for l, b in sorted(self._dist_in.items())},
            "dist_global": list(self._dist_global),
            "session_features": {
                ":".join(str(k) for k in key): vec.tolist()
                for key, vec in sorted(self._session_features.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureTables":
        encodings = Encodings.from_dict(d["encodings"])
        tables = cls(encodings)
        tables.stay = StayStats(
            {int(k): v for k, v in d["stay"]["mean"].items()},
            {int(k): v for k, v in d["stay"]["norm"].items()},
            d["stay"]["global_mean"],
            d["stay"]["global_norm"],
        )
        tables.popularity = np.array(d["popularity"])
        tables.poi_coords = np.array(d["poi_coords"])
        tables.poi_cat = np.array(d["poi_cat"], dtype=np.int64)
        tables.ast_poi = np.array(d["ast_poi"])
        tables.astcat_hour = np.array(d["astcat_hour"])
        tables._friends = {int(u): v for u, v in d["friends"].items()}

        def load_visits(stats: dict) -> list:
            # reconstruct a visit multiset equivalent to the recorded stats
            out = []
            for key, n in stats["counts_lt"].items():
                l, t = (int(x) for x in key.split(":"))
                out.extend([(l, None, t)] * n)
            return out

        visits = {}
        for u, st in d["users"].items():
            vlist = [
                (l, int(tables.poi_cat[l]), t) for (l, _, t) in load_visits(st)
            ]
            visits[int(u)] = vlist
        tables._comp = _AstComputation(
            visits, tables._friends, tables.stay.norm, encodings.n_users
        )
        pooled_visits = [
            (l, int(tables.poi_cat[l]), t) for (l, _, t) in load_visits(d["pooled"])
        ]
        tables._pooled = _AstComputation(
            {0: pooled_visits}, {}, tables.stay.norm, 1
        )
        tables._beta = {
            tuple(int(x) for x in k.split(":")): v for k, v in d["beta"].items()
        }
        tables._beta_pooled = {int(k): v for k, v in d["beta_pooled"].items()}
        tables._dist_in = {int(k): tuple(v) for k, v in d["dist_in"].items()}
        tables._dist_global = tuple(d["dist_global"])
        tables._session_features = {
            tuple(int(x) for x in key.split(":")): np.array(vec)
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
