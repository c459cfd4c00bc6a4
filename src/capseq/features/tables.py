"""Preference statistics and context vectors derived from check-in sessions.

The pipeline: per-POI stay time -> per-user aggregate stay interest
(with categorical and social blending) -> temporal preference scores ->
per-step attribute vectors and per-sequence feature vectors consumed by
the sequence models.

All POIs, users and categories are handled as dense encoded integers.
``FeatureTables.build`` encodes each visit once, with ``visit_arrays``, and
takes everything from those arrays: the stay means, the step distances
(one scalar ``arc_km`` per distinct place pair) for the distance bounds
and the session features (``session_steps``, which the training encoding
shares) and the visit counts. Every interest statistic comes from one
pass over the visited (row, POI) cells of the full data (the pooled
population as an extra row) and of each hour of day, sorted by (block,
row, POI): ``_block_interest`` turns their visit counts into category
shares, categorical and socially blended interest, and spreads only the
full data's interest over every POI. Every float sum adds its terms one at a time in a fixed order (users
in first-appearance order, friends ascending, a category's POIs
ascending), so the tables equal a literal evaluation of the defining
formulas in that order bit for bit; the test suite keeps an independent
literal transcription, the earlier dense pass per hour and the earlier
per-visit loops to cross-check them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from ..geo import arc_km, arcs_km, place
from ..numerics import sequential_sum
from ..data.types import (
    DataError, Encodings, Session, SocialGraph, UnknownIdError, visit_arrays)

HOURS = 24
# attribute vector: 6 scalars + 24 hourly popularity entries
ATTRIBUTE_DIM = 6 + HOURS
FEATURE_DIM = 7


@dataclass
class StayStats:
    """Mean stay seconds per POI and its 0-1 min-max normalization over
    the POIs somebody stayed at (``own`` true); the other POIs hold the
    global mean and its normalization."""

    mean_stay: np.ndarray
    normalized: np.ndarray
    own: np.ndarray
    global_mean: float

    @classmethod
    def from_means(cls, n_pois: int, mean_stay: dict, global_mean: float) -> "StayStats":
        """Stats from the mean stay of each POI that has one."""
        pois = list(mean_stay)
        means = np.full(n_pois, global_mean)
        means[pois] = list(mean_stay.values())
        own = np.zeros(n_pois, dtype=bool)
        own[pois] = True
        return cls(means, _minmax(means, own), own, global_mean)


def _minmax(values: np.ndarray, over: np.ndarray) -> np.ndarray:
    """``values`` min-max scaled by the bounds of the entries ``over``
    marks; all 0 where those entries span nothing."""
    lo = values.min(initial=np.inf, where=over)
    span = values.max(initial=-np.inf, where=over) - lo
    return _divide(values - lo, span, span > 0)


def _stay_stats(users, pois, stays, n_pois: int) -> StayStats:
    """Per-POI stay time of visits of ``users`` to ``pois`` lasting
    ``stays`` seconds: each visitor's mean stay first, then averaged over
    the POI's visitors, added in the order the (user, POI) pairs are first
    seen; min-max normalized across POIs. POIs with no visits fall back to
    the global mean, the mean of the others in the order of their first
    visits."""
    pair = users * n_pois + pois
    pairs, first = np.unique(pair, return_index=True)
    at = pairs.searchsorted(pair)
    order = np.argsort(first)
    pair_mean = (np.bincount(at, stays) / np.bincount(at))[order]  # stay sums are exact
    poi = pairs[order] % n_pois
    sums = np.bincount(poi, pair_mean, n_pois)
    visited = pois[np.sort(np.unique(pois, return_index=True)[1])]
    mean_stay = (sums[visited] / np.bincount(poi, minlength=n_pois)[visited]).tolist()
    global_mean = sequential_sum(mean_stay) / len(mean_stay) if mean_stay else 0.0
    return StayStats.from_means(n_pois, dict(zip(visited.tolist(), mean_stay)), global_mean)


# the fields of a tables document (``save``) that are not its encodings and catalogue
_STORED_FIELDS = ("stay", "friends", "users", "dist_in", "dist_global", "session_features")


def _object_text(texts: dict) -> str:
    """``json.dumps(d, sort_keys=True)`` of an object ``d`` whose values
    have the texts ``texts`` (each ``json.dumps(value, sort_keys=True)``),
    so that a value encoded once serves two documents."""
    return "{" + ", ".join(f"{json.dumps(key)}: {texts[key]}" for key in sorted(texts)) + "}"


def _stored_sha256(texts: dict) -> str:
    """SHA-256 of the stored fields of a tables document, from their
    texts ``texts``."""
    text = _object_text({key: texts[key] for key in _STORED_FIELDS})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _texts(d: dict, keys=_STORED_FIELDS) -> dict:
    """The ``json.dumps(..., sort_keys=True)`` text of each field ``keys``
    names in ``d``, by default its stored fields."""
    return {key: json.dumps(d[key], sort_keys=True) for key in keys}


def _float(value):
    """A 0-d result as a Python float; arrays pass through."""
    return float(value) if np.ndim(value) == 0 else value


def _hours(hour):
    """Hour of day 0-23 of an hour or an array of hours, each truncated
    toward zero first, as ``int`` does."""
    if np.ndim(hour) == 0:
        return int(hour) % HOURS
    return np.asarray(hour).astype(np.int64, copy=False) % HOURS


def _divide(num, den, where) -> np.ndarray:
    """``num / den`` where ``where`` holds, 0.0 elsewhere (never divides
    by zero)."""
    shape = np.broadcast_shapes(np.shape(num), np.shape(den), np.shape(where))
    return np.divide(num, den, out=np.zeros(shape), where=where)


def _scaled(d, lo, hi) -> np.ndarray:
    """``d`` min-max normalized by ``lo`` and ``hi`` and clipped to
    [0, 1]; where ``hi <= lo``, 0 up to ``lo`` and 1 beyond it."""
    span = hi - lo
    wide = span > 0
    inside = np.minimum(np.maximum((d - lo) / np.where(wide, span, 1.0), 0.0), 1.0)
    return np.where(wide, inside, d > lo)  # distances are finite, never NaN


def _ordered_mean(values: np.ndarray, order: np.ndarray, n_users: int) -> np.ndarray:
    """Column sums of the rows ``order`` names, added one row at a time in
    that order, over ``n_users``."""
    cols = values.shape[1]
    if not n_users:
        return np.zeros(cols)
    bins = np.tile(np.arange(cols), len(order))
    return np.bincount(bins, weights=values[order].ravel(), minlength=cols) / n_users


def _group_means(keys: list, values: np.ndarray) -> dict:
    """The mean of the rows of ``values`` that share a key, under that key:
    the tuple of the entries of ``keys``, int arrays of one non-negative
    entry per row. Each sum adds its rows in order, as ``np.mean`` does."""
    code = np.ravel_multi_index(keys, [int(k.max(initial=0)) + 1 for k in keys])
    groups, first = np.unique(code, return_index=True)
    at = groups.searchsorted(code)
    width = values.shape[1]
    sums = np.bincount((at[:, None] * width + np.arange(width)).ravel(), values.ravel(),
                       len(groups) * width).reshape(-1, width)
    means = sums / np.bincount(at)[:, None]
    return dict(zip(zip(*(k[first].tolist() for k in keys)), means))


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


def _block_interest(keys, counts, rows, slots, stay_norm, poi_cat, n_cats) -> tuple:
    """Aggregate-stay interest of the visited cells: ascending ``keys``
    ``(block * rows + row) * n_pois + poi`` with ``counts`` visits, where
    block 24 is the full data and blocks 0-23 the hours of day. Returns
    the full data's ``_Interest``, only its ``ac`` and ``ast`` dense, and
    the (rows, 24 * n_cats) hourly interest in whole categories: ``ac``
    summed over a category's visited POIs, socially blended with the
    friends' sums. ``slots`` (see ``_friend_slots``) names each row's
    friends; a friend shares a cell it visited in the same block."""
    blocks, n_pois = HOURS + 1, len(poi_cat)
    block_row, poi = np.divmod(keys, n_pois)
    block, row = np.divmod(block_row, rows)
    # keys ascend, so each (block, row, category) adds its POIs in order
    bins = block_row * n_cats + poi_cat[poi]

    def sums(weights=None, by=bins, n=n_cats):  # (blocks, rows, n); 1 per cell by default
        return np.bincount(by, weights, blocks * rows * n).reshape(blocks, rows, n)

    # each (blocks, rows, n) array is dropped or cut to block 24 after its last reader
    total = sums(counts, block_row, 1)
    alpha = _divide(sums(counts), total, total > 0)
    own = stay_norm[poi] / (counts / total.ravel()[block_row])
    distinct = sums()
    g = _divide(1.0, distinct, distinct > 0)
    del distinct
    social = g * sums(own)
    g = g[HOURS].copy()
    a = alpha.ravel()[bins]
    ac = a * social.ravel()[bins] + own * (1.0 - a)
    del a, own

    full = block == HOURS
    alpha = alpha[HOURS].copy()
    dense_ac = (alpha * social[HOURS])[:, poi_cat]  # the unvisited POIs' own term is 0
    del social
    dense_ac[row[full], poi[full]] = ac[full]
    own_cat = sums(ac)[:HOURS]
    del ac
    n_friends = np.zeros((rows, 1), dtype=np.int64)
    friend_seen = np.zeros(len(keys), dtype=bool)
    social_cat, ast = np.zeros(own_cat.shape), np.zeros(dense_ac.shape)
    ends = np.append(keys, -1)
    for who, k in slots:
        n_friends[who] += 1
        friend = np.full(rows, -1)
        friend[who] = k
        friend_keys = keys + (friend[row] - row) * n_pois
        friend_seen |= (friend[row] >= 0) & (ends[keys.searchsorted(friend_keys)] == friend_keys)
        social_cat[:, who] += own_cat[:, k]
        ast[who] += dense_ac[k]
    shared = np.where(friend_seen, counts, 0)
    psi = _divide(sums(shared, block_row, 1), total, total > 0)
    gamma = _divide(sums(shared), total, total > 0)
    by_cat = (1.0 - gamma[:HOURS]) * own_cat
    del own_cat
    by_cat += np.multiply(social_cat, gamma[:HOURS], out=social_cat)  # + gamma * social_cat
    del social_cat
    gamma = gamma[HOURS].copy()
    # (1 - psi) * ac + psi * friend_sum / n_friends; psi is 0 without friends
    ast *= psi[HOURS]
    np.divide(ast, n_friends, out=ast, where=n_friends > 0)
    ast += (1.0 - psi[HOURS]) * dense_ac
    psi = psi[HOURS].copy()
    return _Interest(alpha, g, dense_ac, ast, psi, gamma), by_cat.swapaxes(0, 1).reshape(rows, -1)


def _index(value, high: int, what: str) -> int:
    """``value``, a JSON integer, as an index below ``high``."""
    if type(value) is not int or not 0 <= value < high:
        raise ValueError(f"{what} {value!r} is not an index below {high}")
    return value


def _number(value, what: str) -> float:
    """``value``, a JSON number, as a float; every number a tables file
    holds is finite and not negative."""
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise ValueError(f"{what}: {value!r} is not a finite number >= 0")
    return float(value)


def _array(value, n: int, what: str) -> np.ndarray:
    """``value``, a JSON list of ``n`` numbers, as an array (see ``_number``)."""
    if type(value) is not list or len(value) != n:
        raise ValueError(f"{what}: {value!r} is not a list of {n} numbers")
    return np.array([_number(x, what) for x in value])


class FeatureTables:
    """All context statistics bundle: built once, then immutable.

    Lookups use encoded integer ids throughout (see ``Encodings``). Per-user
    arrays have one row per user plus the pooled population as row
    ``n_users``. The POI and hour arguments of the lookups take an index
    or an array of indices: an index gives a float, arrays broadcast and
    give an array of the same values.
    """

    def __init__(self, encodings: Encodings):
        self.encodings = encodings
        self.n_pois = encodings.n_pois
        self.n_users = encodings.n_users
        self.stay: StayStats | None = None
        self.popularity: np.ndarray | None = None
        # the catalogue of ``encodings``: every POI's (lat, lon) and category
        self.poi_coords: np.ndarray = encodings.poi_coords
        self.poi_cat: np.ndarray = encodings.poi_cat
        self.ast_poi: np.ndarray | None = None
        self.astcat_hour: np.ndarray | None = None  # (n_categories, 24)
        self.feature_scale: np.ndarray | None = None  # session feature input scales
        self._friends: list = []  # per user, ascending
        # ascending (row * n_pois + poi) * 24 + hour keys of the visited
        # cells, then one key past every cell; the visits of each cell,
        # and their share of the row's largest count (0 past every cell)
        self._lt_keys: np.ndarray | None = None
        self._lt_counts: np.ndarray | None = None
        self._lt_share: np.ndarray | None = None
        self._max_lt: list = []  # per row, largest (poi, hour) count
        self._order: np.ndarray | None = None  # users with visits, first seen first
        self._catacc: np.ndarray | None = None  # (rows, n_cats, 24)
        self._stats: _Interest | None = None  # full data, pooled row last
        self._beta: np.ndarray | None = None  # (n_users + 1, n_cats)
        # (n_pois, 2) observed incoming-distance bounds per POI, the global
        # ones where the POI has none of its own (``_dist_own`` false)
        self._dist_in: np.ndarray | None = None
        self._dist_own: np.ndarray | None = None
        self._dist_global = (0.0, 0.0)
        # the catalogue's POIs as ``geo.place`` points
        self._places = [place(lat, lon) for lat, lon in self.poi_coords.tolist()]
        # km from each source POI read so far to every POI: source l's
        # row is _dist_rows[_dist_slot[l]], and _dist_slot[l] is -1 until
        # l is first read
        self._dist_slot: np.ndarray | None = None
        self._dist_rows: np.ndarray | None = None
        self._pref_tables: dict[int, np.ndarray] = {}  # stats row -> preference_table
        self._attr_table: np.ndarray | None = None  # (n_pois, 24, ATTRIBUTE_DIM)
        self._attr_scale: np.ndarray | None = None
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
        if not encodings.n_pois:
            raise DataError("no POIs to build feature tables from: no session has a visit")
        if encodings.poi_coords is None:
            raise DataError("the encodings carry no POI catalogue to build tables on")
        graph = graph or SocialGraph()
        tables = cls(encodings)
        visits = visit_arrays(sessions, encodings)
        users, pois, arrivals, departures, lengths = visits
        tables.stay = _stay_stats(users, pois, departures - arrivals, encodings.n_pois)
        tables._friends = [
            sorted(encodings.user(f) for f in graph.friends(encodings.ix_to_user[u])
                   if f in encodings.user_to_ix)
            for u in range(encodings.n_users)
        ]
        dist_prev, feats = tables.session_steps(visits)
        first = np.cumsum(lengths) - lengths
        tables._build_distance_bounds(np.delete(pois, first), np.delete(dist_prev, first))
        tables._build_session_features(users[first], pois[first], arrivals[first], feats)
        seen, first_seen = np.unique(users, return_index=True)
        tables._derive(
            seen[np.argsort(first_seen)],
            (users * encodings.n_pois + pois) * HOURS + arrivals // 3600 % HOURS,
            np.ones(len(users), dtype=np.int64),
        )
        return tables

    def _derive(self, order: np.ndarray, keys: np.ndarray, counts: np.ndarray) -> None:
        """Every statistic of the visit counts: ``keys`` holds ``(user *
        n_pois + poi) * 24 + hour`` and ``counts`` its visits (repeats add
        up); the pooled row, row ``n_users``, is their sum. ``order`` lists
        the users with visits, first seen first: the order in which the
        population means add them up. ``build`` and ``from_dict`` both end
        here, once the stay statistics, the friend lists and the distance
        bounds are set."""
        rows, n_pois = self.n_users + 1, self.n_pois
        n_cats, n_cells = self.encodings.n_categories, n_pois * HOURS
        keys = np.concatenate([keys, self.n_users * n_cells + keys % n_cells])
        counts = np.concatenate([counts, counts])
        ix = np.argsort(keys, kind="stable")
        keys, counts = keys[ix], counts[ix]
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        keys, counts = keys[first], np.add.reduceat(counts, first)
        row, cell = np.divmod(keys, n_cells)
        poi, hour = np.divmod(cell, HOURS)
        self._order = order
        self._lt_keys = np.append(keys, rows * n_cells)
        self._lt_counts = counts
        # the full data's cells: each (row, POI) and its visits
        cells = keys // HOURS
        first = np.flatnonzero(np.diff(cells, prepend=-1))
        visits = np.add.reduceat(counts, first)
        max_lt = np.zeros(rows, dtype=np.int64)
        np.maximum.at(max_lt, row, counts)
        self._max_lt = max_lt.tolist()
        self._lt_share = np.append(counts / max_lt[row], 0.0)
        # keys ascend, so each (row, category, hour) adds its POIs in order
        self._catacc = np.bincount(
            (row * n_cats + self.poi_cat[poi]) * HOURS + hour,
            weights=counts / np.repeat(visits, np.diff(first, append=len(cells))),
            minlength=rows * n_cats * HOURS,
        ).reshape(rows, n_cats, HOURS)
        user = row < self.n_users
        hourly = (hour[user] * rows + row[user]) * n_pois + poi[user]
        ix = np.argsort(hourly)
        self._stats, by_cat = _block_interest(
            np.concatenate([hourly[ix], HOURS * rows * n_pois + cells[first]]),
            np.concatenate([counts[user][ix], visits]), rows,
            _friend_slots(self._friends), self.stay.normalized, self.poi_cat, n_cats,
        )
        self.ast_poi = _ordered_mean(self._stats.ast, order, self.n_users)
        by_hour = _ordered_mean(by_cat, order, self.n_users).reshape(HOURS, n_cats)
        self.astcat_hour = by_hour.T.copy()
        self._build_beta()
        pooled = row == self.n_users
        popularity = np.zeros((n_pois, HOURS))
        popularity[poi[pooled], hour[pooled]] = counts[pooled]
        # each (POI, hour) count over the largest, every entry in [0, 1]
        self.popularity = popularity / popularity.max(initial=1.0)
        cat_scale, poi_scale = max(1.0, n_cats - 1.0), max(1.0, n_pois - 1.0)
        self.feature_scale = np.array(
            [cat_scale, cat_scale, poi_scale, poi_scale, max(1.0, self._dist_global[1]),
             float(HOURS - 1), float(HOURS - 1)]
        )

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

    def _build_distance_bounds(self, to, km) -> None:
        """Observed incoming travel distances per target POI, which
        ``discount`` scales by: step i went ``km[i]`` km into POI ``to[i]``."""
        lo, hi = np.full(self.n_pois, np.inf), np.full(self.n_pois, -np.inf)
        np.minimum.at(lo, to, km)
        np.maximum.at(hi, to, km)
        own = np.unique(to)
        self._set_distance_bounds(
            dict(zip(own.tolist(), zip(lo[own].tolist(), hi[own].tolist()))),
            (float(km.min()), float(km.max())) if len(km) else (0.0, 0.0),
        )

    def _set_distance_bounds(self, dist_in: dict, dist_global: tuple) -> None:
        """Bounds from ``dist_in`` (POI -> (lo, hi)) and the global pair."""
        self._dist_global = dist_global
        self._dist_in = np.tile(dist_global, (self.n_pois, 1))
        self._dist_own = np.zeros(self.n_pois, dtype=bool)
        if dist_in:
            pois = list(dist_in)
            self._dist_in[pois] = list(dist_in.values())
            self._dist_own[pois] = True

    HOUR_BUCKET = 6  # sessions bucketed by start-hour quadrant

    def _build_session_features(self, users, starts, arrivals, feats) -> None:
        """Historical mean of the whole-sequence features ``feats`` (a row
        per session) keyed by (user, start POI, start-hour bucket), with
        coarser fallbacks; ``users``, ``starts`` and ``arrivals`` hold each
        session's user, first POI and first arrival. Used to estimate the
        feature vector at generation time, when the end of the sequence is
        not known yet."""
        bucket = arrivals // 3600 % HOURS // self.HOUR_BUCKET
        self._session_features = {}
        for keys in ([users, starts, bucket], [users, bucket], [users]):
            self._session_features.update(_group_means(keys, feats))

    def expected_feature(self, u: int | None, start_ix: int, hour: int) -> np.ndarray:
        """Best historical estimate of the sequence features for a
        rollout from (user, start POI, hour); with no history, the end of
        the sequence is unknown, so the end fields anchor to the start."""
        self._check_poi(start_ix)
        cat, h = float(self.poi_cat[start_ix]), float(int(hour) % HOURS)
        bucket = int(h) // self.HOUR_BUCKET
        for key in ((u, start_ix, bucket), (u, bucket), (u,)):
            vec = self._session_features.get(key)
            if vec is not None:
                out = vec.copy()
                out[[0, 2, 5]] = cat, float(start_ix), h
                return out
        return np.array([cat, cat, float(start_ix), float(start_ix), 0.0, h, h])

    # -- lookups ---------------------------------------------------------

    def _check_poi(self, poi_ix: int) -> None:
        if not 0 <= poi_ix < self.n_pois:
            raise UnknownIdError(f"unknown poi index {poi_ix}: encodings are closed-world")

    def _pois(self, poi_ix) -> np.ndarray:
        """A POI index or index array as an int64 array; ``UnknownIdError``
        names the first index out of range."""
        pois = np.asarray(poi_ix, dtype=np.int64)
        unsigned = pois.view(np.uint64)  # negatives wrap past the last POI
        if unsigned.max(initial=0) >= self.n_pois:
            self._check_poi(int(pois[unsigned >= self.n_pois][0]))
        return pois

    def _distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Great-circle km from POIs ``a`` to POIs ``b`` (checked index
        arrays), read from the row of each source. A source's row is
        filled with the scalar ``arc_km`` to every POI when the source is
        first read, so memory grows with the sources read."""
        if self._dist_slot is None:
            self._dist_slot = np.full(self.n_pois, -1, dtype=np.int64)
            self._dist_rows = np.empty((0, self.n_pois))
        slot = self._dist_slot[a]
        new = slot < 0
        if new.any():
            sources = np.unique(a[new]).tolist()
            used = np.count_nonzero(self._dist_slot >= 0)
            if used + len(sources) > len(self._dist_rows):  # grow by doubling
                size = min(self.n_pois, max(used + len(sources), 2 * used))
                rows = np.empty((size, self.n_pois))
                rows[:used] = self._dist_rows[:used]
                self._dist_rows = rows
            for i, source in enumerate(sources, used):
                here = self._places[source]
                self._dist_rows[i] = [arc_km(here, to) for to in self._places]
                self._dist_slot[source] = i
            slot = self._dist_slot[a]
        return self._dist_rows[slot, b]

    def distance_km(self, a_ix, b_ix):
        """Great-circle km from POI ``a_ix`` to POI ``b_ix``."""
        return _float(self._distances(self._pois(a_ix), self._pois(b_ix)))

    def preference(self, u: int | None, poi_ix, hour):
        """Temporal preference score; ``u=None`` (or a user without any
        history) uses the population-generalized score."""
        pois = self._pois(poi_ix)
        return _float(self._preference(self.stats_row(u), pois, _hours(hour)))

    def stats_row(self, u: int | None) -> int:
        """The statistics row ``preference`` reads for ``u``: its own, or
        the pooled row ``n_users`` for ``None`` or a user without history."""
        return u if u is not None and 0 <= u < self.n_users and self._max_lt[u] else self.n_users

    def preference_table(self, u: int | None) -> np.ndarray:
        """The read-only (n_pois, 24) preference of ``stats_row(u)`` for
        every POI at every hour, for the readers of whole rows: computed on
        the row's first read and kept; users without history share the
        pooled row's table."""
        row = self.stats_row(u)
        if row not in self._pref_tables:
            table = self._preference(row, np.arange(self.n_pois)[:, None], np.arange(HOURS))
            table.flags.writeable = False
            self._pref_tables[row] = table
        return self._pref_tables[row]

    def _preference(self, row: int, pois, hours) -> np.ndarray:
        """Preference of stats row ``row`` for POIs at hours (0-23):
        visit frequency at that hour, blended with the hourly visit shares
        of the row's same-category POIs, against aggregate-stay interest."""
        cat = self.poi_cat[pois]
        it = self._stats
        theta = it.alpha[row][cat]
        keys = (pois + row * self.n_pois) * HOURS + hours
        at = self._lt_keys.searchsorted(keys)
        norm_count = self._lt_share[at] * (self._lt_keys[at] == keys)
        freq_term = (1.0 - theta) * norm_count
        # g is 0 only where the row never visited the category, and the
        # hourly shares are 0 there too, so the term is 0 without a branch
        cat_term = theta * it.g[row][cat] * self._catacc[row][cat, hours]
        beta = self._beta[row][cat]
        return beta * (freq_term + cat_term) + (1.0 - beta) * it.ast[row][pois]

    def discount(self, poi_ix, current_ix):
        """The factor ``consolidated`` applies to a preference score: one
        minus the mean of two measures of the step from ``current_ix`` to
        ``poi_ix``, each in [0, 1]. Both scale the one distance: ``near``
        by the target's observed incoming distances, ``quick`` (travel
        time, monotone in distance) by the global ones."""
        pois = self._pois(poi_ix)
        d = self._distances(self._pois(current_ix), pois)
        near = _scaled(d, self._dist_in[pois, 0], self._dist_in[pois, 1])
        quick = _scaled(d, *self._dist_global)
        return _float(1.0 - (near + quick) / 2)

    def consolidated(self, u: int | None, poi_ix, hour, current_ix=None):
        """Preference score discounted by ``discount`` against the current
        location."""
        ps = self.preference(u, poi_ix, hour)
        if current_ix is None:
            return ps
        return ps * self.discount(poi_ix, current_ix)

    # -- context vectors --------------------------------------------------

    def attribute_vector(
        self, poi_ix: int, hour: int, prev_poi_ix: int | None = None
    ) -> np.ndarray:
        """Per-step context: stay, interest, hourly category interest,
        preference, category code, distance to the previous stop, and the
        24-hour popularity profile of the POI."""
        dist = 0.0
        if prev_poi_ix is not None:  # scalar, so that it fills no distance rows
            cur, prev = self._pois([poi_ix, prev_poi_ix]).tolist()
            dist = arc_km(self._places[prev], self._places[cur])
        return self.attribute_rows([poi_ix], [int(hour) % HOURS], [dist])[0]

    def attribute_rows(self, pois, hours, dist_prev) -> np.ndarray:
        """Attribute vectors of many steps as one (*pois.shape,
        ATTRIBUTE_DIM) array: row i is the static (POI, hour) row of
        ``pois[i]`` at hour of day ``hours[i]`` (0-23), with
        ``dist_prev[i]`` km from the previous stop (0 for none) as its only
        per-step field."""
        pois = self._pois(pois)
        if self._attr_table is None:
            self._build_attribute_table()
        rows = self._attr_table[pois, hours]
        rows[..., 5] = dist_prev
        return rows

    def session_steps(self, visits: tuple) -> tuple:
        """The step distances and whole-sequence features of the sessions
        of ``visit_arrays`` ``visits``: the km to each visit from the one
        before it in its session (0.0 for a session's first), one scalar
        ``arc_km`` per distinct place pair, and one (sessions, FEATURE_DIM)
        array of start/end category and place codes, the mean step km (in
        session order) and start/end hours."""
        _, pois, arrivals, _, lengths = visits
        ends = np.cumsum(lengths)
        first, last = ends - lengths, ends - 1
        step = np.ones(len(pois), dtype=bool)
        step[first] = False
        at = np.flatnonzero(step)
        km = arcs_km(self._places, pois[at - 1], pois[at])
        n_steps = lengths - 1
        # step j of every session that has one is added at once, j = 0, 1,
        # ..., so each session's sum adds its steps left to right from 0.0,
        # as sequential_sum does; order lists the sessions by falling step
        # count, so the n with more than j steps lead it
        first_step = np.cumsum(n_steps) - n_steps
        order = np.argsort(-n_steps, kind="stable")
        total = np.zeros(len(lengths))
        for j, n in enumerate((len(lengths) - np.cumsum(np.bincount(n_steps)))[:-1].tolist()):
            rows = order[:n]  # the n sessions with more than j steps
            total[rows] += km[first_step[rows] + j]
        mean_km = _divide(total, n_steps, n_steps > 0)
        dist_prev = np.zeros(len(pois))
        dist_prev[step] = km
        hours = arrivals // 3600 % HOURS
        start, end = pois[first], pois[last]
        feats = np.column_stack([self.poi_cat[start], self.poi_cat[end], start, end,
                                 mean_km, hours[first], hours[last]])
        return dist_prev, feats

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
        ps = self.preference_table(None)
        table[:, :, 0] = self.stay.normalized[:, None]
        table[:, :, 1] = self.ast_poi[:, None]
        table[:, :, 2] = self.astcat_hour[self.poi_cat]
        table[:, :, 3] = ps
        table[:, :, 4] = self.poi_cat[:, None]
        table[:, :, 6:] = self.popularity[:, None, :]
        scale = np.ones(ATTRIBUTE_DIM)
        scale[1] = max(1.0, float(np.abs(self.ast_poi).max(initial=0.0)))
        scale[2] = max(1.0, float(np.abs(self.astcat_hour).max(initial=0.0)))
        scale[3] = max(1.0, float(np.abs(ps).max(initial=0.0)))
        scale[4] = max(1.0, self.encodings.n_categories - 1.0)
        scale[5] = max(1.0, self._dist_global[1])
        self._attr_table = table
        self._attr_scale = scale

    # -- serialization -----------------------------------------------------

    def _document(self) -> dict:
        """What ``from_dict`` cannot derive: the encodings and catalogue,
        the stay means, the friend lists, each user's ``"poi:hour"`` visit
        counts (a list of ``[user, cells]`` in first-seen order, which
        sorted keys would lose), the distance bounds and the session
        features. ``save`` adds ``stored_sha256``, the digest of every
        field but the encodings and catalogue."""
        n_cells = self.n_pois * HOURS
        end = self._lt_keys.searchsorted(self.n_users * n_cells)
        row, cell = np.divmod(self._lt_keys[:end], n_cells)
        names = [f"{c // HOURS}:{c % HOURS}" for c in cell.tolist()]
        counts = self._lt_counts[:end].tolist()
        lo, hi = row.searchsorted(self._order).tolist(), row.searchsorted(self._order, "right")
        own = np.flatnonzero(self.stay.own)
        bounded = np.flatnonzero(self._dist_own)
        return {
            "encodings": self.encodings.to_dict(),
            "poi_coords": self.poi_coords.tolist(),
            "poi_cat": self.poi_cat.tolist(),
            "stay": {
                "mean": dict(zip(map(str, own.tolist()), self.stay.mean_stay[own].tolist())),
                "global_mean": self.stay.global_mean,
            },
            "friends": {str(u): fs for u, fs in enumerate(self._friends)},
            "users": [[u, dict(zip(names[a:b], counts[a:b]))]
                      for u, a, b in zip(self._order.tolist(), lo, hi.tolist())],
            "dist_in": dict(zip(map(str, bounded.tolist()), self._dist_in[bounded].tolist())),
            "dist_global": list(self._dist_global),
            "session_features": {
                ":".join(str(k) for k in key): vec.tolist()
                for key, vec in sorted(self._session_features.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureTables":
        """Tables from the document ``save`` writes. Raises ``ValueError`` for
        anything else: a missing field, a wrong type or shape, an index
        out of range, or stored fields that are not those written."""
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
        encodings = Encodings.from_dict(d["encodings"]).with_catalogue(
            d["poi_coords"], d["poi_cat"])
        n_users, n_pois = encodings.n_users, encodings.n_pois
        tables = cls(encodings)
        stay = d["stay"]
        tables.stay = StayStats.from_means(
            n_pois,
            {_index(int(k), n_pois, "stay POI"): _number(v, "stay mean")
             for k, v in stay["mean"].items()},
            _number(stay["global_mean"], "stay global_mean"),
        )
        tables._friends = [[] for _ in range(n_users)]
        for u, fs in d["friends"].items():
            tables._friends[_index(int(u), n_users, "user")] = [
                _index(f, n_users, "friend") for f in fs
            ]
        tables._set_distance_bounds(
            {
                _index(int(k), n_pois, "dist_in POI"): _array(v, 2, "dist_in").tolist()
                for k, v in d["dist_in"].items()
            },
            tuple(_array(d["dist_global"], 2, "dist_global").tolist()),
        )
        tables._session_features = {
            tuple(int(x) for x in key.split(":")): _array(vec, FEATURE_DIM, "session_features")
            for key, vec in d["session_features"].items()
        }

        order, keys, counts = [], [], []
        for u, cells in d["users"]:
            u = _index(u, n_users, "user")
            if u in order:
                raise ValueError(f"user {u} is listed twice")
            if not cells:
                raise ValueError(f"user {u} is listed without visits")
            order.append(u)
            for key, n in cells.items():
                l, t = key.split(":")
                keys.append((u * n_pois + _index(int(l), n_pois, "POI")) * HOURS
                            + _index(int(t), HOURS, "hour"))
                # save writes visited cells only, each a count below 2**53
                if type(n) is not int or not 0 < n < 1 << 53:
                    raise ValueError(
                        f"visit count of cell {key}: {n!r} is not a whole number >= 1")
                counts.append(n)
        tables._derive(*(np.array(x, dtype=np.int64) for x in (order, keys, counts)))
        if d["stored_sha256"] != _stored_sha256(_texts(d)):
            raise ValueError("its stored fields are not those it was written with")
        return tables

    def save(self, path) -> None:
        """Write the tables document as JSON with sorted keys, each field
        encoded once for both the digest and the file."""
        d = self._document()
        texts = _texts(d, d)
        texts["stored_sha256"] = json.dumps(_stored_sha256(texts))
        Path(path).write_text(_object_text(texts), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "FeatureTables":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
