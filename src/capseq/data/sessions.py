"""Visit derivation and sessionization of per-user check-in streams.

A check-in only records an arrival; the departure of visit i is
recovered as ``arrival_{i+1} - travel_time(poi_i, poi_{i+1})``, clamped
so stays cannot go negative. The last visit of a user has no successor
and gets the user's median observed stay (30 minutes when nothing was
observed).
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from typing import Iterable

import numpy as np

from ..geo import arcs_km, place, travel_seconds
from .types import Checkins, Encodings, Poi, SessionTable

SESSION_WINDOW_SECONDS = 8 * 3600
FALLBACK_STAY_SECONDS = 30 * 60
DEFAULT_MIN_CHECKINS = 25


class TravelTimeModel:
    """Travel time between POIs, seconds.

    ``deterministic`` (default) assumes walking speed over the
    great-circle distance, which keeps every downstream artifact
    reproducible. ``lognormal`` fits ln(seconds-per-km) on observed
    consecutive check-in gaps and predicts with the distribution median.
    """

    def __init__(self, mode: str = "deterministic"):
        if mode not in ("deterministic", "lognormal"):
            raise ValueError(f"unknown travel time mode {mode!r}")
        self.mode = mode
        self.log_mu: float | None = None

    def fit(self, records: Checkins | Iterable[tuple]) -> "TravelTimeModel":
        """Fit the lognormal mode on consecutive same-user check-in gaps."""
        log = Checkins.of(records)
        ix: dict[tuple, int] = {}  # one converted point per distinct (lat, lon)
        at = np.fromiter((ix.setdefault(p, len(ix)) for p in zip(log.lats, log.lons)), np.int64)
        points = [place(lat, lon) for lat, lon in ix]
        gaps = np.diff(np.array(log.times, dtype=np.int64))
        same_user = np.array([a == b for a, b in zip(log.users, log.users[1:])], dtype=bool)
        pairs = np.flatnonzero((gaps > 0) & same_user)
        km = arcs_km(points, at[pairs], at[pairs + 1])
        samples = [math.log(g / d) for g, d in zip(gaps[pairs].tolist(), km.tolist()) if d > 0.05]
        if samples:  # fmean sums with fsum, so the order of the samples cannot show
            self.log_mu = statistics.fmean(samples)
        return self

    def seconds(self, km):
        """Travel time over a great-circle distance of ``km`` (a float or an
        array)."""
        if self.mode == "deterministic" or self.log_mu is None:
            return travel_seconds(km)
        return km * math.exp(self.log_mu)


def build_sessions(
    records: Checkins | Iterable[tuple],
    travel_time: TravelTimeModel | None = None,
    min_checkins: int = 0,
) -> SessionTable:
    """records -> visits -> sessions for every user, optionally filtered,
    as one ``SessionTable`` under the first-seen encodings of its sessions.

    Users are processed in sorted order, and each user's records by time
    with ties in input order, so the output ordering is a pure function of
    the input bytes. A check-in at a user's previous time is dropped, as
    it cannot form strictly increasing arrivals; so are all the visits of
    a user with fewer than ``min_checkins`` of them. Each session starts at
    the first arrival outside ``SESSION_WINDOW_SECONDS`` of the previous
    session's start. The step distances take one ``arc_km`` per distinct
    place pair (``geo.arcs_km``).
    """
    if min_checkins < 0:
        raise ValueError("min_checkins must be >= 0")
    log = Checkins.of(records)
    travel_time = travel_time or TravelTimeModel()
    times = np.array(log.times, dtype=np.int64)
    new_user = np.ones(len(times), dtype=bool)
    new_user[1:] = [a != b for a, b in zip(log.users, log.users[1:])]
    user = np.cumsum(new_user) - 1
    keep = new_user | (np.diff(times, prepend=0) != 0)
    keep &= np.bincount(user, weights=keep)[user] >= min_checkins
    rows = np.flatnonzero(keep)

    # one Poi and one converted point per distinct place, in first-visit order
    index: dict[tuple, int] = {}
    keys = zip(log.pois, log.lats, log.lons, log.categories)
    place_ix = np.array([index.setdefault(key, len(index)) for key, kept in zip(keys, keep.tolist())
                         if kept], dtype=np.int64)
    places = [Poi(*key) for key in index]
    points = [place(poi.lat, poi.lon) for poi in places]

    # a user's first check-in is kept, unless all the user's are dropped
    arrivals, new_user = times[rows], new_user[rows]
    first = np.flatnonzero(new_user)  # each user's first visit
    ends = np.append(first, len(rows))[1:]
    moved = np.flatnonzero(~new_user[1:])  # visits followed by one of their user
    km = arcs_km(points, place_ix[moved], place_ix[moved + 1])
    departures = arrivals.copy()
    departures[moved] = np.maximum(
        arrivals[moved + 1] - np.rint(travel_time.seconds(km)).astype(np.int64),
        arrivals[moved])
    # a user's last visit stays the median of the user's other stays
    stays = (departures - arrivals).tolist()
    departures[ends - 1] += np.array(
        [int(statistics.median(stays[a:b - 1])) if b - a > 1 else FALLBACK_STAY_SECONDS
         for a, b in zip(first.tolist(), ends.tolist())], dtype=np.int64)

    # a user's arrivals increase, so the next session starts at the first
    # arrival past the window of this one's start: one bisect per session
    starts, times = [], arrivals.tolist()
    for i, end in zip(first.tolist(), ends.tolist()):
        while i < end:
            starts.append(i)
            i = bisect_right(times, times[i] + SESSION_WINDOW_SECONDS, i + 1, end)
    lengths = np.diff(np.array(starts + [len(rows)], dtype=np.int64))

    encodings, place_poi = Encodings.of_places([log.users[i] for i in rows[first].tolist()],
                                               places)
    pois = np.array(place_poi, dtype=np.int64)[place_ix]
    users = np.repeat(np.arange(len(first)), ends - first)
    return SessionTable(users, pois, arrivals, departures, lengths, encodings, places, place_ix)
