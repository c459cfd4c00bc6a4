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
from collections import defaultdict
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

from ..geo import arc_km, place, travel_seconds
from .types import CheckinRecord, Poi, Session, Visit

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

    def fit(self, records: Sequence[CheckinRecord]) -> "TravelTimeModel":
        """Fit the lognormal mode on consecutive same-user check-in gaps."""
        samples = []
        a = here = None
        for b in sorted(records, key=attrgetter("user_id", "timestamp")):
            there = place(b.lat, b.lon)
            if a is not None and a.user_id == b.user_id:
                dist = arc_km(here, there)
                gap = b.timestamp - a.timestamp
                if dist > 0.05 and gap > 0:
                    samples.append(math.log(gap / dist))
            a, here = b, there
        if samples:  # fmean sums with fsum, so the order of the samples cannot show
            self.log_mu = statistics.fmean(samples)
        return self

    def seconds(self, km: float) -> float:
        """Travel time over a great-circle distance of ``km``."""
        if self.mode == "deterministic" or self.log_mu is None:
            return travel_seconds(km)
        return km * math.exp(self.log_mu)


def derive_visits(
    records: Sequence[CheckinRecord],
    travel_time: TravelTimeModel | None = None,
) -> list[Visit]:
    """Turn one user's timestamp-sorted check-ins into visits with stays."""
    if not records:
        return []
    times = [r.timestamp for r in records]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("records must be sorted by timestamp")
    if len({r.user_id for r in records}) > 1:
        raise ValueError("derive_visits expects records of a single user")
    travel_time = travel_time or TravelTimeModel()

    places: dict[tuple, tuple] = {}  # the Poi and the converted point of each place
    stops = []
    for r in records:
        key = (r.poi_id, r.lat, r.lon, r.category)
        if key not in places:
            places[key] = Poi(*key), place(r.lat, r.lon)
        stops.append(places[key])
    pois, points = zip(*stops)
    visits = []
    for poi, here, there, arrival, next_arrival in zip(pois, points, points[1:], times, times[1:]):
        departure = next_arrival - int(round(travel_time.seconds(arc_km(here, there))))
        visits.append(Visit(poi, arrival, max(departure, arrival)))

    stays = [v.stay for v in visits]
    median_stay = int(statistics.median(stays)) if stays else FALLBACK_STAY_SECONDS
    visits.append(Visit(pois[-1], times[-1], times[-1] + median_stay))
    return visits


def sessionize(visits: Sequence[Visit], user_id: str) -> list[Session]:
    """Greedy split: a new session starts when the next arrival falls
    outside ``SESSION_WINDOW_SECONDS`` of the current session's start."""
    sessions = []
    current: list[Visit] = []
    start = None
    for visit in visits:
        if start is None or visit.arrival > start + SESSION_WINDOW_SECONDS:
            if current:
                sessions.append(Session(user_id, tuple(current)))
            current = [visit]
            start = visit.arrival
        else:
            current.append(visit)
    if current:
        sessions.append(Session(user_id, tuple(current)))
    return sessions


def filter_users(sessions: Iterable[Session], min_checkins: int = DEFAULT_MIN_CHECKINS) -> list[Session]:
    """Drop every session of users with fewer than ``min_checkins`` visits."""
    if min_checkins < 0:
        raise ValueError("min_checkins must be >= 0")
    sessions = list(sessions)
    counts: dict[str, int] = defaultdict(int)
    for s in sessions:
        counts[s.user_id] += len(s)
    return [s for s in sessions if counts[s.user_id] >= min_checkins]


def build_sessions(
    records: Sequence[CheckinRecord],
    travel_time: TravelTimeModel | None = None,
    min_checkins: int = 0,
) -> list[Session]:
    """records -> visits -> sessions for every user, optionally filtered.

    Users are processed in sorted order, and each user's records by time
    with ties in input order, so the output ordering is a pure function of
    the input bytes.
    """
    records = sorted(records, key=attrgetter("user_id", "timestamp"))
    sessions: list[Session] = []
    for user_id, user_records in groupby(records, key=attrgetter("user_id")):
        # duplicate timestamps cannot form strictly increasing arrivals
        deduped = []
        for r in user_records:
            if deduped and r.timestamp <= deduped[-1].timestamp:
                continue
            deduped.append(r)
        visits = derive_visits(deduped, travel_time)
        sessions.extend(sessionize(visits, user_id))
    if min_checkins:
        sessions = filter_users(sessions, min_checkins)
    return sessions


def training_sessions(sessions: Iterable[Session]) -> list[Session]:
    """Sessions usable as model training units (length >= 2)."""
    return [s for s in sessions if len(s) >= 2]
