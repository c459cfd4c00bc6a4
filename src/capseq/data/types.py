"""Core domain types: check-ins, visits, sessions, encodings, friendship graph."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping

import numpy as np


class DataError(ValueError):
    """Raised when input data violates a structural requirement."""


class UnknownIdError(KeyError):
    """Raised for a POI, category or user id, or a POI index, that the
    encodings do not hold: they are closed-world."""


# 9999-12-31T23:59:59Z, the last second an ISO-8601 check-in time can name
MAX_TIMESTAMP = 253402300799


@dataclass(frozen=True)
class CheckinRecord:
    """A single timestamped, geolocated, categorized check-in.

    ``category`` is hierarchical, ':'-separated (e.g. "Food:Coffee Shop").
    ``timestamp`` is UTC seconds since the epoch, at most ``MAX_TIMESTAMP``.
    """

    user_id: str
    poi_id: str
    timestamp: int
    lat: float
    lon: float
    category: str
    city: str | None = None

    def __post_init__(self):
        check_checkin(self.user_id, self.poi_id, self.timestamp, self.lat, self.lon,
                      self.category)


def check_checkin(user_id, poi_id, timestamp, lat, lon, category, city=None) -> None:
    """``DataError`` unless the fields, in ``CheckinRecord`` order, make a
    valid check-in."""
    if not user_id or not poi_id or not category:
        raise DataError("user_id, poi_id and category must be non-empty")
    if not 0 < timestamp <= MAX_TIMESTAMP:
        raise DataError(f"timestamp must be in 1..{MAX_TIMESTAMP}, got {timestamp}")
    if not -90.0 <= lat <= 90.0:
        raise DataError(f"latitude out of range: {lat}")
    if not -180.0 <= lon <= 180.0:
        raise DataError(f"longitude out of range: {lon}")


CHECKIN_FIELDS = ("user_id", "poi_id", "timestamp", "lat", "lon", "category", "city")


@dataclass(frozen=True)
class Checkins:
    """Check-ins as columns, in ``CheckinRecord`` field order, sorted by
    user id and then time with ties in input order."""

    users: list
    pois: list
    times: list
    lats: list
    lons: list
    categories: list
    cities: list

    @classmethod
    def of(cls, records: Iterable[CheckinRecord]) -> "Checkins":
        """The check-ins ``records``, in any order, as sorted columns."""
        if isinstance(records, cls):
            return records
        return cls.from_rows(map(attrgetter(*CHECKIN_FIELDS), records))

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "Checkins":
        """Sorted columns of valid check-ins given as field tuples."""
        rows = sorted(rows, key=itemgetter(0, 2))
        return cls(*map(list, zip(*rows))) if rows else cls(*([] for _ in CHECKIN_FIELDS))


@dataclass(frozen=True)
class Poi:
    """Identity and static attributes of a point of interest."""

    poi_id: str
    lat: float
    lon: float
    category: str


@dataclass(frozen=True)
class Visit:
    """A stay at a POI with derived arrival/departure bounds."""

    poi: Poi
    arrival: int
    departure: int

    def __post_init__(self):
        if self.departure < self.arrival:
            raise DataError(
                f"departure {self.departure} precedes arrival {self.arrival}"
            )

    @property
    def stay(self) -> int:
        """Stay duration in seconds."""
        return self.departure - self.arrival

    @property
    def hour(self) -> int:
        """Arrival hour of day, UTC, 0..23."""
        return (self.arrival // 3600) % 24


@dataclass(frozen=True)
class Session:
    """One user's consecutive visits within the session window.

    Training sessions require length >= 2; singletons are kept for
    feature statistics only.
    """

    user_id: str
    visits: tuple[Visit, ...]

    def __post_init__(self):
        if not self.visits:
            raise DataError("session must contain at least one visit")
        arrivals = [v.arrival for v in self.visits]
        if any(b <= a for a, b in zip(arrivals, arrivals[1:])):
            raise DataError("visit arrivals must be strictly increasing")

    def __len__(self) -> int:
        return len(self.visits)


def _lookup(to_ix: dict, label, what: str) -> int:
    try:
        return to_ix[label]
    except KeyError:
        raise UnknownIdError(f"unknown {what} {label!r}: encodings are closed-world")


class Encodings:
    """Bijective label encodings for POIs, categories and users, and the
    POI catalogue: ``poi_coords`` (n_pois, 2) lat, lon and ``poi_cat``
    (n_pois,) category indices.

    Dense indices run 0..n-1 in first-seen order of the fit input, so a
    round trip through ``save``/``load`` is stable. ``to_dict`` holds the
    label maps only: ``from_dict`` gives encodings without a catalogue.
    """

    def __init__(self, poi_to_ix: dict, cat_to_ix: dict, user_to_ix: dict,
                 poi_coords=None, poi_cat=None):
        self.poi_to_ix = dict(poi_to_ix)
        self.cat_to_ix = dict(cat_to_ix)
        self.user_to_ix = dict(user_to_ix)
        self.ix_to_poi = {v: k for k, v in self.poi_to_ix.items()}
        self.ix_to_cat = {v: k for k, v in self.cat_to_ix.items()}
        self.ix_to_user = {v: k for k, v in self.user_to_ix.items()}
        for what, to_ix, ix_to in (("poi", self.poi_to_ix, self.ix_to_poi),
                                   ("category", self.cat_to_ix, self.ix_to_cat),
                                   ("user", self.user_to_ix, self.ix_to_user)):
            # n labels onto the indices 0..n-1, each once; an index written
            # as a bool or a float (True, 1.0) is refused, though it hashes as 1
            n = len(to_ix)
            if len(ix_to) != n or any(type(ix) is not int or not 0 <= ix < n for ix in ix_to):
                raise DataError(f"{what} encoding: the indices are not the integers 0..{n - 1}")
        self.poi_coords = self.poi_cat = None
        if poi_coords is not None:
            if any(isinstance(c, (bool, np.bool_)) for c in poi_cat):  # asarray reads True as 1
                raise DataError("poi_cat: holds a value that is not an index")
            # a float array reads true as 1.0 and "40.7" as 40.7
            if any(isinstance(c, bool) or not isinstance(c, (int, float, np.number))
                   for c in np.asarray(poi_coords, dtype=object).ravel().tolist()):
                raise DataError("poi_coords: holds a value that is not a number")
            coords, cats = np.array(poi_coords, dtype=float), np.asarray(poi_cat)
            n, n_cats = self.n_pois, self.n_categories
            if coords.shape != (n, 2) or cats.shape != (n,):
                raise DataError(f"POI catalogue of shapes {coords.shape} and "
                                f"{cats.shape} for {n} POIs")
            if not (np.abs(coords) <= [90.0, 180.0]).all():  # NaN fails too
                raise DataError("poi_coords: holds a value that is not a finite number "
                                "in [-90, 90] (lat) or [-180, 180] (lon)")
            if n and (cats.dtype.kind != "i" or not 0 <= cats.min() <= cats.max() < n_cats):
                raise DataError(f"poi_cat: holds a value that is not an index below {n_cats}")
            self.poi_coords, self.poi_cat = coords, cats.astype(np.int64)

    def with_catalogue(self, poi_coords, poi_cat) -> "Encodings":
        """These label maps with the catalogue ``poi_coords``, ``poi_cat``."""
        return Encodings(self.poi_to_ix, self.cat_to_ix, self.user_to_ix,
                         poi_coords, poi_cat)

    @classmethod
    def fit(cls, sessions: Iterable[Session]) -> "Encodings":
        """Encodings of every POI, category and user in ``sessions``, first
        seen first; a POI's catalogue entry is its first visit's. A
        ``SessionTable``'s encodings are its own."""
        if isinstance(sessions, SessionTable):
            return sessions.encodings
        sessions, places = list(sessions), {}
        for visit in (v for session in sessions for v in session.visits):
            places.setdefault((visit.poi.poi_id, visit.poi.category), visit.poi)
        return cls.of_places(dict.fromkeys(s.user_id for s in sessions), places.values())[0]

    @classmethod
    def of_places(cls, users: Iterable[str], places: Iterable[Poi]) -> tuple:
        """The encodings of the user ids ``users``, in order, and of the
        POIs and categories of ``places``: ``Poi``s of some visits in
        first-visit order, at least the first of each (POI, category); and
        each place's POI index."""
        pois, cats, coords, poi_cat, place_poi = {}, {}, [], [], []
        for poi in places:
            cats.setdefault(poi.category, len(cats))
            if poi.poi_id not in pois:
                pois[poi.poi_id] = len(pois)
                coords.append((poi.lat, poi.lon))
                poi_cat.append(cats[poi.category])
            place_poi.append(pois[poi.poi_id])
        encodings = cls(pois, cats, {u: i for i, u in enumerate(users)},
                        np.reshape(coords, (-1, 2)), poi_cat)
        return encodings, place_poi

    def pois(self) -> list:
        """The catalogue as one ``Poi`` per encoded index."""
        rows = enumerate(zip(self.poi_coords.tolist(), self.poi_cat.tolist()))
        return [Poi(self.ix_to_poi[l], *where, self.ix_to_cat[c]) for l, (where, c) in rows]

    @property
    def n_pois(self) -> int:
        return len(self.poi_to_ix)

    @property
    def n_categories(self) -> int:
        return len(self.cat_to_ix)

    @property
    def n_users(self) -> int:
        return len(self.user_to_ix)

    def poi(self, poi_id: str) -> int:
        return _lookup(self.poi_to_ix, poi_id, "POI id")

    def category(self, cat: str) -> int:
        return _lookup(self.cat_to_ix, cat, "category")

    def user(self, user_id: str) -> int:
        return _lookup(self.user_to_ix, user_id, "user id")

    def to_dict(self) -> dict:
        return {
            "pois": self.poi_to_ix,
            "categories": self.cat_to_ix,
            "users": self.user_to_ix,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Encodings":
        return cls(d["pois"], d["categories"], d["users"])


class SessionTable(Sequence):
    """Sessions as columns: the five int64 arrays of ``visit_arrays`` under
    their ``encodings``, and each visit's place, an index into ``places``
    (``Poi``s); a read-only sequence of ``Session``s, made once, on the
    first element access."""

    def __init__(self, columns: tuple, encodings: Encodings, places: list, place_ix):
        for column in (*columns, place_ix):
            column.flags.writeable = False
        self.columns, self.encodings = tuple(columns), encodings
        self.places, self.place_ix = places, place_ix

    @classmethod
    def of(cls, sessions: Iterable[Session], encodings: Encodings) -> "SessionTable":
        """A table under ``encodings`` as it is; other ``Session``s encoded
        once by ``visit_arrays``, each visit at its own ``Poi``."""
        if isinstance(sessions, cls) and sessions.encodings is encodings:
            return sessions
        sessions = list(sessions)
        for s in sessions:
            if not isinstance(s, Session):
                raise TypeError(f"expected Session, got {type(s).__name__}")
        places = [v.poi for s in sessions for v in s.visits]
        return cls(visit_arrays(sessions, encodings), encodings, places, np.arange(len(places)))

    def select(self, keep) -> "SessionTable":
        """The sessions where the boolean mask ``keep`` is true, in order."""
        visits = np.repeat(keep, self.columns[4])
        return SessionTable((*(c[visits] for c in self.columns[:4]), self.columns[4][keep]),
                            self.encodings, self.places, self.place_ix[visits])

    def __len__(self) -> int:
        return len(self.columns[4])

    def __getitem__(self, i):
        return self._objects[i]

    def __iter__(self):
        return iter(self._objects)

    @cached_property
    def _objects(self) -> list:
        users, _, arrivals, departures, lengths = self.columns
        visits = [Visit(self.places[k], a, d) for k, a, d in zip(
            self.place_ix.tolist(), arrivals.tolist(), departures.tolist())]
        ends = np.cumsum(lengths)
        names = self.encodings.ix_to_user
        return [Session(names[u], tuple(visits[b - n:b]))
                for u, n, b in zip(users[ends - lengths].tolist(), lengths.tolist(), ends.tolist())]


def visit_arrays(sessions: Iterable[Session], encodings: Encodings) -> tuple:
    """The encoded user, POI, arrival and departure of every visit, in
    session order, and the number of visits of each session, as five
    int64 arrays: the one pass that encodes sessions. A ``SessionTable``
    under its own ``encodings`` returns its columns."""
    if isinstance(sessions, SessionTable) and encodings is sessions.encodings:
        return sessions.columns
    users, pois, arrivals, departures, lengths = [], [], [], [], []
    poi_ix = encodings.poi_to_ix
    for session in sessions:
        u = encodings.user(session.user_id)
        lengths.append(len(session.visits))
        for visit in session.visits:
            poi_id = visit.poi.poi_id
            users.append(u)
            # an unknown id raises the closed-world UnknownIdError of Encodings.poi
            pois.append(poi_ix[poi_id] if poi_id in poi_ix else encodings.poi(poi_id))
            arrivals.append(visit.arrival)
            departures.append(visit.departure)
    return tuple(np.array(x, dtype=np.int64)
                 for x in (users, pois, arrivals, departures, lengths))


class SocialGraph:
    """Undirected friendship graph; edges are symmetric, no self-loops."""

    def __init__(self, edges: Iterable[tuple[str, str]] = ()):
        adj: dict[str, set] = {}
        for a, b in edges:
            if a == b:
                continue
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        self._adj = {u: frozenset(v) for u, v in adj.items()}

    def friends(self, user_id: str) -> frozenset:
        return self._adj.get(user_id, frozenset())

    def n_edges(self) -> int:
        return sum(len(v) for v in self._adj.values()) // 2

    def to_dict(self) -> dict:
        return {u: sorted(v) for u, v in sorted(self._adj.items())}

    @classmethod
    def from_dict(cls, d: Mapping) -> "SocialGraph":
        edges = [(u, f) for u, fs in d.items() for f in fs]
        return cls(edges)
