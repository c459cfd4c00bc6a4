"""Core domain types: check-ins, visits, sessions, encodings, friendship graph."""

from __future__ import annotations

from dataclasses import dataclass
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
        if not self.user_id or not self.poi_id or not self.category:
            raise DataError("user_id, poi_id and category must be non-empty")
        if not 0 < self.timestamp <= MAX_TIMESTAMP:
            raise DataError(f"timestamp must be in 1..{MAX_TIMESTAMP}, got {self.timestamp}")
        if not -90.0 <= self.lat <= 90.0:
            raise DataError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise DataError(f"longitude out of range: {self.lon}")


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
        """Encodings of every POI, category and user in ``sessions``; a
        POI's catalogue entry is its first visit's."""
        pois, cats, users, coords, poi_cat = {}, {}, {}, [], []
        for session in sessions:
            users.setdefault(session.user_id, len(users))
            for visit in session.visits:
                poi = visit.poi
                cats.setdefault(poi.category, len(cats))
                if poi.poi_id not in pois:
                    pois[poi.poi_id] = len(pois)
                    coords.append((poi.lat, poi.lon))
                    poi_cat.append(cats[poi.category])
        return cls(pois, cats, users, np.reshape(coords, (-1, 2)), poi_cat)

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


def visit_arrays(sessions: Iterable[Session], encodings: Encodings) -> tuple:
    """The encoded user, POI, arrival and departure of every visit, in
    session order, and the number of visits of each session, as five
    int64 arrays: the one pass that encodes sessions."""
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
