import pytest

from capseq.data.types import Encodings, Poi, Session, SocialGraph, Visit

HOUR = 3600
DAY = 86400
# arbitrary base so arrival hours are easy to control: BASE + h*3600 -> hour h
BASE = 1330905600  # midnight UTC


def make_visit(poi_id, lat, lon, cat, hour, stay_minutes=30, day=0):
    arrival = BASE + day * DAY + int(hour * HOUR)
    return Visit(Poi(poi_id, lat, lon, cat), arrival, arrival + stay_minutes * 60)


def km_north(lat, km):
    return lat + km / 111.19


@pytest.fixture
def poi_lookups(monkeypatch):
    """``count(encodings)``: the list, from then on, of the POI ids read
    from the POI index of ``encodings``, in order. ``SessionTable.of`` reads
    the index directly and ``Encodings.poi`` through it, so the list holds
    one id per encoded visit."""
    def count(encodings) -> list:
        calls = []

        class Counted(dict):
            def __getitem__(self, poi_id):
                calls.append(poi_id)
                return super().__getitem__(poi_id)

        monkeypatch.setattr(encodings, "poi_to_ix", Counted(encodings.poi_to_ix))
        return calls
    return count


@pytest.fixture
def tiny_world():
    """Three users on a short line of POIs, one friendship edge.

    p0(Food) - p1(Food) - p2(Bar) - p3(Park), spaced 1 km apart.
    """
    lat0, lon = 40.0, -74.0
    pois = {
        "p0": ("p0", lat0, lon, "Food"),
        "p1": ("p1", km_north(lat0, 1), lon, "Food"),
        "p2": ("p2", km_north(lat0, 2), lon, "Bar"),
        "p3": ("p3", km_north(lat0, 3), lon, "Park"),
    }

    def v(pid, hour, stay=30, day=0):
        return make_visit(*pois[pid], hour, stay_minutes=stay, day=day)

    sessions = [
        Session("u0", (v("p0", 9), v("p1", 10), v("p2", 11))),
        Session("u0", (v("p0", 9, day=1), v("p1", 10, day=1), v("p3", 12, day=1))),
        Session("u1", (v("p1", 9, stay=60), v("p2", 10, stay=45))),
        Session("u1", (v("p3", 18, day=1), v("p2", 20, day=1))),
        Session("u2", (v("p0", 13, stay=20), v("p3", 14))),
    ]
    graph = SocialGraph([("u0", "u1")])
    encodings = Encodings.fit(sessions)
    return sessions, graph, encodings


@pytest.fixture(scope="session")
def synth_small():
    """Small synthetic corpus shared by slower tests."""
    from capseq.data import Encodings, build_sessions, synth_dataset

    records, graph = synth_dataset(seed=7, n_users=6, n_pois=40, days=5)
    sessions = build_sessions(records)
    encodings = Encodings.fit(sessions)
    return sessions, graph, encodings


@pytest.fixture(scope="session")
def synth_tables(synth_small):
    from capseq.features import FeatureTables

    sessions, graph, encodings = synth_small
    return FeatureTables.build(sessions, graph, encodings)
