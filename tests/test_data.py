"""Parsing, visit derivation, sessionization, filtering, synthesis."""

import csv
import io
import json

import numpy as np
import pytest

from capseq.data import (
    CheckinRecord,
    DataError,
    Encodings,
    SocialGraph,
    TravelTimeModel,
    build_sessions,
    derive_visits,
    filter_users,
    parse_checkins,
    parse_friendships,
    sessionize,
    synth_dataset,
    training_sessions,
)
from capseq.data import io as dataio
from capseq.data.types import Poi, Session, Visit

HEADER = "userid,placeid,datetime,lat,lon,city,category\n"


def write_csv(path, rows):
    path.write_text(HEADER + "".join(rows), encoding="utf-8")


class TestParse:
    def test_iso_timestamp_row(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, ["u1,p1,2010-05-01T09:00:00Z,40.0,-74.0,nyc,Food:Coffee Shop\n"])
        result = parse_checkins(path)
        assert len(result.records) == 1
        assert result.dropped == 0
        rec = result.records[0]
        assert rec.timestamp == 1272704400
        assert rec.category == "Food:Coffee Shop"
        assert rec.city == "nyc"

    def test_empty_poi_dropped_and_counted(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(
            path,
            [
                "u1,,2010-05-01T09:00:00Z,40.0,-74.0,nyc,Food\n",
                "u1,p2,2010-05-01T10:00:00Z,40.0,-74.0,nyc,Food\n",
            ],
        )
        result = parse_checkins(path)
        assert len(result.records) == 1
        assert result.dropped == 1

    def test_malformed_rows_counted_by_independent_scan(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = []
        bad_positions = set(rng.choice(1000, size=10, replace=False).tolist())
        for i in range(1000):
            if i in bad_positions:
                rows.append(f"u{i%7},p{i%31},not-a-date,40.0,-74.0,,Food\n")
            else:
                ts = 1272704400 + i * 60
                rows.append(f"u{i%7},p{i%31},{ts},40.0,-74.0,,Food\n")
        path = tmp_path / "c.csv"
        write_csv(path, rows)
        # independent count of good lines
        good = sum(
            1 for i, line in enumerate(rows) if "not-a-date" not in line
        )
        result = parse_checkins(path)
        assert len(result.records) == good == 990
        assert result.dropped == 10

    def test_sorted_by_user_then_time(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(
            path,
            [
                "u2,p1,1272704400,40.0,-74.0,,Food\n",
                "u1,p2,1272708000,40.0,-74.0,,Food\n",
                "u1,p3,1272704400,40.0,-74.0,,Food\n",
            ],
        )
        result = parse_checkins(path)
        keys = [(r.user_id, r.timestamp) for r in result.records]
        assert keys == sorted(keys)

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(DataError):
            parse_checkins(tmp_path / "missing.csv")

    def test_mostly_garbage_fatal(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(
            path,
            ["u1,p1,nope,x,y,,Food\n"] * 6 + ["u1,p1,1272704400,40.0,-74.0,,Food\n"],
        )
        with pytest.raises(DataError, match="dropped"):
            parse_checkins(path)

    def test_out_of_range_coordinates_dropped(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(
            path,
            [
                "u1,p1,1272704400,95.0,-74.0,,Food\n",
                "u1,p2,1272704400,40.0,-74.0,,Food\n",
            ],
        )
        result = parse_checkins(path)
        assert result.dropped == 1

    def test_gowalla_columns_map_to_canonical(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(
            "user,spotid,checkin_time,latitude,longitude,spot_categories\n"
            "u1,s9,2010-05-01T09:00:00Z,40.0,-74.0,Coffee Shop\n",
            encoding="utf-8",
        )
        result = parse_checkins(path, fmt="gowalla")
        rec = result.records[0]
        assert rec.poi_id == "s9"
        assert rec.category == "Coffee Shop"
        assert rec.city is None

    def test_friendship_graph_symmetric_no_self_loops(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("userid1,userid2\nu1,u2\nu2,u1\nu3,u3\n", encoding="utf-8")
        result = parse_friendships(path)
        assert result.dropped == 0
        graph = SocialGraph(result.records)
        assert graph.friends("u1") == {"u2"}
        assert graph.friends("u2") == {"u1"}
        assert graph.friends("u3") == frozenset()
        assert graph.n_edges() == 1

    def test_friendship_rows_without_two_fields_dropped_and_counted(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("userid1,userid2\nu1,u2\nu3\n\nu4, \n,u5\n", encoding="utf-8")
        result = parse_friendships(path)
        assert result.records == [("u1", "u2")]
        assert result.dropped == 3


def rec(user, poi, ts, lat=40.0, lon=-74.0, cat="Food"):
    return CheckinRecord(user, poi, ts, lat, lon, cat)


class TestDeriveVisits:
    def test_departure_subtracts_travel_time(self):
        # two POIs 1 km apart, arrivals 09:00 and 10:00; walking 1 km
        # takes 12 min, so the first stay is 48 min
        lat2 = 40.0 + 1.0 / 111.19
        records = [
            rec("u", "a", 9 * 3600),
            rec("u", "b", 10 * 3600, lat=lat2),
        ]
        visits = derive_visits(records)
        assert visits[0].stay == pytest.approx(48 * 60, abs=2)

    def test_single_visit_gets_fallback_stay(self):
        visits = derive_visits([rec("u", "a", 9 * 3600)])
        assert visits[0].stay == 30 * 60

    def test_tight_gap_clamps_to_zero(self):
        lat2 = 40.0 + 1.0 / 111.19
        records = [
            rec("u", "a", 9 * 3600),
            rec("u", "b", 9 * 3600 + 60, lat=lat2),
        ]
        visits = derive_visits(records)
        assert visits[0].stay == 0

    def test_last_visit_uses_median_observed_stay(self):
        records = [
            rec("u", "a", 0 * 3600 + 1),
            rec("u", "a", 1 * 3600),   # stay 1h (same place, no travel)
            rec("u", "a", 4 * 3600),   # stay 3h
            rec("u", "b", 5 * 3600),
        ]
        visits = derive_visits(records)
        stays = [v.stay for v in visits[:-1]]
        import statistics

        assert visits[-1].stay == int(statistics.median(stays))

    def test_rejects_unsorted_and_mixed_users(self):
        with pytest.raises(ValueError):
            derive_visits([rec("u", "a", 100), rec("u", "b", 50)])
        with pytest.raises(ValueError):
            derive_visits([rec("u", "a", 100), rec("w", "b", 200)])


class TestSessionize:
    def visits_at_hours(self, hours):
        return [
            Visit(Poi("p", 40.0, -74.0, "Food"), h * 3600, h * 3600 + 600)
            for h in hours
        ]

    def test_greedy_eight_hour_split(self):
        sessions = sessionize(self.visits_at_hours([9, 10, 12, 18]), "u")
        assert [[v.arrival // 3600 for v in s.visits] for s in sessions] == [
            [9, 10, 12],
            [18],
        ]

    def test_empty_input(self):
        assert sessionize([], "u") == []

    def test_single_window(self):
        sessions = sessionize(self.visits_at_hours([9, 9.25, 9.5]), "u")
        assert len(sessions) == 1

    def test_partition_property_random(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            arrivals = np.cumsum(rng.integers(300, 6 * 3600, size=30))
            visits = [
                Visit(Poi("p", 40.0, -74.0, "Food"), int(a), int(a) + 60)
                for a in arrivals
            ]
            sessions = sessionize(visits, "u")
            flattened = [v for s in sessions for v in s.visits]
            assert flattened == visits
            for s in sessions:
                assert s.visits[-1].arrival - s.visits[0].arrival <= 8 * 3600

    def test_singleton_flagged(self):
        sessions = sessionize(self.visits_at_hours([9, 20]), "u")
        assert all(len(s.visits) == 1 for s in sessions)
        assert training_sessions(sessions) == []


class TestFilterUsers:
    def make(self, user, n):
        visits = tuple(
            Visit(Poi("p", 40.0, -74.0, "Food"), i * 3600 + 1, i * 3600 + 61)
            for i in range(n)
        )
        return sessionize(list(visits), user)

    def test_user_below_threshold_removed(self):
        sessions = self.make("u24", 24) + self.make("u25", 25)
        kept = filter_users(sessions, 25)
        assert {s.user_id for s in kept} == {"u25"}

    def test_zero_threshold_is_identity(self):
        sessions = self.make("a", 3) + self.make("b", 1)
        assert filter_users(sessions, 0) == sessions

    def test_population_counts_via_independent_pass(self):
        rng = np.random.default_rng(9)
        sessions = []
        expected_kept = set()
        for i in range(100):
            n = int(rng.integers(1, 50))
            user = f"u{i:03d}"
            sessions.extend(self.make(user, n))
            if n >= 25:
                expected_kept.add(user)
        kept = filter_users(sessions, 25)
        assert {s.user_id for s in kept} == expected_kept


class TestEncodings:
    def test_round_trip(self, tiny_world):
        sessions, _, encodings = tiny_world
        for poi_id in encodings.poi_to_ix:
            assert encodings.ix_to_poi[encodings.poi(poi_id)] == poi_id
        for user_id in encodings.user_to_ix:
            assert encodings.ix_to_user[encodings.user(user_id)] == user_id
        restored = Encodings.from_dict(
            json.loads(json.dumps(encodings.to_dict()))
        )
        assert restored == encodings

    def test_fit_catalogues_every_poi_at_its_first_visit(self, tiny_world):
        sessions, _, encodings = tiny_world
        first = {}
        for s in sessions:
            for v in s.visits:
                first.setdefault(v.poi.poi_id, v.poi)
        assert encodings.pois() == [first[encodings.ix_to_poi[l]]
                                    for l in range(encodings.n_pois)]
        assert encodings.poi_coords.shape == (encodings.n_pois, 2)
        assert encodings.poi_cat.dtype == np.int64

    def test_catalogue_survives_save_and_load(self, tmp_path):
        records, graph = synth_dataset(seed=7, n_users=6, n_pois=40, days=5)
        sessions = build_sessions(records)
        encodings = Encodings.fit(sessions)
        dataio.save_dataset(tmp_path, sessions, encodings, graph)
        _, loaded, _ = dataio.load_dataset(tmp_path)
        np.testing.assert_array_equal(loaded.poi_coords, encodings.poi_coords)
        np.testing.assert_array_equal(loaded.poi_cat, encodings.poi_cat)
        assert loaded.pois() == encodings.pois()

    @pytest.mark.parametrize("case", ["short", "nan", "category-past-end", "float-category"])
    def test_rejects_a_bad_catalogue(self, tiny_world, case):
        _, _, encodings = tiny_world
        coords, cats = encodings.poi_coords.copy(), encodings.poi_cat.tolist()
        if case == "short":
            coords = coords[:-1]
        elif case == "nan":
            coords[1, 0] = np.nan
        elif case == "category-past-end":
            cats[0] = encodings.n_categories
        else:
            cats[0] = 0.5
        with pytest.raises(DataError):
            encodings.with_catalogue(coords, cats)

    def test_closed_world(self, tiny_world):
        _, _, encodings = tiny_world
        with pytest.raises(KeyError):
            encodings.poi("nope")


class TestSynth:
    def test_same_seed_identical_bytes(self, tmp_path):
        out = []
        for run in range(2):
            records, graph = synth_dataset(seed=11, n_users=4, n_pois=30, days=3)
            a = tmp_path / f"c{run}.csv"
            dataio.write_checkins_csv(a, records)
            b = tmp_path / f"f{run}.csv"
            dataio.write_friendships_csv(b, graph)
            out.append((a.read_bytes(), b.read_bytes()))
        assert out[0] == out[1]

    def test_every_user_has_session_per_day(self):
        records, _ = synth_dataset(seed=3, n_users=5, n_pois=30, days=10)
        sessions = build_sessions(records)
        per_user = {}
        for s in sessions:
            per_user[s.user_id] = per_user.get(s.user_id, 0) + 1
        assert len(per_user) == 5
        assert all(n >= 10 for n in per_user.values())

    def test_poi_ids_within_range(self):
        records, _ = synth_dataset(seed=3, n_users=3, n_pois=20, days=2)
        ids = {int(r.poi_id[1:]) for r in records}
        assert all(0 <= i < 20 for i in ids)

    def test_rejects_degenerate_counts(self):
        with pytest.raises(ValueError):
            synth_dataset(seed=1, n_users=0)


class TestPipelineDeterminism:
    def test_parse_derive_sessionize_deterministic(self, tmp_path):
        records, graph = synth_dataset(seed=5, n_users=4, n_pois=25, days=3)
        csv_path = tmp_path / "c.csv"
        dataio.write_checkins_csv(csv_path, records)
        outputs = []
        for run in range(2):
            parsed = parse_checkins(csv_path)
            sessions = build_sessions(parsed.records, min_checkins=10)
            enc = Encodings.fit(sessions)
            out = tmp_path / f"ds{run}"
            dataio.save_dataset(out, sessions, enc, graph)
            outputs.append(
                tuple(
                    (p.name, p.read_bytes()) for p in sorted(out.iterdir())
                )
            )
        assert outputs[0] == outputs[1]

    def test_dataset_round_trip(self, tmp_path, tiny_world):
        sessions, graph, encodings = tiny_world
        out = tmp_path / "ds"
        dataio.save_dataset(out, sessions, encodings, graph)
        loaded_sessions, loaded_enc, loaded_graph = dataio.load_dataset(out)
        assert loaded_enc == encodings
        assert loaded_graph.to_dict() == graph.to_dict()
        assert len(loaded_sessions) == len(sessions)
        for a, b in zip(loaded_sessions, sessions):
            assert a.user_id == b.user_id
            assert [v.poi.poi_id for v in a.visits] == [v.poi.poi_id for v in b.visits]
            assert [v.arrival for v in a.visits] == [v.arrival for v in b.visits]
            assert [v.stay for v in a.visits] == [v.stay for v in b.visits]


class TestTravelTimeModel:
    def test_deterministic_default_is_walking_speed(self):
        a = Poi("a", 40.0, -74.0, "Food")
        b = Poi("b", 40.0 + 1.0 / 111.19, -74.0, "Food")
        tt = TravelTimeModel()
        assert tt.seconds(a, b) == pytest.approx(720, abs=2)  # 1 km at 5 km/h

    def test_lognormal_mode_fits_and_predicts(self):
        records, _ = synth_dataset(seed=2, n_users=3, n_pois=20, days=3)
        model = TravelTimeModel("lognormal").fit(records)
        assert model.log_mu is not None
        a = Poi("a", 40.0, -74.0, "Food")
        b = Poi("b", 40.0 + 2.0 / 111.19, -74.0, "Food")
        one_km = Poi("c", 40.0 + 1.0 / 111.19, -74.0, "Food")
        # farther target -> at least as much predicted travel time
        assert model.seconds(a, b) >= model.seconds(a, one_km)
