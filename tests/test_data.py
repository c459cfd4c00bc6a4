"""Parsing, visit derivation, sessionization, filtering, synthesis."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

import scalar_reference as ref
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
    visit_arrays,
)
from capseq.data import io as dataio
from capseq.data.types import MAX_TIMESTAMP, Poi, Session, Visit
from capseq.geo import arc_km, haversine_km, place

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


class TestParseRules:
    """Which cell of a row each field reads, and which rows drop."""

    def parse(self, tmp_path, text, fmt="weeplaces"):
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        result = parse_checkins(path, fmt)
        return [(r.user_id, r.poi_id, r.timestamp, r.lat, r.lon, r.category, r.city)
                for r in result.records], result.dropped

    def test_duplicate_header_names_read_the_last_cell_the_row_has(self, tmp_path):
        text = ("userid,placeid,datetime,lat,lon,city,category,lat\n"
                "u1,p1,100,10.0,20.0,c,Food,30.0\n"  # full: the second lat
                "u2,p2,200,11.0,21.0,c,Food\n"  # short: only the first lat
                "u3,p3,300,12.0,22.0,c,Food,x\n")  # the second lat is garbage
        assert self.parse(tmp_path, text) == ([
            ("u1", "p1", 100, 30.0, 20.0, "Food", "c"),
            ("u2", "p2", 200, 11.0, 21.0, "Food", "c")], 1)

    def test_header_names_are_stripped_and_lowercased(self, tmp_path):
        text = (" UserID ,PlaceID,DateTime,LAT, lon ,City,Category\n"
                "u1,p1,100,10.0,20.0,c,Food\n")
        assert self.parse(tmp_path, text) == ([("u1", "p1", 100, 10.0, 20.0, "Food", "c")], 0)

    def test_empty_header_cells_are_skipped(self, tmp_path):
        text = ("userid,,placeid,datetime, ,lat,lon,category\n"
                "u1,junk,p1,100,more junk,10.0,20.0,Food\n"
                "u2,,p2,200,,11.0,21.0,Food\n")
        assert self.parse(tmp_path, text) == ([
            ("u1", "p1", 100, 10.0, 20.0, "Food", None),
            ("u2", "p2", 200, 11.0, 21.0, "Food", None)], 0)

    def test_short_rows(self, tmp_path):
        """A row without a mandatory field drops; one without only the
        city keeps it as ``None``, like an empty city; extra cells are
        ignored."""
        text = ("userid,placeid,datetime,lat,lon,category,city\n"
                "u1,p1,100,10.0,20.0,Food,c\n"
                "u2,p2,200,11.0,21.0,Food\n"
                "u3,p3,300,12.0,22.0,Food,\n"
                "u4,p4,400,13.0,23.0\n"
                "u5,p5,500\n"
                "u6\n"
                "u7,p7,700,17.0,27.0,Food,c,extra,cells\n"
                "u8,p8,800,18.0,28.0,Food,c\n")
        assert self.parse(tmp_path, text) == ([
            ("u1", "p1", 100, 10.0, 20.0, "Food", "c"),
            ("u2", "p2", 200, 11.0, 21.0, "Food", None),
            ("u3", "p3", 300, 12.0, 22.0, "Food", None),
            ("u7", "p7", 700, 17.0, 27.0, "Food", "c"),
            ("u8", "p8", 800, 18.0, 28.0, "Food", "c")], 3)

    def test_cells_are_stripped(self, tmp_path):
        # float() alone would not strip the separators U+001C..U+001F
        text = HEADER + " u1 ,\tp1\t, 100 ,\x1c10.5\x1f,\u00a020.5\u2003, nyc ,\u3000Food:Bar \n"
        assert self.parse(tmp_path, text) == ([("u1", "p1", 100, 10.5, 20.5, "Food:Bar", "nyc")], 0)

    def test_cells_of_whitespace_only_drop_or_give_no_city(self, tmp_path):
        rows = [" ,p1,100,10.0,20.0,c,Food\n", "u2, ,200,10.0,20.0,c,Food\n",
                "u3,p3, ,10.0,20.0,c,Food\n", "u4,p4,400, ,20.0,c,Food\n",
                "u5,p5,500,10.0,20.0,c, \n"]
        good = ["u6,p6,600,10.0,20.0, ,Food\n"] * 6
        assert self.parse(tmp_path, HEADER + "".join(rows + good)) == (
            [("u6", "p6", 600, 10.0, 20.0, "Food", None)] * 6, 5)

    def test_gowalla_prefers_earlier_candidates(self, tmp_path):
        text = ("spot_categories,longitude,lon,lng,latitude,lat,checkin_time,datetime,"
                "spotid,placeid,user,userid\n"
                "Bar,1.0,2.0,3.0,4.0,5.0,600,700,s,p,u,uid\n")
        assert self.parse(tmp_path, text, "gowalla") == (
            [("uid", "p", 700, 5.0, 3.0, "Bar", None)], 0)

    def test_gowalla_falls_back_to_later_candidates(self, tmp_path):
        text = "user,spotid,checkin_time,latitude,longitude,spot_categories,city\nu,s,600,4.0,1.0,Bar,x\n"
        assert self.parse(tmp_path, text, "gowalla") == ([("u", "s", 600, 4.0, 1.0, "Bar", "x")], 0)

    def test_order_is_user_then_time_and_stable(self, tmp_path):
        rows = ["b,p1,300,1.0,1.0,,F\n", "a,p2,200,1.0,1.0,,F\n", "b,p3,100,1.0,1.0,,F\n",
                "a,p4,200,1.0,1.0,,G\n", "a,p5,100,1.0,1.0,,F\n"]
        got, _ = self.parse(tmp_path, HEADER + "".join(rows))
        assert [(r[0], r[1]) for r in got] == [
            ("a", "p5"), ("a", "p2"), ("a", "p4"), ("b", "p3"), ("b", "p1")]


class TestTimes:
    # a datetime cell -> its epoch second, or None where the row drops; one
    # grammar on every Python, though fromisoformat takes more from 3.11 on
    CELLS = {
        "1272704400": 1272704400,
        " 1272704400 ": 1272704400,
        "0": None,
        "253402300799": 253402300799,  # 9999-12-31T23:59:59Z
        "253402300800": None,
        "99999999999999999999": None,
        "2010-05-01T09:00:00Z": 1272704400,
        "2010-05-01 09:00:00": 1272704400,
        "2010-05-01T09:00:00": 1272704400,
        "2010-05-01T09:00:00+02:00": 1272697200,
        "2010-05-01T09:00:00.123Z": 1272704400,
        "2010-05-01T09:00:00.999999-00:30": 1272706200,
        "2010-05-01T09:00:00+05:30:15": 1272684585,
        "2010-05-01T09:00Z": 1272704400,
        "2010-05-01T09": 1272704400,
        "2010-05-01": 1272672000,
        "2010-05-01Z": 1272672000,
        "9999-12-31T23:59:59Z": 253402300799,
        "9999-12-31T23:59:59-01:00": None,  # an hour past the last second
        "1970-01-01T00:00:00Z": None,  # not a positive time
        "2010-05-01T09:00:00.5Z": None,  # read from 3.11 on only
        "20100501T090000Z": None,
        "2010-05-01T09:00:00,123Z": None,
        "2010-W17-6T09:00:00Z": None,
        "2010-121": None,
        "2010-05-01T09:00:00+0200": None,
        "2010-05-01T09.123": None,
        "2010-05-01T24:00:00": None,
        "2010-02-30T09:00:00": None,
        "\u0662\u0660\u0661\u0660-05-01": None,  # digits, but not ASCII ones
        "not-a-date": None,
        "": None,
    }

    def test_each_cell_gives_its_time_or_drops(self, tmp_path):
        path = tmp_path / "c.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADER.strip().split(","))
            for i, cell in enumerate(self.CELLS):
                writer.writerow([f"u{i}", "p", cell, 40.0, -74.0, "", "Food"])
            for i in range(len(self.CELLS)):  # keeps the drops under half
                writer.writerow(["pad", "p", 1272704400 + i, 40.0, -74.0, "", "Food"])
        result = parse_checkins(path)
        got = {r.user_id: r.timestamp for r in result.records}
        assert {cell: got.get(f"u{i}") for i, cell in enumerate(self.CELLS)} == self.CELLS
        assert result.dropped == sum(t is None for t in self.CELLS.values())

    def test_record_times_run_from_1_to_the_end_of_year_9999(self):
        for ts in (1, MAX_TIMESTAMP):
            assert rec("u", "p", ts).timestamp == ts
        for ts in (0, -1, MAX_TIMESTAMP + 1, 2**63):
            with pytest.raises(DataError, match="timestamp"):
                rec("u", "p", ts)


class TestByteOrderMark:
    def test_checkins_and_friendships_read_alike_with_and_without(self, tmp_path):
        checkins = HEADER + "u1,p1,1272704400,40.0,-74.0,nyc,Food\n"
        friends = "userid1,userid2\nu1,u2\n"
        for name, text in (("plain", ""), ("bom", "\ufeff")):
            (tmp_path / f"{name}.csv").write_text(text + checkins, encoding="utf-8")
            (tmp_path / f"{name}-f.csv").write_text(text + friends, encoding="utf-8")
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_checkins(tmp_path / "bom.csv") == parse_checkins(tmp_path / "plain.csv")
        assert parse_checkins(tmp_path / "plain.csv").records[0].user_id == "u1"
        assert (parse_friendships(tmp_path / "bom-f.csv").records
                == parse_friendships(tmp_path / "plain-f.csv").records == [("u1", "u2")])


class TestGreatCircle:
    def test_haversine_km_and_the_per_place_form_equal_the_one_step_formula(self):
        rng = np.random.default_rng(17)
        lat = rng.uniform(-90.0, 90.0, (10_000, 2)).tolist()
        lon = rng.uniform(-180.0, 180.0, (10_000, 2)).tolist()
        for (lat1, lat2), (lon1, lon2) in zip(lat, lon):
            want = ref.great_circle_km(lat1, lon1, lat2, lon2)
            assert haversine_km(lat1, lon1, lat2, lon2) == want
            assert arc_km(place(lat1, lon1), place(lat2, lon2)) == want


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

    # (lat, lon) of consecutive stops: both poles, the antimeridian from
    # both sides, a repeated point, and a signed zero
    EDGES = [(90.0, 0.0), (90.0, 135.0), (-90.0, -45.0), (0.0, 180.0), (0.0, -180.0),
             (45.0, 179.999), (45.0, -179.999), (45.0, -179.999), (-0.0, 0.0),
             (0.0, -0.0), (89.9999, 10.0), (-89.9999, -170.0), (12.5, 33.25)]

    @pytest.mark.parametrize("mode", ["deterministic", "lognormal"])
    def test_equals_the_per_checkin_derivation(self, mode):
        records, _ = synth_dataset(seed=4, n_users=5, n_pois=30, days=4)
        travel = TravelTimeModel(mode).fit(records)  # read only in lognormal mode
        assert travel.log_mu is not None
        for user in sorted({r.user_id for r in records}):
            mine = sorted((r for r in records if r.user_id == user), key=lambda r: r.timestamp)
            assert derive_visits(mine, travel) == ref.derive_visits(mine, travel)

    @pytest.mark.parametrize("mode", ["deterministic", "lognormal"])
    def test_edge_coordinates_equal_the_per_checkin_derivation(self, mode):
        travel = TravelTimeModel(mode)
        travel.log_mu = math.log(900.0) if mode == "lognormal" else None
        # gaps of about 2,800 h: the walk of half the globe clamps, most steps do not
        records = [rec("u", f"p{i % 4}", 10**7 * (i + 1) + 7 * i * i, lat, lon)
                   for i, (lat, lon) in enumerate(self.EDGES)]
        want = ref.derive_visits(records, travel)
        assert derive_visits(records, travel) == want
        assert 0 < sum(v.stay == 0 for v in want) < len(want) // 2
        for one in records:
            assert derive_visits([one], travel) == ref.derive_visits([one], travel)

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
        sessions, _, encodings = tiny_world
        with pytest.raises(KeyError):
            encodings.poi("nope")
        stranger = Session("u0", (Visit(Poi("nope", 40.0, -74.0, "Food"), 1, 2),))
        for unknown in ([stranger], sessions[:2] + [stranger]):
            with pytest.raises(KeyError) as raised:
                visit_arrays(unknown, encodings)
            assert raised.value.args == ("unknown POI id 'nope': encodings are closed-world",)


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
        km = haversine_km(40.0, -74.0, 40.0 + 1.0 / 111.19, -74.0)
        tt = TravelTimeModel()
        assert tt.seconds(km) == pytest.approx(720, abs=2)  # 1 km at 5 km/h

    def test_lognormal_mode_fits_and_predicts(self):
        records, _ = synth_dataset(seed=2, n_users=3, n_pois=20, days=3)
        model = TravelTimeModel("lognormal").fit(records)
        assert model.log_mu is not None
        two_km = haversine_km(40.0, -74.0, 40.0 + 2.0 / 111.19, -74.0)
        one_km = haversine_km(40.0, -74.0, 40.0 + 1.0 / 111.19, -74.0)
        # farther target -> at least as much predicted travel time
        assert model.seconds(two_km) >= model.seconds(one_km)

    @staticmethod
    def with_repeated_times(records):
        """``records`` with a check-in at the next record's place added at
        the time of every third one, so a user holds equal timestamps at
        different places."""
        out = []
        for i, r in enumerate(records):
            out.append(r)
            if i % 3 == 0:
                there = records[(i + 1) % len(records)]
                out.append(CheckinRecord(r.user_id, there.poi_id, r.timestamp,
                                         there.lat, there.lon, there.category))
        return out

    def test_fit_equals_the_per_user_loop(self):
        """One sort of every check-in by (user, time) gives the per-user
        loop's ``log_mu`` bit for bit, in any record order: the sort is
        stable, so equal timestamps keep the order of the records."""
        records, _ = synth_dataset(seed=7, n_users=120, n_pois=400, days=30)
        rng = np.random.default_rng(3)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        repeated = self.with_repeated_times(shuffled)
        # each user's check-ins after the previous user's: a pair across
        # two users would pass every test but the one of the user
        rank = {u: i for i, u in enumerate(sorted({r.user_id for r in records}))}
        in_turn = [dataclasses.replace(r, timestamp=r.timestamp + rank[r.user_id] * 10**7)
                   for r in records]
        corpora = {"ingest-size": records, "shuffled": shuffled, "repeated-times": repeated,
                   "repeated-times-reversed": repeated[::-1], "users-in-turn": in_turn}
        for name, corpus in corpora.items():
            want = ref.travel_log_mu(corpus)
            assert want is not None, name
            assert TravelTimeModel("lognormal").fit(corpus).log_mu == want, name
        # the order of equal timestamps reaches log_mu, so the last two differ
        assert ref.travel_log_mu(repeated) != ref.travel_log_mu(repeated[::-1])
