"""Parsing, visit derivation, sessionization, filtering, synthesis, and
the columnar data layer against the earlier per-row loops."""

import csv
import io
import itertools
import json
import math
import re
import sys
from collections import Counter
from datetime import datetime, timezone

import numpy as np
import pytest

import scalar_reference as ref
from capseq.data import (
    Checkins,
    DataError,
    Encodings,
    SessionTable,
    SocialGraph,
    TravelTimeModel,
    build_sessions,
    parse_checkins,
    parse_friendships,
    synth_dataset,
)
from capseq.data import io as dataio
from capseq.data.types import MAX_TIMESTAMP, Poi, Session, Visit, check_checkin
from capseq.features import FeatureTables
from capseq.geo import arc_km, arcs_km, haversine_km, place

HEADER = "userid,placeid,datetime,lat,lon,city,category\n"
COLUMNS = ("users", "pois", "arrivals", "departures", "lengths")


def columns(table) -> list:
    """The five stored columns of a ``SessionTable``, in ``COLUMNS`` order."""
    return [getattr(table, name) for name in COLUMNS]


def write_csv(path, rows):
    path.write_text(HEADER + "".join(rows), encoding="utf-8")


class TestParse:
    def test_iso_timestamp_row(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, ["u1,p1,2010-05-01T09:00:00Z,40.0,-74.0,nyc,Food:Coffee Shop\n"])
        result = parse_checkins(path)
        assert len(result.records.times) == 1
        assert result.dropped == 0
        rec = ref.checkin_records(result.records)[0]
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
        assert len(result.records.times) == 1
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
        assert len(result.records.times) == good == 990
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
        keys = list(zip(result.records.users, result.records.times))
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

    def test_out_of_range_longitude_dropped_and_counted(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, ["u1,p1,1272704400,40.0,-185.0,,Food\n",
                         "u1,p2,1272704400,40.0,-74.0,,Food\n"])
        result = parse_checkins(path)
        assert (result.records.pois, result.dropped) == (["p2"], 1)
        with pytest.raises(DataError, match="longitude out of range"):
            Checkins.of([rec("u1", "p1", 1272704400, 40.0, 180.5)])

    def test_blank_lines_are_skipped_not_counted(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, ["\n", "u1,p1,1272704400,40.0,-74.0,,Food\n", "\n"])
        result = parse_checkins(path)
        assert (result.records.users, result.dropped) == (["u1"], 0)

    def test_unknown_format_rejected(self, tmp_path):
        write_csv(tmp_path / "c.csv", [])
        with pytest.raises(ValueError, match="unknown format 'foursquare'"):
            parse_checkins(tmp_path / "c.csv", fmt="foursquare")

    def test_gowalla_columns_map_to_canonical(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(
            "user,spotid,checkin_time,latitude,longitude,spot_categories\n"
            "u1,s9,2010-05-01T09:00:00Z,40.0,-74.0,Coffee Shop\n",
            encoding="utf-8",
        )
        result = parse_checkins(path, fmt="gowalla")
        rec = ref.checkin_records(result.records)[0]
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
                for r in ref.checkin_records(result.records)], result.dropped

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
        "\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19\uff10": None,  # fullwidth
        "\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669\u0660": None,  # Arabic-Indic
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
        got = dict(zip(result.records.users, result.records.times))
        assert {cell: got.get(f"u{i}") for i, cell in enumerate(self.CELLS)} == self.CELLS
        assert result.dropped == sum(t is None for t in self.CELLS.values())

    def test_record_times_run_from_1_to_the_end_of_year_9999(self):
        for ts in (1, MAX_TIMESTAMP):
            assert Checkins.of([rec("u", "p", ts)]).times == [ts]
        for ts in (0, -1, MAX_TIMESTAMP + 1, 2**63):
            with pytest.raises(DataError, match="timestamp"):
                Checkins.of([rec("u", "p", ts)])


class TestCheckins:
    GOOD = ("u", "p", 100, 40.0, -74.0, "Food", None)
    # a field tuple that breaks each rule of check_checkin, and its error's words
    BROKEN = {
        "empty-user": (("", "p", 100, 40.0, -74.0, "Food", None), "must be non-empty"),
        "empty-poi": (("u", "", 100, 40.0, -74.0, "Food", None), "must be non-empty"),
        "empty-category": (("u", "p", 100, 40.0, -74.0, "", None), "must be non-empty"),
        "time-0": (("u", "p", 0, 40.0, -74.0, "Food", None), "timestamp must be in"),
        "time-past-9999": (("u", "p", MAX_TIMESTAMP + 1, 40.0, -74.0, "Food", None),
                           "timestamp must be in"),
        "latitude-past-90": (("u", "p", 100, 90.5, -74.0, "Food", None), "latitude out"),
        "latitude-nan": (("u", "p", 100, math.nan, -74.0, "Food", None), "latitude out"),
        "longitude-past-180": (("u", "p", 100, 40.0, -180.5, "Food", None), "longitude out"),
        # the types the int64 time column and the float coordinates take as they are
        "time-float": (("u", "p", 100.7, 40.0, -74.0, "Food", None), "timestamp must be an int"),
        "time-whole-float": (("u", "p", 100.0, 40.0, -74.0, "Food", None),
                             "timestamp must be an int"),
        "time-bool": (("u", "p", True, 40.0, -74.0, "Food", None), "timestamp must be an int"),
        "time-string": (("u", "p", "100", 40.0, -74.0, "Food", None), "timestamp must be an int"),
        "latitude-bool": (("u", "p", 100, True, -74.0, "Food", None), "latitude must be a num"),
        "latitude-numpy-bool": (("u", "p", 100, np.True_, -74.0, "Food", None),
                                "latitude must be a num"),
        "latitude-string": (("u", "p", 100, "40.0", -74.0, "Food", None), "latitude must be a num"),
        "longitude-bool": (("u", "p", 100, 40.0, False, "Food", None), "longitude must be a num"),
        "longitude-string": (("u", "p", 100, 40.0, "-74", "Food", None), "longitude must be a num"),
    }

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_of_refuses_a_tuple_that_breaks_a_rule(self, case):
        row, words = self.BROKEN[case]
        for rows in ([row], [self.GOOD, row], [row, self.GOOD]):
            with pytest.raises(DataError, match=words):
                Checkins.of(rows)

    @pytest.mark.parametrize("fields, words", [
        (("u", "p", 100, "40", -74.0, "F"), "latitude must be a number, got '40'"),
        (("u", "p", None, 40.0, -74.0, "F"), "timestamp must be a number, got None"),
        (("u", "p", "100", 40.0, -74.0, "F"), "timestamp must be a number, got '100'"),
    ], ids=["latitude-string", "time-none", "time-string"])
    def test_check_checkin_names_a_field_it_cannot_compare(self, fields, words):
        """Called directly, without ``Checkins.of``'s type rule first, the
        range rule raises ``DataError`` naming the field, not ``TypeError``."""
        with pytest.raises(DataError, match=words):
            check_checkin(*fields)

    def test_of_takes_python_and_numpy_integers_and_numbers(self):
        rows = [("u", "p", np.int64(300), np.float32(40.5), np.int32(-74), "Food", None),
                ("u", "p", np.uint32(200), 40, np.float64(-74.0), "Food", None),
                ("u", "p", 100, 40.0, -74.0, "Food", None)]
        log = Checkins.of(rows)
        assert log.times == [100, 200, 300]
        assert np.array(log.times, dtype=np.int64).tolist() == [100, 200, 300]
        assert np.array(log.lats).tolist() == [40.0, 40.0, 40.5]

    def test_library_callers_refuse_what_of_refuses(self):
        """``build_sessions`` and ``TravelTimeModel.fit`` take their rows
        through ``Checkins.of``: a float time is refused, not cut to an int."""
        rows = [("u", "p", 100.7, 40.0, -74.0, "F", None), ("u", "q", 3600, 40.0, -74.0, "F", None)]
        for call in (build_sessions, TravelTimeModel("lognormal").fit):
            with pytest.raises(DataError, match="timestamp must be an integer, got 100.7"):
                call(rows)


class TestByteOrderMark:
    def test_checkins_and_friendships_read_alike_with_and_without(self, tmp_path):
        checkins = HEADER + "u1,p1,1272704400,40.0,-74.0,nyc,Food\n"
        friends = "userid1,userid2\nu1,u2\n"
        for name, text in (("plain", ""), ("bom", "\ufeff")):
            (tmp_path / f"{name}.csv").write_text(text + checkins, encoding="utf-8")
            (tmp_path / f"{name}-f.csv").write_text(text + friends, encoding="utf-8")
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_checkins(tmp_path / "bom.csv") == parse_checkins(tmp_path / "plain.csv")
        assert parse_checkins(tmp_path / "plain.csv").records.users == ["u1"]
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

    def test_arcs_km_equals_the_per_step_loop(self):
        rng = np.random.default_rng(5)
        points = [place(lat, lon) for lat, lon in rng.uniform(-80.0, 80.0, (30, 2)).tolist()]
        a, b = rng.integers(0, 30, (2, 2_000))  # each pair about twice
        for pts, x, y in ((points, a, b), (points, a, a), (points, a[:0], b[:0]), ([], [], []),
                          (points[:1], a * 0, b * 0)):
            got = arcs_km(pts, x, y)
            want = [arc_km(pts[i], pts[j]) for i, j in zip(np.asarray(x).tolist(),
                                                           np.asarray(y).tolist())]
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()

    def test_one_arc_km_per_distinct_place_pair(self, monkeypatch):
        """Sessionizing, the step distances of the tables and the lognormal
        travel-time fit each measure every distinct pair of places once."""
        records, graph = synth_dataset(seed=7, n_users=6, n_pois=40, days=5)
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return arc_km(a, b)

        for name, module in list(sys.modules.items()):  # every module that calls it
            if name.split(".")[0] == "capseq" and getattr(module, "arc_km", None) is arc_km:
                monkeypatch.setattr(module, "arc_km", counted)

        def measured(steps, point) -> Counter:
            """The two points of each distinct step."""
            return Counter((point(a), point(b)) for a, b in set(steps))

        table = build_sessions(records)
        visits = [(s.user_id, v.poi) for s in table for v in s.visits]
        moves = [(a, b) for (u, a), (w, b) in zip(visits, visits[1:]) if u == w]
        assert Counter(calls) == measured(moves, lambda poi: place(poi.lat, poi.lon))
        assert len(calls) < len(moves)

        calls.clear()
        encodings = table.encodings
        coords = encodings.poi_coords.tolist()
        steps = [(encodings.poi(a.poi.poi_id), encodings.poi(b.poi.poi_id))
                 for s in table for a, b in zip(s.visits, s.visits[1:])]
        FeatureTables.build(table, graph, encodings)
        assert Counter(calls) == measured(steps, lambda l: place(*coords[l]))
        assert len(calls) < len(steps)

        calls.clear()
        log = ref.checkin_records(records)  # sorted by (user, time)
        gaps = [((a.lat, a.lon), (b.lat, b.lon)) for a, b in zip(log, log[1:])
                if a.user_id == b.user_id and b.timestamp > a.timestamp]
        TravelTimeModel("lognormal").fit(records)
        assert Counter(calls) == measured(gaps, lambda p: place(*p))
        assert len(calls) < len(gaps)


def rec(user, poi, ts, lat=40.0, lon=-74.0, cat="Food"):
    return ref.Record(user, poi, ts, lat, lon, cat)


def derive_visits(records, travel_time=None) -> list:
    """The visits of one user's check-ins, as ``build_sessions`` derives them."""
    return [v for s in build_sessions(records, travel_time) for v in s.visits]


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
        records = ref.checkin_records(synth_dataset(seed=4, n_users=5, n_pois=30, days=4)[0])
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

    def test_sorts_unsorted_and_mixed_users(self):
        records = [rec("w", "c", 150), rec("u", "a", 100), rec("w", "d", 120),
                   rec("u", "b", 50)]
        assert list(build_sessions(records)) == list(build_sessions(
            sorted(records, key=lambda r: (r.user_id, r.timestamp))))
        assert [s.user_id for s in build_sessions(records)] == ["u", "w"]


class TestSessionize:
    def sessions_at_hours(self, hours, user="u"):
        return build_sessions([rec(user, "p", int(h * 3600)) for h in hours])

    def test_greedy_eight_hour_split(self):
        sessions = self.sessions_at_hours([9, 10, 12, 18])
        assert [[v.arrival // 3600 for v in s.visits] for s in sessions] == [
            [9, 10, 12],
            [18],
        ]

    def test_an_arrival_exactly_eight_hours_on_stays_in_the_session(self):
        sessions = self.sessions_at_hours([9, 17, 17.25])
        assert [[v.arrival / 3600 for v in s.visits] for s in sessions] == [[9, 17], [17.25]]

    def test_empty_input(self):
        sessions = build_sessions([])
        assert len(sessions) == 0 and list(sessions) == []
        assert sessions.encodings.n_users == sessions.encodings.n_pois == 0

    def test_single_window(self):
        sessions = self.sessions_at_hours([9, 9.25, 9.5])
        assert len(sessions) == 1

    def test_partition_property_random(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            arrivals = np.cumsum(rng.integers(300, 6 * 3600, size=30)).tolist()
            records = [rec("u", f"p{a % 3}", a) for a in arrivals]
            sessions = build_sessions(records)
            assert list(sessions) == ref.build_sessions(records)
            assert [v.arrival for s in sessions for v in s.visits] == arrivals
            for s in sessions:
                assert s.visits[-1].arrival - s.visits[0].arrival <= 8 * 3600

    def test_singleton_flagged(self):
        sessions = self.sessions_at_hours([9, 20])
        assert all(len(s.visits) == 1 for s in sessions)
        assert [s for s in sessions if len(s) >= 2] == []


class TestFilterUsers:
    def make(self, user, n):
        return [rec(user, "p", i * 3600 + 1) for i in range(n)]

    def test_user_below_threshold_removed(self):
        records = self.make("u24", 24) + self.make("u25", 25)
        kept = build_sessions(records, min_checkins=25)
        assert {s.user_id for s in kept} == {"u25"}
        assert list(kept.encodings.user_to_ix) == ["u25"]

    def test_zero_threshold_is_identity(self):
        records = self.make("a", 3) + self.make("b", 1)
        assert list(build_sessions(records, min_checkins=0)) == list(build_sessions(records))
        with pytest.raises(ValueError, match="min_checkins"):
            build_sessions(records, min_checkins=-1)

    def test_population_counts_via_independent_pass(self):
        rng = np.random.default_rng(9)
        records = []
        expected_kept = set()
        for i in range(100):
            n = int(rng.integers(1, 50))
            user = f"u{i:03d}"
            records.extend(self.make(user, n))
            if n >= 25:
                expected_kept.add(user)
        kept = build_sessions(records, min_checkins=25)
        assert {s.user_id for s in kept} == expected_kept


GOWALLA_HEADER = ["user", "spotid", "checkin_time", "latitude", "lng", "city", "spot_categories"]


def messy_log(path, seed: int, fmt: str, bom: bool) -> None:
    """A seeded check-in CSV at ``path``: a synthetic log, shuffled, in
    which some check-ins place their POI elsewhere or under another
    category, some repeat the user's previous time at another POI, three
    users have under 6 check-ins, and some rows are short or malformed."""
    records = ref.checkin_records(synth_dataset(seed=seed, n_users=6, n_pois=30, days=4)[0])
    rng = np.random.default_rng(seed)
    rows = []
    for r in records:
        draw = rng.random()
        lat = r.lat + 1e-4 if draw < 0.05 else r.lat
        cat = "Other:Thing" if 0.05 <= draw < 0.1 else r.category
        rows.append([r.user_id, r.poi_id, r.timestamp, repr(lat), repr(r.lon), r.city, cat])
        if draw > 0.93:
            rows.append([r.user_id, f"p{int(rng.integers(30)):04d}", r.timestamp,
                         repr(r.lat), repr(r.lon), "", r.category])
    for u in range(3):
        rows += [[f"few{u}", f"p{int(rng.integers(30)):04d}", 1330905600 + 5000 * i,
                  "40.7", "-74.0", "", "Food"] for i in range(int(rng.integers(1, 6)))]
    rows += [["u0000", "p0001", "1330905600"], ["u0001", "p0001", "soon", "40", "-74", "", "F"],
             ["u0001", "", "1330905600", "40.7", "-74.0", "", "Food"],
             ["u0002", "p0001", "1330905700", "95.0", "-74.0", "", "Food"], ["u0003"]]
    header = HEADER.strip().split(",") if fmt == "weeplaces" else GOWALLA_HEADER
    with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows[i] for i in rng.permutation(len(rows)))


class TestColumnarOracles:
    """The columnar parse, session build, encodings and dataset load equal
    the earlier per-row loops of ``scalar_reference`` on seeded logs."""

    LOGS = [(1, "weeplaces", False), (2, "gowalla", False), (3, "weeplaces", True),
            (4, "gowalla", True)]

    @pytest.mark.parametrize("seed, fmt, bom", LOGS)
    def test_parse_equals_the_per_row_loop(self, tmp_path, seed, fmt, bom):
        path = tmp_path / "c.csv"
        messy_log(path, seed, fmt, bom)
        assert path.read_bytes().startswith(b"\xef\xbb\xbf") == bom
        result = parse_checkins(path, fmt)
        records, dropped = ref.parse_checkins(path, fmt)
        assert ref.checkin_records(result.records) == records
        assert result.dropped == dropped == 5

    @pytest.mark.parametrize("seed, fmt, bom", LOGS)
    def test_sessions_and_encodings_equal_the_per_user_loops(self, tmp_path, seed, fmt, bom):
        path = tmp_path / "c.csv"
        messy_log(path, seed, fmt, bom)
        parsed = parse_checkins(path, fmt).records
        records = ref.checkin_records(parsed)
        shuffled = [records[i] for i in np.random.default_rng(seed).permutation(len(records))]
        for mode in ("deterministic", "lognormal"):
            travel = TravelTimeModel(mode).fit(parsed)
            assert travel.log_mu == ref.travel_log_mu(records) is not None
            for min_checkins, (given, rows) in itertools.product(
                    (0, 6, 25), ((parsed, records), (shuffled, shuffled))):
                want = ref.build_sessions(rows, travel, min_checkins)
                users, cats, pois, coords, poi_cat = ref.fit_encodings(want)
                table = build_sessions(given, travel, min_checkins)
                assert isinstance(table, SessionTable)
                assert list(table) == want
                assert Encodings.fit(table) is table.encodings
                for enc in (Encodings.fit(want), table.encodings):
                    assert (enc.user_to_ix, enc.cat_to_ix, enc.poi_to_ix) == (users, cats, pois)
                    assert enc.poi_coords.tobytes() == np.reshape(coords, (-1, 2)).tobytes()
                    assert enc.poi_cat.tolist() == poi_cat
                for got, loop in zip(columns(table), columns(SessionTable.of(want, enc))):
                    assert got.dtype == np.int64
                    np.testing.assert_array_equal(got, loop)
        # the log holds what the loops must agree on
        assert len({r.user_id for r in records}) - len(build_sessions(parsed, min_checkins=6)
                                                       .encodings.user_to_ix) == 3
        assert len({(r.poi_id, r.lat, r.lon, r.category) for r in records}) > len(
            {r.poi_id for r in records})
        assert len({(r.user_id, r.timestamp) for r in records}) < len(records)

    @pytest.mark.parametrize("seed, fmt, bom", LOGS)
    def test_load_equals_the_per_line_loop(self, tmp_path, seed, fmt, bom):
        messy_log(tmp_path / "c.csv", seed, fmt, bom)
        table = build_sessions(parse_checkins(tmp_path / "c.csv", fmt).records)
        dataio.save_dataset(tmp_path / "ds", table, table.encodings)
        loaded, encodings, _ = dataio.load_dataset(tmp_path / "ds")
        assert list(loaded) == ref.load_sessions(tmp_path / "ds" / "sessions.jsonl", encodings)
        for got, saved in zip(columns(loaded), columns(table)):
            np.testing.assert_array_equal(got, saved)

    def test_derived_columns_equal_a_per_session_loop(self, synth_small):
        """``starts``, ``hours`` and ``split`` of a table, of a selection of
        it and of a table made from ``Session``s are those of a loop over
        the sessions' visits."""
        table, _, encodings = synth_small
        sessions = list(table)
        keep = np.random.default_rng(1).random(len(table)) < 0.5
        cases = [(table, sessions),
                 (table.select(keep), [s for s, kept in zip(sessions, keep) if kept]),
                 (SessionTable.of(sessions[::3], encodings), sessions[::3])]
        assert SessionTable.of(sessions[::3], encodings) is not table
        for got, want in cases:
            starts, hours, at = [], [], 0
            for session in want:
                starts.append(at)
                at += len(session.visits)
                hours += [datetime.fromtimestamp(v.arrival, timezone.utc).hour
                          for v in session.visits]
            assert got.starts.tolist() == starts and got.hours.tolist() == hours
            assert list(got.split(got.pois)) == [[encodings.poi(v.poi.poi_id) for v in s.visits]
                                                 for s in want]
            for column in (got.starts, got.hours):
                assert column.dtype == np.int64 and not column.flags.writeable

    def test_a_row_selection_equals_filtering_the_sessions(self, tmp_path):
        messy_log(tmp_path / "c.csv", *self.LOGS[0])
        table = build_sessions(parse_checkins(tmp_path / "c.csv", self.LOGS[0][1]).records)
        dataio.save_dataset(tmp_path / "ds", table, table.encodings)
        loaded = dataio.load_dataset(tmp_path / "ds")[0]
        listed = SessionTable.of(list(table), table.encodings)
        assert SessionTable.of(table, table.encodings) is table
        for got, want in zip(columns(listed), columns(table)):
            np.testing.assert_array_equal(got, want)
        n = len(table)
        for keep in (np.random.default_rng(3).random(n) < 0.5, np.zeros(n, bool), np.ones(n, bool)):
            for source in (table, loaded, listed):
                want = [s for s, kept in zip(source, keep) if kept]
                chosen = source.select(keep)
                assert list(chosen) == want and chosen.encodings is source.encodings
                for got, loop in zip(columns(chosen),
                                     columns(SessionTable.of(want, source.encodings))):
                    assert got.dtype == np.int64
                    np.testing.assert_array_equal(got, loop)

    # a change that makes a sessions.jsonl line bad, given the session and the encodings
    BAD_LINES = {
        "poi-past-end": lambda s, enc: s["pois"].__setitem__(0, enc.n_pois),
        "negative-poi": lambda s, enc: s["pois"].__setitem__(-1, -1),
        "user-past-end": lambda s, enc: s.update(user=enc.n_users),
        "negative-user": lambda s, enc: s.update(user=-1),
        "repeated-arrival": lambda s, enc: s["arrivals"].__setitem__(1, s["arrivals"][0]),
        "departure-first": lambda s, enc: s["departures"].__setitem__(0, s["arrivals"][0] - 1),
        "no-visit": lambda s, enc: s.update(pois=[], arrivals=[], departures=[]),
        "lengths-differ": lambda s, enc: s["pois"].append(0),
        "float-time": lambda s, enc: s["arrivals"].__setitem__(0, s["arrivals"][0] + 0.5),
        "bool-poi": lambda s, enc: s["pois"].__setitem__(0, True),
        "string-user": lambda s, enc: s.update(user=str(s["user"])),
        "time-past-int64": lambda s, enc: s["departures"].__setitem__(-1, 2**63),
        "missing-key": lambda s, enc: s.pop("departures"),
        "a-list": None,
        "not-json": None,
    }

    def test_load_names_the_first_bad_line(self, tmp_path):
        records, _ = synth_dataset(seed=2, n_users=3, n_pois=20, days=3)
        table = build_sessions(records)
        dataio.save_dataset(tmp_path / "good", table, table.encodings)
        path = tmp_path / "good" / "sessions.jsonl"
        good = path.read_bytes().split(b"\n")
        at = [i for i, line in enumerate(good) if line and len(json.loads(line)["pois"]) > 1][2:4]
        encodings = table.encodings

        def bad(line: bytes, kind: str) -> bytes:
            change = self.BAD_LINES[kind]
            if change is None:
                return b"[1]" if kind == "a-list" else line[:20]
            session = json.loads(line)
            change(session, encodings)
            return json.dumps(session).encode()

        for first in self.BAD_LINES:
            for second in self.BAD_LINES:
                lines = list(good)
                lines[at[0]], lines[at[1]] = bad(lines[at[0]], first), bad(lines[at[1]], second)
                (tmp_path / "good" / "sessions.jsonl").write_bytes(b"\n".join(lines))
                where = f"{path}:{at[0] + 1}: "
                with pytest.raises(DataError) as raised:
                    dataio.load_dataset(tmp_path / "good")
                assert str(raised.value).startswith(where), (first, second, raised.value)
                assert "\n" not in str(raised.value)
                with pytest.raises(DataError, match="^" + re.escape(where)):
                    ref.load_sessions(path, encodings)

    BOM, DEEP = b"\xef\xbb\xbf", b"[" * 100_000  # DEEP: json.loads raises RecursionError

    # a change to the byte lines (the last one empty) of a good sessions.jsonl
    # that the columnar scan hands to the per-line reader, or that it must
    # read as that reader does
    HAND_OVER = {
        "bom-on-line-1": lambda ls: ls.__setitem__(0, TestColumnarOracles.BOM + ls[0]),
        "bom-on-a-later-line": lambda ls: ls.__setitem__(3, TestColumnarOracles.BOM + ls[3]),
        "leading-spaces": lambda ls: ls.__setitem__(2, b"  " + ls[2]),
        "leading-tab": lambda ls: ls.__setitem__(2, b"\t" + ls[2]),
        "crlf-endings": lambda ls: ls.__setitem__(slice(0, -1), [l + b"\r" for l in ls[:-1]]),
        "trailing-vertical-tab": lambda ls: ls.__setitem__(2, ls[2] + b"\x0b"),
        "trailing-form-feed": lambda ls: ls.__setitem__(2, ls[2] + b"\x0c"),
        "trailing-space-and-tab": lambda ls: ls.__setitem__(2, ls[2] + b" \t "),
        "whitespace-only-line": lambda ls: ls.insert(2, b" \t\x0b\x0c\r"),
        "nul-first-byte": lambda ls: ls.__setitem__(2, b"\x00" + ls[2]),
        "nul-second-byte": lambda ls: ls.__setitem__(2, ls[2][:1] + b"\x00" + ls[2][1:]),
        "utf-16-le-last-line": lambda ls: ls.__setitem__(
            slice(-2, None), [ls[-2].decode().encode("utf-16-le")]),
        "lone-surrogate-in-an-extra-key": lambda ls: ls.__setitem__(
            2, ls[2][:-1] + b', "note": "\\ud800"}'),
        "duplicate-keys": lambda ls: ls.__setitem__(
            2, b'{"user": 1000000000, "pois": 1, ' + ls[2][1:]),
        "duplicate-key-bad-last": lambda ls: ls.__setitem__(2, ls[2][:-1] + b', "user": -1}'),
        "extra-keys": lambda ls: ls.__setitem__(2, ls[2][:-1] + b', "x": [1.5, "y"], "z": {}}'),
        "a-bom-line-with-a-float": lambda ls: ls.__setitem__(
            2, TestColumnarOracles.BOM + ls[2].replace(b"]", b".5]", 1)),
        "deep-nesting": lambda ls: ls.__setitem__(2, TestColumnarOracles.DEEP),
        "a-float-before-deep-nesting": lambda ls: ls.__setitem__(
            slice(2, 5), [ls[2].replace(b"]", b".5]", 1), ls[3], TestColumnarOracles.DEEP]),
        "deep-nesting-before-a-float": lambda ls: ls.__setitem__(
            slice(2, 5), [TestColumnarOracles.DEEP, ls[3], ls[4].replace(b"]", b".5]", 1)]),
        "an-unencoded-user-before-deep-nesting": lambda ls: ls.__setitem__(
            slice(2, 5), [ls[2][:-1] + b', "user": -1}', ls[3], TestColumnarOracles.DEEP]),
    }

    @staticmethod
    def outcome(load) -> tuple:
        """The sessions and columns ``load()`` returns, or the type and
        message of the error it raises."""
        try:
            table = load()
        except DataError as exc:
            return type(exc), str(exc)
        return list(table), [column.tolist() for column in columns(table)]

    @pytest.mark.parametrize("case", sorted(HAND_OVER))
    def test_load_equals_the_per_line_reader_on_hand_over_lines(self, tmp_path, case):
        records, _ = synth_dataset(seed=2, n_users=3, n_pois=20, days=3)
        table = build_sessions(records)
        dataio.save_dataset(tmp_path, table, table.encodings)
        path = tmp_path / "sessions.jsonl"
        lines = path.read_bytes().split(b"\n")
        self.HAND_OVER[case](lines)
        path.write_bytes(b"\n".join(lines))
        got = self.outcome(lambda: dataio.load_dataset(tmp_path)[0])
        assert got == self.outcome(lambda: ref.load_session_table(path, table.encodings))
        if got[0] is DataError:
            assert "\n" not in got[1]
        loads = ("bom-on-line-1", "bom-on-a-later-line", "leading-spaces", "leading-tab",
                 "crlf-endings", "trailing-space-and-tab", "whitespace-only-line",
                 "utf-16-le-last-line", "lone-surrogate-in-an-extra-key", "duplicate-keys",
                 "extra-keys")
        want = list if case in loads else DataError  # deep nesting too: it is a bad line
        assert (list if isinstance(got[0], list) else got[0]) is want

    def test_load_words_each_pair_of_bad_lines_as_the_per_line_reader(self, tmp_path):
        """Of two bad lines, the first is named with its first fault, in the
        per-line reader's words, whichever check finds each."""
        records, _ = synth_dataset(seed=2, n_users=3, n_pois=20, days=3)
        table = build_sessions(records)
        dataio.save_dataset(tmp_path, table, table.encodings)
        path = tmp_path / "sessions.jsonl"
        good = path.read_bytes().split(b"\n")
        at = [i for i, line in enumerate(good) if line and len(json.loads(line)["pois"]) > 1][2:4]

        def bad(line: bytes, kind: str) -> bytes:
            change = self.BAD_LINES[kind]
            if change is None:
                return b"[1]" if kind == "a-list" else line[:20]
            session = json.loads(line)
            change(session, table.encodings)
            return json.dumps(session).encode()

        for first, second in itertools.product(self.BAD_LINES, repeat=2):
            lines = list(good)
            lines[at[0]], lines[at[1]] = bad(lines[at[0]], first), bad(lines[at[1]], second)
            path.write_bytes(b"\n".join(lines))
            got = self.outcome(lambda: dataio.load_dataset(tmp_path)[0])
            assert got[0] is DataError
            assert got == self.outcome(lambda: ref.load_session_table(path, table.encodings))

    def test_a_good_file_makes_no_per_line_json_loads(self, tmp_path, monkeypatch):
        records, graph = synth_dataset(seed=2, n_users=3, n_pois=20, days=3)
        table = build_sessions(records)
        dataio.save_dataset(tmp_path, table, table.encodings, graph)
        loads, calls = json.loads, []
        monkeypatch.setattr(json, "loads", lambda raw, **kw: calls.append(raw) or loads(raw, **kw))
        loaded = dataio.load_dataset(tmp_path)[0]
        assert len(loaded) > 3 and list(loaded) == list(table)
        assert len(calls) == 3  # encodings.json, pois.json and graph.json


class TestSessionLines:
    """``save_dataset`` writes each ``sessions.jsonl`` line from one
    template over the text of int lists; the earlier per-line encoder call
    of ``scalar_reference`` is its oracle."""

    @staticmethod
    def check(tmp_path, sessions, encodings):
        dataio.save_dataset(tmp_path, sessions, encodings)
        text = (tmp_path / "sessions.jsonl").read_text(encoding="utf-8")
        assert text.endswith("\n")
        lines = text[:-1].split("\n")
        assert lines == ref.session_lines(sessions, encodings)
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_extreme_times_one_visit_sessions_and_user_0(self, tmp_path):
        a, b = Poi("a", 40.0, -74.0, "Food"), Poi("b", 40.01, -74.0, "Bar")
        lo, hi = dataio.INT64_MIN, dataio.INT64_MAX
        sessions = [
            Session("u0", (Visit(a, lo, lo),)),
            Session("u0", (Visit(a, -1, 0), Visit(b, 0, 5), Visit(a, 6, 6))),
            Session("u1", (Visit(b, 7, 9),)),
            Session("u1", (Visit(a, hi - 1, hi - 1), Visit(b, hi, hi))),
        ]
        encodings = Encodings.fit(sessions)
        assert encodings.user("u0") == 0
        self.check(tmp_path, sessions, encodings)

    @pytest.mark.parametrize("seed, fmt, bom", TestColumnarOracles.LOGS)
    def test_built_corpora(self, tmp_path, seed, fmt, bom):
        messy_log(tmp_path / "c.csv", seed, fmt, bom)
        table = build_sessions(parse_checkins(tmp_path / "c.csv", fmt).records)
        assert max(map(len, table)) > 1
        self.check(tmp_path / "ds", table, table.encodings)


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
        assert restored.to_dict() == encodings.to_dict()

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
                SessionTable.of(unknown, encodings)
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
        ids = {int(poi_id[1:]) for poi_id in records.pois}
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
        assert loaded_enc.to_dict() == encodings.to_dict()
        assert loaded_graph.to_dict() == graph.to_dict()
        assert len(loaded_sessions) == len(sessions)
        for a, b in zip(loaded_sessions, sessions):
            assert a.user_id == b.user_id
            assert [v.poi.poi_id for v in a.visits] == [v.poi.poi_id for v in b.visits]
            assert [v.arrival for v in a.visits] == [v.arrival for v in b.visits]
            assert [v.stay for v in a.visits] == [v.stay for v in b.visits]


class TestTravelTimeModel:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown travel time mode 'teleport'"):
            TravelTimeModel("teleport")

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
                out.append(ref.Record(r.user_id, there.poi_id, r.timestamp,
                                      there.lat, there.lon, there.category))
        return out

    def test_fit_equals_the_per_user_loop(self):
        """One sort of every check-in by (user, time) gives the per-user
        loop's ``log_mu`` bit for bit, in any record order: the sort is
        stable, so equal timestamps keep the order of the records."""
        records = ref.checkin_records(synth_dataset(seed=7, n_users=120, n_pois=400, days=30)[0])
        rng = np.random.default_rng(3)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        repeated = self.with_repeated_times(shuffled)
        # each user's check-ins after the previous user's: a pair across
        # two users would pass every test but the one of the user
        rank = {u: i for i, u in enumerate(sorted({r.user_id for r in records}))}
        in_turn = [r._replace(timestamp=r.timestamp + rank[r.user_id] * 10**7) for r in records]
        corpora = {"ingest-size": records, "shuffled": shuffled, "repeated-times": repeated,
                   "repeated-times-reversed": repeated[::-1], "users-in-turn": in_turn}
        for name, corpus in corpora.items():
            want = ref.travel_log_mu(corpus)
            assert want is not None, name
            assert TravelTimeModel("lognormal").fit(corpus).log_mu == want, name
        # the order of equal timestamps reaches log_mu, so the last two differ
        assert ref.travel_log_mu(repeated) != ref.travel_log_mu(repeated[::-1])
