"""Feature statistics: hand-worked examples, dual-implementation
equivalence against the literal transcription, and structural
invariants."""

import json

import numpy as np
import pytest

import naive_reference as naive
import scalar_reference as ref
from conftest import make_visit
from capseq.data.types import DataError, Encodings, Poi, Session, SocialGraph, Visit, visit_arrays
from capseq.data import build_sessions, synth_dataset
from capseq.features import ATTRIBUTE_DIM, FEATURE_DIM, FeatureTables
from capseq.metrics import assign_folds


def build_tables(sessions, graph=None):
    encodings = Encodings.fit(sessions)
    return FeatureTables.build(sessions, graph or SocialGraph(), encodings), encodings


class TestStayStats:
    def test_two_user_mean_of_means(self):
        # stays at p: u0 {10 min}, u1 {20, 40 min} -> (10 + 30) / 2 = 20 min
        sessions = [
            Session("u0", (make_visit("p", 40.0, -74.0, "Food", 9, 10),)),
            Session(
                "u1",
                (
                    make_visit("p", 40.0, -74.0, "Food", 9, 20, day=1),
                    make_visit("p", 40.0, -74.0, "Food", 12, 40, day=1),
                ),
            ),
        ]
        stats = FeatureTables.build(sessions).stay
        assert stats.mean_stay[0] == pytest.approx(20 * 60)

    def test_single_poi_normalizes_to_zero(self):
        sessions = [
            Session("u0", (make_visit("p", 40.0, -74.0, "Food", 9, 10),)),
        ]
        stats = FeatureTables.build(sessions).stay
        assert stats.normalized[0] == 0.0

    def test_equal_stays_normalize_identically(self):
        sessions = [
            Session(
                "u0",
                (
                    make_visit("a", 40.0, -74.0, "Food", 9, 30),
                    make_visit("b", 40.1, -74.0, "Bar", 11, 30),
                ),
            ),
        ]
        stats = FeatureTables.build(sessions).stay
        assert stats.normalized[0] == stats.normalized[1] == 0.0

    def test_matches_naive_on_fixture(self, tiny_world):
        sessions, graph, encodings = tiny_world
        stats = FeatureTables.build(sessions, graph, encodings).stay
        for poi_id, ix in encodings.poi_to_ix.items():
            assert stats.mean_stay[ix] == pytest.approx(
                naive.stay_time(sessions, poi_id), rel=1e-12
            )
            assert stats.normalized[ix] == pytest.approx(
                naive.stay_time_normalized(sessions, poi_id), rel=1e-12
            )


class TestTemporalPopularity:
    def test_single_hour_spike(self):
        sessions = [
            Session("u0", (make_visit("p", 40.0, -74.0, "Food", 13),)),
            Session("u1", (make_visit("p", 40.0, -74.0, "Food", 13, day=1),)),
        ]
        pop = FeatureTables.build(sessions).popularity
        assert pop[0, 13] == 1.0
        assert pop[0].sum() == 1.0

    def test_uniform_hours_equal(self):
        sessions = [
            Session(
                "u0",
                tuple(
                    make_visit("p", 40.0, -74.0, "Food", h, day=d)
                    for d, h in enumerate((9, 9, 9))
                ),
            ),
            Session(
                "u1",
                tuple(
                    make_visit("p", 40.0, -74.0, "Food", h, day=d)
                    for d, h in enumerate((15, 15, 15))
                ),
            ),
        ]
        pop = FeatureTables.build(sessions).popularity
        assert pop[0, 9] == pop[0, 15] == 1.0

    def test_counts_match_hand_count(self, tiny_world):
        sessions, graph, encodings = tiny_world
        pop = FeatureTables.build(sessions, graph, encodings).popularity
        counts = np.zeros_like(pop)
        for s in sessions:
            for v in s.visits:
                counts[encodings.poi(v.poi.poi_id), v.hour] += 1
        assert pop == pytest.approx(counts / counts.max())
        assert pop.min() >= 0.0 and pop.max() <= 1.0


class TestDualImplementation:
    """Optimized tables vs the uncached literal transcription."""

    def test_ast_cat_matches(self, tiny_world):
        sessions, graph, encodings = tiny_world
        tables, _ = build_tables(sessions, graph)
        for user_id, u in encodings.user_to_ix.items():
            for poi_id, l in encodings.poi_to_ix.items():
                expected = naive.ast_cat(sessions, user_id, poi_id)
                assert tables._stats.ac[u, l] == pytest.approx(
                    expected, rel=1e-12, abs=1e-15
                ), (user_id, poi_id)

    def test_ast_matches(self, tiny_world):
        sessions, graph, encodings = tiny_world
        tables, _ = build_tables(sessions, graph)
        for user_id, u in encodings.user_to_ix.items():
            for poi_id, l in encodings.poi_to_ix.items():
                expected = naive.ast(sessions, graph, user_id, poi_id)
                assert tables._stats.ast[u, l] == pytest.approx(
                    expected, rel=1e-12, abs=1e-15
                ), (user_id, poi_id)

    def test_category_aggregates_match(self, tiny_world):
        sessions, graph, encodings = tiny_world
        tables, _ = build_tables(sessions, graph)
        for cat_name, c in encodings.cat_to_ix.items():
            for hour in (9, 10, 13, 18):
                expected = naive.aggregate_cat_interest(sessions, graph, cat_name, hour)
                assert tables.astcat_hour[c, hour] == pytest.approx(
                    expected, rel=1e-12, abs=1e-15
                ), (cat_name, hour)

    def test_preference_matches(self, tiny_world):
        sessions, graph, encodings = tiny_world
        tables, _ = build_tables(sessions, graph)
        for user_id, u in encodings.user_to_ix.items():
            for poi_id, l in encodings.poi_to_ix.items():
                for hour in (9, 10, 11, 12, 18):
                    expected = naive.preference_score(
                        sessions, graph, user_id, poi_id, hour
                    )
                    assert tables.preference(u, l, hour) == pytest.approx(
                        expected, rel=1e-12, abs=1e-15
                    ), (user_id, poi_id, hour)

    def test_consolidated_matches(self, tiny_world):
        sessions, graph, encodings = tiny_world
        tables, _ = build_tables(sessions, graph)
        for user_id, u in encodings.user_to_ix.items():
            for poi_id, l in encodings.poi_to_ix.items():
                for cur_id, p in encodings.poi_to_ix.items():
                    expected = naive.consolidated(
                        sessions, graph, user_id, poi_id, 9, cur_id
                    )
                    assert tables.consolidated(u, l, 9, p) == pytest.approx(
                        expected, rel=1e-12, abs=1e-15
                    )

    def test_matches_naive_on_synthetic_fixture(self, synth_small):
        """Cross-check on a larger, messier corpus (capped at 50 visits)."""
        sessions, graph, encodings = synth_small
        capped = []
        total = 0
        for s in sessions:
            if total + len(s) > 50:
                break
            capped.append(s)
            total += len(s)
        encodings = Encodings.fit(capped)
        tables = FeatureTables.build(capped, graph, encodings)
        for user_id, u in encodings.user_to_ix.items():
            for poi_id, l in encodings.poi_to_ix.items():
                assert tables._stats.ast[u, l] == pytest.approx(
                    naive.ast(capped, graph, user_id, poi_id), rel=1e-12, abs=1e-15
                )
                assert tables.preference(u, l, 9) == pytest.approx(
                    naive.preference_score(capped, graph, user_id, poi_id, 9),
                    rel=1e-12,
                    abs=1e-15,
                )


def random_world(rng, n_users=4, n_pois=6, n_cats=3, n_visits=40, with_friends=True):
    """Randomized sessions for property tests."""
    cats = [f"c{i}" for i in range(n_cats)]
    pois = [
        Poi(f"p{i}", 40.0 + 0.01 * i, -74.0, cats[i % n_cats]) for i in range(n_pois)
    ]
    per_user: dict = {}
    base = 1330905600
    for i in range(n_visits):
        u = f"u{rng.integers(0, n_users)}"
        per_user.setdefault(u, [])
        arrival = base + len(per_user[u]) * 7200 + int(rng.integers(0, 3600))
        poi = pois[rng.integers(0, n_pois)]
        per_user[u].append(Visit(poi, arrival, arrival + int(rng.integers(300, 7200))))
    sessions = [
        Session(u, tuple(sorted(vs, key=lambda v: v.arrival)))
        for u, vs in sorted(per_user.items())
    ]
    edges = []
    if with_friends:
        users = sorted(per_user)
        for i in range(len(users) - 1):
            if rng.random() < 0.5:
                edges.append((users[i], users[i + 1]))
    return sessions, SocialGraph(edges)


class TestInvariants:
    def test_tuning_factors_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            sessions, graph, = random_world(rng)
            tables, encodings = build_tables(sessions, graph)
            stats = tables._stats  # full data, one row per user
            for u in range(encodings.n_users):
                assert 0.0 <= stats.psi[u, 0] <= 1.0
                for c in range(encodings.n_categories):
                    assert 0.0 <= stats.alpha[u, c] <= 1.0
                    assert 0.0 <= stats.gamma[u, c] <= 1.0
                    assert 0.0 <= tables._beta[u, c] <= 1.0

    def test_consolidated_monotone_in_constraints(self):
        """Increasing any constraint never increases the final score."""
        rng = np.random.default_rng(5)
        for trial in range(1000):
            ps = rng.uniform(0.0, 3.0)
            values = rng.uniform(0.0, 1.0, size=2)
            bumped = values.copy()
            i = rng.integers(0, 2)
            bumped[i] = min(1.0, bumped[i] + rng.uniform(0.0, 1.0 - bumped[i]))
            before = ps * (1.0 - values.mean())
            after = ps * (1.0 - bumped.mean())
            assert after <= before + 1e-15

    def test_no_friends_collapses_social_blend(self):
        rng = np.random.default_rng(23)
        for trial in range(40):
            sessions, _ = random_world(rng, with_friends=False)
            tables, encodings = build_tables(sessions, SocialGraph())
            for u in range(encodings.n_users):
                for l in range(encodings.n_pois):
                    assert tables._stats.ast[u, l] == tables._stats.ac[u, l]

    def test_distinct_categories_reduce_to_own_term(self):
        """With every location its own category, the categorical sum
        collapses onto the location itself."""
        pois = [Poi(f"p{i}", 40.0 + 0.01 * i, -74.0, f"cat{i}") for i in range(3)]
        base = 1330905600
        visits = tuple(
            Visit(pois[i], base + i * 7200, base + i * 7200 + 1800) for i in range(3)
        )
        sessions = [Session("u0", visits)]
        tables, encodings = build_tables(sessions)
        for l in range(3):
            f_term = tables.stay.normalized[l] / (1 / 3)  # one of three visits
            assert tables._stats.ac[0, l] == pytest.approx(f_term)

    def test_user_encoding_order_does_not_matter(self, tiny_world):
        """Tables follow the user indices, not the order in which the
        encoding lists its users (a loaded encodings.json is sorted by id)."""
        sessions, graph, encodings = tiny_world
        shuffled = Encodings(
            encodings.poi_to_ix, encodings.cat_to_ix,
            dict(reversed(list(encodings.user_to_ix.items()))),
            encodings.poi_coords, encodings.poi_cat,
        )
        a = ref.saved_document(FeatureTables.build(sessions, graph, encodings))
        b = ref.saved_document(FeatureTables.build(sessions, graph, shuffled))
        assert a.pop("encodings") == encodings.to_dict()
        b.pop("encodings")
        assert a == b

    def test_preference_nonnegative_and_p_not_above_ps(self):
        rng = np.random.default_rng(31)
        sessions, graph = random_world(rng)
        tables, encodings = build_tables(sessions, graph)
        for u in range(encodings.n_users):
            for l in range(encodings.n_pois):
                ps = tables.preference(u, l, 9)
                assert ps >= 0.0
                p = tables.consolidated(u, l, 9, current_ix=0)
                assert p <= ps + 1e-15


class TestVectors:
    def test_attribute_vector_shape_and_popularity_range(self, synth_tables):
        vec = synth_tables.attribute_vector(0, 9, None)
        assert vec.shape == (ATTRIBUTE_DIM,)
        assert np.all(vec[6:] >= 0.0) and np.all(vec[6:] <= 1.0)

    def test_first_step_has_zero_distance(self, synth_tables):
        vec = synth_tables.attribute_vector(3, 9, None)
        assert vec[5] == 0.0

    def test_unknown_poi_rejected(self, synth_tables):
        with pytest.raises(KeyError):
            synth_tables.attribute_vector(synth_tables.n_pois + 3, 9, None)
        with pytest.raises(KeyError):
            synth_tables.preference(0, -1, 9)

    def test_feature_vector_two_visit_session(self):
        # 1 km apart, hours 9 -> 10
        sessions = [
            Session(
                "u0",
                (
                    make_visit("a", 40.0, -74.0, "Food", 9),
                    make_visit("b", 40.0 + 1 / 111.19, -74.0, "Bar", 10),
                ),
            ),
        ]
        tables, encodings = build_tables(sessions)
        vec = tables.session_steps(visit_arrays(sessions[:1], encodings))[1][0]
        assert vec.shape == (FEATURE_DIM,)
        assert vec[4] == pytest.approx(1.0, rel=1e-3)  # mean consecutive km
        assert vec[5] == 9.0 and vec[6] == 10.0
        assert vec[0] == encodings.category("Food")
        assert vec[1] == encodings.category("Bar")

    def test_single_visit_session_degenerates(self):
        sessions = [
            Session("u0", (make_visit("a", 40.0, -74.0, "Food", 9),)),
            Session(
                "u1",
                (
                    make_visit("a", 40.0, -74.0, "Food", 9),
                    make_visit("b", 40.01, -74.0, "Bar", 10),
                ),
            ),
        ]
        tables, encodings = build_tables(sessions)
        vec = tables.session_steps(visit_arrays(sessions[:1], encodings))[1][0]
        assert vec[0] == vec[1]
        assert vec[2] == vec[3]
        assert vec[4] == 0.0

    def test_cold_user_falls_back_to_generalized(self, tiny_world):
        sessions, graph, encodings = tiny_world
        tables, _ = build_tables(sessions, graph)
        assert tables.preference(None, 0, 9) == tables.preference(999, 0, 9)
        assert tables.preference(None, 0, 9) > 0.0


class TestAttributeFields:
    """Every field of ``attribute_vector`` pinned to the lookup it stands
    for, on built tables and on a saved-then-loaded copy."""

    @pytest.fixture(params=["built", "loaded"])
    def tables(self, request, synth_tables, tmp_path):
        if request.param == "built":
            return synth_tables
        synth_tables.save(tmp_path / "tables.json")
        return FeatureTables.load(tmp_path / "tables.json")

    def test_fields_equal_their_sources(self, tables):
        for l in range(tables.n_pois):
            cat = int(tables.poi_cat[l])
            prev = (l * 7 + 3) % tables.n_pois
            for h in range(24):
                vec = tables.attribute_vector(l, h, prev)
                assert vec[0] == tables.stay.normalized[l]
                assert vec[1] == tables.ast_poi[l]
                assert vec[2] == tables.astcat_hour[cat, h]
                assert vec[3] == tables.preference(None, l, h)
                assert vec[4] == cat
                assert vec[5] == tables.distance_km(prev, l)
                assert np.array_equal(vec[6:], tables.popularity[l])
                assert tables.attribute_vector(l, h, None)[5] == 0.0

    def test_encoded_attrs_are_scaled_step_vectors(self, tables, synth_small):
        from capseq.models import encode_sessions

        sessions, _, encodings = synth_small
        for session in sessions:
            if len(session) < 2:
                continue
            encoded = encode_sessions([session], tables)
            ixs = [encodings.poi(v.poi.poi_id) for v in session.visits]
            rows = [
                tables.attribute_vector(ixs[t], session.visits[t].hour,
                                        ixs[t - 1] if t > 0 else None)
                for t in range(len(encoded.inputs[0]))
            ]
            expected = np.array(rows) / tables.attribute_scale
            assert np.array_equal(encoded.attrs[0], expected)


def _stay_mean(d, x):
    d["stay"]["mean"]["0"] = x


def _stay_global_mean(d, x):
    d["stay"]["global_mean"] = x


def _visit_count(d, x):
    """The first listed user's first visit count set to ``x``."""
    cells = d["users"][0][1]
    cells[next(iter(cells))] = x


class TestSnapshot:
    def test_round_trip_preserves_lookups(self, request, tmp_path):
        for world in ("tiny_world", "synth_small"):
            self.check_round_trip(*request.getfixturevalue(world), tmp_path / world)

    @staticmethod
    def check_round_trip(sessions, graph, encodings, tmp_path):
        tables, _ = build_tables(sessions, graph)
        tmp_path.mkdir()
        path = tmp_path / "tables.json"
        tables.save(path)
        loaded = FeatureTables.load(path)
        np.testing.assert_array_equal(loaded.ast_poi, tables.ast_poi)
        np.testing.assert_array_equal(loaded.astcat_hour, tables.astcat_hour)
        # users out of range take the pooled score, like users without
        # check-ins: a dense row index must never wrap around
        users = [None, *range(encodings.n_users), encodings.n_users, -1]
        for u in users:
            for l in range(encodings.n_pois):
                if u is not None:
                    assert loaded._stats.ast[u, l] == tables._stats.ast[u, l]
                for h in range(24):
                    assert loaded.preference(u, l, h) == tables.preference(u, l, h)
                    if u is not None and not 0 <= u < encodings.n_users:
                        assert tables.preference(u, l, h) == tables.preference(None, l, h)
        again = tmp_path / "again.json"
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()
        for l in range(encodings.n_pois):
            np.testing.assert_array_equal(
                loaded.attribute_vector(l, 9, None), tables.attribute_vector(l, 9, None)
            )
        np.testing.assert_array_equal(loaded.attribute_scale, tables.attribute_scale)
        np.testing.assert_array_equal(loaded.feature_scale, tables.feature_scale)

    # every float array of a loaded table, as a function that puts a number
    # in the stored field it comes from, and the message that rejects a
    # non-finite one: the stay norms derive from the stay means, and
    # ast_poi, astcat_hour, the beta weights and popularity from the visit
    # counts
    NON_FINITE = {
        "stay-mean": (_stay_mean, "not a finite number"),
        "stay-norm": (_stay_mean, "not a finite number"),
        "stay-global-mean": (_stay_global_mean, "not a finite number"),
        "stay-global-norm": (_stay_global_mean, "not a finite number"),
        "poi-coords": (lambda d, x: d["poi_coords"][2].__setitem__(1, x), "not a finite number"),
        "dist-in": (lambda d, x: d["dist_in"][next(iter(d["dist_in"]))].__setitem__(1, x),
                    "not a finite number"),
        "dist-global": (lambda d, x: d["dist_global"].__setitem__(0, x), "not a finite number"),
        "session-features": (lambda d, x: (
            d["session_features"][next(iter(d["session_features"]))].__setitem__(4, x)),
            "not a finite number"),
        **{field: (_visit_count, "not a whole number")
           for field in ("ast-poi", "astcat-hour", "beta", "beta-pooled", "popularity")},
    }

    def test_names_a_field_of_the_wrong_type(self, synth_tables):
        d = ref.saved_document(synth_tables)
        d["stay"] = []
        with pytest.raises(ValueError, match="field of the wrong type"):
            FeatureTables.from_dict(d)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", sorted(NON_FINITE))
    def test_rejects_non_finite_numbers(self, synth_tables, field, value):
        d = ref.saved_document(synth_tables)
        put, message = self.NON_FINITE[field]
        put(d, value)
        with pytest.raises(ValueError, match=message):
            FeatureTables.from_dict(d)


class TestSaveText:
    """``save`` encodes each field once for both the digest and the file;
    the earlier one ``json.dumps`` of the document, and of its stored
    fields for the digest, are its oracles in ``scalar_reference``."""

    @staticmethod
    def bare(tables) -> FeatureTables:
        """``tables`` without friends and without session features."""
        d = ref.saved_document(tables)
        d["friends"], d["session_features"] = {}, {}
        d["stored_sha256"] = ref.stored_sha256(d)
        return FeatureTables.from_dict(d)

    @pytest.mark.parametrize("case", ["synth", "bare"])
    def test_file_and_digest_equal_one_dump_of_the_document(self, synth_tables, tmp_path,
                                                            case):
        tables = synth_tables if case == "synth" else self.bare(synth_tables)
        tables.save(tmp_path / "tables.json")
        text = (tmp_path / "tables.json").read_text(encoding="utf-8")
        d = json.loads(text)
        if case == "bare":
            assert not any(d["friends"].values()) and d["session_features"] == {}
        assert d["stored_sha256"] == ref.stored_sha256(d)
        assert text == json.dumps(d, sort_keys=True)


def _state(value, path="tables"):
    """Every leaf of a ``FeatureTables``' state as (path, comparable
    bytes): arrays by dtype, shape and bytes, other values by type and
    ``repr``, which round-trips floats exactly."""
    if isinstance(value, np.ndarray):
        yield path, (value.dtype.str, value.shape, value.tobytes())
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _state(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _state(item, f"{path}[{i}]")
    elif hasattr(value, "__dict__"):
        for key, item in vars(value).items():
            yield from _state(item, f"{path}.{key}")
    else:
        yield path, (type(value).__name__, repr(value))


class TestLoadEqualsBuild:
    """A loaded table derives every array from the stored visit counts
    through the same path as ``build``, so it equals the built one bit for
    bit, whatever the session order."""

    @staticmethod
    def corpora(synth_small):
        sessions, graph, encodings = synth_small
        yield "full", sessions
        fold_of, _ = assign_folds(sessions, 5, 7)
        for fold in (0, 3):
            yield f"fold-{fold}", [s for i, s in enumerate(sessions) if fold_of[i] != fold]
        rng = np.random.default_rng(5)
        permuted = [sessions[i] for i in rng.permutation(len(sessions))]
        first_seen = list(dict.fromkeys(s.user_id for s in permuted))
        assert first_seen != list(encodings.user_to_ix)
        yield "permuted", permuted

    def test_every_array_of_a_loaded_table_equals_build(self, synth_small, tmp_path):
        _, graph, encodings = synth_small
        for name, sessions in self.corpora(synth_small):
            built = FeatureTables.build(sessions, graph, encodings)
            built.save(tmp_path / f"{name}.json")
            loaded = FeatureTables.load(tmp_path / f"{name}.json")
            for tables in (built, loaded):
                tables.attribute_scale  # the lazily built attribute table
                tables.distance_km([0, 3], [1, 2])  # the lazily filled distance rows
            want, got = dict(_state(built)), dict(_state(loaded))
            assert got.keys() == want.keys(), name
            differ = [path for path in want if got[path] != want[path]]
            assert not differ, (name, differ)


def _category_past_end(tables):
    tables["poi_cat"][0] = len(tables["encodings"]["categories"])


def _infinite_stay_means(tables):
    tables["stay"]["mean"] = dict.fromkeys(tables["stay"]["mean"], float("inf"))


def _nan_coordinate(tables):
    tables["poi_coords"][0][0] = float("nan")


def _zero_visit_count(tables):
    cells = tables["users"][0][1]
    cells[next(iter(cells))] = 0


def _stay_mean_tripled(tables):
    means = tables["stay"]["mean"]
    first = next(iter(means))
    means[first] *= 3


def _dist_global_doubled(tables):
    tables["dist_global"] = [2 * bound for bound in tables["dist_global"]]


def _session_feature_edited(tables):
    features = tables["session_features"]
    features[next(iter(features))][4] += 1.0  # the mean step distance


def _cell_dropped(tables):
    cells = next(cells for _, cells in tables["users"] if len(cells) > 1)
    del cells[next(iter(cells))]


def _friend_list_dropped(tables):
    friends = tables["friends"]
    del friends[next(u for u, fs in friends.items() if fs)]


# case -> what replaces a saved tables file: text, or a function that
# edits its parsed JSON in place
BAD_FILES = {
    "corrupt-tables-json": '{"encodings": {"poi_to_ix',
    "binary-tables": "\udcff\udcfe",
    "tables-json-a-list": "[]",
    "tables-category-past-end": _category_past_end,
    "tables-bool-category": lambda t: t["poi_cat"].__setitem__(0, True),
    "tables-without-encodings": lambda tables: tables.pop("encodings"),
    "tables-infinite-stay-means": _infinite_stay_means,
    "tables-nan-coordinate": _nan_coordinate,
    "tables-zero-visit-count": _zero_visit_count,
    "tables-user-listed-twice": lambda t: t["users"].append(t["users"][0]),
    "tables-user-without-visits": lambda t: t["users"][0].__setitem__(1, {}),
    "tables-user-past-end": (
        lambda t: t["users"][0].__setitem__(0, len(t["encodings"]["users"]))),
    "tables-stay-mean-edited": _stay_mean_tripled,
    "tables-distance-bound-edited": _dist_global_doubled,
    "tables-session-feature-edited": _session_feature_edited,
    "tables-cell-dropped": _cell_dropped,
    "tables-friend-list-dropped": _friend_list_dropped,
}


# what the mutation test writes in place of a number
NUMBERS = (float("nan"), float("inf"), float("-inf"), -1, 1e308, 0.0, True)
RETYPED = {dict: [], list: {}, str: 7, int: "7", float: "7.5", bool: "true"}


def _json_values(value, path=()):
    """(path, value) of every value nested in a parsed JSON document."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,), item
        yield from _json_values(item, path + (key,))


def _edited(raw: bytes, path: tuple, value=None) -> bytes:
    """``raw`` JSON with the value at ``path`` replaced by ``value``, or
    its key dropped when ``value`` is None."""
    doc = json.loads(raw)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).encode("utf-8")


def _table_mutations(raw: bytes, seed: int):
    """Seeded (name, bytes) mutations of a tables file: a truncation, a
    flipped bit and a non-UTF-8 byte; and per top-level field a dropped
    key, a retyped value and each of NUMBERS in place of a number, each
    at a seeded place inside the field."""
    rng = np.random.default_rng(seed)
    at = int(rng.integers(len(raw)))
    yield f"cut at {at}", raw[:at]
    flipped = bytearray(raw)
    flipped[at] ^= 1 << int(rng.integers(8))
    yield f"bit flipped at {at}", bytes(flipped)
    yield f"0xff at {at}", raw[:at] + b"\xff" + raw[at + 1:]
    values = list(_json_values(json.loads(raw)))
    for field in sorted({path[0] for path, _ in values}):
        inside = [(path, v) for path, v in values if path[0] == field]
        keys = [path for path, _ in inside if isinstance(path[-1], str)]
        path = keys[int(rng.integers(len(keys)))]
        yield f"{path} dropped", _edited(raw, path)
        path, value = inside[int(rng.integers(len(inside)))]
        yield f"{path} retyped", _edited(raw, path, RETYPED[type(value)])
        numbers = [path for path, v in inside if type(v) in (int, float)]
        if numbers:
            path = numbers[int(rng.integers(len(numbers)))]
            for number in NUMBERS:
                yield f"{path} = {number!r}", _edited(raw, path, number)


class TestLoad:
    """``FeatureTables.load`` reads back what ``save`` wrote and refuses
    anything else with a ``ValueError``."""

    @pytest.mark.parametrize("case", sorted(BAD_FILES))
    def test_refuses_a_bad_file(self, case, synth_tables, tmp_path):
        path = tmp_path / "tables.json"
        content = BAD_FILES[case]
        if callable(content):
            synth_tables.save(path)
            tables = json.loads(path.read_text(encoding="utf-8"))
            content(tables)
            content = json.dumps(tables)
        path.write_text(content, encoding="utf-8", errors="surrogateescape")
        with pytest.raises(ValueError):
            FeatureTables.load(path)

    @pytest.mark.parametrize("number", NUMBERS, ids=repr)
    @pytest.mark.parametrize("kind", ["pois", "categories", "users"])
    def test_refuses_an_index_that_is_not_one(self, kind, number, synth_tables, tmp_path):
        """An encoded index written as NaN, ±inf, -1, 1e308, 0.0 or true
        is refused. 0.0 and true replace the index they equal, 0 and 1, so
        the label map stays one-to-one."""
        path = tmp_path / "tables.json"
        synth_tables.save(path)
        tables = json.loads(path.read_text(encoding="utf-8"))
        labels = tables["encodings"][kind]
        at = number if number in (0, 1) else 0
        labels[next(label for label, ix in labels.items() if ix == at)] = number
        path.write_text(json.dumps(tables), encoding="utf-8")
        with pytest.raises(ValueError):
            FeatureTables.load(path)

    def test_mutated_tables_load_or_raise_value_error(self, synth_tables, tmp_path):
        """Every seeded mutation of a tables file either loads or is
        refused with a ``ValueError``, and raises nothing else."""
        path = tmp_path / "tables.json"
        synth_tables.save(path)
        raw = path.read_bytes()
        failed = []
        for seed in range(3):
            for name, mutated in _table_mutations(raw, seed):
                path.write_bytes(mutated)
                try:
                    FeatureTables.load(path)
                except ValueError:
                    pass
                except Exception as exc:  # anything else is a defect of the reader
                    failed.append((seed, name, repr(exc)))
        assert not failed, failed


def _friends_at_other_hours():
    """A chain of three friends who visit the same POIs of two categories,
    each at hours of day the others never use."""
    pois = [(f"p{i}", 40.0 + 0.01 * i, -74.0, ("Food", "Bar")[i % 2]) for i in range(5)]

    def visit(i, hour, day):
        l = (i + 2 * day) % 5
        return make_visit(*pois[l], hour, stay_minutes=10 + 10 * l, day=day)

    sessions = [
        Session(user, tuple(visit(i, hour + i, day) for i in range(3)))
        for user, hour in (("u0", 8), ("u1", 12), ("u2", 18)) for day in range(3)
    ]
    return sessions, SocialGraph([("u0", "u1"), ("u1", "u2")])


class TestOnePassInterest:
    """The one pass over the visited cells gives every full-data statistic
    and ``astcat_hour`` bit for bit as the dense passes of
    ``scalar_reference.interest_stats``, one for the full data and one per
    hour of day."""

    @staticmethod
    def corpora(synth_small):
        sessions, graph, encodings = synth_small
        for name, subset in TestLoadEqualsBuild.corpora(synth_small):
            yield name, subset, graph, encodings
        yield "empty-graph", sessions, SocialGraph(), encodings
        sessions, graph = _friends_at_other_hours()
        yield "friends-at-other-hours", sessions, graph, Encodings.fit(sessions)

    def test_stats_and_astcat_hour_equal_the_dense_passes(self, synth_small):
        for name, sessions, graph, encodings in self.corpora(synth_small):
            tables = FeatureTables.build(sessions, graph, encodings)
            stats, astcat_hour = ref.interest_stats(tables)
            want = {**stats._asdict(), "astcat_hour": astcat_hour}
            got = {**tables._stats._asdict(), "astcat_hour": tables.astcat_hour}
            differ = [key for key in want if dict(_state(got[key])) != dict(_state(want[key]))]
            assert not differ, (name, differ)

    def test_friends_at_other_hours_share_no_hourly_cell(self):
        sessions, graph = _friends_at_other_hours()
        tables, _ = build_tables(sessions, graph)
        assert tables._stats.psi[:3].min() > 0  # they share POIs over the full data
        hours = [8, 9, 10, 12, 13, 14, 18, 19, 20]
        assert np.flatnonzero(tables.astcat_hour.any(axis=0)).tolist() == hours


def _short_and_long_sessions():
    """Sessions of 1, 2, 9, 12, 26 and 30 stops at eight POIs of three
    categories, the long ones coming back to POIs, with stays of 5 to 26
    minutes."""
    pois = [(f"p{i}", 40.0 + 0.013 * i, -74.0 + 0.007 * (i % 3), ("Food", "Bar", "Park")[i % 3])
            for i in range(8)]

    def session(user, n, step, day):
        return Session(user, tuple(
            make_visit(*pois[(step * i + day) % 8], 0.5 * i + day % 5,
                       stay_minutes=5 + 7 * ((i + day) % 4), day=day)
            for i in range(n)))

    shapes = [("u0", 1, 1), ("u1", 30, 3), ("u0", 9, 5), ("u2", 12, 1), ("u1", 1, 2),
              ("u2", 2, 7), ("u0", 26, 3)]
    sessions = [session(*shape, day) for day, shape in enumerate(shapes)]
    return sessions, SocialGraph([("u0", "u1")])


def _encoded_state(tables):
    """What ``build`` takes from the encoded visits: the stay statistics,
    the distance bounds and the session features, as ``_state`` pairs."""
    fields = ("stay", "_dist_in", "_dist_own", "_dist_global", "_session_features")
    return {name: dict(_state(getattr(tables, name))) for name in fields}


class TestOneEncodingPass:
    """``build`` and ``encode_sessions`` encode each visit once, with
    ``visit_arrays``, and take everything else from its arrays, bit for bit
    as the per-visit loops of ``scalar_reference.session_tables`` and
    ``scalar_reference.encode_session``."""

    @staticmethod
    def corpora(synth_small):
        _, graph, encodings = synth_small
        for name, sessions in TestLoadEqualsBuild.corpora(synth_small):
            yield name, sessions, graph, encodings
        sessions, graph = _short_and_long_sessions()
        yield "short-and-long", sessions, graph, Encodings.fit(sessions)
        # enough shared POIs that the order of adding visitors' stays shows
        records, graph = synth_dataset(seed=3, n_users=8, n_pois=30, days=10)
        sessions = build_sessions(records)
        permuted = [sessions[i] for i in np.random.default_rng(5).permutation(len(sessions))]
        yield "permuted-8-users", permuted, graph, Encodings.fit(sessions)

    def test_each_visit_is_encoded_once(self, synth_small, poi_lookups):
        from capseq.models import encode_sessions

        table, graph, encodings = synth_small
        sessions = list(table)
        calls = poi_lookups(encodings)
        # a table under its own encodings hands over its columns
        assert ref.saved_document(FeatureTables.build(table, graph, encodings)) == (
            ref.saved_document(FeatureTables.build(sessions, graph, encodings)))
        assert calls == [v.poi.poi_id for s in sessions for v in s.visits]
        calls.clear()
        tables = FeatureTables.build(sessions, graph, encodings)
        assert calls == [v.poi.poi_id for s in sessions for v in s.visits]
        calls.clear()
        train = [s for s in sessions if len(s) >= 2]
        encode_sessions(train, tables)
        assert calls == [v.poi.poi_id for s in train for v in s.visits]

    def test_corpora_cover_the_orders_and_lengths(self, synth_small):
        from capseq.models import MAX_STEPS

        for name, sessions, _, encodings in self.corpora(synth_small):
            seen = dict.fromkeys(encodings.poi(v.poi.poi_id) for s in sessions for v in s.visits)
            if name.startswith("fold"):  # first seen is not index order
                assert list(seen) != sorted(seen), name
        lengths = {len(s) for s in _short_and_long_sessions()[0]}
        assert 1 in lengths and 8 < min(lengths - {1, 2}) and MAX_STEPS + 1 < max(lengths)

    def test_build_and_encoding_equal_the_per_visit_loops(self, synth_small):
        from capseq.models import encode_sessions

        for name, sessions, graph, encodings in self.corpora(synth_small):
            tables = FeatureTables.build(sessions, graph, encodings)
            want = _encoded_state(ref.session_tables(sessions, encodings))
            got = _encoded_state(tables)
            assert [key for key in want if got[key] != want[key]] == [], name
            train = [s for s in sessions if len(s) >= 2]
            expected = ref.make_batch([ref.encode_session(s, tables) for s in train],
                                      tables.n_pois)
            assert dict(_state(encode_sessions(train, tables))) == dict(_state(expected)), name


class TestBuild:
    def test_rejects_a_corpus_without_pois(self):
        with pytest.raises(ValueError, match="no POIs"):
            FeatureTables.build([])

    def test_poi_seen_only_in_held_out_sessions_keeps_its_geography(self, tiny_world):
        """Coordinates and categories come from the encodings' catalogue,
        not from the sessions the tables are built on."""
        sessions, graph, encodings = tiny_world
        train = [s for s in sessions
                 if all(v.poi.poi_id != "p3" for v in s.visits)]
        tables = FeatureTables.build(train, graph, encodings)
        p3 = encodings.poi("p3")
        [poi] = {v.poi for s in sessions for v in s.visits if v.poi.poi_id == "p3"}
        assert tables.poi_coords[p3].tolist() == [poi.lat, poi.lon]
        assert tables.poi_cat[p3] == encodings.category("Park")
        assert tables.distance_km(encodings.poi("p2"), p3) == pytest.approx(1.0, abs=0.01)

    def test_rejects_encodings_without_a_catalogue(self, tiny_world):
        sessions, graph, encodings = tiny_world
        with pytest.raises(DataError, match="catalogue"):
            FeatureTables.build(sessions, graph, Encodings.from_dict(encodings.to_dict()))

    def test_builds_on_no_sessions_and_encodes_none(self, tiny_world):
        """A training split can be empty: its tables hold the global
        fallbacks only, and its encoding is an empty batch."""
        from capseq.models import encode_sessions

        _, graph, encodings = tiny_world
        tables = FeatureTables.build([], graph, encodings)
        assert (tables.stay.global_mean, tables._dist_global) == (0.0, (0.0, 0.0))
        assert not tables.stay.own.any() and not tables._session_features
        assert not tables.astcat_hour.any() and not tables._stats.ast.any()
        batch = encode_sessions([], tables)
        assert (batch.inputs.shape, batch.attrs.shape, batch.feats.shape) == (
            (0, 0), (0, 0, ATTRIBUTE_DIM), (0, FEATURE_DIM))

    def test_builds_for_a_catalogue_without_users(self, tiny_world):
        """Encodings of POIs and no user give tables whose interest means
        over the users read 0, with no division by the 0 users."""
        _, _, encodings = tiny_world
        no_users = Encodings(encodings.poi_to_ix, encodings.cat_to_ix, {},
                             encodings.poi_coords, encodings.poi_cat)
        tables = FeatureTables.build([], SocialGraph(), no_users)
        assert tables.ast_poi.tolist() == [0.0] * encodings.n_pois
        assert not tables.astcat_hour.any()
