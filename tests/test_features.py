"""Feature statistics: hand-worked examples, dual-implementation
equivalence against the literal transcription, and structural
invariants."""

import numpy as np
import pytest

import naive_reference as naive
from conftest import make_visit
from capseq.data.types import Encodings, Poi, Session, SocialGraph, Visit
from capseq.features import (
    ATTRIBUTE_DIM,
    FEATURE_DIM,
    FeatureTables,
    compute_stay_stats,
    temporal_popularity,
)


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
        stats = compute_stay_stats(sessions, Encodings.fit(sessions))
        assert stats.mean(0) == pytest.approx(20 * 60)

    def test_single_poi_normalizes_to_zero(self):
        sessions = [
            Session("u0", (make_visit("p", 40.0, -74.0, "Food", 9, 10),)),
        ]
        stats = compute_stay_stats(sessions, Encodings.fit(sessions))
        assert stats.norm(0) == 0.0

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
        stats = compute_stay_stats(sessions, Encodings.fit(sessions))
        assert stats.norm(0) == stats.norm(1) == 0.0

    def test_matches_naive_on_fixture(self, tiny_world):
        sessions, graph, encodings = tiny_world
        stats = compute_stay_stats(sessions, encodings)
        for poi_id, ix in encodings.poi_to_ix.items():
            assert stats.mean(ix) == pytest.approx(
                naive.stay_time(sessions, poi_id), rel=1e-12
            )
            assert stats.norm(ix) == pytest.approx(
                naive.stay_time_normalized(sessions, poi_id), rel=1e-12
            )


class TestTemporalPopularity:
    def test_single_hour_spike(self):
        sessions = [
            Session("u0", (make_visit("p", 40.0, -74.0, "Food", 13),)),
            Session("u1", (make_visit("p", 40.0, -74.0, "Food", 13, day=1),)),
        ]
        pop = temporal_popularity(sessions, Encodings.fit(sessions))
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
        pop = temporal_popularity(sessions, Encodings.fit(sessions))
        assert pop[0, 9] == pop[0, 15] == 1.0

    def test_counts_match_hand_count(self, tiny_world):
        sessions, graph, encodings = tiny_world
        pop = temporal_popularity(sessions, encodings)
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
                assert tables.ast_cat_user(u, l) == pytest.approx(
                    expected, rel=1e-12, abs=1e-15
                ), (user_id, poi_id)

    def test_ast_matches(self, tiny_world):
        sessions, graph, encodings = tiny_world
        tables, _ = build_tables(sessions, graph)
        for user_id, u in encodings.user_to_ix.items():
            for poi_id, l in encodings.poi_to_ix.items():
                expected = naive.ast(sessions, graph, user_id, poi_id)
                assert tables.ast(u, l) == pytest.approx(
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
                assert tables.ast(u, l) == pytest.approx(
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
                    assert 0.0 <= tables.beta(u, c) <= 1.0

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
                    assert tables.ast(u, l) == tables.ast_cat_user(u, l)

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
            f_term = tables.stay.norm(l) / (1 / 3)  # one of three visits
            assert tables.ast_cat_user(0, l) == pytest.approx(f_term)

    def test_user_encoding_order_does_not_matter(self, tiny_world):
        """Tables follow the user indices, not the order in which the
        encoding lists its users (a loaded encodings.json is sorted by id)."""
        sessions, graph, encodings = tiny_world
        shuffled = Encodings(
            encodings.poi_to_ix, encodings.cat_to_ix,
            dict(reversed(list(encodings.user_to_ix.items()))),
        )
        a = FeatureTables.build(sessions, graph, encodings).to_dict()
        b = FeatureTables.build(sessions, graph, shuffled).to_dict()
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
        vec = tables.feature_vector(sessions[0])
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
        tables, _ = build_tables(sessions)
        vec = tables.feature_vector(sessions[0])
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
                assert vec[0] == tables.stay.norm(l)
                assert vec[1] == tables.ast_poi[l]
                assert vec[2] == tables.astcat_hour[cat, h]
                assert vec[3] == tables.preference(None, l, h)
                assert vec[4] == cat
                assert vec[5] == tables.distance_km(prev, l)
                assert np.array_equal(vec[6:], tables.popularity[l])
                assert tables.attribute_vector(l, h, None)[5] == 0.0

    def test_encoded_attrs_are_scaled_step_vectors(self, tables, synth_small):
        from capseq.models import encode_session

        sessions, _, encodings = synth_small
        for session in sessions:
            if len(session) < 2:
                continue
            encoded = encode_session(session, tables, encodings)
            ixs = [encodings.poi(v.poi.poi_id) for v in session.visits]
            rows = [
                tables.attribute_vector(ixs[t], session.visits[t].hour,
                                        ixs[t - 1] if t > 0 else None)
                for t in range(len(encoded.inputs))
            ]
            expected = np.array(rows) / tables.attribute_scale
            assert np.array_equal(encoded.attrs, expected)


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
                    assert loaded.ast(u, l) == tables.ast(u, l)
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
