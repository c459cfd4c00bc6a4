"""Baselines: popularity radius growth, Markov smoothing arithmetic,
Apriori vs exhaustive enumeration, HITS vs an independent power
iteration."""

import numpy as np
import pytest

from capseq.data.types import Encodings, Poi, Session, SocialGraph, Visit
from capseq.features import FeatureTables
from capseq.generation import GenRequest
from capseq.geo import WALK_SPEED_KMH
from capseq.baselines import (
    AprioriRecommender,
    HitsRecommender,
    MarkovRecommender,
    PopularityRecommender,
    apriori_generate,
    cluster_regions,
    hits_fit,
    hits_rank,
    markov_fit,
    markov_generate,
    popularity_next,
    power_iterate,
)
from capseq.baselines.apriori import DEFAULT_EPSILON_KM, neighbour_lists
from capseq.baselines.hits import sequence_score


def line_coords(n, spacing_km=1.0, lat0=40.0, lon=-74.0):
    return np.array([[lat0 + i * spacing_km / 111.19, lon] for i in range(n)])


class TestPopularityNext:
    def test_most_visited_within_radius(self):
        coords = line_coords(3, spacing_km=0.5)
        counts = np.array([1.0, 5.0, 9.0])
        assert popularity_next(counts, coords, 0, exclusions={0}) == 2

    def test_excluded_best_falls_to_second(self):
        coords = line_coords(3, spacing_km=0.5)
        counts = np.array([1.0, 5.0, 9.0])
        assert popularity_next(counts, coords, 0, exclusions={0, 2}) == 1

    def test_radius_grows_geometrically(self):
        # nearest eligible POI at 5 km; 2 -> 3 -> 4.5 -> 6.75 finds it
        coords = np.array([[40.0, -74.0], [40.0 + 5.0 / 111.19, -74.0]])
        counts = np.array([3.0, 1.0])
        assert popularity_next(counts, coords, 0, exclusions={0}) == 1

    def test_everything_excluded_errors(self):
        coords = line_coords(2)
        with pytest.raises(LookupError):
            popularity_next(np.ones(2), coords, 0, exclusions={0, 1})


def toy_sessions_for_markov():
    p = {
        "a": Poi("a", 40.0, -74.0, "Food"),
        "b": Poi("b", 40.01, -74.0, "Bar"),
    }

    def v(pid, hour):
        return Visit(p[pid], 1330905600 + hour * 3600, 1330905600 + hour * 3600 + 600)

    return [Session("u0", (v("a", 9), v("b", 10)))]


class TestMarkov:
    def test_laplace_arithmetic(self):
        sessions = toy_sessions_for_markov()
        enc = Encodings.fit(sessions)
        model = markov_fit(sessions, enc, smoothing=1.0)
        chain = model.chain_for(enc.user("u0"))
        a, b = enc.poi("a"), enc.poi("b")
        # single a->b transition, alphabet {a, b}: P(b|a) = (1+1)/(1+2)
        assert chain.transition[chain.index[a], chain.index[b]] == pytest.approx(2 / 3)
        assert chain.transition[chain.index[a], chain.index[a]] == pytest.approx(1 / 3)

    def test_rows_stochastic_on_random_data(self, synth_small):
        sessions, graph, enc = synth_small
        model = markov_fit(sessions, enc)
        for chain in model.chains.values():
            sums = chain.transition.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            assert np.all(chain.transition > 0)
            assert chain.initial.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_chain_reproduces_path(self):
        sessions = toy_sessions_for_markov()
        enc = Encodings.fit(sessions)
        model = markov_fit(sessions, enc, smoothing=0.0)
        rng = np.random.default_rng(0)
        seq = markov_generate(model, enc.user("u0"), enc.poi("a"), 2, rng)
        assert seq == [enc.poi("a"), enc.poi("b")]

    def test_unknown_user_uses_population_chain(self):
        sessions = toy_sessions_for_markov()
        enc = Encodings.fit(sessions)
        model = markov_fit(sessions, enc, smoothing=0.0)
        rng = np.random.default_rng(0)
        seq = markov_generate(model, 999, enc.poi("a"), 2, rng)
        assert seq == [enc.poi("a"), enc.poi("b")]


def small_world(n_pois=5, spacing_km=1.0):
    """One user walking a line of POIs; builds tables for the trip models."""
    pois = [
        Poi(f"p{i}", 40.0 + i * spacing_km / 111.19, -74.0, f"c{i % 2}")
        for i in range(n_pois)
    ]
    base = 1330905600 + 9 * 3600
    sessions = []
    for day in range(3):
        visits = tuple(
            Visit(pois[i], base + day * 86400 + i * 1800,
                  base + day * 86400 + i * 1800 + 900)
            for i in range(n_pois)
        )
        sessions.append(Session("u0", visits))
    enc = Encodings.fit(sessions)
    tables = FeatureTables.build(sessions, SocialGraph(), enc)
    return sessions, enc, tables


def brute_force_trips(tables, user, start, start_hour, length, epsilon_km,
                      budget_hours):
    """Exhaustive enumeration oracle mirroring the trip constraints."""
    budget = budget_hours * 3600.0
    results = []

    def walk(pois, hours, elapsed, travel, score):
        if len(pois) == length:
            results.append((tuple(pois), score, travel))
            return
        grown = False
        for nxt in range(tables.n_pois):
            if nxt in pois:
                continue
            dist = tables.distance_km(pois[-1], nxt)
            if dist > epsilon_km:
                continue
            t = dist / WALK_SPEED_KMH * 3600.0
            e = elapsed + t + tables.stay.mean(nxt)
            if e > budget:
                continue
            grown = True
            new_hour = (hours[-1] + (tables.stay.mean(pois[-1]) + t) / 3600.0) % 24
            gain = tables.consolidated(user, nxt, int(new_hour), pois[-1])
            walk(pois + [nxt], hours + [new_hour], e, travel + t, score + gain)
        if not grown and len(pois) < length:
            results.append((tuple(pois), score, travel))

    walk([start], [float(start_hour) % 24],
         tables.stay.mean(start), 0.0,
         tables.preference(user, start, int(start_hour)))
    full = [r for r in results if len(r[0]) == length]
    pool = full or results
    return sorted(pool, key=lambda r: (-r[1], r[2], r[0]))


class TestApriori:
    def test_neighbors_within_epsilon_form_candidates(self):
        sessions, enc, tables = small_world(n_pois=3, spacing_km=1.0)
        seqs = apriori_generate(tables, 0, 1, 9, length=2, epsilon_km=2.0, k=10,
                                beam_width=None)
        two_sets = {tuple(s.pois) for s in seqs}
        assert two_sets == {(1, 0), (1, 2)}

    def test_zero_budget_keeps_singleton(self):
        sessions, enc, tables = small_world(n_pois=3)
        seqs = apriori_generate(tables, 0, 0, 9, length=3, budget_hours=0.0, k=5)
        assert [s.pois for s in seqs] == [[0]]

    def test_matches_exhaustive_enumeration(self):
        sessions, enc, tables = small_world(n_pois=5)
        for length in (2, 3, 4, 5):
            got = apriori_generate(tables, 0, 0, 9, length=length, epsilon_km=2.0,
                                   budget_hours=8.0, k=200, beam_width=None)
            expected = brute_force_trips(tables, 0, 0, 9, length, 2.0, 8.0)
            assert [tuple(s.pois) for s in got] == [e[0] for e in expected[:200]]
            for s, e in zip(got, expected):
                assert s.score == pytest.approx(e[1], rel=1e-12)

    def test_beam_equals_exhaustive_when_wide_enough(self):
        sessions, enc, tables = small_world(n_pois=6, spacing_km=0.8)
        wide = apriori_generate(tables, 0, 0, 9, length=4, k=5, beam_width=10_000)
        exact = apriori_generate(tables, 0, 0, 9, length=4, k=5, beam_width=None)
        assert [s.pois for s in wide] == [s.pois for s in exact]

    def test_constraints_respected_on_every_output(self):
        sessions, enc, tables = small_world(n_pois=6, spacing_km=1.5)
        seqs = apriori_generate(tables, 0, 0, 9, length=4, epsilon_km=2.0,
                                budget_hours=8.0, k=50, beam_width=50)
        for s in seqs:
            elapsed = tables.stay.mean(s.pois[0])
            for a, b in zip(s.pois, s.pois[1:]):
                d = tables.distance_km(a, b)
                assert d <= 2.0 + 1e-9
                elapsed += d / WALK_SPEED_KMH * 3600.0 + tables.stay.mean(b)
            assert elapsed <= 8.0 * 3600.0 + 1e-6

    def test_neighbour_lists_hold_exactly_the_pois_within_epsilon(self, synth_tables):
        tables = synth_tables
        for epsilon in (0.5, DEFAULT_EPSILON_KM):
            neighbours = neighbour_lists(tables, epsilon)
            assert len(neighbours) == tables.n_pois
            for last, row in enumerate(neighbours):
                listed = [nxt for nxt, _, _, _ in row]
                assert listed == sorted(listed)
                for nxt, km, _, _ in row:
                    assert km == tables.distance_km(last, nxt)
                    assert km <= epsilon
                for other in set(range(tables.n_pois)) - set(listed) - {last}:
                    assert tables.distance_km(last, other) > epsilon

    def test_fitted_recommender_matches_exhaustive_enumeration(self, synth_small,
                                                                synth_tables):
        sessions, _, _ = synth_small
        model = AprioriRecommender(beam_width=None).fit(sessions, synth_tables)
        for user, start, hour in ((0, 0, 9.0), (3, 7, 17.5), (None, 12, 23.75)):
            for length in (2, 3, 4):
                request = GenRequest(user=user, start_poi=start, start_hour=hour,
                                     length=length, candidates=50, k=50)
                got = model.generate(request)
                expected = brute_force_trips(synth_tables, user, start, hour,
                                             length, DEFAULT_EPSILON_KM, 8.0)
                assert [tuple(s.pois) for s in got] == [e[0] for e in expected[:50]]
                assert [s.score for s in got] == [e[1] for e in expected[:50]]

    def test_bad_settings_rejected_before_generation(self, synth_small, synth_tables):
        sessions, _, _ = synth_small
        for bad in ({"epsilon_km": 0.0}, {"beam_width": 0}):
            with pytest.raises(ValueError):
                AprioriRecommender(**bad)
            model = AprioriRecommender().set_params(**bad)
            with pytest.raises(ValueError):
                model.fit(sessions, synth_tables)


def independent_power_iteration(M, iterations=100):
    """Plain 100-step reference iteration, no early stop."""
    h = np.ones(M.shape[0]) / np.sqrt(M.shape[0])
    a = np.ones(M.shape[1]) / np.sqrt(M.shape[1])
    for _ in range(iterations):
        a = M.T @ h
        a = a / np.linalg.norm(a)
        h = M @ a
        h = h / np.linalg.norm(h)
    return h, a


class TestHits:
    def test_star_graph_max_authority(self):
        # every user visits location 0; location 1 gets one visit
        M = np.array([[3.0, 1.0], [2.0, 0.0], [4.0, 0.0]])
        h, a = power_iterate(M)
        assert a[0] == max(a)
        assert np.all(a >= 0) and np.all(h >= 0)
        assert np.linalg.norm(a) == pytest.approx(1.0)
        assert np.linalg.norm(h) == pytest.approx(1.0)

    def test_matches_independent_iteration(self):
        M = np.array(
            [[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [2.0, 0.0, 1.0]]
        )
        h, a = power_iterate(M)
        h_ref, a_ref = independent_power_iteration(M)
        np.testing.assert_allclose(h, h_ref, atol=1e-8)
        np.testing.assert_allclose(a, a_ref, atol=1e-8)

    def test_single_location_region_authority_one(self):
        M = np.array([[2.0], [5.0]])
        _, a = power_iterate(M)
        assert a[0] == pytest.approx(1.0)

    def test_order_invariance(self, synth_small):
        sessions, graph, enc = synth_small
        tables_coords = np.zeros((enc.n_pois, 2))
        for s in sessions:
            for v in s.visits:
                tables_coords[enc.poi(v.poi.poi_id)] = (v.poi.lat, v.poi.lon)
        model_fwd = hits_fit(sessions, enc, tables_coords)
        model_rev = hits_fit(list(reversed(sessions)), enc, tables_coords)
        np.testing.assert_allclose(
            model_fwd.authority, model_rev.authority, atol=1e-8
        )

    def test_regions_respect_radius(self):
        coords = np.array(
            [[40.0, -74.0], [40.05, -74.0], [41.0, -74.0], [41.02, -74.0]]
        )
        region = cluster_regions(coords, radius_km=10.0)
        assert region[0] == region[1]
        assert region[2] == region[3]
        assert region[0] != region[2]

    def test_rank_prefers_authoritative_observed_sequences(self, synth_small):
        sessions, graph, enc = synth_small
        tables = FeatureTables.build(sessions, graph, enc)
        rec = HitsRecommender().fit(sessions, tables)
        first = sessions[0]
        req = GenRequest(
            user=enc.user(first.user_id),
            start_poi=enc.poi(first.visits[0].poi.poi_id),
            start_hour=first.visits[0].hour,
            length=min(3, len(first)),
            candidates=5,
            k=3,
        )
        seqs = rec.generate(req, seed=0)
        assert seqs
        scores = [s.score for s in seqs]
        assert scores == sorted(scores, reverse=True)
        assert all(len(s.pois) == req.length for s in seqs)

    def test_hits_rank_tie_break_keeps_earlier(self):
        model_like = hits_fit(
            toy_sessions_for_markov(),
            Encodings.fit(toy_sessions_for_markov()),
            np.array([[40.0, -74.0], [40.01, -74.0]]),
        )
        cands = [(0, 1), (0, 1)]
        ranked = hits_rank(model_like, cands, k=2)
        assert ranked == [[0, 1], [0, 1]]
        assert sequence_score(model_like, (0, 1)) > 0
