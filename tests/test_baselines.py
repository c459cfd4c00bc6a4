"""Baselines: popularity radius growth, Markov smoothing arithmetic,
Apriori vs exhaustive enumeration and the tuple-walking beam search,
HITS vs an independent power iteration and a loop transcription of its
fit."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

import scalar_reference as ref
from capseq.data import build_sessions, synth_dataset
from capseq.data.types import Encodings, Poi, Session, SocialGraph, Visit
from capseq.features import FeatureTables
from capseq.generation import GenRequest, score_sequence, top_k
from capseq.geo import WALK_SPEED_KMH, haversine_km
from capseq.baselines import (
    AprioriRecommender,
    HitsRecommender,
    MarkovRecommender,
    PopularityRecommender,
    cluster_regions,
    hits_fit,
    markov_fit,
    markov_walks,
    popularity_next,
    power_iterate,
)
from capseq.baselines.apriori import DEFAULT_EPSILON_KM, apriori_search, neighbour_arrays
from capseq.baselines.hits import sequence_score


def line_coords(n, spacing_km=1.0, lat0=40.0, lon=-74.0):
    return np.array([[lat0 + i * spacing_km / 111.19, lon] for i in range(n)])


def km_from(coords, ix):
    """The km from POI ``ix`` to every POI: its row of the distance matrix."""
    return np.array([haversine_km(*coords[ix], *to) for to in coords])


class TestPopularityNext:
    def test_most_visited_within_radius(self):
        coords = line_coords(3, spacing_km=0.5)
        counts = np.array([1.0, 5.0, 9.0])
        assert popularity_next(counts, km_from(coords, 0), exclusions={0}) == 2

    def test_excluded_best_falls_to_second(self):
        coords = line_coords(3, spacing_km=0.5)
        counts = np.array([1.0, 5.0, 9.0])
        assert popularity_next(counts, km_from(coords, 0), exclusions={0, 2}) == 1

    def test_radius_grows_geometrically(self):
        # nearest eligible POI at 5 km; 2 -> 3 -> 4.5 -> 6.75 finds it
        coords = np.array([[40.0, -74.0], [40.0 + 5.0 / 111.19, -74.0]])
        counts = np.array([3.0, 1.0])
        assert popularity_next(counts, km_from(coords, 0), exclusions={0}) == 1

    def test_everything_excluded_errors(self):
        coords = line_coords(2)
        with pytest.raises(LookupError):
            popularity_next(np.ones(2), km_from(coords, 0), exclusions={0, 1})


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
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        walks = markov_walks(model, enc.user("u0"), enc.poi("a"), 2, rngs)
        assert walks == [[enc.poi("a"), enc.poi("b")]] * 2

    def test_unknown_user_uses_population_chain(self):
        sessions = toy_sessions_for_markov()
        enc = Encodings.fit(sessions)
        model = markov_fit(sessions, enc, smoothing=0.0)
        walks = markov_walks(model, 999, enc.poi("a"), 2, [np.random.default_rng(0)])
        assert walks == [[enc.poi("a"), enc.poi("b")]]

    @staticmethod
    def requests(sessions, enc):
        """(user, start) pairs: known and unknown users, and a start that
        only the first sessions' chains have not seen."""
        unseen = enc.poi(sessions[-1].visits[-1].poi.poi_id)
        return [(enc.user(sessions[0].user_id), enc.poi(sessions[0].visits[0].poi.poi_id)),
                (None, enc.poi(sessions[1].visits[0].poi.poi_id)), (999, unseen),
                (enc.user(sessions[0].user_id), unseen)]

    @pytest.mark.parametrize("smoothing", [1.0, 0.5, 0.0])
    def test_walks_equal_choice_reference(self, synth_small, smoothing):
        """Each walk is the one ``rng.choice`` draws step by step from the
        same stream, on chains fitted to part of the corpus."""
        sessions, graph, enc = synth_small
        model = markov_fit(sessions[:6], enc, smoothing)

        def choice_walk(user, start, length, rng):
            chain = model.chain_for(user, start)
            walk, current = [start], chain.index.get(start)
            if current is None:
                current = int(rng.choice(len(chain.alphabet), p=chain.initial))
            for _ in range(length - 1):
                current = int(rng.choice(len(chain.alphabet), p=chain.transition[current]))
                walk.append(chain.alphabet[current])
            return walk

        for user, start in self.requests(sessions[:6], enc) + self.requests(sessions, enc):
            for seed in (0, 7, 123):
                rngs = [np.random.default_rng([seed, c]) for c in range(5)]
                want = [choice_walk(user, start, 9, np.random.default_rng([seed, c]))
                        for c in range(5)]
                assert markov_walks(model, user, start, 9, rngs) == want

    def test_length_one_walk_from_an_unseen_start_takes_one_draw(self, synth_small):
        """A walk from a start its chain has not seen draws its first state
        from the initials, also when it takes no step."""
        sessions, graph, enc = synth_small
        model = markov_fit(sessions[:6], enc)
        unseen = self.requests(sessions, enc)[2][1]
        assert unseen not in model.chain_for(None).index
        rngs = [np.random.default_rng([5, c]) for c in range(3)]
        assert markov_walks(model, None, unseen, 1, rngs) == [[unseen]] * 3
        assert [rng.random() for rng in rngs] == [
            np.random.default_rng([5, c]).random(2)[1] for c in range(3)]

    def test_consolidated_request_ranks_by_discounted_scores(self, synth_small,
                                                              synth_tables):
        """A consolidated request draws the same walks and orders them by
        their constraint-discounted scores, which reorders them here."""
        sessions, graph, enc = synth_small
        model = MarkovRecommender().fit(sessions, synth_tables)
        user = enc.user(sessions[0].user_id)
        request = GenRequest(user=user, start_poi=enc.poi(sessions[0].visits[0].poi.poi_id),
                             start_hour=9.0, length=6, candidates=20, k=20)
        plain = model.generate(request, seed=3)
        ranked = model.generate(dataclasses.replace(request, consolidated=True), seed=3)
        assert sorted(s.pois for s in ranked) == sorted(s.pois for s in plain)
        discounted = score_sequence(ranked, user, synth_tables, consolidated=True)
        assert [s.score for s in ranked] == discounted
        assert discounted == sorted(discounted, reverse=True)
        assert [s.pois for s in ranked] != [s.pois for s in plain]

    def test_rows_equal_solo_walks(self, synth_small):
        sessions, graph, enc = synth_small
        model = markov_fit(sessions[:6], enc)
        for user, start in self.requests(sessions, enc):
            rows = markov_walks(model, user, start, 12,
                                [np.random.default_rng([4, c]) for c in range(6)])
            solos = [markov_walks(model, user, start, 12, [np.random.default_rng([4, c])])[0]
                     for c in range(6)]
            assert rows == solos


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
            e = elapsed + t + tables.stay.mean_stay[nxt]
            if e > budget:
                continue
            grown = True
            new_hour = (hours[-1] + (tables.stay.mean_stay[pois[-1]] + t) / 3600.0) % 24
            gain = tables.consolidated(user, nxt, int(new_hour), pois[-1])
            walk(pois + [nxt], hours + [new_hour], e, travel + t, score + gain)
        if not grown and len(pois) < length:
            results.append((tuple(pois), score, travel))

    walk([start], [float(start_hour) % 24],
         tables.stay.mean_stay[start], 0.0,
         tables.preference(user, start, int(start_hour)))
    full = [r for r in results if len(r[0]) == length]
    pool = full or results
    return sorted(pool, key=lambda r: (-r[1], r[2], r[0]))


def apriori_trips(tables, user, start, start_hour, length, k=10, **settings):
    """The top-k trips of an ``AprioriRecommender`` with ``settings``,
    fitted on ``tables``."""
    model = AprioriRecommender(**settings).fit([], tables)
    return model.generate(GenRequest(user=user, start_poi=start, start_hour=start_hour,
                                     length=length, candidates=k, k=k))


class TestApriori:
    def test_neighbors_within_epsilon_form_candidates(self):
        sessions, enc, tables = small_world(n_pois=3, spacing_km=1.0)
        seqs = apriori_trips(tables, 0, 1, 9, length=2, epsilon_km=2.0, k=10,
                             beam_width=None)
        two_sets = {tuple(s.pois) for s in seqs}
        assert two_sets == {(1, 0), (1, 2)}

    def test_zero_budget_keeps_singleton(self):
        sessions, enc, tables = small_world(n_pois=3)
        seqs = apriori_trips(tables, 0, 0, 9, length=3, budget_hours=0.0, k=5)
        assert [s.pois for s in seqs] == [[0]]

    def test_matches_exhaustive_enumeration(self):
        sessions, enc, tables = small_world(n_pois=5)
        for length in (2, 3, 4, 5):
            got = apriori_trips(tables, 0, 0, 9, length=length, epsilon_km=2.0,
                                budget_hours=8.0, k=200, beam_width=None)
            expected = brute_force_trips(tables, 0, 0, 9, length, 2.0, 8.0)
            assert [tuple(s.pois) for s in got] == [e[0] for e in expected[:200]]
            for s, e in zip(got, expected):
                assert s.score == pytest.approx(e[1], rel=1e-12)

    def test_beam_equals_exhaustive_when_wide_enough(self):
        sessions, enc, tables = small_world(n_pois=6, spacing_km=0.8)
        wide = apriori_trips(tables, 0, 0, 9, length=4, k=5, beam_width=10_000)
        exact = apriori_trips(tables, 0, 0, 9, length=4, k=5, beam_width=None)
        assert [s.pois for s in wide] == [s.pois for s in exact]

    def test_constraints_respected_on_every_output(self):
        sessions, enc, tables = small_world(n_pois=6, spacing_km=1.5)
        seqs = apriori_trips(tables, 0, 0, 9, length=4, epsilon_km=2.0,
                             budget_hours=8.0, k=50, beam_width=50)
        for s in seqs:
            elapsed = tables.stay.mean_stay[s.pois[0]]
            for a, b in zip(s.pois, s.pois[1:]):
                d = tables.distance_km(a, b)
                assert d <= 2.0 + 1e-9
                elapsed += d / WALK_SPEED_KMH * 3600.0 + tables.stay.mean_stay[b]
            assert elapsed <= 8.0 * 3600.0 + 1e-6

    def test_neighbour_lists_hold_exactly_the_pois_within_epsilon(self, synth_tables):
        tables = synth_tables
        for epsilon in (0.5, DEFAULT_EPSILON_KM):
            neighbours = neighbour_arrays(tables, epsilon)
            starts = neighbours.starts.tolist()
            assert len(starts) == tables.n_pois + 1
            assert starts[0] == 0 and starts[-1] == len(neighbours.nxt)
            for last, entries in enumerate(itertools.starmap(slice, zip(starts, starts[1:]))):
                listed = neighbours.nxt[entries].tolist()
                assert listed == sorted(listed)
                for nxt, travel in zip(listed, neighbours.travel_s[entries].tolist()):
                    km = tables.distance_km(last, nxt)
                    assert travel == km / WALK_SPEED_KMH * 3600.0
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

    def test_bad_settings_rejected_before_generation(self):
        for bad in ({"epsilon_km": 0.0}, {"beam_width": 0}):
            with pytest.raises(ValueError):
                AprioriRecommender(**bad)


@pytest.fixture(scope="module")
def beam_corpora():
    """Tables of two seeded corpora of the cv-baselines shape (4 users ×
    120 POIs × 7 days), each with the (user, start POI, start hour) of
    every fourth session's first visit, and the population (user None)
    from the first of those."""
    out = []
    for seed in (7001, 7002):
        records, graph = synth_dataset(seed=seed, n_users=4, n_pois=120, days=7)
        sessions = build_sessions(records)
        encodings = Encodings.fit(sessions)
        starts = [(encodings.user(s.user_id), encodings.poi(s.visits[0].poi.poi_id),
                   s.visits[0].hour + 0.25) for s in sessions[::4]]
        starts.append((None, *starts[0][1:]))
        out.append((FeatureTables.build(sessions, graph, encodings), starts))
    return out


# beam width -> request lengths; exhaustive search stays short
BEAM_LENGTHS = {1: (1, 2, 5, 12), 3: (2, 5, 12), 100: (2, 5, 12), None: (2, 3, 4)}


def test_array_search_equals_the_tuple_walk(beam_corpora):
    """The level-array search returns the POIs, hours and scores of the
    tuple-walking search, dead-end fallbacks and zero budget included."""
    fallbacks = singletons = 0
    for tables, starts in beam_corpora:
        lists = ref.neighbour_lists(tables, DEFAULT_EPSILON_KM)
        arrays = neighbour_arrays(tables, DEFAULT_EPSILON_KM)
        for beam_width, lengths in BEAM_LENGTHS.items():
            grid = itertools.product(starts, lengths, (1, 10), (8.0, 0.0))
            for (user, start, hour), length, k, budget in grid:
                args = (user, start, hour, length, budget, k, beam_width)
                got = apriori_search(tables, arrays, *args)
                want = ref.apriori_search(tables, lists, *args)
                assert [(s.pois, s.hours, s.score) for s in got] == [
                    (s.pois, s.hours, s.score) for s in want], args
                fallbacks += budget > 0 and len(got[0]) < length
                if budget == 0:
                    assert [s.pois for s in got] == [[start]]
                    singletons += 1
    assert fallbacks and singletons


def tie_world():
    """A start POI ``a`` and a visited POI ``v`` 0.5 km north of it, plus
    five POIs of a category no training session visits, so that every
    user's preference for them is 0: ``f1`` and ``f2`` share a point
    1 km south of ``a``, and ``n1``, ``n2`` and ``n3`` one 0.3 km east.
    Extending ``a`` to any of the five adds 0.0 to its score; the three
    at the nearer point tie on travel too, and their indices (all above
    the far two's) decide."""
    lat, lon = 40.0, -74.0
    east = lon + 0.3 / (111.19 * np.cos(np.radians(lat)))
    where = {"a": (lat, lon, "Food"), "v": (lat + 0.5 / 111.19, lon, "Food"),
             "f1": (lat - 1.0 / 111.19, lon, "Silent"), "f2": (lat - 1.0 / 111.19, lon, "Silent"),
             "n1": (lat, east, "Silent"), "n2": (lat, east, "Silent"), "n3": (lat, east, "Silent")}

    def visit(poi, day, hour):
        arrival = 1330905600 + day * 86400 + hour * 3600
        return Visit(Poi(poi, *where[poi]), arrival, arrival + 1800)

    trained = [Session("u0", (visit("a", day, 9), visit("v", day, 10))) for day in range(3)]
    silent = Session("u1", tuple(visit(p, 5, h) for h, p in enumerate(("f1", "f2", "n1", "n2", "n3"))))
    encodings = Encodings.fit(trained + [silent])
    return encodings, FeatureTables.build(trained, SocialGraph(), encodings)


def test_ties_at_the_beam_cut_fall_to_travel_then_pois():
    encodings, tables = tie_world()
    a, v, f1, f2, n1, n2, n3 = (encodings.poi(p) for p in ("a", "v", "f1", "f2", "n1", "n2", "n3"))
    assert f1 < f2 < n1 < n2 < n3
    assert all(tables.preference(0, p, h) == 0.0 for p in (f1, f2, n1, n2, n3) for h in range(24))
    assert tables.preference(0, v, 10) > 0.0
    assert tables.distance_km(a, n1) < tables.distance_km(a, f1) < DEFAULT_EPSILON_KM
    arrays = neighbour_arrays(tables, DEFAULT_EPSILON_KM)
    starts = arrays.starts.tolist()
    # every POI's entries listed backwards: the order must not depend on it
    backwards = np.concatenate([np.arange(b - 1, a - 1, -1) for a, b in zip(starts, starts[1:])])
    flipped = arrays._replace(**{f: getattr(arrays, f)[backwards]
                                 for f in ("nxt", "travel_s", "discount")})
    lists = ref.neighbour_lists(tables, DEFAULT_EPSILON_KM)
    want = [[a, v], [a, n1], [a, n2], [a, n3], [a, f1], [a, f2]]
    for neighbours in (arrays, flipped):
        for beam_width in range(1, len(want) + 1):
            got = apriori_search(tables, neighbours, 0, a, 9.0, 2, k=10,
                                 beam_width=beam_width)
            assert [s.pois for s in got] == want[:beam_width]
        # travel 0.0 to a POI at the same point: elapsed is the budget exactly
        got = apriori_search(tables, neighbours, 0, n1, 9.0, 2, budget_hours=1.0)
        assert [s.pois for s in got] == [[n1, n2], [n1, n3]]
        for beam_width, length in itertools.product((1, 2, 3, 4, 5, None), (2, 3, 4)):
            args = (0, a, 9.0, length, 8.0, 10, beam_width)
            got = apriori_search(tables, neighbours, *args)
            want_trips = ref.apriori_search(tables, lists, *args)
            assert [(s.pois, s.hours, s.score) for s in got] == [
                (s.pois, s.hours, s.score) for s in want_trips], args


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

    def test_every_sequence_starts_at_the_requested_poi(self, synth_small, synth_tables):
        # POIs that only end or sit inside observed windows get the filler
        sessions, _, enc = synth_small
        rec = HitsRecommender().fit(sessions, synth_tables)
        for poi in range(enc.n_pois):
            for length in (2, 3, 4):
                req = GenRequest(user=0, start_poi=poi, start_hour=9.0,
                                 length=length, candidates=3, k=3)
                for seq in rec.generate(req):
                    assert seq.pois[0] == poi and len(seq.pois) == length

    def test_top_k_tie_keeps_earlier(self):
        model_like = hits_fit(
            toy_sessions_for_markov(),
            Encodings.fit(toy_sessions_for_markov()),
            np.array([[40.0, -74.0], [40.01, -74.0]]),
        )
        score = sequence_score(model_like, (0, 1))
        assert score > 0
        assert top_k([score, score], 2) == [0, 1]
        assert top_k([1.0, 3.0, 2.0, 3.0], 3) == [1, 3, 2]
        assert top_k([0.5, 0.5, 0.5], 2) == [0, 1]


def two_region_corpus():
    """Region A holds c, a, b (about 1 km apart), region B holds x, y,
    111 km north. Encoded c=0, a=1, b=2, x=3, y=4."""
    p = {pid: Poi(pid, lat, -74.0, "Food") for pid, lat in
         (("c", 40.0), ("a", 40.01), ("b", 40.02), ("x", 41.0), ("y", 41.01))}

    def trip(user, pids):
        return Session(user, tuple(Visit(p[pid], 1330905600 + 3600 * h,
                                         1330905600 + 3600 * h + 600)
                                   for h, pid in enumerate(pids)))

    return [trip("u0", "cabxy"), trip("u1", "ac"), trip("u1", "abx")]


def dict_hits_reference(sessions, enc, region):
    """Loop transcription of the HITS fit: visit counts in per-region dicts
    keyed (user, POI), users found by ``list.index``, and per-(region,
    length) window lists that drop repeats with a ``not in`` test.
    Returns (hub by (region, user), authority, windows by (start, length))."""
    visits, buckets = {}, {}
    for s in sessions:
        u = enc.user(s.user_id)
        ixs = [enc.poi(v.poi.poi_id) for v in s.visits]
        for l in ixs:
            counts = visits.setdefault(int(region[l]), {})
            counts[(u, l)] = counts.get((u, l), 0.0) + 1.0
        runs = [[ixs[0]]]
        for prev, l in zip(ixs, ixs[1:]):
            if region[l] == region[prev]:
                runs[-1].append(l)
            else:
                runs.append([l])
        for run in runs:
            for ln in range(2, len(run) + 1):
                for i in range(len(run) - ln + 1):
                    bucket = buckets.setdefault((int(region[run[0]]), ln), [])
                    if tuple(run[i : i + ln]) not in bucket:
                        bucket.append(tuple(run[i : i + ln]))
    hub, authority = {}, np.zeros(len(region))
    for rid, counts in visits.items():
        users = sorted({u for u, _ in counts})
        locs = np.flatnonzero(region == rid).tolist()
        adjacency = np.zeros((len(users), len(locs)))
        for (u, l), n in counts.items():
            adjacency[users.index(u), locs.index(l)] = n
        h, a = power_iterate(adjacency)
        hub.update({(rid, u): h[i] for i, u in enumerate(users)})
        authority[locs] = a
    windows = {}
    for (_, ln), bucket in buckets.items():
        for window in bucket:
            windows.setdefault((window[0], ln), []).append(window)
    return hub, authority, windows


def test_hits_fit_equals_the_dict_reference(synth_small):
    """At 1 km, a half of the corpus leaves a region without visits: its
    hub row and its authorities stay 0.0, as in the reference."""
    sessions, _, enc = synth_small
    empty_regions = 0
    for part, radius in ((sessions, 10.0), (sessions[::2], 1.0), (sessions[1::2], 1.0)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            model = hits_fit(part, enc, enc.poi_coords, radius)
        empty_regions += len(caught)
        hub, authority, windows = dict_hits_reference(part, enc, model.region_of_poi)
        want_hub = np.zeros_like(model.hub)
        for (rid, u), h in hub.items():
            want_hub[rid, u] = h
        assert np.array_equal(model.hub, want_hub)
        assert np.array_equal(model.authority, authority)
        assert model.windows == windows
    assert empty_regions > 0


class TestHitsWindows:
    """The (start POI, length) window index of a fitted HITS model."""

    @pytest.fixture
    def fitted(self):
        sessions = two_region_corpus()
        enc = Encodings.fit(sessions)
        tables = FeatureTables.build(sessions, SocialGraph(), enc)
        return HitsRecommender().fit(sessions, tables), enc

    def test_windows_seen_twice_listed_once_in_first_seen_order(self, fitted):
        rec, enc = fitted
        a, b, c = enc.poi("a"), enc.poi("b"), enc.poi("c")
        # a->b is seen in the first and third sessions, a->c in the second;
        # first-seen order puts (a, b) ahead of the lower-indexed (a, c)
        assert rec.model_.windows[(a, 2)] == [(a, b), (a, c)]
        assert rec.model_.windows[(c, 3)] == [(c, a, b)]

    def test_no_window_crosses_a_region_border(self, fitted):
        rec, enc = fitted
        region = rec.model_.region_of_poi
        assert region[enc.poi("a")] != region[enc.poi("x")]
        for (start, length), windows in rec.model_.windows.items():
            for window in windows:
                assert window[0] == start and len(window) == length
                assert len({region[p] for p in window}) == 1
        # b->x and b->x->y cross from region A to region B
        assert (enc.poi("b"), 2) not in rec.model_.windows
        assert rec.model_.windows[(enc.poi("x"), 2)] == [(enc.poi("x"), enc.poi("y"))]

    def test_unindexed_requests_get_the_authority_filler(self, fitted):
        rec, enc = fitted
        model = rec.model_
        for start, length in ((enc.poi("a"), 1), (enc.poi("b"), 2),
                              (enc.poi("b"), 4), (enc.poi("a"), 5)):
            assert (start, length) not in model.windows
            ranked = model.region_ranked[model.region_of_poi[start]]
            assert np.all(np.diff(model.authority[ranked]) <= 0)
            filler = [p for p in ranked if p != start]
            want = [start] + [filler[i % len(filler)] for i in range(length - 1)]
            seqs = rec.generate(GenRequest(user=0, start_poi=start, start_hour=9.0,
                                           length=length, candidates=3, k=3))
            assert [s.pois for s in seqs] == [want]
