"""Array table reads against their scalar reference: the distance
matrix, preference and discount reads over index arrays, and the
rollouts, clocks and scores generation builds on them, bit for bit."""

import numpy as np
import pytest

import scalar_reference as ref
from capseq.baselines import (
    AprioriRecommender,
    HitsRecommender,
    MarkovRecommender,
    PopularityRecommender,
)
from capseq.baselines.apriori import neighbour_arrays
from capseq.data import training_sessions
from capseq.features import HOURS, FeatureTables
from capseq.generation import GenRequest, GeneratedSequence, advance_hours, first_hour
from capseq.generation import generate
from capseq.generation import score_sequence
from capseq.geo import haversine_km
from capseq.models import CapsLstmRecommender, CapsRnnRecommender, PlainRnnRecommender
from capseq.models.training import encode_sessions

START_HOURS = (21.5, -0.5, -1e-20, 30.2, -1e9)


@pytest.fixture(scope="module")
def cold_tables(synth_small):
    """Tables whose encodings hold a user with no sessions (user 3)."""
    sessions, graph, encodings = synth_small
    cold = encodings.ix_to_user[3]
    kept = [s for s in sessions if s.user_id != cold]
    return FeatureTables.build(kept, graph, encodings)


@pytest.fixture(scope="module", params=["built", "reloaded"])
def any_tables(request, cold_tables, tmp_path_factory):
    if request.param == "built":
        return cold_tables
    path = tmp_path_factory.mktemp("reads") / "tables.json"
    cold_tables.save(path)
    return FeatureTables.load(path)


def users_of(tables):
    return (None, -1, tables.n_users, 3, 0, 2)


class TestArrayReads:
    def test_distance_matrix_is_the_scalar_haversine(self, any_tables):
        tables = any_tables
        pois = np.arange(tables.n_pois)
        got = tables.distance_km(pois[:, None], pois)
        coords = tables.poi_coords
        want = [[haversine_km(*coords[a], *coords[b]) for b in pois] for a in pois]
        assert got.tolist() == want
        assert type(tables.distance_km(1, 2)) is float
        assert tables.distance_km(1, 2) == want[1][2]

    def test_distances_fill_one_source_row_at_a_time(self, synth_small):
        """Encoding sessions computes its own distances; a distance read
        fills the rows of its sources only, so memory grows with the
        sources read, not with n_pois squared."""
        sessions, graph, encodings = synth_small
        tables = FeatureTables.build(sessions, graph, encodings)
        encode_sessions(training_sessions(sessions), tables)
        assert tables._dist_rows is None
        coords = tables.poi_coords
        for a, b in ((np.array([3, 3, 5]), np.array([1, 2, 3])), (4, 3), (3, 0)):
            got = tables.distance_km(a, b)
            want = [haversine_km(*coords[x], *coords[y])
                    for x, y in np.broadcast(a, b)]
            assert np.ravel(got).tolist() == want
        filled = np.flatnonzero(tables._dist_slot >= 0).tolist()
        assert filled == [3, 4, 5]
        assert len(tables._dist_rows) < tables.n_pois

    def test_preference_arrays_equal_scalar_reads(self, any_tables):
        tables = any_tables
        scalar = ref.ScalarTables(tables)
        pois = np.arange(tables.n_pois)
        for u in users_of(tables):
            got = tables.preference(u, pois[:, None], np.arange(HOURS))
            want = [[scalar.preference(u, l, h) for h in range(HOURS)] for l in pois]
            assert got.tolist() == want
            assert [[tables.preference(u, l, h) for h in range(HOURS)]
                    for l in pois.tolist()] == want

    def test_consolidated_arrays_equal_scalar_reads(self, any_tables):
        tables = any_tables
        scalar = ref.ScalarTables(tables)
        pois = np.arange(tables.n_pois)
        currents = (pois * 7 + 3) % tables.n_pois
        for u in users_of(tables):
            for hour in (0, 9, 23):
                got = tables.consolidated(u, pois, hour, currents)
                want = [scalar.consolidated(u, l, hour, c)
                        for l, c in zip(pois.tolist(), currents.tolist())]
                assert got.tolist() == want
                assert [tables.consolidated(u, l, hour, c) for l, c in
                        zip(pois.tolist(), currents.tolist())] == want
                assert tables.consolidated(u, pois, hour).tolist() == [
                    scalar.preference(u, l, hour) for l in pois.tolist()]

    def test_constraints_equal_scalar_reads(self, any_tables):
        tables = any_tables
        scalar = ref.ScalarTables(tables)
        pois = np.arange(tables.n_pois)
        for current in (0, 5, tables.n_pois - 1):
            want = [scalar.discount(l, current) for l in pois.tolist()]
            assert tables.discount(pois, current).tolist() == want
            assert [tables.discount(l, current) for l in pois.tolist()] == want

    def test_neighbour_lists_equal_scalar_reads(self, any_tables):
        tables = any_tables
        scalar = ref.ScalarTables(tables)
        for epsilon in (0.5, 2.0):
            want = []
            for last in range(tables.n_pois):
                row = []
                for nxt in range(tables.n_pois):
                    km = scalar.distance_km(last, nxt)
                    if nxt != last and not km > epsilon:
                        row.append((nxt, km / 5.0 * 3600.0, scalar.discount(nxt, last)))
                want.append(row)
            got = neighbour_arrays(tables, epsilon)
            starts = got.starts.tolist()
            entries = list(zip(got.nxt.tolist(), got.travel_s.tolist(), got.discount.tolist()))
            assert [entries[a:b] for a, b in zip(starts, starts[1:])] == want
            assert starts[0] == 0 and starts[-1] == len(entries)

    @pytest.mark.parametrize("read", [
        lambda t, bad: t.distance_km(np.array([0, bad]), np.array([1, 2])),
        lambda t, bad: t.distance_km(1, np.array([2, bad])),
        lambda t, bad: t.preference(0, np.array([0, bad]), 9),
        lambda t, bad: t.consolidated(0, np.array([0, 1]), 9, np.array([bad, 1])),
        lambda t, bad: t.discount(np.array([bad]), 0),
        lambda t, bad: t.attribute_rows([0, bad], [9, 9], [0.0, 1.5]),
    ], ids=["distance-from", "distance-to", "preference", "consolidated",
            "discount", "attribute-rows"])
    @pytest.mark.parametrize("side", ["negative", "past-end"])
    def test_out_of_range_poi_in_an_array_raises_key_error(self, cold_tables, read, side):
        bad = -1 if side == "negative" else cold_tables.n_pois
        with pytest.raises(KeyError, match=f"unknown poi index {bad}"):
            read(cold_tables, bad)


def random_sequences(tables, count=40, seed=5):
    rng = np.random.default_rng(seed)
    for i in range(count):
        pois = rng.integers(tables.n_pois, size=1 + i % 30).tolist()
        yield pois, START_HOURS[i % len(START_HOURS)]


class TestSequenceReads:
    def test_advance_hours_and_scores_equal_scalar_loops(self, any_tables):
        tables = any_tables
        scalar = ref.ScalarTables(tables)
        for pois, start in random_sequences(tables):
            [hours] = advance_hours(tables, [pois], start)
            assert hours == ref.advance_hours(scalar, pois, start)
            seq = GeneratedSequence(pois=pois, step_probs=[], score=0.0, hours=hours)
            for u in users_of(tables):
                for consolidated in (False, True):
                    assert score_sequence([seq], u, tables, consolidated) == [
                        ref.score_sequence(seq, u, scalar, consolidated)]


    def test_many_sequences_in_one_read_equal_one_at_a_time(self, any_tables):
        """Hours of equally long sequences in one read, and scores of
        sequences of any length (one stop too) in one read."""
        tables = any_tables
        scalar = ref.ScalarTables(tables)
        rng = np.random.default_rng(11)
        for length in (1, 2, 5):
            for start in START_HOURS:
                walks = rng.integers(tables.n_pois, size=(4, length)).tolist()
                assert advance_hours(tables, walks, start) == [
                    ref.advance_hours(scalar, pois, start) for pois in walks]
        seqs = [GeneratedSequence(pois=pois, step_probs=[], score=0.0,
                                  hours=ref.advance_hours(scalar, pois, start))
                for pois, start in random_sequences(tables, count=12, seed=9)]
        for u in users_of(tables):
            for consolidated in (False, True):
                assert score_sequence(seqs, u, tables, consolidated) == [
                    ref.score_sequence(seq, u, scalar, consolidated) for seq in seqs]


RECOMMENDERS = {"caps-rnn": CapsRnnRecommender, "caps-lstm": CapsLstmRecommender,
                "plain-rnn": PlainRnnRecommender, "popularity": PopularityRecommender,
                "markov": MarkovRecommender, "hits": HitsRecommender,
                "apriori": AprioriRecommender}
NEURAL = ("caps-rnn", "caps-lstm", "plain-rnn")


@pytest.fixture(scope="module")
def fit_kind(cold_tables, synth_small):
    """Fits each recommender kind once, on the sessions of the cold tables."""
    sessions, _, encodings = synth_small
    kept = training_sessions([s for s in sessions if s.user_id != encodings.ix_to_user[3]])
    models = {}

    def fit(kind):
        if kind not in models:
            params = {}
            if kind in NEURAL:
                params = dict(hidden_size=12, embedding_size=8, epochs=2,
                              learning_rate=0.05, seed=1)
                if kind != "caps-lstm":
                    params["n_layers"] = 1
            models[kind] = RECOMMENDERS[kind](**params).fit(kept, cold_tables)
        return models[kind]
    return fit


@pytest.fixture(scope="module", params=NEURAL)
def fitted(request, fit_kind):
    return fit_kind(request.param).net_


class TestRollouts:
    @pytest.mark.parametrize("start_hour", START_HOURS)
    @pytest.mark.parametrize("mode", ["plain", "consolidated", "no_repeat"])
    def test_generate_equals_scalar_reference(self, fitted, cold_tables, mode, start_hour):
        tables = cold_tables
        # no_repeat runs past every POI, so its fallback is taken too
        req = GenRequest(user=2, start_poi=5, start_hour=start_hour,
                         length=tables.n_pois + 4 if mode == "no_repeat" else 12,
                         candidates=6, k=6, no_repeat=mode == "no_repeat",
                         consolidated=mode == "consolidated")
        got = generate(fitted, req, tables, seed=17)
        want = ref.generate(fitted, req, ref.ScalarTables(tables), seed=17)
        assert [s.pois for s in got] == [s.pois for s in want]
        assert [s.hours for s in got] == [s.hours for s in want]
        assert [s.step_probs for s in got] == [s.step_probs for s in want]
        assert [s.score for s in got] == [s.score for s in want]


class TestGenerationContract:
    @pytest.mark.parametrize("start_hour", START_HOURS)
    @pytest.mark.parametrize("kind", sorted(RECOMMENDERS))
    def test_hours_are_advance_hours_of_the_pois(self, fit_kind, cold_tables, kind,
                                                 start_hour):
        """Every recommender reads its hours off the one clock: the hours
        of each sequence it returns are ``advance_hours`` of its POIs, each
        an hour of day in [0, 24)."""
        model = fit_kind(kind)
        for start_poi, user, length in ((5, 2, 6), (0, None, 4), (11, 0, 1)):
            req = GenRequest(user=user, start_poi=start_poi, start_hour=start_hour,
                             length=length, candidates=5, k=3)
            for seq in model.generate(req, seed=3):
                assert seq.hours == advance_hours(cold_tables, [seq.pois], start_hour)[0]
                assert all(0.0 <= hour < HOURS for hour in seq.hours)

    @pytest.mark.parametrize("start_hour", START_HOURS)
    @pytest.mark.parametrize("kind", sorted(RECOMMENDERS))
    def test_length_one_is_the_start(self, fit_kind, kind, start_hour):
        """A one-stop request takes no step: every sequence is the start
        POI at the first hour, with no step probabilities."""
        model = fit_kind(kind)
        req = GenRequest(user=0, start_poi=11, start_hour=start_hour, length=1,
                         candidates=5, k=3)
        seqs = model.generate(req, seed=3)
        assert seqs
        for seq in seqs:
            assert seq.pois == [11]
            assert seq.hours == [first_hour(start_hour)]
            assert seq.step_probs == []
