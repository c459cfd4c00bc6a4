"""Array table reads against their scalar reference: the distance
matrix, preference and discount reads over index arrays, and the
rollouts, clocks and scores generation builds on them, bit for bit."""

import itertools
from functools import cached_property

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
from capseq.data.types import UnknownIdError
from capseq.features import HOURS, FeatureTables
from capseq.baselines.hits import sequence_score
from capseq.generation import GenRequest, GeneratedSequence, advance_hours, first_hour
from capseq.generation import generate, score_sequence, top_k
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
    """``None``, the user without history and two with."""
    return (None, 3, 0, 2)


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
        encode_sessions([s for s in sessions if len(s) >= 2], tables)
        assert (tables._dist_slot < 0).all() and not len(tables._dist_rows)  # no row filled
        coords = tables.poi_coords
        for a, b in ((np.array([3, 3, 5]), np.array([1, 2, 3])), (4, 3), (3, 0)):
            got = tables.distance_km(a, b)
            want = [haversine_km(*coords[x], *coords[y])
                    for x, y in np.broadcast(a, b)]
            assert np.ravel(got).tolist() == want
        filled = np.flatnonzero(tables._dist_slot >= 0).tolist()
        assert filled == [3, 4, 5]
        assert len(tables._dist_rows) < tables.n_pois

    def test_preference_tables_are_computed_once_per_row(self, synth_small, monkeypatch):
        """Each statistics row's table is computed on its first whole-row
        read, once per tables object; users without history share the
        pooled row's table, which no reader can write to. Scalar and
        array reads evaluate their own cells and keep no table, so memory
        grows only with the rows that whole-row readers ask for."""
        sessions, graph, encodings = synth_small
        kept = [s for s in sessions if s.user_id != encodings.ix_to_user[3]]
        calls = []
        compute = FeatureTables._preference
        monkeypatch.setattr(FeatureTables, "_preference", lambda self, row, pois, hours: (
            calls.append((row, np.shape(pois))) or compute(self, row, pois, hours)))
        for _ in range(2):
            tables = FeatureTables.build(kept, graph, encodings)
            for u in users_of(tables):
                tables.preference(u, [0, 1], 9)
                tables.consolidated(u, np.arange(3), 9, 1)
            assert tables._pref_tables == {}
            for u in users_of(tables) * 2:
                tables.preference_table(u)
            tables.attribute_rows([0], [9], [0.0])
        pooled, whole = tables.n_users, (tables.n_pois, 1)
        assert [c for c in calls if c[1] == whole] == [(pooled, whole), (0, whole), (2, whole)] * 2
        assert tables.preference_table(3) is tables.preference_table(None)
        with pytest.raises(ValueError):
            tables.preference_table(0)[0, 0] = 1.0

    def test_attribute_table_is_made_once_per_tables_object(self, synth_small, monkeypatch):
        """The attribute table and its input scales are one value, made on
        the first read of either and then kept, whichever comes first."""
        sessions, graph, encodings = synth_small
        made = []
        make = FeatureTables._attributes.func
        attributes = cached_property(lambda self: made.append(self) or make(self))
        attributes.__set_name__(FeatureTables, "_attributes")
        monkeypatch.setattr(FeatureTables, "_attributes", attributes)
        seen = []
        for order in (("rows", "scale", "vector"), ("scale", "vector", "rows")):
            tables = FeatureTables.build(sessions, graph, encodings)
            reads = {"rows": lambda: tables.attribute_rows([0, 5], [9, 23], [0.0, 1.5]).tolist(),
                     "scale": lambda: tables.attribute_scale.tolist(),
                     "vector": lambda: tables.attribute_vector(5, 23, 0).tolist()}
            first = {name: reads[name]() for name in order}
            assert {name: reads[name]() for name in order} == first
            assert made == [tables]
            seen.append(first)
            made.clear()
        assert seen[0] == seen[1]

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

    def test_user_outside_the_encodings_raises_like_the_scalar_read(self, any_tables):
        """A user index past the encodings, negative or not, is refused by
        the array reads and the scalar reference alike; ``None`` and the
        user without history read the pooled row."""
        tables = any_tables
        scalar = ref.ScalarTables(tables)
        for user in (-1, tables.n_users, 999):
            for read in (lambda: tables.preference(user, 0, 9),
                         lambda: tables.preference(user, np.arange(3), 9),
                         lambda: tables.consolidated(user, np.arange(3), 9, 1),
                         lambda: tables.preference_table(user),
                         lambda: scalar.preference(user, 0, 9)):
                with pytest.raises(UnknownIdError, match=f"unknown user index {user}"):
                    read()

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


def sequence_rows(tables, length, seed=5, count=4):
    """A (count, length) array of random POIs."""
    return np.random.default_rng([seed, length]).integers(tables.n_pois, size=(count, length))


def scalar_scores(scalar, pois, hours, user, consolidated):
    return [ref.score_sequence(GeneratedSequence(pois=p, hours=h), user, scalar, consolidated)
            for p, h in zip(pois, hours)]


class TestSequenceReads:
    def test_advance_hours_and_scores_equal_scalar_loops(self, any_tables):
        """The clock and the scores of an (n, length) POI array, one read
        each, equal the scalar loops row by row, for every user and both
        scorings."""
        tables = any_tables
        scalar = ref.ScalarTables(tables)
        for length, start in itertools.product((1, 2, 5, 30), START_HOURS):
            pois = sequence_rows(tables, length)
            hours = advance_hours(tables, pois, start)
            assert hours.shape == pois.shape
            want = [ref.advance_hours(scalar, row, start) for row in pois.tolist()]
            assert hours.tolist() == want
            for u in users_of(tables):
                for consolidated in (False, True):
                    assert score_sequence(pois, hours, u, tables, consolidated) == (
                        scalar_scores(scalar, pois.tolist(), want, u, consolidated))

    def test_many_sequences_in_one_read_equal_one_at_a_time(self, any_tables):
        """Rows read together get the hours and scores each gets alone."""
        tables = any_tables
        for length in (1, 2, 5, 30):
            pois = sequence_rows(tables, length, seed=11)
            for start in START_HOURS:
                hours = advance_hours(tables, pois, start)
                assert hours.tolist() == [
                    advance_hours(tables, pois[i : i + 1], start)[0].tolist()
                    for i in range(len(pois))]
                for u in users_of(tables):
                    for consolidated in (False, True):
                        assert score_sequence(pois, hours, u, tables, consolidated) == [
                            score_sequence(pois[i : i + 1], hours[i : i + 1], u, tables,
                                           consolidated)[0]
                            for i in range(len(pois))]


RECOMMENDERS = {"caps-rnn": CapsRnnRecommender, "caps-lstm": CapsLstmRecommender,
                "plain-rnn": PlainRnnRecommender, "popularity": PopularityRecommender,
                "markov": MarkovRecommender, "hits": HitsRecommender,
                "apriori": AprioriRecommender}
NEURAL = ("caps-rnn", "caps-lstm", "plain-rnn")


@pytest.fixture(scope="module")
def fit_kind(cold_tables, synth_small):
    """Fits each recommender kind once, on the sessions of the cold tables."""
    sessions, _, encodings = synth_small
    kept = [s for s in sessions if s.user_id != encodings.ix_to_user[3] and len(s) >= 2]
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
        assert [s.score for s in got] == [s.score for s in want]


    @pytest.fixture(scope="class")
    def bench_lstm(self, cold_tables, synth_small):
        """The benchmark's median-request net: caps-lstm H64/E32 fitted for
        two epochs."""
        sessions, _, encodings = synth_small
        kept = [s for s in sessions if s.user_id != encodings.ix_to_user[3] and len(s) >= 2]
        return CapsLstmRecommender(hidden_size=64, embedding_size=32, learning_rate=0.2,
                                   epochs=2, seed=1).fit(kept, cold_tables).net_

    @pytest.mark.parametrize("mode", ["plain", "consolidated", "no_repeat"])
    def test_benchmark_shaped_requests_equal_scalar_reference(self, bench_lstm, cold_tables,
                                                              mode):
        """Requests of the benchmark's shape, 10 candidates x 24 steps, step
        more rows than the net has POIs, so they gather from the input table
        and draw from unnormalised weights; the reference steps without the
        table and draws with ``sample_rows`` over softmax probabilities."""
        tables = cold_tables
        assert 10 * 24 > bench_lstm.n_pois
        scalar = ref.ScalarTables(tables)
        for seed, (user, start_poi, start_hour) in enumerate(
                [(2, 5, 9.0), (None, 0, 21.5), (0, 17, -0.5), (3, 11, 13.25)]):
            req = GenRequest(user=user, start_poi=start_poi, start_hour=start_hour, length=25,
                             candidates=10, k=10, no_repeat=mode == "no_repeat",
                             consolidated=mode == "consolidated")
            got = generate(bench_lstm, req, tables, seed=seed)
            want = ref.generate(bench_lstm, req, scalar, seed=seed)
            assert [s.pois for s in got] == [s.pois for s in want]
            assert [s.hours for s in got] == [s.hours for s in want]
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
                assert seq.hours == advance_hours(cold_tables, [seq.pois],
                                                  start_hour)[0].tolist()
                assert all(0.0 <= hour < HOURS for hour in seq.hours)

    @pytest.mark.parametrize("start_hour", START_HOURS)
    @pytest.mark.parametrize("kind", sorted(RECOMMENDERS))
    def test_length_one_is_the_start(self, fit_kind, kind, start_hour):
        """A one-stop request takes no step: every sequence is the start
        POI at the first hour."""
        model = fit_kind(kind)
        req = GenRequest(user=0, start_poi=11, start_hour=start_hour, length=1,
                         candidates=5, k=3)
        seqs = model.generate(req, seed=3)
        assert seqs
        for seq in seqs:
            assert seq.pois == [11]
            assert seq.hours == [first_hour(start_hour)]


    @pytest.mark.parametrize("kind", sorted(set(RECOMMENDERS) - {"hits"}))
    def test_request_for_an_unknown_user_raises(self, fit_kind, kind):
        """No recommender that reads the request's user scores a user index
        the encodings do not hold with the pooled row (HITS ranks by its own
        user-free scores)."""
        req = GenRequest(user=999, start_poi=5, start_hour=9.0, length=6, candidates=5, k=3)
        with pytest.raises(UnknownIdError, match="unknown user index 999"):
            fit_kind(kind).generate(req, seed=3)


class TestRanked:
    """Every fixed-length recommender returns through ``generation.ranked``:
    its hours and scores are the scalar oracle's."""

    @pytest.mark.parametrize("consolidated", [False, True])
    @pytest.mark.parametrize("kind", NEURAL + ("popularity", "markov"))
    def test_hours_and_scores_equal_the_scalar_oracle(self, fit_kind, cold_tables, kind,
                                                      consolidated):
        model = fit_kind(kind)
        scalar = ref.ScalarTables(cold_tables)
        for start_poi, user, length, start_hour in ((5, 2, 9, 21.5), (0, None, 4, -0.5),
                                                    (11, 3, 1, 30.2), (7, 0, 30, -1e-20)):
            req = GenRequest(user=user, start_poi=start_poi, start_hour=start_hour,
                             length=length, candidates=6, k=4, consolidated=consolidated)
            seqs = model.generate(req, seed=5)
            assert seqs
            for seq in seqs:
                assert len(seq.pois) == length and seq.pois[0] == start_poi
                assert seq.hours == ref.advance_hours(scalar, seq.pois, start_hour)
                assert seq.score == ref.score_sequence(seq, user, scalar, consolidated)

    def test_hits_clocks_its_top_rows_as_it_would_every_row(self, fit_kind, cold_tables):
        """HITS passes its own scores, so ``ranked`` clocks only the top
        rows: the same hours as clocking every pool row and then taking
        the top."""
        model = fit_kind("hits")
        scalar = ref.ScalarTables(cold_tables)
        pools = sorted(model.model_.windows.items(), key=lambda item: -len(item[1]))
        (start_poi, length), pool = pools[0]
        assert len(pool) >= 3
        scores = [sequence_score(model.model_, pois) for pois in pool]
        for start_hour in START_HOURS:
            clocked = advance_hours(cold_tables, pool, start_hour)
            req = GenRequest(user=0, start_poi=start_poi, start_hour=start_hour,
                             length=length, candidates=len(pool), k=len(pool) - 1)
            top = top_k(scores, req.k)
            got = model.generate(req)
            assert [s.pois for s in got] == [list(pool[i]) for i in top]
            assert [s.score for s in got] == [scores[i] for i in top]
            assert [s.hours for s in got] == clocked[top].tolist() == [
                ref.advance_hours(scalar, list(pool[i]), start_hour) for i in top]
