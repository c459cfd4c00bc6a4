"""Metrics: pairs-F1 vs brute-force enumeration, diversity and
displacement fixtures, fold assignment and the cross-validation loop."""

import warnings

import numpy as np
import pytest

import scalar_reference as ref

from capseq.baselines import (
    AprioriRecommender,
    HitsRecommender,
    MarkovRecommender,
    PopularityRecommender,
)
from capseq.data import Encodings, SessionTable, SocialGraph, build_sessions, synth_dataset
from capseq.generation import GeneratedSequence
from capseq.geo import haversine_km
from capseq.metrics import (
    EvalReport,
    assign_folds,
    cross_validate,
    displacement,
    diversity,
    diversity_raw,
    METRICS,
    pairs_f1,
    read_report_csv,
    report_csv,
    sweep_csv,
    text_tables,
)
from capseq.models import CapsRnnRecommender
from capseq.models.base import SequenceRecommender


def brute_force_pairs_f1(actual, predicted):
    """Independent enumeration of ordered pairs."""
    a_pairs = set()
    for i in range(len(actual)):
        for j in range(i + 1, len(actual)):
            a_pairs.add((actual[i], actual[j]))
    p_pairs = set()
    for i in range(len(predicted)):
        for j in range(i + 1, len(predicted)):
            p_pairs.add((predicted[i], predicted[j]))
    if not a_pairs and not p_pairs:
        v = 1.0 if list(actual) == list(predicted) else 0.0
        return v, v, v
    correct = a_pairs & p_pairs
    precision = len(correct) / len(p_pairs) if p_pairs else 0.0
    recall = len(correct) / len(a_pairs) if a_pairs else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


class TestPairsF1:
    def test_identical_sequences(self):
        assert pairs_f1([1, 2, 3], [1, 2, 3]) == (1.0, 1.0, 1.0)

    def test_disjoint_sequences(self):
        assert pairs_f1([1, 2], [3, 4]) == (0.0, 0.0, 0.0)

    def test_partial_order_fixture(self):
        # actual [1,2,3] vs predicted [2,1,3]: correct pairs {13, 23}
        p, r, f1 = pairs_f1([1, 2, 3], [2, 1, 3])
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_single_elements(self):
        assert pairs_f1([5], [5]) == (1.0, 1.0, 1.0)
        assert pairs_f1([5], [6]) == (0.0, 0.0, 0.0)

    def test_rejects_an_empty_sequence(self):
        for actual, predicted in (([], [1]), ([1], []), ([], [])):
            with pytest.raises(ValueError, match="non-empty"):
                pairs_f1(actual, predicted)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = rng.integers(0, 5, size=rng.integers(1, 7)).tolist()
            b = rng.integers(0, 5, size=rng.integers(1, 7)).tolist()
            pa, ra, fa = pairs_f1(a, b)
            pb, rb, fb = pairs_f1(b, a)
            assert pa == pytest.approx(rb)
            assert ra == pytest.approx(pb)
            assert fa == pytest.approx(fb)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            a = rng.integers(0, 6, size=rng.integers(2, 7)).tolist()
            b = rng.integers(0, 6, size=rng.integers(2, 7)).tolist()
            assert pairs_f1(a, b) == brute_force_pairs_f1(a, b)

    def test_arrays_score_as_lists(self):
        """NumPy arrays, as ``diversity`` and ``displacement`` take, give
        the lists' scores, single elements and empty ones included."""
        rng = np.random.default_rng(11)
        pairs = [([1, 2, 3], [1, 3, 2]), ([5], [5]), ([5], [6]), ([4], [4, 2])]
        pairs += [(rng.integers(0, 5, size=rng.integers(1, 7)).tolist(),
                   rng.integers(0, 5, size=rng.integers(1, 7)).tolist()) for _ in range(300)]
        for a, b in pairs:
            assert pairs_f1(np.array(a), np.array(b)) == pairs_f1(a, b)
            assert pairs_f1(np.array(a), b) == pairs_f1(a, np.array(b)) == pairs_f1(a, b)
        for actual, predicted in (([], [1]), ([1], [])):
            with pytest.raises(ValueError, match="non-empty"):
                pairs_f1(np.array(actual, dtype=np.int64), np.array(predicted, dtype=np.int64))


class TestDiversity:
    def test_all_same_category(self):
        assert diversity(["A", "A", "A"]) == 0.0

    def test_all_distinct(self):
        assert diversity(["A", "B", "C"]) == 1.0

    def test_two_thirds_fixture(self):
        assert diversity(["A", "A", "B"]) == pytest.approx(2 / 3)
        assert diversity_raw(["A", "A", "B"]) == 2

    def test_rejects_short_lists(self):
        with pytest.raises(ValueError):
            diversity(["A"])

    def test_range_and_order_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            cats = rng.integers(0, 4, size=rng.integers(2, 9)).tolist()
            d = diversity(cats)
            assert 0.0 <= d <= 1.0
            shuffled = list(cats)
            rng.shuffle(shuffled)
            assert diversity(shuffled) == pytest.approx(d)


class TestDisplacement:
    def test_identical_sequences(self):
        coords = [(40.0, -74.0), (40.1, -74.1)]
        assert displacement(coords, coords) == (0.0, 0.0)

    def test_quarter_meridian(self):
        # pole vs equator: 90 degrees of arc on the spherical model
        total, mean = displacement([(90.0, 0.0)], [(0.0, 0.0)])
        assert total == pytest.approx(10007.5, rel=1e-3)
        assert mean == total

    def test_sum_and_mean(self):
        d3 = 3.0 / 111.19
        d5 = 5.0 / 111.19
        actual = [(40.0, -74.0), (40.0, -74.0)]
        predicted = [(40.0 + d3, -74.0), (40.0 + d5, -74.0)]
        total, mean = displacement(actual, predicted)
        assert total == pytest.approx(8.0, rel=1e-3)
        assert mean == pytest.approx(4.0, rel=1e-3)

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="equal lengths"):
            displacement([(0.0, 0.0)], [(0.0, 0.0), (1.0, 1.0)])

    def test_triangle_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            pts = rng.uniform(-60, 60, size=(3, 2))
            a, b, c = [(p[0], p[1]) for p in pts]
            dac, _ = displacement([a], [c])
            dab, _ = displacement([a], [b])
            dbc, _ = displacement([b], [c])
            assert dac <= dab + dbc + 1e-9


class PerfectOracle(SequenceRecommender):
    """Returns the held-out session itself; upper bound for the harness."""

    def __init__(self):
        self.by_user_start_: dict = {}

    def fit(self, sessions, tables):
        self.sessions_ = list(sessions)
        self.tables_ = tables
        return self

    def set_answers(self, sessions, encodings):
        for s in sessions:
            key = (
                encodings.user(s.user_id),
                encodings.poi(s.visits[0].poi.poi_id),
                len(s),
            )
            self.by_user_start_.setdefault(key, []).append(
                [encodings.poi(v.poi.poi_id) for v in s.visits]
            )

    def generate(self, request, seed=0):
        key = (request.user, request.start_poi, request.length)
        pois = self.by_user_start_[key][0]
        return [GeneratedSequence(pois=pois, step_probs=[], score=1.0,
                                  hours=[float(request.start_hour)] * len(pois))]


class TestFoldAssignment:
    def test_deterministic_per_seed(self, synth_small):
        sessions, _, _ = synth_small
        a1, users1 = assign_folds(sessions, 5, seed=3)
        a2, users2 = assign_folds(sessions, 5, seed=3)
        assert np.array_equal(a1, a2) and users1 == users2

    def test_excludes_sparse_users(self):
        records, graph = synth_dataset(seed=4, n_users=3, n_pois=20, days=2)
        sessions = build_sessions(records)
        with pytest.warns(UserWarning, match="excluded"):
            fold_of, users = assign_folds(sessions, folds=50, seed=0)
        assert users == []
        assert (fold_of == -1).all()

    @pytest.mark.parametrize("folds, seed", [(2, 0), (3, 5), (5, 7), (9, 1)])
    def test_equals_the_per_user_loop(self, folds, seed):
        """Users of unsorted ids and of too few sessions, whose warnings
        come in the same order."""
        records, _ = synth_dataset(seed=seed, n_users=7, n_pois=30, days=6)
        by_user: dict = {}
        for s in build_sessions(records):
            by_user.setdefault(s.user_id, []).append(s)
        # the k-th user keeps 2 + 2k of their sessions
        sessions = [s for k, user in enumerate(by_user.values()) for s in user[:2 + 2 * k]]
        shuffled = [sessions[i] for i in np.random.default_rng(seed).permutation(len(sessions))]
        table = SessionTable.of(shuffled, Encodings.fit(shuffled))
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            fold_of, users = assign_folds(table, folds, seed)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            ref_fold_of, ref_users = ref.assign_folds(shuffled, folds, seed)
        assert fold_of.dtype == np.int64 and users == ref_users
        assert fold_of.tolist() == [ref_fold_of[i] for i in range(len(shuffled))]
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        if folds > 2:
            assert got and users

    def test_every_evaluated_session_gets_a_fold(self, synth_small):
        sessions, _, _ = synth_small
        fold_of, users = assign_folds(sessions, 5, seed=1)
        for i, s in enumerate(sessions):
            if s.user_id in users:
                assert 0 <= fold_of[i] < 5


def unambiguous_sessions():
    """Every session starts at a POI unique to it, so an oracle keyed on
    (user, start, length) can answer exactly."""
    from capseq.data.types import Poi, Session, Visit

    sessions = []
    base = 1330905600
    n = 0
    for u in range(3):
        for j in range(4):
            pois = [
                Poi(f"p{n + i}", 40.0 + 0.001 * (n + i), -74.0, f"c{(n + i) % 3}")
                for i in range(3)
            ]
            visits = tuple(
                Visit(pois[i], base + j * 86400 + i * 3600,
                      base + j * 86400 + i * 3600 + 1800)
                for i in range(3)
            )
            sessions.append(Session(f"u{u}", visits))
            n += 3
    return sessions


class TestCrossValidate:
    def test_perfect_oracle_scores_perfectly(self):
        sessions = unambiguous_sessions()
        graph = SocialGraph()
        encodings = Encodings.fit(sessions)
        oracle = PerfectOracle()
        oracle.set_answers(sessions, encodings)
        # clone_unfitted would lose the answer key; pin clone to itself
        oracle.clone_unfitted = lambda: oracle
        result = cross_validate(
            sessions, graph, encodings, {"oracle": oracle}, folds=3, seed=2
        )
        agg = result.aggregate("oracle")
        assert agg.pairs_f1 == pytest.approx(1.0)
        assert agg.displacement_mean_km == pytest.approx(0.0, abs=1e-12)
        assert agg.sessions > 0
        with pytest.raises(KeyError, match="nosuch"):
            result.aggregate("nosuch")

    def test_rejects_fewer_than_two_folds(self):
        sessions = unambiguous_sessions()
        with pytest.raises(ValueError, match="folds must be >= 2, got 1"):
            cross_validate(sessions, SocialGraph(), Encodings.fit(sessions), {}, folds=1)

    def test_report_csv_deterministic_and_parseable(self):
        sessions = unambiguous_sessions()
        graph = SocialGraph()
        encodings = Encodings.fit(sessions)
        oracle = PerfectOracle()
        oracle.set_answers(sessions, encodings)
        oracle.clone_unfitted = lambda: oracle
        result = cross_validate(
            sessions, graph, encodings, {"oracle": oracle}, folds=3, seed=2
        )
        csv1 = report_csv(result, seed=2)
        csv2 = report_csv(result, seed=2)
        assert csv1 == csv2
        assert csv1.startswith("# seed=2\n")
        assert "oracle,mean" in csv1
        raw = report_csv(result, seed=2, include_raw=True)
        assert "diversity_raw" in raw
        text = text_tables(result)
        assert "Pairs-F1" in text and "oracle" in text

    def test_hits_regions_see_pois_unseen_in_training(self):
        """Fold training splits of this corpus leave POIs unvisited; HITS
        still clusters them at their own coordinates, so no region is
        empty and nothing warns (pytest runs with UserWarning as an error)."""
        records, graph = synth_dataset(seed=7000, n_users=4, n_pois=120, days=7)
        sessions = build_sessions(records)
        encodings = Encodings.fit(sessions)
        fold_of, _ = assign_folds(sessions, 5, 7)
        seen = [{v.poi.poi_id for i, s in enumerate(sessions) if fold_of[i] != fold
                 for v in s.visits} for fold in range(5)]
        assert min(map(len, seen)) < encodings.n_pois
        result = cross_validate(
            sessions, graph, encodings, {"hits": HitsRecommender()}, folds=5, seed=7
        )
        assert result.aggregate("hits").sessions > 0

    def test_each_session_is_encoded_once_per_fit_and_once_for_evaluation(
            self, poi_lookups):
        """A table's folds are row selections of its columns, so with or
        without a length sweep no table build, fit or evaluation encodes a
        visit; the same sessions as a list are encoded once per
        ``cross_validate``: 220 calls for 220 visits."""
        records, graph = synth_dataset(seed=7, n_users=4, n_pois=120, days=7)
        sessions = build_sessions(records)
        encodings = Encodings.fit(sessions)
        assert sum(map(len, sessions)) == 220
        models = {name: cls() for name, cls in (
            ("popularity", PopularityRecommender), ("markov", MarkovRecommender),
            ("hits", HitsRecommender), ("apriori", AprioriRecommender))}
        calls = poi_lookups(encodings)
        for corpus, encoded in ((sessions, 0), (list(sessions), 220)):
            counts = []
            for sweep in ((), (3, 6)):
                calls.clear()
                cross_validate(corpus, graph, encodings, models, folds=5, seed=7,
                               sweep_lengths=sweep)
                counts.append(len(calls))
            assert counts == [encoded, encoded]


def test_a_table_and_its_sessions_as_a_list_report_the_same_bytes():
    """Folds of a table are row selections of its columns; a list of the
    same sessions is encoded once into such a table."""
    records, graph = synth_dataset(seed=7, n_users=4, n_pois=120, days=7)
    table = build_sessions(records)
    models = {"popularity": PopularityRecommender(), "markov": MarkovRecommender(),
              "hits": HitsRecommender(), "apriori": AprioriRecommender(),
              "caps-rnn": CapsRnnRecommender(hidden_size=4, n_layers=1, embedding_size=3,
                                             epochs=2, learning_rate=0.05)}
    outputs = []
    for sessions in (table, list(table)):
        result = cross_validate(sessions, graph, table.encodings, models, folds=3, seed=7,
                                sweep_lengths=(3, 5))
        outputs.append((report_csv(result, seed=7, include_raw=True), sweep_csv(result, seed=7)))
    assert outputs[0] == outputs[1]


class ScriptedTrips(SequenceRecommender):
    """Answers a request with ``trip(pois, length)`` of the session that
    starts at the requested user and POI (each start is unique to its
    session in ``unambiguous_sessions``)."""

    def __init__(self, sessions, encodings, trip):
        self.answers = {
            (encodings.user(s.user_id), encodings.poi(s.visits[0].poi.poi_id)): s
            for s in sessions
        }
        self.encodings = encodings
        self.trip = trip

    def clone_unfitted(self):
        return self

    def fit(self, sessions, tables):
        return self

    def generate(self, request, seed=0):
        session = self.answers[(request.user, request.start_poi)]
        pois = self.trip([self.encodings.poi(v.poi.poi_id) for v in session.visits],
                         request.length)
        return [GeneratedSequence(pois=pois, step_probs=[], score=1.0,
                                  hours=[float(request.start_hour)] * len(pois))]


class RecordedRequests(SequenceRecommender):
    """Answers each request with its start POI repeated, and keeps every
    (request, seed) it was asked."""

    def __init__(self):
        self.asked = []

    def clone_unfitted(self):
        return self

    def fit(self, sessions, tables):
        return self

    def generate(self, request, seed=0):
        self.asked.append((request, seed))
        return [GeneratedSequence(pois=[request.start_poi] * request.length, step_probs=[],
                                  score=0.0, hours=[float(request.start_hour)] * request.length)]


def test_requests_start_where_each_held_out_session_starts(synth_small):
    """Per fold, one request per held-out session of two or more visits,
    in corpus order: its user, first POI, first arrival hour and length,
    then the same at each sweep length, seeded per session."""
    sessions, graph, encodings = synth_small
    model = RecordedRequests()
    cross_validate(sessions, graph, encodings, {"recorded": model}, folds=3, seed=5,
                   sweep_lengths=(4, 2))
    fold_of, _ = assign_folds(sessions, 3, 5)
    want = []
    for fold in range(3):
        held = [(i, s) for i, s in enumerate(sessions) if fold_of[i] == fold and len(s) >= 2]
        for length in (None, 4, 2):
            want += [(encodings.user(s.user_id), encodings.poi(s.visits[0].poi.poi_id),
                      s.visits[0].hour, length or len(s), 10, 1, 5 * 100003 + i)
                     for i, s in held]
    got = [(r.user, r.start_poi, r.start_hour, r.length, r.candidates, r.k, seed)
           for r, seed in model.asked]
    assert got == want
    assert len({hour for _, _, hour, *_ in want}) > 3


def held_out(sessions, folds, seed):
    fold_of, _ = assign_folds(SessionTable.of(sessions, Encodings.fit(sessions)), folds, seed)
    return [[s for i, s in enumerate(sessions) if fold_of[i] == fold]
            for fold in range(folds)]


def km(a, b):
    return haversine_km(a.poi.lat, a.poi.lon, b.poi.lat, b.poi.lon)


class TestShortTrips:
    """A trip shorter than the held-out session is scored as it stands:
    pairs-F1 over its own pairs, displacement over the common prefix."""

    def test_trip_one_stop_short(self):
        sessions = unambiguous_sessions()
        encodings = Encodings.fit(sessions)
        # every session is a, b, c; the stub skips b and returns a, c
        stub = ScriptedTrips(sessions, encodings, lambda pois, n: [pois[0], pois[2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cross_validate(sessions, SocialGraph(), encodings,
                                    {"short": stub}, folds=3, seed=2)
        for fold, held in enumerate(held_out(sessions, 3, seed=2)):
            row = result.reports[fold]
            assert row.fold == str(fold) and row.sessions == len(held)
            # one predicted pair (a, c), which the session also has, of its three
            assert row.precision_pair == 1.0
            assert row.recall_pair == pytest.approx(1 / 3, rel=1e-12)
            assert row.pairs_f1 == pytest.approx(0.5, rel=1e-12)
            # a and c have different categories
            assert row.diversity == 1.0 and row.diversity_raw == 1.0
            # positions 0 and 1 of a, c against a, b: 0 km and |b c|
            bc = [km(s.visits[1], s.visits[2]) for s in held]
            assert row.displacement_sum_km == pytest.approx(sum(bc) / len(bc), rel=1e-12)
            assert row.displacement_mean_km == pytest.approx(
                sum(bc) / 2 / len(bc), rel=1e-12)

    def test_sweep_longer_than_every_session(self):
        sessions = unambiguous_sessions()
        encodings = Encodings.fit(sessions)
        # a, b, c becomes a, c, b, a, a, ... of the requested length
        stub = ScriptedTrips(sessions, encodings,
                             lambda p, n: [p[0], p[2], p[1]] + [p[0]] * (n - 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cross_validate(sessions, SocialGraph(), encodings,
                                    {"stub": stub}, folds=3, seed=2,
                                    sweep_lengths=[5])
        [point] = result.sweep
        assert (point.model, point.length) == ("stub", 5)
        held = [s for fold in held_out(sessions, 3, seed=2) for s in fold]
        # a, b and c have three different categories, so of the ten pairs
        # of a, c, b, a, a only (a, a), (a, a) and (a, a) match: 7 differ
        assert point.diversity == pytest.approx(0.7, rel=1e-12)
        # the common prefix is the session's three stops: 0, |c b|, |b c|
        per_session = [2 * km(s.visits[1], s.visits[2]) / 3 for s in held]
        assert point.displacement_mean_km == pytest.approx(
            sum(per_session) / len(per_session), rel=1e-12)


def test_read_report_csv_round_trips_every_row():
    sessions = unambiguous_sessions()
    encodings = Encodings.fit(sessions)
    models = {
        "short": ScriptedTrips(sessions, encodings, lambda p, n: [p[0], p[2]]),
        "swapped": ScriptedTrips(sessions, encodings, lambda p, n: [p[0], p[2], p[1]]),
    }
    result = cross_validate(sessions, SocialGraph(), encodings, models,
                            folds=3, seed=2)
    for include_raw in (False, True):
        text = report_csv(result, seed=2, include_raw=include_raw)
        back = read_report_csv(text)
        assert report_csv(back, seed=2, include_raw=include_raw) == text
        assert len(back.reports) == len(result.reports)
        for old, new in zip(result.reports, back.reports):
            assert (new.model, new.fold, new.sessions) == (old.model, old.fold, old.sessions)
            for m in METRICS:
                # without its column, diversity_raw reads 0
                want = getattr(old, m) if include_raw or m != "diversity_raw" else 0.0
                assert abs(getattr(new, m) - want) <= 5e-7, m
