"""Free-running generation: sampling, rollouts, ranking, determinism."""

import numpy as np
import pytest

from capseq.generation import (
    GenRequest,
    _rollout,
    generate,
    sample_next,
    sample_rows,
    score_sequence,
)
from capseq.models import CapsLstmRecommender, CapsRnnRecommender
from capseq.models.lstm import ContextLstm
from capseq.models.rnn import ContextRnn


class TestSampleNext:
    def test_degenerate_distribution(self):
        rng = np.random.default_rng(0)
        p = np.array([0.0, 0.0, 1.0, 0.0])
        assert all(sample_next(p, rng) == 2 for _ in range(20))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(42)
        p = np.full(4, 0.25)
        draws = np.array([sample_next(p, rng) for _ in range(100_000)])
        freqs = np.bincount(draws, minlength=4) / len(draws)
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)

    def test_fixed_seed_reproducible(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        a = [sample_next(p, np.random.default_rng(9)) for _ in range(10)]
        b = [sample_next(p, np.random.default_rng(9)) for _ in range(10)]
        assert a == b

    def test_rejects_bad_distribution(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_next(np.zeros(3), rng)


def random_weights(rng, B, K):
    """(B, K) non-negative weights, some rows peaked, with zeros in them."""
    w = np.exp(rng.normal(scale=rng.uniform(0.1, 8.0), size=(B, K)))
    w[rng.random((B, K)) < rng.uniform(0.0, 0.9)] = 0.0
    w[np.arange(B), rng.integers(K, size=B)] += rng.random(B) + 1e-3
    return w


class TestSampleRows:
    def test_matches_generator_choice_row_by_row(self):
        """Row b draws what ``default_rng(s_b).choice`` draws, over
        consecutive draws of the same streams."""
        cases = np.random.default_rng(2024)
        for _ in range(400):
            B, K = int(cases.integers(1, 13)), int(cases.integers(2, 401))
            seeds = cases.integers(2**32, size=B).tolist()
            rngs = [np.random.default_rng(s) for s in seeds]
            oracles = [np.random.default_rng(s) for s in seeds]
            for _ in range(3):
                w = random_weights(cases, B, K)
                got = sample_rows(w, [rng.random() for rng in rngs])
                want = [o.choice(K, p=row / row.sum()) for o, row in zip(oracles, w)]
                assert got.tolist() == want

    def test_block_draws_match_generator_choice(self):
        """Column t of each stream's one ``rng.random(n)`` block draws what
        that stream's t-th ``choice`` draws: rollouts and Markov walks
        draw a stream's uniforms all at once."""
        cases = np.random.default_rng(2025)
        for _ in range(200):
            B, K, n = (int(cases.integers(1, 13)), int(cases.integers(2, 401)),
                       int(cases.integers(1, 30)))
            seeds = cases.integers(2**32, size=B).tolist()
            draws = np.array([np.random.default_rng(s).random(n) for s in seeds])
            oracles = [np.random.default_rng(s) for s in seeds]
            for t in range(n):
                w = random_weights(cases, B, K)
                got = sample_rows(w, draws[:, t])
                want = [o.choice(K, p=row / row.sum()) for o, row in zip(oracles, w)]
                assert got.tolist() == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, pytest.param([np.inf, -np.inf],
                                                             id="inf-pair"), 0.0, -0.5])
    def test_rejects_bad_row(self, bad):
        w = np.full((3, 5), 0.2)
        if np.ndim(bad):
            w[1, : len(bad)] = bad
        elif bad == 0.0:
            w[1] = 0.0
        else:
            w[1, 2] = bad
        # the infinite pair sums to NaN, which the total check must refuse
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            sample_rows(w, np.full(3, 0.5))

    def test_one_draw_per_row(self):
        with pytest.raises(ValueError, match="2 rows of probabilities, 1 draws"):
            sample_rows(np.full((2, 3), 1.0), [0.5])


@pytest.fixture(scope="module")
def synth_tables_module():
    from capseq.data import Encodings, build_sessions, synth_dataset
    from capseq.features import FeatureTables

    records, graph = synth_dataset(seed=7, n_users=6, n_pois=40, days=5)
    sessions = build_sessions(records)
    encodings = Encodings.fit(sessions)
    tables = FeatureTables.build(sessions, graph, encodings)
    return sessions, tables


class TestGenerate:
    def make_model(self, sessions, tables, epochs=3):
        model = CapsRnnRecommender(
            hidden_size=12, n_layers=1, embedding_size=8, epochs=epochs,
            learning_rate=0.05, seed=1,
        )
        return model.fit([s for s in sessions if len(s) >= 2], tables)

    def test_length_one_is_start_with_its_preference(self, synth_tables_module):
        sessions, tables = synth_tables_module
        model = self.make_model(sessions, tables)
        req = GenRequest(user=0, start_poi=3, start_hour=9, length=1,
                         candidates=2, k=1)
        seqs = model.generate(req, seed=5)
        assert seqs[0].pois == [3]
        assert seqs[0].score == pytest.approx(tables.preference(0, 3, 9))

    def test_requested_length_and_valid_indices(self, synth_tables_module):
        sessions, tables = synth_tables_module
        model = self.make_model(sessions, tables)
        req = GenRequest(user=1, start_poi=0, start_hour=8, length=6,
                         candidates=4, k=4)
        for seq in model.generate(req, seed=2):
            assert len(seq.pois) == 6
            assert all(0 <= ix < tables.n_pois for ix in seq.pois)

    def test_scores_non_increasing_and_full_permutation(self, synth_tables_module):
        sessions, tables = synth_tables_module
        model = self.make_model(sessions, tables)
        req = GenRequest(user=0, start_poi=0, start_hour=8, length=4,
                         candidates=6, k=6)
        seqs = model.generate(req, seed=3)
        assert len(seqs) == 6
        scores = [s.score for s in seqs]
        assert scores == sorted(scores, reverse=True)

    def test_identical_seed_identical_output(self, synth_tables_module):
        sessions, tables = synth_tables_module
        model = self.make_model(sessions, tables)
        req = GenRequest(user=0, start_poi=0, start_hour=8, length=5,
                         candidates=3, k=3)
        a = model.generate(req, seed=11)
        b = model.generate(req, seed=11)
        assert [s.pois for s in a] == [s.pois for s in b]
        assert [s.score for s in a] == [s.score for s in b]

    def test_argmax_model_reproduces_hand_rollout(self, synth_tables_module):
        """A network forced to a deterministic successor chain generates
        exactly that chain."""
        sessions, tables = synth_tables_module
        K = tables.n_pois
        net = ContextRnn(K, hidden_size=4, n_layers=1, embedding_size=3,
                         contextual=True, seed=0)
        for name in net.params:
            net.params[name][:] = 0.0
        # successor(i) = (i + 3) % K via the output bias of the embedding row:
        # with all weights zero, logits are the bias c alone, so chain is
        # constant argmax; force probability ~1 on a single class instead
        net.params["c"][7] = 500.0
        req = GenRequest(user=None, start_poi=2, start_hour=9, length=4,
                         candidates=2, k=1)
        seqs = generate(net, req, tables, seed=1)
        assert seqs[0].pois == [2, 7, 7, 7]

    def test_no_repeat_filters_sampled_pois(self, synth_tables_module):
        sessions, tables = synth_tables_module
        model = self.make_model(sessions, tables)
        req = GenRequest(user=0, start_poi=0, start_hour=8, length=8,
                         candidates=4, k=1, no_repeat=True)
        seq = model.generate(req, seed=6)[0]
        assert len(set(seq.pois)) == len(seq.pois)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            GenRequest(user=0, start_poi=0, start_hour=9, length=0)
        with pytest.raises(ValueError):
            GenRequest(user=0, start_poi=0, start_hour=9, candidates=2, k=5)
        for hour in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                GenRequest(user=0, start_poi=0, start_hour=hour)

    def test_unset_k_is_at_most_ten_and_the_candidates(self):
        """``generate --candidates 5`` and the library agree: an unset k
        is min(10, candidates), and a set one is kept."""
        def k(**kwargs):
            return GenRequest(user=0, start_poi=0, start_hour=9.0, **kwargs).k
        assert (k(candidates=5), k(candidates=10), k(candidates=20), k()) == (5, 10, 10, 10)
        assert k(candidates=5, k=2) == 2
        with pytest.raises(ValueError, match="candidates >= k >= 1"):
            GenRequest(user=0, start_poi=0, start_hour=9.0, candidates=0)

    def test_consolidated_scoring_discounts(self, synth_tables_module):
        sessions, tables = synth_tables_module
        pois, hours = [[0, 1, 2]], [[9.0, 10.0, 11.0]]
        [plain] = score_sequence(pois, hours, 0, tables, consolidated=False)
        [discounted] = score_sequence(pois, hours, 0, tables, consolidated=True)
        assert discounted <= plain + 1e-12


ROLLOUT_NETS = {
    "plain-rnn": lambda K: ContextRnn(K, hidden_size=6, n_layers=2, embedding_size=4,
                                      contextual=False, seed=1),
    "caps-rnn": lambda K: ContextRnn(K, hidden_size=6, n_layers=2, embedding_size=4,
                                     seed=1),
    "caps-lstm": lambda K: ContextLstm(K, hidden_size=6, embedding_size=4, seed=1),
}


@pytest.mark.parametrize("kind", list(ROLLOUT_NETS))
def test_rollout_steps_share_one_terms_object(kind, synth_tables_module, monkeypatch):
    """A request makes one ``forward_step`` per generated stop, and every
    one of them gets the same ``sequence_terms``, computed once: the
    features' products are not recomputed per step, and no step goes
    around ``forward_step``."""
    _, tables = synth_tables_module
    net = ROLLOUT_NETS[kind](tables.n_pois)
    step, seen = net.forward_step, []

    def spy(state, inputs, attrs, feats, terms=None):
        seen.append(terms)
        return step(state, inputs, attrs, feats, terms=terms)

    monkeypatch.setattr(net, "forward_step", spy)
    for length in (1, 2, 9):
        seen.clear()
        generate(net, GenRequest(user=1, start_poi=3, start_hour=10.0, length=length,
                                 candidates=4, k=2), tables, seed=3)
        assert len(seen) == length - 1
        assert all(terms is seen[0] for terms in seen)
        if seen:
            assert (seen[0] is None) == (kind == "plain-rnn")


class TestBatchedCandidates:
    """A request's candidates roll out as one batch; each row must be the
    rollout its candidate makes alone with stream [seed, cand]."""

    @pytest.fixture(scope="class", params=["caps-rnn", "caps-lstm"])
    def net(self, request, synth_tables_module):
        sessions, tables = synth_tables_module
        if request.param == "caps-rnn":
            model = CapsRnnRecommender(hidden_size=12, n_layers=2, embedding_size=8,
                                       epochs=2, learning_rate=0.05, seed=1)
        else:
            model = CapsLstmRecommender(hidden_size=12, embedding_size=8,
                                        epochs=2, learning_rate=0.05, seed=1)
        return model.fit([s for s in sessions if len(s) >= 2], tables).net_

    @pytest.mark.parametrize("mode", ["plain", "consolidated", "no_repeat"])
    def test_rows_equal_solo_rollouts(self, net, mode, synth_tables_module):
        _, tables = synth_tables_module
        # no_repeat runs past the 40 POIs, so its fallback is taken too
        req = GenRequest(user=2, start_poi=5, start_hour=21.5,
                         length=44 if mode == "no_repeat" else 12,
                         candidates=6, k=4, no_repeat=mode == "no_repeat",
                         consolidated=mode == "consolidated")
        seed = 17
        pois, hours = _rollout(net, req, tables,
                               [np.random.default_rng([seed, c]) for c in range(6)])
        solos = [_rollout(net, req, tables, [np.random.default_rng([seed, c])])
                 for c in range(6)]
        assert pois.tolist() == [p[0].tolist() for p, _ in solos]
        assert hours.tolist() == [h[0].tolist() for _, h in solos]
        scores = [score_sequence(p, h, req.user, tables, req.consolidated)[0]
                  for p, h in solos]
        ranked = sorted(range(6), key=lambda i: (-scores[i], i))[: req.k]
        got = generate(net, req, tables, seed=seed)
        assert [s.pois for s in got] == [solos[i][0][0].tolist() for i in ranked]
        assert [s.score for s in got] == [scores[i] for i in ranked]
