"""Free-running generation: sampling, rollouts, ranking, determinism."""

import numpy as np
import pytest

from capseq import numerics
from capseq.generation import (
    GenRequest,
    _rollout,
    draw_rows,
    generate,
    sample_next,
    score_sequence,
)
from capseq.features import ATTRIBUTE_DIM, FEATURE_DIM
from capseq.models import CapsLstmRecommender, CapsRnnRecommender, encode_sessions, train
from capseq.models.lstm import ContextLstm
from capseq.models.rnn import ContextRnn
from scalar_reference import sample_rows


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

    def test_rejects_a_negative_entry(self):
        """The row's total is positive, so only the sign check refuses it."""
        with pytest.raises(ValueError, match="non-negative"):
            sample_next(np.array([0.5, -0.25, 0.75]), np.random.default_rng(0))


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
        that stream's t-th ``choice`` draws: rollouts and Markov walks draw a
        stream's uniforms all at once, then each column through ``draw_rows``,
        whose oracle this is."""
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


# A uniform this close to one of choice's normalised cumulative boundaries
# may fall on either side of it in the rollout's unnormalised arithmetic.
BOUNDARY_TOL = 1e-12


def near_boundary(probs, u):
    """Per row, whether ``u`` lies within ``BOUNDARY_TOL`` of one of the
    normalised cumulative boundaries ``sample_rows`` compares it with."""
    cdf = (probs / probs.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (np.abs(cdf - u[:, None]) < BOUNDARY_TOL).any(axis=1)


def softmax_draws(cases, count):
    """``count`` seeded (logits, uniforms) pairs: the logits of
    ``random_weights`` rows (zeros are -inf, some rows peaked), K from 2 to
    400, and one uniform per row."""
    for _ in range(count):
        B, K = int(cases.integers(1, 13)), int(cases.integers(2, 401))
        with np.errstate(divide="ignore"):
            logits = np.log(random_weights(cases, B, K))
        yield logits, cases.random(B)


class TestRolloutDraw:
    def test_equals_sample_rows_over_the_softmax(self):
        """A rollout step's draw, ``draw_rows`` over the row's
        ``exp(logits - rowmax)``, is the index ``sample_rows`` draws over
        ``softmax(logits)``, except for a uniform within ``BOUNDARY_TOL``
        of a normalised cumulative boundary."""
        for logits, u in softmax_draws(np.random.default_rng(2026), 2000):
            probs = numerics.softmax(logits)
            want = sample_rows(probs, u)
            w = logits - logits.max(axis=1, keepdims=True)
            got = draw_rows(np.exp(w, out=w), u)
            assert (got == want)[~near_boundary(probs, u)].all()

    @pytest.mark.parametrize("row", [[0.2, np.nan, 0.2], [0.2, np.inf, 0.2], [0.0, 0.0, 0.0]],
                             ids=["nan", "inf", "zero"])
    def test_rejects_a_row_without_a_positive_finite_total(self, row):
        w = np.full((3, 3), 0.2)
        w[1] = row
        with pytest.raises(ValueError, match="positive and finite"):
            draw_rows(w, np.full(3, 0.5))


class TestMarkovDraw:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_equals_sample_rows_over_fitted_chains(self, seed):
        """A Markov walk's draw, ``draw_rows`` over a chain's initial or
        transition rows, is the index ``sample_rows`` draws over the same
        rows, except for a uniform within ``BOUNDARY_TOL`` of a normalised
        cumulative boundary: every chain of a seeded corpus, 100 uniforms per row."""
        from capseq.baselines.markov import markov_fit
        from capseq.data import Encodings, build_sessions, synth_dataset

        records, _ = synth_dataset(seed=seed, n_users=20, n_pois=120, days=10)
        sessions = build_sessions(records)
        model = markov_fit(sessions, Encodings.fit(sessions))
        cases = np.random.default_rng(seed)
        for chain in model.chains.values():
            rows = np.vstack([chain.initial, chain.transition])
            for _ in range(100):
                u = cases.random(len(rows))
                got, want = draw_rows(rows, u), sample_rows(rows, u)
                assert (got == want)[~near_boundary(rows, u)].all()


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
    "plain-rnn": lambda K, H=6, E=4: ContextRnn(K, hidden_size=H, n_layers=2,
                                                embedding_size=E, contextual=False, seed=1),
    "caps-rnn": lambda K, H=6, E=4: ContextRnn(K, hidden_size=H, n_layers=2,
                                               embedding_size=E, seed=1),
    "caps-lstm": lambda K, H=6, E=4: ContextLstm(K, hidden_size=H, embedding_size=E, seed=1),
}


@pytest.mark.parametrize("kind", list(ROLLOUT_NETS))
def test_rollout_steps_share_one_terms_object(kind, synth_tables_module, monkeypatch):
    """A request makes one ``forward_step`` per generated stop, and every
    one of them gets the same ``sequence_terms``, computed once, the net's
    right operands and, if the request steps more rows than the net has
    POIs, the net's input table: the features' products are not recomputed
    per step, and no step goes around ``forward_step``. A smaller request
    steps without the table, also once a wider one has built it."""
    _, tables = synth_tables_module
    net = ROLLOUT_NETS[kind](tables.n_pois)
    step, seen = net.forward_step, []

    def spy(state, inputs, attrs, feats, terms=None, table=None, right=None):
        assert right is net.right_operands()
        seen.append((terms, table))
        return step(state, inputs, attrs, feats, terms=terms, table=table, right=right)

    monkeypatch.setattr(net, "forward_step", spy)
    wide = net.n_pois // 4 + 2  # 4 * (wide - 1) > n_pois rows
    for length in (1, 2, wide, 9):
        seen.clear()
        generate(net, GenRequest(user=1, start_poi=3, start_hour=10.0, length=length,
                                 candidates=4, k=2), tables, seed=3)
        assert len(seen) == length - 1
        assert all(terms is seen[0][0] for terms, _ in seen)
        want = net.input_table() if 4 * (length - 1) > net.n_pois else None
        assert all(table is want for _, table in seen)
        if seen:
            assert (seen[0][0] is None) == (kind == "plain-rnn")


# A gathered input term, or a product with a row-major copy, differs from the
# per-step product with a ``.T`` view only in the rounding of its E- or H-term
# sums, at most about H * 2.2e-16 (1.1e-13 at H = 512) of the summed
# magnitudes; tanh and sigmoid do not amplify it. Measured: 1.4e-15.
TABLE_STEP_RTOL = 1e-12


@pytest.mark.parametrize("kind", list(ROLLOUT_NETS))
@pytest.mark.parametrize("H, E", [(6, 4), (64, 32), (512, 384)])
def test_table_step_is_the_direct_step(kind, H, E):
    """Steps that gather their input terms from ``input_table``, multiply by
    the C-contiguous ``right_operands``, or both, as a rollout does, give the
    states and logits of steps that multiply the embeddings and the ``.T``
    views, to within ``TABLE_STEP_RTOL`` of the largest value, at batch
    sizes 1, 3 and 10: a copy of the wrong block, or one left untransposed,
    is far outside that."""
    K, rng = 200, np.random.default_rng(H)
    net = ROLLOUT_NETS[kind](K, H, E)
    assert all(m.flags.c_contiguous for m in net.right_operands().values())
    for table, right in [(net.input_table(), None), (None, net.right_operands()),
                         (net.input_table(), net.right_operands())]:
        for B in (1, 3, 10):
            feats = rng.normal(size=(B, FEATURE_DIM))
            terms = net.sequence_terms(feats)
            direct = rolled = net.init_state(B)
            for _ in range(6):
                ix, attrs = rng.integers(0, K, size=B), rng.normal(size=(B, ATTRIBUTE_DIM))
                direct, want = net.forward_step(direct, ix, attrs, feats, terms=terms)
                rolled, got = net.forward_step(rolled, ix, attrs, feats, terms=terms,
                                               table=table, right=right)
                for a, b in [(got, want), *zip(rolled, direct)]:
                    np.testing.assert_allclose(a, b, rtol=0,
                                               atol=TABLE_STEP_RTOL * np.abs(b).max())


# one request above the input table's gate and one below it, on the module
# corpus's 30 POIs
GATED_REQUESTS = (
    GenRequest(user=1, start_poi=3, start_hour=10.0, length=12, candidates=6, k=6),
    GenRequest(user=1, start_poi=3, start_hour=10.0, length=5, candidates=6, k=6),
)


@pytest.mark.parametrize("kind", list(ROLLOUT_NETS))
def test_small_request_bytes_do_not_depend_on_a_large_one_before_it(kind,
                                                                    synth_tables_module,
                                                                    monkeypatch):
    """A request below the input table's gate gives the same POIs, hours and
    scores from a fresh net as from one that served a request above the gate
    first: both step on the right operands alone, without the table."""
    _, tables = synth_tables_module
    large, small = GATED_REQUESTS
    assert [r.candidates * (r.length - 1) > tables.n_pois for r in GATED_REQUESTS] == [True, False]

    def rolled(net):
        return [(s.pois, s.hours, s.score) for s in generate(net, small, tables, seed=4)]

    fresh, served = ROLLOUT_NETS[kind](tables.n_pois), ROLLOUT_NETS[kind](tables.n_pois)
    generate(served, large, tables, seed=2)
    step, tables_seen = served.forward_step, []

    def spy(*args, table=None, **kwargs):
        tables_seen.append(table)
        return step(*args, table=table, **kwargs)

    monkeypatch.setattr(served, "forward_step", spy)
    assert rolled(served) == rolled(fresh)
    assert tables_seen == [None] * (small.length - 1)


@pytest.mark.parametrize("kind", list(ROLLOUT_NETS))
def test_requests_to_one_net_build_the_input_table_once(kind, synth_tables_module,
                                                        monkeypatch):
    """A request that steps as many rows (candidates x (length - 1)) as the
    net has POIs builds no table; the first that steps one more builds it,
    and plain and no-repeat requests of other users, start POIs and hours
    share it."""
    _, tables = synth_tables_module
    net = ROLLOUT_NETS[kind](tables.n_pois)
    product, built = type(net)._input_product, []
    monkeypatch.setattr(type(net), "_input_product",
                        lambda self: built.append(self) or product(self))
    K = net.n_pois
    generate(net, GenRequest(user=0, start_poi=1, start_hour=8.0, length=K + 1,
                             candidates=1), tables, seed=0)
    assert built == []
    generate(net, GenRequest(user=0, start_poi=1, start_hour=8.0, length=K + 2,
                             candidates=1), tables, seed=0)
    assert built == [net]
    for seed, no_repeat in enumerate([False, True] * 3):
        generate(net, GenRequest(user=seed % 3, start_poi=seed, start_hour=9.0 + seed,
                                 length=K // 3 + 2, candidates=3, k=2,
                                 no_repeat=no_repeat),
                 tables, seed=seed)
    assert built == [net]


def assert_rolls_out_as(net, fresh, before, tables):
    """``net``, whose weights were written after it rolled out
    ``GATED_REQUESTS`` to ``before``, rolls each of them out as ``fresh``
    does, differently from before, from operands equal to ``fresh``'s."""
    assert [r.candidates * (r.length - 1) > net.n_pois for r in GATED_REQUESTS] == [True, False]
    for req, old in zip(GATED_REQUESTS, before):
        after = [s.pois for s in generate(net, req, tables, seed=3)]
        assert after == [s.pois for s in generate(fresh, req, tables, seed=3)]
        assert after != old
    np.testing.assert_array_equal(net.input_table(), fresh.input_table())
    got, want = net.right_operands(), fresh.right_operands()
    assert list(got) == list(want)
    for name in want:
        np.testing.assert_array_equal(got[name], want[name])


@pytest.mark.parametrize("kind", list(ROLLOUT_NETS))
def test_net_retrained_after_a_rollout_rolls_out_on_its_new_weights(kind,
                                                                    synth_tables_module):
    """``train`` drops the input table and the right operands that a
    rollout built, so the next rollout, above the table's gate or below it,
    is the one a fresh net with the new weights makes."""
    sessions, tables = synth_tables_module
    net = ROLLOUT_NETS[kind](tables.n_pois)
    before = [[s.pois for s in generate(net, req, tables, seed=3)] for req in GATED_REQUESTS]
    train(net, encode_sessions([s for s in sessions if len(s) >= 2], tables),
          learning_rate=1.0, clip_threshold=5.0, batch_size=20, epochs=5, seed=1)
    fresh = ROLLOUT_NETS[kind](tables.n_pois)
    fresh.load_weights(net.params)
    assert_rolls_out_as(net, fresh, before, tables)


@pytest.mark.parametrize("kind", list(ROLLOUT_NETS))
def test_weights_loaded_after_a_rollout_are_rolled_out(kind, synth_tables_module):
    """``load_weights`` drops the input table that a rollout built: a net
    that rolled out and then took another net's weights rolls out as that
    net does."""
    _, tables = synth_tables_module
    net, fresh = ROLLOUT_NETS[kind](tables.n_pois), ROLLOUT_NETS[kind](tables.n_pois)
    rng = np.random.default_rng(5)
    weights = {name: rng.normal(size=arr.shape) for name, arr in net.params.items()}
    before = [[s.pois for s in generate(net, req, tables, seed=3)] for req in GATED_REQUESTS]
    net.load_weights(weights)
    fresh.load_weights(weights)
    assert_rolls_out_as(net, fresh, before, tables)


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
