"""Recurrent model: forward fixtures, degeneration to the plain RNN,
full-BPTT gradient checks, and training behaviour. The sequence-loss
tests that exercise the scaffold shared with the LSTM run on both nets."""

import numpy as np
import pytest

from capseq import numerics
from finite_diff import grad_check
from capseq.models import Batch, TrainingDivergedError, train
from scalar_reference import (EncodedSequence, lstm_loss_and_grads, make_batch,
                              rnn_loss_and_grads)
from capseq.models.lstm import ContextLstm
from capseq.models.rnn import ContextRnn

ADIM, FDIM = 30, 7

# small nets over 6 POIs, by seed, for the tests of the shared scaffold
SHARED_NETS = {
    "ContextRnn": lambda seed: ContextRnn(6, hidden_size=4, n_layers=2,
                                          embedding_size=3, seed=seed),
    "ContextLstm": lambda seed: ContextLstm(6, hidden_size=4, embedding_size=3,
                                            seed=seed),
}
over_shared_nets = pytest.mark.parametrize(
    "make_net", list(SHARED_NETS.values()), ids=list(SHARED_NETS))

# the recurrent models over 6 POIs, each with its per-cell BPTT oracle
ORACLE_NETS = {
    "plain-rnn": (lambda: ContextRnn(6, hidden_size=5, n_layers=2, embedding_size=4,
                                     contextual=False, seed=3), rnn_loss_and_grads),
    "caps-rnn-1-layer": (lambda: ContextRnn(6, hidden_size=5, n_layers=1,
                                            embedding_size=4, seed=4), rnn_loss_and_grads),
    "caps-rnn-3-layers": (lambda: ContextRnn(6, hidden_size=5, n_layers=3,
                                             embedding_size=4, seed=5), rnn_loss_and_grads),
    "caps-lstm": (lambda: ContextLstm(6, hidden_size=5, embedding_size=4, seed=6),
                  lstm_loss_and_grads),
}


def sequence_nll(net, inputs, targets, attrs, feat) -> float:
    """NLL of one encoded session, as a batch of one."""
    seq = EncodedSequence(np.asarray(inputs), np.asarray(targets), attrs, feat)
    return net.batch_nll(make_batch([seq], net.pad_ix))


def toy_batch(rng, K=6, T=3, B=2, adim=ADIM, fdim=FDIM):
    return Batch(
        inputs=rng.integers(0, K, size=(B, T)),
        targets=rng.integers(0, K, size=(B, T)),
        mask=np.ones((B, T)),
        attrs=rng.normal(size=(B, T, adim)),
        feats=rng.normal(size=(B, fdim)),
    )


def neutralize(net: ContextRnn) -> None:
    """Force the context paths to be inert: unit gates, zero features."""
    for layer in range(net.n_layers):
        net.params[f"P{layer}"][:] = 0.0
        net.params[f"pb{layer}"][:] = 50.0  # sigmoid(50) == 1.0 exactly
        net.params[f"F{layer}"][:] = 0.0
    net.params["G"][:] = 0.0


class TestForwardStep:
    def test_zero_weights_give_uniform(self):
        net = ContextRnn(5, hidden_size=3, n_layers=1, embedding_size=2, seed=0)
        for name in net.params:
            net.params[name][:] = 0.0
        state = net.init_state(1)
        _, _, probs = net.forward_step(state, [2], np.zeros((1, ADIM)), np.zeros((1, FDIM)))
        np.testing.assert_allclose(probs[0], 0.2, atol=1e-15)

    def test_out_of_range_index_rejected(self):
        net = ContextRnn(5, hidden_size=3, n_layers=1, embedding_size=2)
        with pytest.raises(IndexError):
            net.forward_step(net.init_state(1), [5], np.zeros((1, ADIM)), np.zeros((1, FDIM)))
        with pytest.raises(IndexError):
            net.forward_step(net.init_state(1), [-1], np.zeros((1, ADIM)), np.zeros((1, FDIM)))

    def test_hand_computed_single_step(self):
        """K=4, hidden=3, one layer; logits checked against explicit
        matrix arithmetic done here by hand."""
        K, H, E = 4, 3, 2
        net = ContextRnn(K, hidden_size=H, n_layers=1, embedding_size=E,
                         contextual=True, seed=0)
        p = net.params
        p["emb"][:] = 0.0
        p["emb"][1] = [0.5, -1.0]
        p["U0"][:] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        p["W0"][:] = np.eye(H) * 0.5
        p["b0"][:] = [0.1, -0.1, 0.0]
        p["P0"][:] = 0.0
        p["pb0"][:] = 0.0           # gate = 0.5 everywhere
        p["F0"][:] = 0.0
        p["F0"][:, 0] = 1.0          # hidden += f[0]
        p["V"][:] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
        p["c"][:] = [0.0, 0.0, 0.0, 0.25]
        p["G"][:] = 0.0
        p["G"][0, 1] = 2.0           # logit 0 += 2 * f[1]

        h_prev = np.array([0.2, -0.4, 0.6])
        state = [h_prev[None, :].copy()]
        A = np.zeros((1, ADIM))
        f = np.zeros((1, FDIM))
        f[0, 0], f[0, 1] = 0.3, -0.5

        x = np.array([0.5, -1.0])
        pre = (
            np.array([x[0], x[1], x[0] + x[1]])
            + 0.5 * (h_prev * 0.5)
            + np.array([0.1, -0.1, 0.0])
            + 0.3
        )
        h = np.tanh(pre)
        expected_logits = np.array([h[0], h[1], h[2], h.sum() + 0.25])
        expected_logits[0] += 2.0 * -0.5

        _, logits, probs = net.forward_step(state, [1], A, f)
        np.testing.assert_allclose(logits[0], expected_logits, atol=1e-12)
        np.testing.assert_allclose(probs[0], numerics.softmax(expected_logits), atol=1e-12)

    def test_probabilities_sum_to_one_every_step(self):
        rng = np.random.default_rng(2)
        net = ContextRnn(9, hidden_size=6, n_layers=3, embedding_size=5, seed=4)
        state = net.init_state(4)
        for _ in range(40):
            state, _, probs = net.forward_step(
                state,
                rng.integers(0, 9, size=4),
                rng.normal(size=(4, ADIM)),
                rng.normal(size=(4, FDIM)),
            )
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("B", [1, 10])
@pytest.mark.parametrize("name", list(ORACLE_NETS))
def test_given_sequence_terms_change_no_bit(name, B):
    """A rollout hands ``forward_step`` the ``sequence_terms`` of its
    features once for all its steps: 25 steps with them give the bits of
    25 steps that compute them anew."""
    rng = np.random.default_rng(B)
    net = ORACLE_NETS[name][0]()
    f = rng.normal(size=(B, FDIM))
    terms = net.sequence_terms(f)
    given, fresh = net.init_state(B), net.init_state(B)
    for _ in range(25):
        ix = rng.integers(0, 6, size=B)
        A = rng.normal(size=(B, ADIM))
        given, *out_given = net.forward_step(given, ix, A, f, terms=terms)
        fresh, *out_fresh = net.forward_step(fresh, ix, A, f)
        for a, b in zip(list(given) + out_given, list(fresh) + out_fresh):
            assert np.array_equal(a, b)


class TestDegeneration:
    def test_neutralized_context_equals_plain_rnn(self):
        """Unit gates and zero feature paths must reproduce the plain
        model exactly, float for float, over 1000 random steps."""
        rng = np.random.default_rng(7)
        K, H, L, E = 8, 5, 2, 4
        caps = ContextRnn(K, hidden_size=H, n_layers=L, embedding_size=E,
                          contextual=True, seed=3)
        plain = ContextRnn(K, hidden_size=H, n_layers=L, embedding_size=E,
                           contextual=False, seed=3)
        neutralize(caps)
        for name, arr in plain.params.items():
            plain.params[name] = caps.params[name].copy()
        state_c = caps.init_state(1)
        state_p = plain.init_state(1)
        for _ in range(1000):
            ix = rng.integers(0, K, size=1)
            A = rng.normal(size=(1, ADIM))
            f = rng.normal(size=(1, FDIM))
            state_c, logits_c, probs_c = caps.forward_step(state_c, ix, A, f)
            state_p, logits_p, probs_p = plain.forward_step(state_p, ix, A, f)
            assert np.array_equal(logits_c, logits_p)
            assert np.array_equal(probs_c, probs_p)
            for a, b in zip(state_c, state_p):
                assert np.array_equal(a, b)


class TestSequenceNll:
    def test_certain_model_zero_loss(self):
        net = ContextRnn(4, hidden_size=3, n_layers=1, embedding_size=2, seed=0)
        for name in net.params:
            net.params[name][:] = 0.0
        net.params["c"][2] = 500.0  # class 2 gets probability exactly 1
        T = 5
        loss = sequence_nll(
            net, np.zeros(T, dtype=int), np.full(T, 2), np.zeros((T, ADIM)), np.zeros(FDIM)
        )
        assert loss == 0.0

    def test_uniform_model_closed_form(self):
        K, T = 7, 4
        net = ContextRnn(K, hidden_size=3, n_layers=1, embedding_size=2, seed=0)
        for name in net.params:
            net.params[name][:] = 0.0
        loss = sequence_nll(
            net, np.zeros(T, dtype=int), np.arange(T) % K, np.zeros((T, ADIM)), np.zeros(FDIM)
        )
        assert loss == pytest.approx(T * np.log(K), rel=1e-12)

    @over_shared_nets
    def test_matches_stepwise_summation(self, make_net):
        rng = np.random.default_rng(9)
        net = make_net(5)
        T = 6
        inputs = rng.integers(0, 6, size=T)
        targets = rng.integers(0, 6, size=T)
        attrs = rng.normal(size=(T, ADIM))
        feat = rng.normal(size=FDIM)
        state = net.init_state(1)
        expected = 0.0
        for t in range(T):
            state, _, probs = net.forward_step(
                state, inputs[t : t + 1], attrs[t : t + 1], feat[None, :]
            )
            expected += -np.log(probs[0, targets[t]])
        assert sequence_nll(net, inputs, targets, attrs, feat) == pytest.approx(
            expected, rel=1e-12
        )

    @over_shared_nets
    def test_batch_loss_is_mean_of_sequence_losses(self, make_net):
        rng = np.random.default_rng(3)
        net = make_net(1)
        seqs = []
        for T in (2, 4, 5):
            seqs.append(
                EncodedSequence(
                    inputs=rng.integers(0, 6, size=T),
                    targets=rng.integers(0, 6, size=T),
                    attrs=rng.normal(size=(T, ADIM)),
                    feat=rng.normal(size=FDIM),
                )
            )
        batch = make_batch(seqs, net.pad_ix)
        individual = [
            sequence_nll(net, s.inputs, s.targets, s.attrs, s.feat) for s in seqs
        ]
        assert net.batch_nll(batch) == pytest.approx(np.mean(individual), rel=1e-12)


class TestBackward:
    @pytest.mark.parametrize("T", [1, 25])
    def test_gradients_match_finite_differences(self, T):
        rng = np.random.default_rng(21)
        net = ContextRnn(6, hidden_size=5, n_layers=2, embedding_size=4,
                         contextual=True, seed=2)
        batch = toy_batch(rng, K=6, T=T, B=2)
        _, grads = net.loss_and_grads(batch)
        err = grad_check(
            lambda: net.loss_and_grads(batch)[0],
            net.params,
            grads,
            eps=1e-5,
            samples_per_block=5,
            rng=np.random.default_rng(0),
        )
        assert err < 1e-4

    def test_unused_feature_block_gets_zero_gradient(self):
        rng = np.random.default_rng(2)
        net = ContextRnn(5, hidden_size=4, n_layers=1, embedding_size=3, seed=6)
        batch = toy_batch(rng, K=5, T=4, B=2)
        batch.feats[:] = 0.0
        _, grads = net.loss_and_grads(batch)
        assert np.all(grads["G"] == 0.0)
        assert np.all(grads["F0"] == 0.0)

    @over_shared_nets
    def test_loss_invariant_to_batch_order(self, make_net):
        rng = np.random.default_rng(14)
        net = make_net(2)
        batch = toy_batch(rng, K=6, T=4, B=5)
        loss1, grads1 = net.loss_and_grads(batch)
        perm = np.array([3, 0, 4, 1, 2])
        shuffled = Batch(
            inputs=batch.inputs[perm],
            targets=batch.targets[perm],
            mask=batch.mask[perm],
            attrs=batch.attrs[perm],
            feats=batch.feats[perm],
        )
        loss2, grads2 = net.loss_and_grads(shuffled)
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        for name in grads1:
            np.testing.assert_allclose(grads1[name], grads2[name], rtol=1e-9, atol=1e-12)


class TestScaffoldBackward:
    """The one BPTT loop of ``RecurrentNet.loss_and_grads`` gives the loss
    and every gradient block of the per-cell loops it replaced, bit for
    bit, on padded batches with masked steps and on a batch of one."""

    @pytest.mark.parametrize("lengths", [(4, 1, 6, 2, 3), (3, 3, 3), (5,)],
                             ids=["padded", "unpadded", "batch-of-one"])
    @pytest.mark.parametrize("name", list(ORACLE_NETS))
    def test_equals_per_cell_bptt(self, name, lengths):
        make_net, oracle = ORACLE_NETS[name]
        net = make_net()
        rng = np.random.default_rng(len(lengths))
        for block in net.params.values():  # peepholes and biases start at 0 or 1
            block += 0.3 * rng.normal(size=block.shape)
        batch = make_batch([
            EncodedSequence(rng.integers(0, 6, size=T), rng.integers(0, 6, size=T),
                            rng.normal(size=(T, ADIM)), rng.normal(size=FDIM))
            for T in lengths
        ], net.pad_ix)
        loss, grads = net.loss_and_grads(batch)
        want_loss, want = oracle(net, batch)
        assert loss == want_loss
        assert grads.keys() == want.keys()
        differ = [block for block in want if grads[block].tobytes() != want[block].tobytes()]
        assert not differ, differ


class TestTrain:
    def make_sequences(self, rng, n=5, K=8):
        out = []
        for _ in range(n):
            T = int(rng.integers(2, 6))
            out.append(
                EncodedSequence(
                    inputs=rng.integers(0, K, size=T),
                    targets=rng.integers(0, K, size=T),
                    attrs=rng.normal(size=(T, ADIM)),
                    feat=rng.normal(size=FDIM),
                )
            )
        return out

    def test_zero_learning_rate_constant_curve(self):
        rng = np.random.default_rng(5)
        net = ContextRnn(8, hidden_size=4, n_layers=1, embedding_size=3, seed=1)
        seqs = self.make_sequences(rng)
        curve = train(net, make_batch(seqs, net.pad_ix),
                      learning_rate=0.0, clip_threshold=5.0, batch_size=50, epochs=5, seed=3)
        assert all(v == pytest.approx(curve[0], rel=1e-12) for v in curve)

    def test_no_session_is_refused(self):
        net = ContextRnn(8, hidden_size=4, n_layers=1, embedding_size=3, seed=1)
        empty = Batch(inputs=np.zeros((0, 0), dtype=np.int64),
                      targets=np.zeros((0, 0), dtype=np.int64), mask=np.zeros((0, 0)),
                      attrs=np.zeros((0, 0, ADIM)), feats=np.zeros((0, FDIM)))
        with pytest.raises(ValueError, match="at least one encoded session"):
            train(net, empty, learning_rate=0.1, clip_threshold=5.0, batch_size=50, epochs=1,
                  seed=3)

    def test_same_seed_identical_curves(self):
        rng = np.random.default_rng(5)
        seqs = self.make_sequences(rng)
        curves = []
        for _ in range(2):
            net = ContextRnn(8, hidden_size=4, n_layers=1, embedding_size=3, seed=1)
            curves.append(
                train(net, make_batch(seqs, net.pad_ix),
                      learning_rate=0.05, clip_threshold=5.0, batch_size=50, epochs=5, seed=3)
            )
        assert curves[0] == curves[1]

    @over_shared_nets
    def test_huge_learning_rate_raises_diverged(self, make_net):
        """A caller that ignores floating-point errors still learns that the
        loss went non-finite: 1e308-sized steps leave the weights near the
        float64 limit, and the next epoch's forward pass overflows."""
        net = make_net(1)
        seqs = self.make_sequences(np.random.default_rng(5), K=6)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as raised:
            train(net, make_batch(seqs, net.pad_ix), learning_rate=1e308,
                  clip_threshold=5.0, batch_size=50, epochs=2, seed=3)
        assert raised.value.epoch == 2

    def test_loss_decreases_when_learnable(self):
        rng = np.random.default_rng(5)
        net = ContextRnn(8, hidden_size=8, n_layers=1, embedding_size=4, seed=1)
        # one deterministic pattern, easily memorized
        seqs = [
            EncodedSequence(
                inputs=np.array([0, 1, 2, 3]),
                targets=np.array([1, 2, 3, 4]),
                attrs=np.zeros((4, ADIM)),
                feat=np.zeros(FDIM),
            )
        ] * 4
        curve = train(
            net, make_batch(seqs, net.pad_ix),
            learning_rate=0.1, clip_threshold=5.0, batch_size=4, epochs=50,
            seed=3,
        )
        assert curve[-1] < 0.2 * curve[0]
