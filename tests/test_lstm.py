"""Context LSTM: gate fixtures, degeneration to the textbook cell,
gradient checks, state bounds, training."""

import numpy as np
import pytest

from capseq import numerics
from finite_diff import grad_check
from capseq.models import Batch, train
from scalar_reference import EncodedSequence, lstm_step, make_batch
from capseq.models.lstm import ROWS, ContextLstm

ADIM, FDIM = 30, 7


def toy_batch(rng, K=6, T=3, B=2):
    return Batch(
        inputs=rng.integers(0, K, size=(B, T)),
        targets=rng.integers(0, K, size=(B, T)),
        mask=np.ones((B, T)),
        attrs=rng.normal(size=(B, T, ADIM)),
        feats=rng.normal(size=(B, FDIM)),
    )


def neutralize(net: ContextLstm) -> None:
    net.params["P"][:] = 0.0
    net.params["pb"][:] = 50.0  # sigmoid(50) == 1.0 exactly
    net.params["Wq"][:] = 0.0
    net.params["G"][:] = 0.0
    for g in ("i", "f", "o"):
        net.params[f"wc{g}"][:] = 0.0


def assert_gate_blocks_are_stack_rows(net: ContextLstm) -> None:
    """Each gate block is its row of the family's stack: same memory,
    same shape, so an in-place write reaches the step."""
    for family, gates in (("Wx", ROWS), ("Wh", ROWS), ("b", ROWS), ("wc", "ifo")):
        stack = net.stacks[family]
        for row, g in enumerate(gates):
            block = net.params[f"{family}{g}"]
            assert block.base is stack, f"{family}{g}"
            assert block.ctypes.data == stack[row].ctypes.data, f"{family}{g}"
            assert block.shape == stack[row].shape, f"{family}{g}"


def textbook_lstm_step(p, x, h_prev, c_prev):
    """Standard LSTM cell written out independently (no peepholes, no
    context). Uses the same sigmoid primitive as the model so the
    comparison isolates the cell wiring."""
    sig = numerics.sigmoid
    i = sig(x @ p["Wxi"].T + h_prev @ p["Whi"].T + p["bi"])
    f = sig(x @ p["Wxf"].T + h_prev @ p["Whf"].T + p["bf"])
    z = np.tanh(x @ p["Wxz"].T + h_prev @ p["Whz"].T + p["bz"])
    c = f * c_prev + i * z
    o = sig(x @ p["Wxo"].T + h_prev @ p["Who"].T + p["bo"])
    h = o * np.tanh(c)
    logits = h @ p["V"].T + p["c"]
    return h, c, logits


class TestLstmStep:
    def test_degenerates_to_textbook_lstm(self):
        """Unit attribute gates, zero features, zero peepholes: 1000
        random steps must match the standard cell float for float, at
        batch 1 (BLAS gemv) and at a rollout's batch of 10 (gemm)."""
        K, H, E = 8, 5, 4
        for B in (1, 10):
            rng = np.random.default_rng(13)
            net = ContextLstm(K, hidden_size=H, embedding_size=E, seed=2)
            neutralize(net)
            p = net.params
            state = net.init_state(B)
            h_ref = np.zeros((B, H))
            c_ref = np.zeros((B, H))
            for _ in range(1000):
                ix = rng.integers(0, K, size=B)
                A = rng.normal(size=(B, ADIM))
                f = rng.normal(size=(B, FDIM))
                state, logits = net.forward_step(state, ix, A, f)
                x = p["emb"][ix]
                h_ref, c_ref, logits_ref = textbook_lstm_step(p, x, h_ref, c_ref)
                assert np.array_equal(logits, logits_ref), B
                assert np.array_equal(state[0], h_ref), B
                assert np.array_equal(state[1], c_ref), B

    @pytest.mark.parametrize("H, E", [(5, 4), (64, 32), (512, 384)])
    @pytest.mark.parametrize("B", [1, 3, 10, 50])
    def test_stacked_step_equals_per_gate_step(self, B, H, E):
        """The step over the gate stacks gives the per-gate step's
        logits, state and every cache entry bit for bit, with nonzero
        biases, peepholes and features."""
        rng = np.random.default_rng(B * 1000 + H)
        K = 20
        net = ContextLstm(K, hidden_size=H, embedding_size=E, seed=3)
        for name, block in net.params.items():
            block[...] = rng.normal(scale=0.5, size=block.shape)
        state = ref_state = (rng.normal(size=(B, H)), rng.normal(size=(B, H)))
        for _ in range(4):
            ix = rng.integers(0, K, size=B)
            A = rng.normal(size=(B, ADIM))
            terms = net.sequence_terms(rng.normal(size=(B, FDIM)))
            cache, ref_cache = [], []
            state, logits = net._step(state, ix, A, terms, net._right_views(), cache)
            ref_state, ref_logits = lstm_step(net, ref_state, ix, A, terms, ref_cache)
            assert np.array_equal(logits, ref_logits)
            assert np.array_equal(state[0], ref_state[0])
            assert np.array_equal(state[1], ref_state[1])
            assert len(cache[0]) == len(ref_cache[0])
            for got, want in zip(cache[0], ref_cache[0]):
                assert np.array_equal(got, want)

    def test_gate_blocks_stay_stack_rows(self):
        """After init and after an SGD step, every gate block is a view
        of its stack, so training updates what the step reads."""
        rng = np.random.default_rng(8)
        net = ContextLstm(6, hidden_size=5, embedding_size=4, seed=4)
        assert_gate_blocks_are_stack_rows(net)
        assert net.stacks["b"][ROWS.index("f")].tolist() == [1.0] * 5
        _, grads = net.loss_and_grads(toy_batch(rng, K=6, T=3, B=2))
        numerics.sgd_step(net.params, grads, 0.1, 5.0)
        assert_gate_blocks_are_stack_rows(net)

    def test_forced_gates_preserve_memory(self):
        """Forget gate 1 and input gate 0 keep the cell unchanged."""
        K, H = 5, 4
        net = ContextLstm(K, hidden_size=H, embedding_size=3, seed=1)
        neutralize(net)
        p = net.params
        for g in ("i", "f"):
            p[f"Wx{g}"][:] = 0.0
            p[f"Wh{g}"][:] = 0.0
        p["bf"][:] = 50.0   # f = 1 exactly
        p["bi"][:] = -50.0  # i = 0 exactly
        c0 = np.array([[0.3, -0.7, 0.2, 0.9]])
        state = (np.zeros((1, H)), c0.copy())
        state, _ = net.forward_step(state, [2], np.zeros((1, ADIM)), np.zeros((1, FDIM)))
        np.testing.assert_array_equal(state[1], c0)

    def test_hand_computed_intermediates(self):
        """hidden=2, K=3: all six intermediate vectors match explicit
        arithmetic."""
        K, H, E = 3, 2, 2
        net = ContextLstm(K, hidden_size=H, embedding_size=E, seed=0)
        p = net.params
        for name in p:
            p[name][:] = 0.0
        p["emb"][1] = [1.0, -0.5]
        p["Wxi"][:] = [[0.2, 0.0], [0.0, 0.2]]
        p["Wxf"][:] = [[0.3, 0.0], [0.0, 0.3]]
        p["Wxz"][:] = [[1.0, 0.0], [0.0, 1.0]]
        p["Wxo"][:] = [[0.5, 0.0], [0.0, 0.5]]
        p["Whi"][:] = np.eye(2) * 0.1
        p["Whf"][:] = np.eye(2) * 0.1
        p["Whz"][:] = np.eye(2) * 0.1
        p["Who"][:] = np.eye(2) * 0.1
        p["wci"][:] = [0.05, -0.05]
        p["wcf"][:] = [0.02, 0.02]
        p["wco"][:] = [0.01, 0.03]
        p["bi"][:] = [0.1, -0.1]
        p["bf"][:] = [0.0, 0.2]
        p["bz"][:] = [0.05, 0.05]
        p["bo"][:] = [-0.2, 0.2]
        p["P"][:] = 0.0
        p["pb"][:] = [0.0, 50.0]   # gate = [0.5, 1.0]
        p["Wq"][0, 0] = 1.0        # every gate preactivation += f[0]
        p["V"][:] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]

        h_prev = np.array([0.4, -0.2])
        c_prev = np.array([0.6, 0.1])
        x = np.array([1.0, -0.5])
        fvec = np.zeros(FDIM)
        fvec[0] = 0.25

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        gate = np.array([0.5, 1.0])
        hg = h_prev * gate
        feat = fvec[0] * np.array([1.0, 0.0])
        i = sig(0.2 * x + 0.1 * hg + np.array([0.05, -0.05]) * c_prev
                + np.array([0.1, -0.1]) + feat)
        f = sig(0.3 * x + 0.1 * hg + np.array([0.02, 0.02]) * c_prev
                + np.array([0.0, 0.2]) + feat)
        z = np.tanh(1.0 * x + 0.1 * hg + np.array([0.05, 0.05]) + feat)
        c = f * c_prev + i * z
        o = sig(0.5 * x + 0.1 * hg + np.array([0.01, 0.03]) * c_prev
                + np.array([-0.2, 0.2]) + feat)
        h = o * np.tanh(c)
        expected_logits = np.array([h[0], h[1], h[0] + h[1]])

        state = (h_prev[None, :].copy(), c_prev[None, :].copy())
        new_state, logits = net.forward_step(
            state, [1], np.zeros((1, ADIM)), fvec[None, :]
        )
        np.testing.assert_allclose(new_state[1][0], c, atol=1e-12)
        np.testing.assert_allclose(new_state[0][0], h, atol=1e-12)
        np.testing.assert_allclose(logits[0], expected_logits, atol=1e-12)

    def test_gate_ranges_on_random_rollouts(self):
        rng = np.random.default_rng(3)
        net = ContextLstm(7, hidden_size=6, embedding_size=4, seed=9)
        B, T = 3, 50
        state = net.init_state(B)
        for t in range(T):
            cache = []
            state, _ = net._step(
                state,
                rng.integers(0, 7, size=B),
                rng.normal(size=(B, ADIM)),
                net.sequence_terms(rng.normal(size=(B, FDIM))),
                net._right_views(),
                cache,
            )
            _, _, _, _, _, i, f, z, c, o, _, _ = cache[0]
            for gate_val in (i, f, o):
                assert np.all(gate_val > 0.0) and np.all(gate_val < 1.0)
            assert np.all(np.abs(z) < 1.0)
            # cell growth is bounded by one unit per step
            assert np.all(np.abs(c) <= t + 1 + 1e-12)

    def test_out_of_range_index_rejected(self):
        net = ContextLstm(5, hidden_size=3, embedding_size=2)
        with pytest.raises(IndexError):
            net.forward_step(net.init_state(1), [7], np.zeros((1, ADIM)), np.zeros((1, FDIM)))


class TestLstmBackward:
    @pytest.mark.parametrize("T", [1, 25])
    def test_gradients_match_finite_differences(self, T):
        rng = np.random.default_rng(31)
        net = ContextLstm(6, hidden_size=5, embedding_size=4, seed=4)
        batch = toy_batch(rng, K=6, T=T, B=2)
        _, grads = net.loss_and_grads(batch)
        err = grad_check(
            lambda: net.loss_and_grads(batch)[0],
            net.params,
            grads,
            eps=1e-5,
            samples_per_block=5,
            rng=np.random.default_rng(1),
        )
        assert err < 1e-4

    def test_unused_feature_blocks_zero_gradient(self):
        rng = np.random.default_rng(6)
        net = ContextLstm(5, hidden_size=4, embedding_size=3, seed=2)
        batch = toy_batch(rng, K=5, T=4, B=2)
        batch.feats[:] = 0.0
        _, grads = net.loss_and_grads(batch)
        assert np.all(grads["G"] == 0.0)
        assert np.all(grads["Wq"] == 0.0)


class TestLstmTrain:
    def test_overfits_deterministic_pattern(self):
        net = ContextLstm(8, hidden_size=12, embedding_size=6, seed=1)
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
            learning_rate=0.2, clip_threshold=5.0, batch_size=4, epochs=60,
            seed=3,
        )
        assert curve[-1] < 0.1 * curve[0]

    def test_same_seed_reproducible(self):
        rng = np.random.default_rng(5)
        seqs = [
            EncodedSequence(
                inputs=rng.integers(0, 6, size=4),
                targets=rng.integers(0, 6, size=4),
                attrs=rng.normal(size=(4, ADIM)),
                feat=rng.normal(size=FDIM),
            )
            for _ in range(6)
        ]
        curves = []
        for _ in range(2):
            net = ContextLstm(6, hidden_size=5, embedding_size=4, seed=8)
            curves.append(
                train(net, make_batch(seqs, net.pad_ix),
                      learning_rate=0.05, clip_threshold=5.0, batch_size=50, epochs=4, seed=2)
            )
        assert curves[0] == curves[1]
