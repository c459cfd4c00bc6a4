"""LSTM POI sequence model with context-extended gate updates.

Every gate preactivation sees the recurrent state modulated by the
attribute gate and an additive term from the shared feature weights:

    g_a = sigmoid(P_a A_t + p_b)
    i_t = sigmoid(W_i x + W_hi (h * g_a) + w_ci c + b_i + W_q f)
    f_t = sigmoid(W_f x + W_hf (h * g_a) + w_cf c + b_f + W_q f)
    z_t = tanh   (W_z x + W_hc (h * g_a)          + b_z + W_q f)
    c_t = f_t * c + i_t * z_t
    o_t = sigmoid(W_o x + W_ho (h * g_a) + w_co c + b_o + W_q f)
    h_t = o_t * tanh(c_t)
    logits = V h_t + c_out + G f

``W_q`` is one feature weight matrix shared by all four gates (the gate
equations all carry the same feature term); the forget-gate input
weight is a separate block. Peepholes (w_c*) are diagonal and read the
previous memory cell. With unit attribute gates, zero features and zero
peepholes this is the textbook LSTM cell.

Only the cell lives here, its step and that step's backward; the rest
is ``training.RecurrentNet``'s, shared with ``ContextRnn``.
"""

from __future__ import annotations

import numpy as np

from .. import numerics
from ..features import ATTRIBUTE_DIM, FEATURE_DIM
from .training import RecurrentNet

GATES = ("i", "f", "z", "o")  # the order the initial weights are drawn in
ROWS = ("i", "f", "o", "z")   # the row order of the gate stacks: the sigmoid gates first


class ContextLstm(RecurrentNet):
    """The gate blocks of ``params`` (``Wx*``, ``Wh*``, ``b*``, ``wc*``) are
    views of one stack per family in ``stacks``, rows in ``ROWS`` order:
    ``Wx`` (4, H, E), ``Wh`` (4, H, H), ``b`` (4, H) and ``wc`` (3, H).
    Write a block in place (``params[name][...] = value``); rebinding it
    leaves the stack, which ``_step`` reads, as it was."""

    def __init__(self, n_pois: int, hidden_size: int, embedding_size: int, seed: int = 0):
        super().__init__(n_pois, hidden_size, 1, embedding_size, True, seed)

    def _init_params(self, rng) -> dict:
        H, E, K = self.hidden_size, self.embedding_size, self.n_pois
        s = self.stacks = {"Wx": np.empty((4, H, E)), "Wh": np.empty((4, H, H)),
                           "b": np.zeros((4, H)), "wc": np.zeros((3, H))}
        p: dict[str, np.ndarray] = {}
        p["emb"] = numerics.xavier_uniform(rng, (K + 1, E))
        p["emb"][K] = 0.0
        for g in GATES:
            row = ROWS.index(g)
            s["Wx"][row] = numerics.xavier_uniform(rng, (H, E))
            s["Wh"][row] = numerics.xavier_uniform(rng, (H, H))
            p[f"Wx{g}"], p[f"Wh{g}"], p[f"b{g}"] = s["Wx"][row], s["Wh"][row], s["b"][row]
        p["bf"][:] = 1.0  # open forget gate at init; helps early BPTT flow
        for g, wc in zip("ifo", s["wc"]):
            # start inert; training grows them if they help
            p[f"wc{g}"] = wc
        p["P"] = numerics.xavier_uniform(rng, (H, ATTRIBUTE_DIM))
        p["pb"] = np.zeros(H)
        p["Wq"] = numerics.xavier_uniform(rng, (H, FEATURE_DIM))
        p["G"] = numerics.xavier_uniform(rng, (K, FEATURE_DIM))
        p["V"] = numerics.xavier_uniform(rng, (K, H))
        p["c"] = np.zeros(K)
        return p

    def init_state(self, batch_size: int = 1) -> tuple:
        H = self.hidden_size
        return (np.zeros((batch_size, H)), np.zeros((batch_size, H)))

    # -- forward ---------------------------------------------------------

    def sequence_terms(self, feats):
        """``(W_q f, G f)`` of the (B, F) features."""
        p = self.params
        return feats @ p["Wq"].T, feats @ p["G"].T

    def _input_product(self):
        """The embeddings times each gate's input weights: a (4, K+1, H)
        block, rows in ``ROWS`` order."""
        return np.matmul(self.params["emb"], self.stacks["Wx"].transpose(0, 2, 1))

    def _step(self, state, inputs, attrs, terms, cache=None, table=None):
        p, s = self.params, self.stacks
        h_prev, c_prev = state
        feat_in, feat_out = terms
        gate_a = numerics.sigmoid(attrs @ p["P"].T + p["pb"])
        hg = h_prev * gate_a
        # (4, B, H) preactivations, rows in ROWS order.
        if table is None:
            # matmul hands BLAS each gate's slice as ``x @ Wx_g.T`` would, so
            # every float is the per-gate one.
            x = p["emb"][inputs]
            pre = np.matmul(x, s["Wx"].transpose(0, 2, 1))
        else:
            # ``take`` copies the table's rows into one contiguous block.
            x, pre = None, np.take(table, inputs, axis=1)
        pre += np.matmul(hg, s["Wh"].transpose(0, 2, 1))
        pre += s["b"][:, None]
        pre[:3] += c_prev * s["wc"][:, None]
        pre += feat_in
        i, f, o = numerics.sigmoid(pre[:3], out=pre[:3])
        z = np.tanh(pre[3], out=pre[3])
        c = f * c_prev + i * z
        tc = np.tanh(c)
        h = o * tc
        logits = h @ p["V"].T + p["c"] + feat_out
        if cache is not None:
            cache.append((x, h_prev, c_prev, gate_a, hg, i, f, z, c, o, tc, h))
        return (h, c), logits

    # entries in this class's own __dict__: the benchmark tracer wraps them per class
    forward_step = RecurrentNet.forward_step
    loss_and_grads = RecurrentNet.loss_and_grads

    # -- backward ----------------------------------------------------------

    def _step_backward(self, cache, dh, carry, batch, t, grads):
        p = self.params
        x, h_prev, c_prev, gate_a, hg, i, f, z, c, o, tc, h = cache[0]
        dh_next, dc_next = carry
        dh = dh + dh_next

        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        di = dc * z
        dz = dc * i
        df = dc * c_prev
        dc_prev = dc * f

        dpre = {
            "i": di * i * (1.0 - i),
            "f": df * f * (1.0 - f),
            "z": dz * (1.0 - z * z),
            "o": do * o * (1.0 - o),
        }
        dhg = np.zeros_like(h_prev)
        dx = np.zeros_like(x)
        for g in GATES:
            d = dpre[g]
            grads[f"Wx{g}"] += d.T @ x
            grads[f"Wh{g}"] += d.T @ hg
            grads[f"b{g}"] += d.sum(axis=0)
            if g != "z":
                grads[f"wc{g}"] += (d * c_prev).sum(axis=0)
                dc_prev = dc_prev + d * p[f"wc{g}"]
            grads["Wq"] += d.T @ batch.feats
            dhg += d @ p[f"Wh{g}"]
            dx += d @ p[f"Wx{g}"]
        dgate = dhg * h_prev
        dza = dgate * gate_a * (1.0 - gate_a)
        grads["P"] += dza.T @ batch.attrs[:, t, :]
        grads["pb"] += dza.sum(axis=0)
        return (dhg * gate_a, dc_prev), dx
