"""Recurrent POI sequence model, plain and context-aware variants.

The context-aware variant gates each layer's recurrent state with a
learned projection of the per-step attribute vector and injects the
whole-sequence feature vector into every hidden layer and the output
layer:

    gate(t) = sigmoid(P_a A(t) + p_b)                    per layer
    h_l(t)  = tanh(U x + W (h_l(t-1) * gate(t)) + b + F f)
    logits  = V h_top(t) + c + G f

With ``contextual=False`` the gate/feature paths do not exist and the
step is a textbook tanh RNN. Gradients are hand-derived full
backpropagation through time over the (padded, masked) batch; no
truncation is applied within the capped session length.

Shapes: batch-major. ``state`` is a list of (B, H) arrays per layer;
inputs are (B,) int indices; attribute/feature inputs are (B, A) and
(B, F). Only the cell lives here, its step and that step's backward;
the rest is ``training.RecurrentNet``'s, shared with ``ContextLstm``.
"""

from __future__ import annotations

import numpy as np

from .. import numerics
from ..features import ATTRIBUTE_DIM, FEATURE_DIM
from .training import RecurrentNet


class ContextRnn(RecurrentNet):
    def _init_params(self, rng) -> dict:
        H, E, K = self.hidden_size, self.embedding_size, self.n_pois
        p: dict[str, np.ndarray] = {}
        p["emb"] = numerics.xavier_uniform(rng, (K + 1, E))
        p["emb"][K] = 0.0  # padding row
        for layer in range(self.n_layers):
            in_dim = E if layer == 0 else H
            p[f"U{layer}"] = numerics.xavier_uniform(rng, (H, in_dim))
            p[f"W{layer}"] = numerics.xavier_uniform(rng, (H, H))
            p[f"b{layer}"] = np.zeros(H)
            if self.contextual:
                p[f"P{layer}"] = numerics.xavier_uniform(rng, (H, ATTRIBUTE_DIM))
                p[f"pb{layer}"] = np.zeros(H)
                p[f"F{layer}"] = numerics.xavier_uniform(rng, (H, FEATURE_DIM))
        p["V"] = numerics.xavier_uniform(rng, (K, H))
        p["c"] = np.zeros(K)
        if self.contextual:
            p["G"] = numerics.xavier_uniform(rng, (K, FEATURE_DIM))
        return p

    def init_state(self, batch_size: int = 1) -> list:
        return [np.zeros((batch_size, self.hidden_size)) for _ in range(self.n_layers)]

    # -- forward ---------------------------------------------------------

    def sequence_terms(self, feats):
        """``(F_l f for each layer, G f)`` of the (B, F) features, or
        ``None`` for the plain variant."""
        if not self.contextual:
            return None
        p = self.params
        return ([feats @ p[f"F{layer}"].T for layer in range(self.n_layers)],
                feats @ p["G"].T)

    def _input_product(self):
        """``emb @ U0.T``: layer 0's input term of every embedding row, (K+1, H)."""
        return self.params["emb"] @ self.params["U0"].T

    def _right_views(self) -> dict:
        """``U_l.T``, ``W_l.T``, ``P_l.T`` (contextual only) and ``V.T``, by block name."""
        names = [f"{w}{layer}" for layer in range(self.n_layers)
                 for w in (("U", "W", "P") if self.contextual else ("U", "W"))]
        return {name: self.params[name].T for name in names + ["V"]}

    def _step(self, state, inputs, attrs, terms, right, cache=None, table=None):
        p = self.params
        layer_in = p["emb"][inputs] if table is None else None
        new_state = []
        for layer in range(self.n_layers):
            h_prev = state[layer]
            if self.contextual:
                gate = numerics.sigmoid(attrs @ right[f"P{layer}"] + p[f"pb{layer}"])
                rec = h_prev * gate
            else:
                gate = None
                rec = h_prev
            if layer == 0 and table is not None:
                into = table[inputs]
            else:
                into = layer_in @ right[f"U{layer}"]
            pre = into + rec @ right[f"W{layer}"] + p[f"b{layer}"]
            if self.contextual:
                pre += terms[0][layer]
            h = np.tanh(pre, out=pre)
            if cache is not None:
                cache.append((layer_in, h_prev, gate, rec, h))
            new_state.append(h)
            layer_in = h
        logits = layer_in @ right["V"] + p["c"]
        if self.contextual:
            logits += terms[1]
        return new_state, logits

    # entries in this class's own __dict__: the benchmark tracer wraps them per class
    forward_step = RecurrentNet.forward_step
    loss_and_grads = RecurrentNet.loss_and_grads

    # -- backward ----------------------------------------------------------

    def _step_backward(self, cache, dh, carry, batch, t, grads):
        p = self.params
        attrs_t = batch.attrs[:, t, :]
        for layer in range(self.n_layers - 1, -1, -1):
            layer_in, h_prev, gate, rec, h = cache[layer]
            dh_total = dh + carry[layer]
            dpre = dh_total * (1.0 - h * h)
            grads[f"U{layer}"] += dpre.T @ layer_in
            grads[f"W{layer}"] += dpre.T @ rec
            grads[f"b{layer}"] += dpre.sum(axis=0)
            if self.contextual:
                grads[f"F{layer}"] += dpre.T @ batch.feats
            drec = dpre @ p[f"W{layer}"]
            if self.contextual:
                carry[layer] = drec * gate
                dgate = drec * h_prev
                dz = dgate * gate * (1.0 - gate)
                grads[f"P{layer}"] += dz.T @ attrs_t
                grads[f"pb{layer}"] += dz.sum(axis=0)
            else:
                carry[layer] = drec
            dh = dpre @ p[f"U{layer}"]
        return carry, dh
