"""Session encoding, the recurrent-model scaffold and the mini-batch
training loop shared by the recurrent models.

Sessions become (input, target) index pairs under teacher forcing, with
per-step attribute vectors and one per-sequence feature vector. Batches
are right-padded with the model's padding token and loss-masked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import numerics
from ..data.types import Session
from ..features import ATTRIBUTE_DIM, FEATURE_DIM, FeatureTables

MAX_STEPS = 25  # cap on teacher-forcing steps per session


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"loss became non-finite during epoch {epoch}")
        self.epoch = epoch


@dataclass
class EncodedSequence:
    inputs: np.ndarray   # (T,) int
    targets: np.ndarray  # (T,) int
    attrs: np.ndarray    # (T, ATTRIBUTE_DIM)
    feat: np.ndarray     # (FEATURE_DIM,)


@dataclass
class Batch:
    inputs: np.ndarray   # (B, T) int
    targets: np.ndarray  # (B, T) int
    mask: np.ndarray     # (B, T) 0/1
    attrs: np.ndarray    # (B, T, ATTRIBUTE_DIM)
    feats: np.ndarray    # (B, FEATURE_DIM)


class RecurrentNet:
    """Scaffold shared by ``ContextRnn`` and ``ContextLstm``.

    Subclasses supply ``_init_params(rng)``, ``init_state(batch_size)``,
    ``_step(state, inputs, attrs, feats, cache)`` returning
    ``(new_state, logits)``, and ``loss_and_grads(batch)``, whose cell
    backward starts from ``_output_backward``. The constructor defaults
    are the multi-layer RNN's. Index ``n_pois`` is the padding token
    (extra embedding row, never a valid output class).
    """

    def __init__(
        self,
        n_pois: int,
        hidden_size: int = 256,
        n_layers: int = 5,
        embedding_size: int = 384,
        contextual: bool = True,
        seed: int = 0,
    ):
        if n_pois < 2:
            raise ValueError("need at least two POIs to model sequences")
        self.n_pois = n_pois
        self.hidden_size = hidden_size
        self.n_layers = n_layers
        self.embedding_size = embedding_size
        self.contextual = contextual
        self.pad_ix = n_pois
        self.params = self._init_params(np.random.default_rng(seed))

    def forward_step(self, state, inputs, attrs=None, feats=None):
        """One public step; returns (new_state, logits, probabilities)."""
        inputs = np.atleast_1d(np.asarray(inputs, dtype=np.int64))
        if np.any(inputs < 0) or np.any(inputs >= self.n_pois):
            raise IndexError(
                f"poi index out of range [0, {self.n_pois}): {inputs.tolist()}"
            )
        attrs, feats = self._default_context(len(inputs), attrs, feats)
        new_state, logits = self._step(state, inputs, attrs, feats)
        return new_state, logits, numerics.softmax(logits, axis=-1)

    def _default_context(self, batch, attrs, feats):
        if attrs is None:
            attrs = np.zeros((batch, ATTRIBUTE_DIM))
        if feats is None:
            feats = np.zeros((batch, FEATURE_DIM))
        return np.atleast_2d(attrs), np.atleast_2d(feats)

    def _forward_sequence(self, batch, collect_cache: bool):
        """Run the whole padded batch; returns per-step probs and caches."""
        B, T = batch.inputs.shape
        state = self.init_state(B)
        steps = []
        for t in range(T):
            cache: list | None = [] if collect_cache else None
            state, logits = self._step(
                state, batch.inputs[:, t], batch.attrs[:, t, :], batch.feats, cache
            )
            steps.append((numerics.softmax(logits, axis=-1), cache))
        return steps

    @staticmethod
    def _step_nll(probs, batch, t) -> float:
        """Masked summed NLL of the step-``t`` targets."""
        picked = probs[np.arange(len(probs)), batch.targets[:, t]]
        return float(np.sum(-np.log(np.maximum(picked, 1e-300)) * batch.mask[:, t]))

    def _output_backward(self, probs, batch, t, top_h, grads):
        """Add step ``t``'s output-layer grads (V, c, G) to ``grads``;
        returns the loss gradient w.r.t. the top hidden state."""
        B = len(probs)
        dlogits = probs.copy()
        dlogits[np.arange(B), batch.targets[:, t]] -= 1.0
        dlogits *= (batch.mask[:, t] / B)[:, None]
        grads["V"] += dlogits.T @ top_h
        grads["c"] += dlogits.sum(axis=0)
        if self.contextual:
            grads["G"] += dlogits.T @ batch.feats
        return dlogits @ self.params["V"]

    def batch_nll(self, batch) -> float:
        """Mean (over sequences) of the per-sequence summed negative
        log-likelihood of the targets under teacher forcing."""
        steps = self._forward_sequence(batch, collect_cache=False)
        total = 0.0
        for t, (probs, _) in enumerate(steps):
            total += self._step_nll(probs, batch, t)
        return total / len(batch.inputs)


def encode_session(session: Session, tables: FeatureTables) -> EncodedSequence:
    """Teacher-forcing encoding of one session (length >= 2), capped at
    ``MAX_STEPS`` steps."""
    if len(session) < 2:
        raise ValueError("training sessions must have at least two visits")
    visits = session.visits[: MAX_STEPS + 1]
    ixs = [tables.encodings.poi(v.poi.poi_id) for v in visits]
    dists = tables.step_km(session)  # one haversine per step, for both uses
    attrs = tables.attribute_rows(
        ixs[:-1], [v.hour for v in visits[:-1]], [0.0] + dists[: len(ixs) - 2]
    ) / tables.attribute_scale
    feat = tables.feature_vector(session, dists) / tables.feature_scale
    return EncodedSequence(
        inputs=np.asarray(ixs[:-1], dtype=np.int64),
        targets=np.asarray(ixs[1:], dtype=np.int64),
        attrs=attrs,
        feat=feat,
    )


def encode_sessions(sessions: Sequence[Session], tables: FeatureTables) -> list:
    return [encode_session(s, tables) for s in sessions]


def make_batch(sequences: Sequence[EncodedSequence], pad_ix: int) -> Batch:
    B = len(sequences)
    T = max(len(s.inputs) for s in sequences)
    a_dim = sequences[0].attrs.shape[1]
    inputs = np.full((B, T), pad_ix, dtype=np.int64)
    targets = np.zeros((B, T), dtype=np.int64)
    mask = np.zeros((B, T))
    attrs = np.zeros((B, T, a_dim))
    feats = np.zeros((B, len(sequences[0].feat)))
    for b, seq in enumerate(sequences):
        n = len(seq.inputs)
        inputs[b, :n] = seq.inputs
        targets[b, :n] = seq.targets
        mask[b, :n] = 1.0
        attrs[b, :n, :] = seq.attrs
        feats[b] = seq.feat
    return Batch(inputs, targets, mask, attrs, feats)


def mean_nll(net, sequences: Sequence[EncodedSequence], batch_size: int = 50) -> float:
    """Dataset mean of per-sequence NLL without updating anything."""
    total = 0.0
    for start in range(0, len(sequences), batch_size):
        chunk = sequences[start : start + batch_size]
        batch = make_batch(chunk, net.pad_ix)
        total += net.batch_nll(batch) * len(chunk)
    return total / len(sequences)


def train(
    net,
    sequences: Sequence[EncodedSequence],
    config: numerics.SgdConfig | None = None,
    seed: int = 0,
) -> list:
    """Shuffled mini-batch SGD with clipped gradients.

    Returns the loss curve: entry 0 is the pre-training dataset NLL,
    entry e >= 1 the mean batch loss seen during epoch e.
    """
    if not sequences:
        raise ValueError("training requires at least one encoded session")
    config = config or numerics.SgdConfig()
    rng = np.random.default_rng(seed)
    curve = [mean_nll(net, sequences, config.batch_size)]
    n = len(sequences)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            chunk = [sequences[i] for i in order[start : start + config.batch_size]]
            batch = make_batch(chunk, net.pad_ix)
            loss, grads = net.loss_and_grads(batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            numerics.sgd_step(net.params, grads, config)
            total += loss * len(chunk)
        curve.append(total / n)
    return curve
