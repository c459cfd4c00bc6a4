"""Session encoding, the recurrent-model scaffold and the mini-batch
training loop shared by the recurrent models.

Sessions become (input, target) index pairs under teacher forcing, with
per-step attribute vectors and one per-sequence feature vector, all read
from one ``SessionTable``. The sessions are right-padded once, with
the model's padding token, and loss-masked; each mini-batch is a gather
of their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import numerics
from ..data.types import DataError, Session, SessionTable
from ..features import FeatureTables

MAX_STEPS = 25  # cap on teacher-forcing steps per session


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"loss became non-finite during epoch {epoch}")
        self.epoch = epoch


@dataclass
class Batch:
    inputs: np.ndarray   # (B, T) int
    targets: np.ndarray  # (B, T) int
    mask: np.ndarray     # (B, T) 0/1
    attrs: np.ndarray    # (B, T, ATTRIBUTE_DIM)
    feats: np.ndarray    # (B, FEATURE_DIM)


class RecurrentNet:
    """Scaffold shared by ``ContextRnn`` and ``ContextLstm``: the public
    step, the sequence losses, the output layer's backward and the loop of
    backpropagation through time.

    Each cell supplies ``_init_params(rng)``, ``init_state(batch_size)``,
    ``sequence_terms(feats)``, the products of the (B, FEATURE_DIM)
    whole-sequence features that every step of those sequences shares,
    ``_input_product()``, the input layer's term of every embedding row
    (see ``input_table``), ``_right_views()``, the ``.T`` view of every
    weight ``_step`` multiplies on the right, by name (see
    ``right_operands``), ``_step(state, inputs, attrs, terms, right, cache,
    table)`` returning ``(new_state, logits)``, whose cache ends with the
    top hidden state, which multiplies by the right operands ``right``,
    gathers the input term from ``table`` when given and multiplies the
    embeddings otherwise,
    and ``_step_backward(cache, dh, carry, batch, t, grads) -> (carry,
    dx)``: from the top state's loss gradient and the state gradient of
    step ``t + 1`` it adds step ``t``'s cell grads and returns the state
    and input-embedding gradients of step ``t``. Index ``n_pois`` is the
    padding token (extra embedding row, never a valid output class).

    ``load_weights`` and ``sgd_step`` are the two writers of ``params``:
    each drops the rollout operands (the input table and the right
    operands) built from the old weights. A block written in place by any
    other means after a rollout is not seen by them.
    """

    def __init__(
        self,
        n_pois: int,
        hidden_size: int,
        n_layers: int,
        embedding_size: int,
        contextual: bool = True,
        seed: int = 0,
    ):
        if n_pois < 2:
            raise DataError("need at least two POIs to model sequences")
        self.n_pois = n_pois
        self.hidden_size = hidden_size
        self.n_layers = n_layers
        self.embedding_size = embedding_size
        self.contextual = contextual
        self.pad_ix = n_pois
        self.params = self._init_params(np.random.default_rng(seed))
        # "table" and "right", each built on first use from the current weights
        self._rollout_operands = {}

    def input_table(self):
        """The input layer's term of every POI and the padding token, as
        ``_step`` would compute it for an input: built with one product of
        fixed shape, so its bits do not depend on the request that asked for
        it. A rollout gathers its steps' input terms from it; they may
        differ from the per-step product's in the last bits."""
        if "table" not in self._rollout_operands:
            self._rollout_operands["table"] = self._input_product()
        return self._rollout_operands["table"]

    def right_operands(self) -> dict:
        """A C-contiguous copy of each of ``_right_views()``, by name: BLAS
        multiplies a small batch by a row-major operand faster than by a
        transposed view. Every rollout step multiplies by them; their
        products may differ from the views' in the last bits."""
        if "right" not in self._rollout_operands:
            self._rollout_operands["right"] = {
                name: np.ascontiguousarray(view) for name, view in self._right_views().items()}
        return self._rollout_operands["right"]

    def load_weights(self, weights) -> None:
        """Write each block of the name -> array mapping ``weights`` into
        ``params`` in place (a caps-lstm net's gate blocks are views of its
        stacks). The names and shapes must be the net's; a mismatch raises
        ``NumericError`` before anything is written."""
        if set(weights) != set(self.params):
            raise numerics.NumericError(
                "parameter blocks do not match the net's: missing "
                f"{sorted(set(self.params) - set(weights))}, unexpected "
                f"{sorted(set(weights) - set(self.params))}"
            )
        for name, arr in weights.items():
            if self.params[name].shape != arr.shape:
                raise numerics.NumericError(
                    f"shape mismatch for {name!r}: {self.params[name].shape} vs {arr.shape}"
                )
        self._rollout_operands = {}
        for name, arr in weights.items():
            self.params[name][...] = arr

    def sgd_step(self, grads, learning_rate: float, clip_threshold: float) -> None:
        """``numerics.sgd_step`` of ``params``, in place."""
        self._rollout_operands = {}
        numerics.sgd_step(self.params, grads, learning_rate, clip_threshold)

    def forward_step(self, state, inputs, attrs, feats, terms=None, table=None, right=None):
        """One public step; returns (new_state, logits), whose softmax is the
        step's distribution. ``terms`` is ``sequence_terms(feats)``, computed
        here if not given: a rollout computes it once for all its steps.
        ``table`` is ``input_table()``, from which a rollout gathers the input
        terms; without it the step multiplies the embeddings by the input weights.
        ``right`` is ``right_operands()``, which a rollout multiplies by;
        without it the step multiplies by the weights' ``.T`` views, as
        teacher forcing does."""
        inputs = np.atleast_1d(np.asarray(inputs, dtype=np.int64))
        if inputs.view(np.uint64).max(initial=0) >= self.n_pois:  # negatives wrap past it
            raise IndexError(
                f"poi index out of range [0, {self.n_pois}): {inputs.tolist()}"
            )
        if terms is None:
            terms = self.sequence_terms(np.atleast_2d(feats))
        if right is None:
            right = self._right_views()
        return self._step(state, inputs, np.atleast_2d(attrs), terms, right, table=table)

    def _forward_sequence(self, batch, collect_cache: bool):
        """Run the whole padded batch; returns per-step probs and caches."""
        B, T = batch.inputs.shape
        state = self.init_state(B)
        terms, right = self.sequence_terms(batch.feats), self._right_views()
        steps = []
        for t in range(T):
            cache: list | None = [] if collect_cache else None
            state, logits = self._step(
                state, batch.inputs[:, t], batch.attrs[:, t, :], terms, right, cache
            )
            steps.append((numerics.softmax(logits), cache))
        return steps

    @staticmethod
    def _step_nll(probs, batch, t) -> float:
        """Masked summed NLL of the step-``t`` targets."""
        picked = probs[np.arange(len(probs)), batch.targets[:, t]]
        return float(np.sum(-np.log(np.maximum(picked, 1e-300)) * batch.mask[:, t]))

    def loss_and_grads(self, batch):
        """Mean per-sequence NLL of ``batch`` and its gradient w.r.t. every
        parameter block, by full backpropagation through time."""
        p = self.params
        B, T = batch.inputs.shape
        steps = self._forward_sequence(batch, collect_cache=True)

        grads = {name: np.zeros_like(arr) for name, arr in p.items()}
        carry = self.init_state(B)
        loss = 0.0
        rows = np.arange(B)
        for t in range(T - 1, -1, -1):
            probs, cache = steps[t]
            loss += self._step_nll(probs, batch, t)
            dlogits = probs.copy()
            dlogits[rows, batch.targets[:, t]] -= 1.0
            dlogits *= (batch.mask[:, t] / B)[:, None]
            grads["V"] += dlogits.T @ cache[-1][-1]
            grads["c"] += dlogits.sum(axis=0)
            if self.contextual:
                grads["G"] += dlogits.T @ batch.feats
            carry, dx = self._step_backward(cache, dlogits @ p["V"], carry, batch, t, grads)
            np.add.at(grads["emb"], batch.inputs[:, t], dx)
        return loss / B, grads

    def batch_nll(self, batch) -> float:
        """Mean (over sequences) of the per-sequence summed negative
        log-likelihood of the targets under teacher forcing."""
        steps = self._forward_sequence(batch, collect_cache=False)
        total = 0.0
        for t, (probs, _) in enumerate(steps):
            total += self._step_nll(probs, batch, t)
        return total / len(batch.inputs)


def encode_sessions(sessions: Sequence[Session], tables: FeatureTables) -> Batch:
    """Teacher-forcing encoding of sessions of length >= 2, each capped at
    ``MAX_STEPS`` steps, as one batch right-padded to the longest: padding
    token ``tables.n_pois``, mask 0 and zero attributes. The whole-sequence
    features are those of the whole session."""
    table = SessionTable.of(sessions, tables.encodings)
    pois, lengths = table.pois, table.lengths
    if (lengths < 2).any():
        raise ValueError("training sessions must have at least two visits")
    dist_prev, feats = tables.session_steps(table)
    steps = np.minimum(lengths, MAX_STEPS + 1) - 1
    real = np.arange(steps.max(initial=0)) < steps[:, None]  # (B, T)
    # step t of row b reads visit ``at`` and predicts the next; padding reads visit 0
    at = np.where(real, table.starts[:, None] + np.arange(real.shape[1]), 0)
    attrs = tables.attribute_rows(pois[at], table.hours[at], dist_prev[at])
    attrs[~real] = 0.0
    attrs /= tables.attribute_scale
    return Batch(np.where(real, pois[at], tables.n_pois), np.where(real, pois[at + 1], 0),
                 real.astype(float), attrs, feats / tables.feature_scale)


def make_batch(data: Batch, rows: np.ndarray) -> Batch:
    """Rows ``rows`` of the padded ``data``, cut to the longest of them."""
    T = int(data.mask[rows].sum(axis=1).max())
    return Batch(data.inputs[rows, :T], data.targets[rows, :T], data.mask[rows, :T],
                 data.attrs[rows, :T], data.feats[rows])


def _batches(data: Batch, order: np.ndarray, batch_size: int):
    """``make_batch`` of each consecutive ``batch_size`` rows of ``order``."""
    for start in range(0, len(order), batch_size):
        yield make_batch(data, order[start : start + batch_size])


def mean_nll(net, data: Batch, batch_size: int) -> float:
    """Dataset mean of per-sequence NLL without updating anything."""
    total = 0.0
    for batch in _batches(data, np.arange(len(data.inputs)), batch_size):
        total += net.batch_nll(batch) * len(batch.inputs)
    return total / len(data.inputs)


def train(net, data: Batch, *, learning_rate: float, clip_threshold: float,
          batch_size: int, epochs: int, seed: int) -> list:
    """Shuffled mini-batch SGD with gradients clipped to global norm
    ``clip_threshold`` over the sessions of ``data``, as
    ``encode_sessions`` pads them.

    Returns the loss curve: entry 0 is the pre-training dataset NLL,
    entry e >= 1 the mean batch loss seen during epoch e.
    """
    n = len(data.inputs)
    if not n:
        raise ValueError("training requires at least one encoded session")
    rng = np.random.default_rng(seed)
    curve = [mean_nll(net, data, batch_size)]
    for epoch in range(1, epochs + 1):
        total = 0.0
        for batch in _batches(data, rng.permutation(n), batch_size):
            loss, grads = net.loss_and_grads(batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            net.sgd_step(grads, learning_rate, clip_threshold)
            total += loss * len(batch.inputs)
        curve.append(total / n)
    return curve
