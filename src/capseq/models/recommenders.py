"""Estimator wrappers around the recurrent networks.

``fit(sessions, tables)`` trains the underlying network on encoded
sessions; ``generate(request, seed)`` produces ranked sequences. A
checkpoint is the flat binary parameter snapshot plus a JSON sidecar
with the model kind, hyperparameters and a hash of the encodings it was
trained against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .. import numerics
from ..data.types import Encodings
from ..features import FeatureTables
from ..generation import GenRequest, generate
from .base import SequenceRecommender, check_non_negative, check_positive, check_sessions
from .lstm import ContextLstm
from .rnn import ContextRnn
from .training import encode_sessions, train

KIND_PLAIN_RNN = "plain-rnn"
KIND_CAPS_RNN = "caps-rnn"
KIND_CAPS_LSTM = "caps-lstm"


def encodings_hash(encodings: Encodings) -> str:
    raw = json.dumps(encodings.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


@dataclass(eq=False, kw_only=True)
class _NeuralRecommender(SequenceRecommender):
    kind: ClassVar[str] = ""
    learning_rate: float = 0.002
    clip_threshold: float = 5.0
    batch_size: int = 50
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        check_positive(clip_threshold=self.clip_threshold, batch_size=self.batch_size,
                       epochs=self.epochs)
        check_non_negative(learning_rate=self.learning_rate, seed=self.seed)
        if self.learning_rate == float("inf"):  # the one value >= 0 that is not finite
            raise ValueError("learning_rate must be finite, got inf")

    def fit(self, sessions, tables: FeatureTables):
        sessions = check_sessions(sessions, tables.encodings)
        self.tables_ = tables
        self.net_ = self._build_net(tables.encodings.n_pois)
        encoded = encode_sessions(sessions, tables)
        self.loss_curve_ = train(
            self.net_, encoded, learning_rate=self.learning_rate,
            clip_threshold=self.clip_threshold, batch_size=self.batch_size,
            epochs=self.epochs, seed=self.seed,
        )
        return self

    def generate(self, request: GenRequest, seed: int = 0):
        self._check_fitted("net_", "tables_")
        return generate(self.net_, request, self.tables_, seed=seed)

    # -- checkpoints -----------------------------------------------------

    def save(self, path) -> None:
        self._check_fitted("net_", "tables_")
        path = Path(path)
        numerics.save_params(path, self.net_.params)
        sidecar = {
            "kind": self.kind,
            "params": self.get_params(),
            "encodings_sha256": encodings_hash(self.tables_.encodings),
        }
        path.with_suffix(path.suffix + ".json").write_text(
            json.dumps(sidecar, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )

    @classmethod
    def _restore(cls, sidecar: dict, weights, tables: FeatureTables):
        model = cls(**sidecar["params"])
        model.tables_ = tables
        model.net_ = model._build_net(tables.n_pois)
        model.net_.load_weights(weights)
        model.loss_curve_ = []
        return model


@dataclass(eq=False, kw_only=True)
class PlainRnnRecommender(_NeuralRecommender):
    """Plain recurrent sequence model; no context or feature inputs."""

    kind = KIND_PLAIN_RNN
    contextual: ClassVar[bool] = False
    hidden_size: int = 256
    n_layers: int = 5
    embedding_size: int = 384

    def __post_init__(self):
        check_positive(hidden_size=self.hidden_size, n_layers=self.n_layers,
                       embedding_size=self.embedding_size)
        super().__post_init__()

    def _build_net(self, n_pois: int):
        return ContextRnn(
            n_pois,
            hidden_size=self.hidden_size,
            n_layers=self.n_layers,
            embedding_size=self.embedding_size,
            contextual=self.contextual,
            seed=self.seed,
        )


class CapsRnnRecommender(PlainRnnRecommender):
    """Context-aware RNN: attribute gating plus feature injection."""

    kind = KIND_CAPS_RNN
    contextual = True


@dataclass(eq=False, kw_only=True)
class CapsLstmRecommender(_NeuralRecommender):
    """Context-aware LSTM: gate updates see the attribute-gated state
    and the shared feature term."""

    kind = KIND_CAPS_LSTM
    hidden_size: int = 512
    embedding_size: int = 384

    def __post_init__(self):
        check_positive(hidden_size=self.hidden_size, embedding_size=self.embedding_size)
        super().__post_init__()

    def _build_net(self, n_pois: int):
        return ContextLstm(
            n_pois,
            hidden_size=self.hidden_size,
            embedding_size=self.embedding_size,
            seed=self.seed,
        )


MODEL_KINDS = {
    KIND_PLAIN_RNN: PlainRnnRecommender,
    KIND_CAPS_RNN: CapsRnnRecommender,
    KIND_CAPS_LSTM: CapsLstmRecommender,
}


def load_checkpoint(path, tables: FeatureTables):
    """Restore a trained model from snapshot + sidecar, its net built for
    the POIs of ``tables``; refuses a checkpoint whose encodings differ
    from theirs, or whose snapshot does not fit the net."""
    path = Path(path)
    sidecar = json.loads(
        path.with_suffix(path.suffix + ".json").read_text(encoding="utf-8")
    )
    kind = sidecar["kind"]
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r} in checkpoint")
    if sidecar["encodings_sha256"] != encodings_hash(tables.encodings):
        raise ValueError(
            "checkpoint was trained with different encodings than the "
            "supplied feature tables"
        )
    weights = numerics.load_params(path)
    return MODEL_KINDS[kind]._restore(sidecar, weights, tables)
