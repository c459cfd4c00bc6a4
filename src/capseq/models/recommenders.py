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
from pathlib import Path

from .. import numerics
from ..data.types import Encodings
from ..features import FeatureTables
from ..generation import GenRequest, generate
from .base import SequenceRecommender, check_positive, check_sessions
from .lstm import ContextLstm
from .rnn import ContextRnn
from .training import encode_sessions, train

KIND_PLAIN_RNN = "plain-rnn"
KIND_CAPS_RNN = "caps-rnn"
KIND_CAPS_LSTM = "caps-lstm"


def encodings_hash(encodings: Encodings) -> str:
    raw = json.dumps(encodings.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


class _NeuralRecommender(SequenceRecommender):
    kind: str = ""

    def _build_net(self, n_pois: int):
        raise NotImplementedError

    def fit(self, sessions, tables: FeatureTables = None):
        if tables is None:
            raise ValueError(f"{type(self).__name__}.fit requires feature tables")
        sessions = check_sessions(sessions, min_length=2)
        self.tables_ = tables
        self.net_ = self._build_net(tables.encodings.n_pois)
        encoded = encode_sessions(sessions, tables, tables.encodings)
        config = numerics.SgdConfig(
            learning_rate=self.learning_rate,
            clip_threshold=self.clip_threshold,
            batch_size=self.batch_size,
            epochs=self.epochs,
        )
        self.loss_curve_ = train(self.net_, encoded, config, seed=self.seed)
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
            "n_pois": self.net_.n_pois,
            "encodings_sha256": encodings_hash(self.tables_.encodings),
        }
        path.with_suffix(path.suffix + ".json").write_text(
            json.dumps(sidecar, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )

    @classmethod
    def _restore(cls, sidecar: dict, weights, tables: FeatureTables):
        model = cls(**sidecar["params"])
        model.tables_ = tables
        model.net_ = model._build_net(sidecar["n_pois"])
        if set(weights) != set(model.net_.params):
            raise numerics.NumericError(
                f"parameter blocks do not match a {cls.kind} net: missing "
                f"{sorted(set(model.net_.params) - set(weights))}, unexpected "
                f"{sorted(set(weights) - set(model.net_.params))}"
            )
        for name, arr in weights.items():
            if model.net_.params[name].shape != arr.shape:
                raise numerics.NumericError(
                    f"shape mismatch for {name!r}: "
                    f"{model.net_.params[name].shape} vs {arr.shape}"
                )
            model.net_.params[name] = arr
        model.loss_curve_ = []
        return model


class PlainRnnRecommender(_NeuralRecommender):
    """Plain recurrent sequence model; no context or feature inputs."""

    kind = KIND_PLAIN_RNN
    contextual = False

    def __init__(
        self,
        hidden_size: int = 256,
        n_layers: int = 5,
        embedding_size: int = 384,
        learning_rate: float = 0.002,
        clip_threshold: float = 5.0,
        batch_size: int = 50,
        epochs: int = 100,
        seed: int = 0,
    ):
        check_positive(hidden_size=hidden_size, n_layers=n_layers,
                       embedding_size=embedding_size, epochs=epochs)
        self.hidden_size = hidden_size
        self.n_layers = n_layers
        self.embedding_size = embedding_size
        self.learning_rate = learning_rate
        self.clip_threshold = clip_threshold
        self.batch_size = batch_size
        self.epochs = epochs
        self.seed = seed

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


class CapsLstmRecommender(_NeuralRecommender):
    """Context-aware LSTM: gate updates see the attribute-gated state
    and the shared feature term."""

    kind = KIND_CAPS_LSTM

    def __init__(
        self,
        hidden_size: int = 512,
        embedding_size: int = 384,
        learning_rate: float = 0.002,
        clip_threshold: float = 5.0,
        batch_size: int = 50,
        epochs: int = 100,
        seed: int = 0,
    ):
        check_positive(hidden_size=hidden_size, embedding_size=embedding_size,
                       epochs=epochs)
        self.hidden_size = hidden_size
        self.embedding_size = embedding_size
        self.learning_rate = learning_rate
        self.clip_threshold = clip_threshold
        self.batch_size = batch_size
        self.epochs = epochs
        self.seed = seed

    def _build_net(self, n_pois: int):
        return ContextLstm(
            n_pois,
            hidden_size=self.hidden_size,
            embedding_size=self.embedding_size,
            contextual=True,
            seed=self.seed,
        )


MODEL_KINDS = {
    KIND_PLAIN_RNN: PlainRnnRecommender,
    KIND_CAPS_RNN: CapsRnnRecommender,
    KIND_CAPS_LSTM: CapsLstmRecommender,
}


def load_checkpoint(path, tables: FeatureTables):
    """Restore a trained model from snapshot + sidecar; refuses a
    checkpoint whose encodings differ from the supplied tables."""
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
