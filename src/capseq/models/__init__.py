from .base import NotFittedError, SequenceRecommender
from .lstm import ContextLstm
from .rnn import ContextRnn
from .training import (
    MAX_STEPS,
    Batch,
    TrainingDivergedError,
    encode_sessions,
    make_batch,
    mean_nll,
    train,
)
from .recommenders import (
    MODEL_KINDS,
    CapsLstmRecommender,
    CapsRnnRecommender,
    PlainRnnRecommender,
    encodings_hash,
    load_checkpoint,
)

__all__ = [
    "Batch",
    "CapsLstmRecommender",
    "CapsRnnRecommender",
    "ContextLstm",
    "ContextRnn",
    "MAX_STEPS",
    "MODEL_KINDS",
    "NotFittedError",
    "PlainRnnRecommender",
    "SequenceRecommender",
    "TrainingDivergedError",
    "encode_sessions",
    "encodings_hash",
    "load_checkpoint",
    "make_batch",
    "mean_nll",
    "train",
]
