"""Estimator plumbing shared by every recommender.

All models follow the scikit-learn convention: hyperparameters are
``__init__`` keyword arguments stored verbatim, ``get_params`` /
``set_params`` round-trip them, ``fit`` learns state into trailing-
underscore attributes and returns ``self``. ``clone_unfitted`` gives a
fresh instance for cross-validation folds.
"""

from __future__ import annotations

import inspect
from typing import Iterable, Sequence

from ..data.types import Session


class NotFittedError(RuntimeError):
    """The estimator was used before ``fit``."""


class BaseEstimator:
    """get_params/set_params via ``__init__`` signature introspection,
    compatible with sklearn-style tooling."""

    @classmethod
    def _param_names(cls) -> list:
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind == p.POSITIONAL_OR_KEYWORD
        ]

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def clone_unfitted(self):
        return type(self)(**self.get_params())

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def _check_fitted(self, *attrs: str) -> None:
        for attr in attrs:
            if getattr(self, attr, None) is None:
                raise NotFittedError(
                    f"{type(self).__name__} must be fitted before this call"
                )


class SequenceRecommender(BaseEstimator):
    """Common interface: ``fit(sessions, tables)`` then
    ``generate(request, rng)`` returning ranked ``GeneratedSequence``."""

    def fit(self, sessions: Sequence[Session], tables=None):
        raise NotImplementedError

    def generate(self, request, rng=None):
        raise NotImplementedError


def check_sessions(sessions: Iterable[Session], min_length: int = 1) -> list:
    """Validate and materialize a session collection."""
    sessions = list(sessions)
    if not sessions:
        raise ValueError("at least one session is required")
    for s in sessions:
        if not isinstance(s, Session):
            raise TypeError(f"expected Session, got {type(s).__name__}")
    usable = [s for s in sessions if len(s) >= min_length]
    if not usable:
        raise ValueError(f"no session has length >= {min_length}")
    return usable


def check_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if value is None or value <= 0:
            raise ValueError(f"{name} must be > 0, got {value}")
