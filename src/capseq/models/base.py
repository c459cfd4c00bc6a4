"""The estimator contract shared by every recommender.

A recommender is a keyword-only dataclass: its settings are the fields,
checked once in ``__post_init__``, and ``get_params`` reads them back.
``fit(sessions, tables)`` learns state into trailing-underscore
attributes and returns ``self``; ``generate(request, seed)`` returns
ranked sequences. ``clone_unfitted`` gives a fresh instance with the same
settings for cross-validation folds.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from ..data.types import DataError, Encodings, Session, SessionTable


class NotFittedError(RuntimeError):
    """The estimator was used before ``fit``."""


@dataclasses.dataclass(eq=False, kw_only=True)
class SequenceRecommender:
    """Common interface: ``fit(sessions, tables)`` then
    ``generate(request, seed=0)`` returning ranked ``GeneratedSequence``."""

    @classmethod
    def _param_names(cls) -> list:
        return [f.name for f in dataclasses.fields(cls)]

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def clone_unfitted(self):
        return type(self)(**self.get_params())

    def _check_fitted(self, *attrs: str) -> None:
        for attr in attrs:
            if getattr(self, attr, None) is None:
                raise NotFittedError(
                    f"{type(self).__name__} must be fitted before this call"
                )


def check_sessions(sessions: Iterable[Session], encodings: Encodings) -> SessionTable:
    """The training sessions (length >= 2) of ``sessions`` as a table under
    ``encodings``; a ``DataError`` if there is none."""
    table = SessionTable.of(sessions, encodings)
    usable = table.select(table.columns[4] >= 2)
    if not len(usable):
        raise DataError("no session has length >= 2")
    return usable


def check_positive(**kwargs) -> None:
    for name, value in kwargs.items():
        if not value > 0:  # NaN fails too
            raise ValueError(f"{name} must be > 0, got {value}")


def check_non_negative(**kwargs) -> None:
    for name, value in kwargs.items():
        if not value >= 0:  # NaN fails too
            raise ValueError(f"{name} must be >= 0, got {value}")
