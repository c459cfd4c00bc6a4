"""First-order Markov chain baseline, personalized per user.

Each user gets an initial-probability vector over the POIs they were
observed at (counted from session starts) and a Laplace-smoothed
transition matrix over the same alphabet. Every session also counts
towards a population-level chain pooled over everybody, which unknown
users and start POIs fall back to.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..generation import (
    GenRequest,
    GeneratedSequence,
    advance_hours,
    rank_sequences,
    sample_rows,
)
from ..generation import score_sequence  # unused here: the benchmark tracer patches it
from ..models.base import SequenceRecommender, check_non_negative

POPULATION = -1  # pooled pseudo-user key


class UserChain(NamedTuple):
    """Alphabet, its POI -> row index, initial distribution and
    stochastic transition matrix."""

    alphabet: list
    index: dict
    initial: np.ndarray
    transition: np.ndarray


class MarkovModel(NamedTuple):
    chains: dict  # user (or POPULATION) -> UserChain

    def chain_for(self, user: int | None, start: int | None = None) -> UserChain:
        chain = self.chains.get(user if user is not None else POPULATION)
        if chain is None or (start is not None and start not in chain.index):
            chain = self.chains[POPULATION]
        return chain


def markov_fit(sessions, encodings, smoothing: float = 1.0) -> MarkovModel:
    """Count session starts and transitions, then Laplace-smooth.

    ``smoothing=0`` disables smoothing (rows renormalize over observed
    counts only; useful for deterministic test chains).
    """
    starts: dict[int, list] = defaultdict(list)
    pairs: dict[int, list] = defaultdict(list)
    for session in sessions:
        u = encodings.user(session.user_id)
        ixs = [encodings.poi(v.poi.poi_id) for v in session.visits]
        for key in (u, POPULATION):
            starts[key].append(ixs[0])
            pairs[key].extend(zip(ixs, ixs[1:]))

    chains = {}
    for u in starts:
        alphabet = sorted(set(starts[u]).union(*pairs[u]))
        n = len(alphabet)
        index = {poi: i for i, poi in enumerate(alphabet)}
        initial = np.full(n, smoothing, dtype=np.float64)
        np.add.at(initial, [index[p] for p in starts[u]], 1.0)
        initial /= initial.sum()  # every chain has a start, so the sum is positive
        transition = np.full((n, n), smoothing, dtype=np.float64)
        for a, b in pairs[u]:
            transition[index[a], index[b]] += 1.0
        row_sums = transition.sum(axis=1, keepdims=True)
        # zero rows (possible only with smoothing off) become uniform
        zero = row_sums[:, 0] == 0
        transition[zero] = 1.0 / n
        row_sums[zero] = 1.0
        transition /= row_sums
        chains[u] = UserChain(alphabet, index, initial, transition)
    return MarkovModel(chains)


def markov_walks(model: MarkovModel, user: int | None, start: int, length: int,
                 rngs) -> list:
    """One POI walk per RNG stream from ``start`` on the user's chain, all
    of them stepping as one batch; row ``b`` draws all its uniforms from ``rngs[b]``."""
    chain = model.chain_for(user, start)
    unseen = start not in chain.index  # unseen even in the population chain
    draws = np.array([rng.random(length - 1 + unseen) for rng in rngs])
    walks = np.full((len(draws), length), start, dtype=np.int64)
    alphabet = np.asarray(chain.alphabet, dtype=np.int64)
    current = np.full(len(draws), chain.index.get(start, -1))
    if unseen:  # the walk leaves from a state drawn from the initials
        current = sample_rows(np.tile(chain.initial, (len(draws), 1)), draws[:, 0])
    for t in range(length - 1):
        current = sample_rows(chain.transition[current], draws[:, unseen + t])
        walks[:, t + 1] = alphabet[current]
    return walks.tolist()


@dataclass(eq=False, kw_only=True)
class MarkovRecommender(SequenceRecommender):
    smoothing: float = 1.0

    def __post_init__(self):
        check_non_negative(smoothing=self.smoothing)

    def fit(self, sessions, tables):
        self.tables_ = tables
        self.model_ = markov_fit(sessions, tables.encodings, self.smoothing)
        return self

    def generate(self, request: GenRequest, seed: int = 0):
        self._check_fitted("model_", "tables_")
        tables = self.tables_
        walks = markov_walks(
            self.model_, request.user, request.start_poi, request.length,
            [np.random.default_rng([seed, cand]) for cand in range(request.candidates)],
        )
        # every walk has request.length stops: one read for all of them
        hours = advance_hours(tables, walks, request.start_hour)
        return rank_sequences(
            [GeneratedSequence(pois=pois, step_probs=[], score=0.0, hours=h)
             for pois, h in zip(walks, hours)],
            request, tables,
        )
