"""First-order Markov chain baseline, personalized per user.

Each user gets an initial-probability vector over the POIs they were
observed at (counted from session starts) and a Laplace-smoothed
transition matrix over the same alphabet. Every session also counts
towards a population-level chain pooled over everybody, which unknown
users and start POIs fall back to.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

import numpy as np

from ..data.types import SessionTable, check_poi, check_user
from ..generation import GenRequest, draw_rows, ranked
from ..generation import score_sequence  # unused here: the benchmark tracer patches it
from ..models.base import SequenceRecommender

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
    n_users: int  # the encodings' counts, which bound a walk's user and start
    n_pois: int

    def chain_for(self, user: int | None, start: int | None = None) -> UserChain:
        chain = self.chains.get(user if user is not None else POPULATION)
        if chain is None or (start is not None and start not in chain.index):
            chain = self.chains[POPULATION]
        return chain


def markov_fit(sessions, encodings) -> MarkovModel:
    """Count session starts and transitions over the ``SessionTable`` of
    ``sessions``, then Laplace-smooth: every count starts at 1."""
    table = SessionTable.of(sessions, encodings)
    starts: dict[int, list] = defaultdict(list)
    pairs: dict[int, list] = defaultdict(list)
    for u, ixs in zip(table.users[table.starts].tolist(), table.split(table.pois)):
        for key in (u, POPULATION):
            starts[key].append(ixs[0])
            pairs[key].extend(zip(ixs, ixs[1:]))

    chains = {}
    for u in starts:
        alphabet = sorted(set(starts[u]).union(*pairs[u]))
        n = len(alphabet)
        index = {poi: i for i, poi in enumerate(alphabet)}
        initial = np.ones(n)
        np.add.at(initial, [index[p] for p in starts[u]], 1.0)
        initial /= initial.sum()  # every chain has a start, so the sum is positive
        transition = np.ones((n, n))
        for a, b in pairs[u]:
            transition[index[a], index[b]] += 1.0
        transition /= transition.sum(axis=1, keepdims=True)
        chains[u] = UserChain(alphabet, index, initial, transition)
    return MarkovModel(chains, encodings.n_users, encodings.n_pois)


def markov_walks(model: MarkovModel, user: int | None, start: int, length: int,
                 rngs) -> np.ndarray:
    """One POI walk per RNG stream from ``start`` on the user's chain, all
    of them stepping as one batch, as a (streams, length) array; row ``b``
    draws all its uniforms from ``rngs[b]``. ``UnknownIdError`` for a user
    or start outside the model's encodings."""
    check_user(user, model.n_users)
    check_poi(start, model.n_pois)
    chain = model.chain_for(user, start)
    unseen = start not in chain.index  # unseen even in the population chain
    draws = np.array([rng.random(length - 1 + unseen) for rng in rngs])
    walks = np.full((len(draws), length), start, dtype=np.int64)
    alphabet = np.asarray(chain.alphabet, dtype=np.int64)
    current = np.full(len(draws), chain.index.get(start, -1))
    if unseen:  # the walk leaves from a state drawn from the initials
        current = draw_rows(np.tile(chain.initial, (len(draws), 1)), draws[:, 0])
    for t in range(length - 1):
        current = draw_rows(chain.transition[current], draws[:, unseen + t])
        walks[:, t + 1] = alphabet[current]
    return walks


class MarkovRecommender(SequenceRecommender):
    """The first-order chains of ``markov_fit``; it has no settings."""

    def fit(self, sessions, tables):
        self.tables_ = tables
        self.model_ = markov_fit(sessions, tables.encodings)
        return self

    def generate(self, request: GenRequest, seed: int = 0):
        self._check_request(request, "model_")
        walks = markov_walks(
            self.model_, request.user, request.start_poi, request.length,
            [np.random.default_rng([seed, cand]) for cand in range(request.candidates)],
        )
        return ranked(request, self.tables_, walks)
