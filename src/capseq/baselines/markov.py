"""First-order Markov chain baseline, personalized per user.

Each user gets an initial-probability vector over the POIs they were
observed at (counted from session starts) and a Laplace-smoothed
transition matrix over the same alphabet. Unknown users or start POIs
fall back to a population-level chain pooled over everybody.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..generation import (
    GenRequest,
    GeneratedSequence,
    advance_hours,
    score_sequence,
    top_k,
)
from ..models.base import SequenceRecommender

POPULATION = -1  # pooled pseudo-user key


class UserChain:
    """Alphabet, initial distribution and stochastic transition matrix."""

    __slots__ = ("alphabet", "index", "initial", "transition")

    def __init__(self, alphabet, initial, transition):
        self.alphabet = alphabet
        self.index = {poi: i for i, poi in enumerate(alphabet)}
        self.initial = initial
        self.transition = transition


class MarkovModel:
    def __init__(self, chains: dict):
        self.chains = chains

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
        starts[u].append(ixs[0])
        starts[POPULATION].append(ixs[0])
        for a, b in zip(ixs, ixs[1:]):
            pairs[u].append((a, b))
            pairs[POPULATION].append((a, b))

    chains = {}
    for u in starts:
        alphabet = sorted(
            {p for p in starts[u]} | {x for pair in pairs[u] for x in pair}
        )
        n = len(alphabet)
        index = {poi: i for i, poi in enumerate(alphabet)}
        initial = np.full(n, smoothing, dtype=np.float64)
        for p in starts[u]:
            initial[index[p]] += 1.0
        total = initial.sum()
        initial = initial / total if total > 0 else np.full(n, 1.0 / n)
        transition = np.full((n, n), smoothing, dtype=np.float64)
        for a, b in pairs[u]:
            transition[index[a], index[b]] += 1.0
        row_sums = transition.sum(axis=1, keepdims=True)
        # zero rows (possible only with smoothing off) become uniform
        zero = row_sums[:, 0] == 0
        transition[zero] = 1.0 / n
        row_sums[zero] = 1.0
        transition /= row_sums
        chains[u] = UserChain(alphabet, initial, transition)
    return MarkovModel(chains)


def markov_generate(
    model: MarkovModel,
    user: int | None,
    start: int,
    length: int,
    rng: np.random.Generator,
) -> list:
    """Sample a POI sequence from the user's chain starting at ``start``."""
    chain = model.chain_for(user, start)
    seq = [start]
    current = chain.index.get(start)
    if current is None:
        # start unseen even in the population chain: draw from initials
        current = int(rng.choice(len(chain.alphabet), p=chain.initial))
    for _ in range(length - 1):
        current = int(rng.choice(len(chain.alphabet), p=chain.transition[current]))
        seq.append(chain.alphabet[current])
    return seq


class MarkovRecommender(SequenceRecommender):
    def __init__(self, smoothing: float = 1.0):
        if smoothing < 0:
            raise ValueError("smoothing must be >= 0")
        self.smoothing = smoothing

    def fit(self, sessions, tables=None):
        if tables is None:
            raise ValueError("MarkovRecommender.fit requires feature tables")
        self.tables_ = tables
        self.model_ = markov_fit(sessions, tables.encodings, self.smoothing)
        return self

    def generate(self, request: GenRequest, seed: int = 0):
        self._check_fitted("model_", "tables_")
        tables = self.tables_
        walks = [
            markov_generate(self.model_, request.user, request.start_poi,
                            request.length, np.random.default_rng([seed, cand]))
            for cand in range(request.candidates)
        ]
        # every walk has request.length stops: one read for all of them
        hours = advance_hours(tables, walks, request.start_hour)
        scored = [
            GeneratedSequence(pois=pois, step_probs=[], score=0.0, hours=h)
            for pois, h in zip(walks, hours)
        ]
        scores = score_sequence(scored, request.user, tables)
        for seq, score in zip(scored, scores):
            seq.score = score
        return [scored[i] for i in top_k(scores, request.k)]
