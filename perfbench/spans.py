"""Span recording for the traced benchmark run.

A span is one call into a capseq layer: its name (``layer.what``), start
and end on the ``perf_counter`` clock, the index of the span that was
open when it started, and the id of the benchmark operation it belongs
to. Spans are held in memory and written out once, when the run ends.

Tracing is applied from the outside: ``instrument`` swaps module and
class attributes of the capseq package for timing wrappers and puts the
originals back on exit, so the package itself carries no tracing code.
Hot table reads get a counting wrapper instead of a span.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

NAME, START, END, PARENT, RUN = range(5)


class SpanRecorder:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "run": run}) + "\n")


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list) -> list:
    """Per span: its duration minus the part of its interval that its
    direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(span)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        kids = [(max(k[START], start), min(k[END], end))
                for k in children.get(i, ())]
        out.append(end - start - _covered([iv for iv in kids if iv[1] > iv[0]]))
    return out


def summarize(spans: list) -> dict:
    """name -> {"calls", "total_s", "self_s"} over all spans of that name."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# -- instrumentation ---------------------------------------------------------


def _timed(recorder: SpanRecorder, name: str, fn):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _counted(recorder: SpanRecorder, name: str, fn):
    counts = recorder.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _net_kind(net) -> str:
    if type(net).__name__ == "ContextLstm":
        return "caps-lstm"
    return "caps-rnn" if net.contextual else "plain-rnn"


def _split_loss_and_grads(recorder: SpanRecorder, fn):
    """Time the forward pass by running ``batch_nll`` on the same batch
    first; backward time is then loss_and_grads minus forward."""
    def wrapper(net, batch):
        kind = _net_kind(net)
        with recorder.span(f"models.{kind}.forward"):
            net.batch_nll(batch)
        with recorder.span(f"models.{kind}.loss_and_grads"):
            return fn(net, batch)
    return wrapper


def patch_points():
    """(owner, attribute, span or counter name, wrapper factory) for every
    capseq call the traced run observes."""
    import capseq.cli
    import capseq.data.io
    import capseq.generation
    import capseq.models.recommenders
    import capseq.models.training
    import capseq.numerics
    from capseq.baselines import (
        AprioriRecommender,
        HitsRecommender,
        MarkovRecommender,
        PopularityRecommender,
    )
    from capseq.baselines import markov, popularity
    from capseq.features import FeatureTables
    from capseq.models.lstm import ContextLstm
    from capseq.models.recommenders import _NeuralRecommender
    from capseq.models.rnn import ContextRnn

    points = [
        (capseq.cli, "parse_checkins", "data.parse_checkins", _timed),
        (capseq.cli, "parse_friendships", "data.parse_friendships", _timed),
        (capseq.cli, "build_sessions", "data.build_sessions", _timed),
        (capseq.data.io, "save_dataset", "data.save_dataset", _timed),
        (capseq.data.io, "load_dataset", "data.load_dataset", _timed),
        (FeatureTables, "build", "features.build", _timed),
        (FeatureTables, "save", "features.save", _timed),
        (FeatureTables, "load", "features.load", _timed),
        (FeatureTables, "preference", "features.preference", _counted),
        (FeatureTables, "consolidated", "features.consolidated", _counted),
        (FeatureTables, "attribute_vector", "features.attribute_vector", _counted),
        (FeatureTables, "distance_km", "features.distance_km", _counted),
        (_NeuralRecommender, "fit", "models.fit", _timed),
        (capseq.models.recommenders, "encode_sessions", "models.encode_sessions", _timed),
        (capseq.models.recommenders, "train", "models.train", _timed),
        (capseq.models.training, "make_batch", "models.make_batch", _timed),
        (capseq.numerics, "sgd_step", "numerics.sgd_step", _timed),
        (capseq.models.recommenders, "generate", "generation.generate", _timed),
        (capseq.generation, "score_sequence", "generation.score_sequence", _timed),
        (markov, "score_sequence", "generation.score_sequence", _timed),
        (popularity, "score_sequence", "generation.score_sequence", _timed),
        (capseq.generation, "sample_next", "generation.sample_next", _timed),
    ]
    for net in (ContextRnn, ContextLstm):
        points.append((net, "forward_step", "models.forward_step", _timed))
        points.append((net, "loss_and_grads", "",
                       lambda rec, _name, fn: _split_loss_and_grads(rec, fn)))
    for name, cls in (("popularity", PopularityRecommender),
                      ("markov", MarkovRecommender),
                      ("hits", HitsRecommender),
                      ("apriori", AprioriRecommender)):
        points.append((cls, "fit", f"baselines.{name}.fit", _timed))
        points.append((cls, "generate", f"baselines.{name}.generate", _timed))
    return points


@contextmanager
def instrument(recorder: SpanRecorder):
    """Swap every patch point for its wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, factory in patch_points():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(factory(recorder, name, original.__func__))
            else:
                replacement = factory(recorder, name, original)
            setattr(owner, attr, replacement)
            saved.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
