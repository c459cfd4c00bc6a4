"""Tests of the benchmark harness itself.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from capseq.baselines import PopularityRecommender  # noqa: E402
from capseq.generation import GenRequest, GeneratedSequence  # noqa: E402

TINY_CORPUS = workloads.Corpus(users=6, pois=40, days=7)
TINY_RNN = workloads._p(hidden_size=8, n_layers=1, embedding_size=4, learning_rate=0.2)
TINY_FITS = (workloads.FitSpec("plain-rnn", TINY_RNN, epochs=1),
             workloads.FitSpec("caps-lstm", workloads._p(hidden_size=8, embedding_size=4,
                                                        learning_rate=0.2),
                               epochs=1, every=2))


def tiny(stages: dict) -> dict:
    """The same stages on a tiny corpus with tiny models and few ops."""
    out = {}
    for kind, stage in stages.items():
        out[kind] = replace(
            stage, corpus=TINY_CORPUS, min_ops=min(stage.min_ops, 2), unit_s=60.0,
            fits=TINY_FITS if stage.fits else (), length=min(stage.length, 5),
            candidates=min(stage.candidates, 3), k=min(stage.k, 2))
    return out


# -- spans -------------------------------------------------------------------


def test_self_time_on_hand_built_tree():
    #  root   [0, 10]
    #  a      [1, 4]    child of root
    #  b      [3, 6]    child of root, overlaps a
    #  c      [2, 3]    child of a
    #  d      [9, 12]   child of root, runs past its parent's end
    tree = [
        ["metrics.root", 0.0, 10.0, -1, 1],
        ["features.a", 1.0, 4.0, 0, 1],
        ["features.b", 3.0, 6.0, 0, 1],
        ["models.c", 2.0, 3.0, 1, 1],
        ["models.d", 9.0, 12.0, 0, 1],
    ]
    # root loses the union [1, 6] of a and b plus [9, 10] of d
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    summary = spans.summarize(tree)
    assert summary["models.c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert summary["features.a"]["self_s"] == pytest.approx(2.0)


def test_recorder_nests_spans_and_instrument_restores():
    from capseq.features import FeatureTables
    import capseq.numerics

    rec = spans.SpanRecorder()
    originals = (FeatureTables.__dict__["build"], capseq.numerics.sgd_step)
    with spans.instrument(rec):
        assert capseq.numerics.sgd_step is not originals[1]
        with rec.span("metrics.outer"):
            with rec.span("features.inner"):
                pass
    assert (FeatureTables.__dict__["build"], capseq.numerics.sgd_step) == originals
    assert [s[spans.PARENT] for s in rec.spans] == [-1, 0]


# -- inputs ------------------------------------------------------------------


def test_request_digest_follows_the_seed():
    stage = replace(workloads.FULL["generate"], corpus=TINY_CORPUS)

    def digest(seed):
        split = workloads.make_split(stage.corpus, seed, with_tables=False)
        return workloads.request_digest(workloads.request_list(split, stage, seed, 30))

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


# -- contract counter --------------------------------------------------------


def test_contract_counter_flags_short_and_wrong_start():
    counter = workloads.ContractCounter()
    request = GenRequest(user=0, start_poi=3, start_hour=9, length=4,
                         candidates=3, k=3)
    good = GeneratedSequence(pois=[3, 1, 2, 5], step_probs=[], score=1.0)
    short = GeneratedSequence(pois=[3, 1], step_probs=[], score=0.5)
    wrong_start = GeneratedSequence(pois=[1, 3, 2, 5], step_probs=[], score=0.2)
    assert counter.check("m", request, [good])
    assert not counter.check("m", request, [good, short, wrong_start])
    assert counter.sequences["m"] == 4
    assert counter.wrong_length["m"] == 1
    assert counter.wrong_start["m"] == 1
    assert counter.bad_requests["m"] == 1
    assert counter.ok_ratio("m") == pytest.approx(0.5)


def test_wrapped_recommender_is_counted_through_clones():
    counter = workloads.ContractCounter()
    checked = counter.wrap(PopularityRecommender, "popularity")
    split = workloads.make_split(TINY_CORPUS, 7)
    model = checked().clone_unfitted().fit(split.train, split.tables)
    first = split.held[0].visits[0]
    request = GenRequest(user=None, start_poi=split.encodings.poi(first.poi.poi_id),
                         start_hour=first.hour, length=4, candidates=2, k=2)
    returned = model.generate(request, seed=0)
    assert counter.requests["popularity"] == 1
    assert counter.sequences["popularity"] == len(returned) >= 1


# -- machine speed -----------------------------------------------------------


def test_operation_time_is_scaled_by_the_kernels_next_to_it():
    run = workloads.Pass()
    done = run.attempt("op", lambda: 42)
    assert done[1] == 42 and done[0].kernel == 0 and len(run.kernels) == 1
    # the machine runs the 1 ms reference kernel in 1 ms, then in 2 ms
    run.kernels = [1e-3, 1e-3, 2e-3, 2e-3, 2e-3]
    run.timings = [workloads.Timing(1, 0.3), workloads.Timing(3, 0.3)]
    # samples 0..3 surround op 1: median 1.5 ms
    assert run.seconds(run.timings[0]) == pytest.approx(0.2)
    # samples 2..4 surround op 3, at the end of the pass: median 2 ms
    assert run.seconds(run.timings[1]) == pytest.approx(0.15)
    # the first op has no samples before its own
    assert run.seconds(workloads.Timing(0, 0.3)) == pytest.approx(0.3)
    assert run.op_seconds == pytest.approx(0.35)


# -- smoke runs --------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, tmp_path):
    sizes, probes = tiny(workloads.FULL), tiny(workloads.PROBE)
    result = workloads.run(workload, 7, 1.0, False, tmp_path, ROOT,
                           sizes=sizes, probes=probes)
    summary = result["summary"]
    assert summary["correct"], result["detail"]["problems"]
    assert summary["failed"] == 0
    assert list(summary["metrics"]) == list(workloads.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    traced = workloads.run(workload, 7, 1.0, True, tmp_path, ROOT,
                           sizes=sizes, probes=probes)
    metrics = traced["summary"]["metrics"]
    assert metrics["trace.spans"]["value"] > 0
    assert "trace.overhead_ratio" in metrics
    assert traced["stamp"]["digests"] == result["stamp"]["digests"]


def test_cli_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "spans.py"):
        (bench / name).write_text((HERE.parent / name).read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip() or "correct" not in json.loads(
        done.stdout.strip().splitlines()[-1])
