"""``bench_pairs.py`` parses a run's output and summarises pairs as its
``BENCH_*.json`` files state; these tests run no benchmark."""

import json

import pytest

import bench_pairs


def run(metrics, digest="d0", failed=0):
    return {"metrics": metrics, "attempted": 10, "failed": failed, "correct": True,
            "digests": {"sequences": digest}}


def pair(workload, seed, parent, change, equal=True):
    return {"workload": workload, "seed": seed, "first": "parent", "parent": parent,
            "change": change, "digests_equal": equal}


def test_parse_output_reads_the_last_two_lines():
    stamp = {"stamp": {"python": "3.11.7", "numpy": "2.4.6", "blas": "openblas",
                       "blas_threads": 2, "nproc": 2, "seed": 7,
                       "digests": {"requests": "ab", "sequences": "cd"}}}
    summary = {"correct": True, "attempted": 12, "failed": 1,
               "metrics": {"gen_p50_ms": {"value": 7.5, "unit": "ms"},
                           "ok_ratio": {"value": 0.9, "unit": "1"}}}
    out = "calibrating\n" + json.dumps(stamp) + "\n" + json.dumps(summary) + "\n"
    assert bench_pairs.parse_output(out) == {
        "metrics": {"gen_p50_ms": 7.5, "ok_ratio": 0.9}, "attempted": 12, "failed": 1,
        "correct": True, "digests": {"requests": "ab", "sequences": "cd"},
        "host": {"python": "3.11.7", "numpy": "2.4.6", "blas": "openblas",
                 "blas_threads": 2, "nproc": 2}}


def test_pairs_alternate_which_side_runs_first():
    assert [bench_pairs.order(n)[0] for n in range(4)] == [
        "parent", "change", "parent", "change"]
    assert all(sorted(bench_pairs.order(n)) == ["change", "parent"] for n in range(4))


def test_summary_quartiles_and_counts():
    """Quartiles by ``statistics.quantiles`` (its exclusive method), a tie
    counted neither lower nor higher, failures summed over both sides, and
    one pair with other digests makes the group's digests unequal."""
    parent = [9.0, 8.0, 10.0, 8.5, 9.5]
    change = [7.0, 8.0, 7.5, 9.0, 6.5]
    pairs = [pair("generate", 7, run({"gen_p50_ms": p, "ok_ratio": 1.0}),
                  run({"gen_p50_ms": c, "ok_ratio": 1.0}, failed=n == 2),
                  equal=n != 3)
             for n, (p, c) in enumerate(zip(parent, change))]
    pairs.append(pair("train", 7, run({"fit_seq_per_s": 100.0}),
                      run({"fit_seq_per_s": 120.0})))
    summary = bench_pairs.summarize(pairs)
    assert list(summary) == ["generate seed 7", "train seed 7"]
    gen = summary["generate seed 7"]
    assert (gen["pairs"], gen["digests_equal"], gen["failed"]) == (5, False, 1)
    assert gen["gen_p50_ms"] == {"parent_q1_med_q3": [8.25, 9.0, 9.75],
                                 "change_q1_med_q3": [6.75, 7.5, 8.5],
                                 "change_lower": 3, "change_higher": 1}
    assert gen["ok_ratio"] == {"parent_q1_med_q3": [1.0, 1.0, 1.0],
                               "change_q1_med_q3": [1.0, 1.0, 1.0],
                               "change_lower": 0, "change_higher": 0}
    assert summary["train seed 7"] == {
        "pairs": 1, "digests_equal": True, "failed": 0,
        "fit_seq_per_s": {"parent_q1_med_q3": [100.0] * 3, "change_q1_med_q3": [120.0] * 3,
                          "change_lower": 0, "change_higher": 1}}


@pytest.mark.parametrize("text, want", [("generate:7:10", ("generate", 7, 10)),
                                        ("cv-baselines:47:3", ("cv-baselines", 47, 3))])
def test_run_spec(text, want):
    assert bench_pairs.run_spec(text) == want
