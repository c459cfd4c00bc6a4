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
    summary = bench_pairs.summarize(pairs, {})
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


def test_load_bounds_reads_the_end_to_end_metrics(tmp_path):
    spec = {"end_to_end": [{"name": "cv_s", "unit": "s", "better": "lower", "bound": 0.25},
                           {"name": "ok_ratio", "unit": "1", "better": "higher",
                            "bound": 0.05}],
            "per_layer": [{"name": "cli.calls", "unit": "count", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    assert bench_pairs.load_bounds(tmp_path / "BENCHMARK.json") == {
        "cv_s": ("lower", 0.25), "ok_ratio": ("higher", 0.05)}


def test_summary_checks_each_metric_against_its_bound():
    """A lower-is-better metric within its bound, a higher-is-better one
    outside it, a parent spread wider than the bound (unresolved, unless
    every change run reads better than every parent run), a zero median,
    and a metric without a bound, which gets no verdict."""
    bounds = {"gen_p50_ms": ("lower", 0.25), "fit_seq_per_s": ("higher", 0.05),
              "cv_s": ("lower", 0.05), "pairs_f1": ("higher", 0.25)}
    runs = {"gen_p50_ms": ([10.0] * 3, [11.0] * 3),
            "fit_seq_per_s": ([100.0] * 3, [90.0] * 3),
            "cv_s": ([1.0, 1.2, 1.4], [1.3, 1.2, 1.1]),
            "pairs_f1": ([0.0] * 3, [0.0] * 3),
            "ok_ratio": ([1.0] * 3, [0.5] * 3)}
    pairs = [pair("cv-baselines", 7, run({m: p[n] for m, (p, _) in runs.items()}),
                  run({m: c[n] for m, (_, c) in runs.items()})) for n in range(3)]
    pairs += [pair("ingest", 7, run({"cv_s": p}), run({"cv_s": c}))
              for p, c in zip([1.0, 1.2, 1.4], [0.7, 0.6, 0.5])]
    summary = bench_pairs.summarize(pairs, bounds)
    got = {m: {k: v for k, v in entry.items() if k in ("worse_by", "within_bound",
                                                          "unresolved")}
           for m, entry in summary["cv-baselines seed 7"].items() if m in runs}
    assert got == {
        "gen_p50_ms": {"worse_by": 0.1, "within_bound": True, "unresolved": False},
        "fit_seq_per_s": {"worse_by": 0.1, "within_bound": False, "unresolved": False},
        "cv_s": {"worse_by": 0.0, "within_bound": True, "unresolved": True},
        "pairs_f1": {"worse_by": None, "within_bound": True, "unresolved": False},
        "ok_ratio": {}}
    ingest = summary["ingest seed 7"]["cv_s"]
    assert (ingest["worse_by"], ingest["within_bound"], ingest["unresolved"]) == (
        pytest.approx(-0.5), True, False)


@pytest.mark.parametrize("text, want", [("generate:7:10", ("generate", 7, 10)),
                                        ("cv-baselines:47:3", ("cv-baselines", 47, 3))])
def test_run_spec(text, want):
    assert bench_pairs.run_spec(text) == want
