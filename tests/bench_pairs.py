"""Interleaved benchmark pairs: a parent tree against a change tree.

    python3 tests/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \
        --run generate:7:10 --run train:7:3 --out BENCH_<n>.json

Each ``--run WORKLOAD:SEED:PAIRS`` runs ``python3 perfbench/run.py
--workload WORKLOAD --seed SEED --seconds SECONDS --trace 0`` PAIRS times
from each tree, one pair after the other: an even pair runs the parent
first and an odd one the change first, so a drift of the host's speed
falls on both sides. Every run starts from a fresh copy of its tree
(without ``__pycache__``, ``.perfbench`` or ``.git``) under ``--workdir``.

The JSON written to ``--out`` holds every pair (each side's end-to-end
metrics, operation counts and output digests, and whether the two sides'
digests are equal) and, per workload and seed, a summary: the number of
pairs, whether every pair's digests were equal, the failed operations of
both sides, and per metric the parent's and the change's quartiles
(``parent_q1_med_q3``, ``change_q1_med_q3``, by ``statistics.quantiles``)
and the number of pairs in which the change read lower and higher. For
each end-to-end metric of the change tree's ``BENCHMARK.json``, which it
only reads, it adds the change median's move in the metric's worse
direction as a fraction of the parent's median (``worse_by``; negative
reads better), whether that move is within the metric's ``bound``
(``within_bound``), and ``unresolved``: the parent's interquartile range
is wider than ``bound`` times its median, and not every change run reads
better than every parent run.

Standard library only. pytest does not collect this file, and CI does
not run it; ``test_bench_pairs.py`` tests its parsing and summary on
canned results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

COMMAND = ("python3 perfbench/run.py --workload {workload} --seed {seed} "
           "--seconds {seconds} --trace 0")
HOST_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc")
SIDES = ("parent", "change")


def parse_output(stdout: str) -> dict:
    """One run's result from its standard output, whose last two lines are
    the stamp and the summary ``perfbench/run.py`` prints."""
    stamp, summary = (json.loads(line) for line in stdout.strip().splitlines()[-2:])
    stamp = stamp["stamp"]
    return {
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "correct": summary["correct"],
        "digests": stamp["digests"],
        "host": {key: stamp[key] for key in HOST_KEYS if key in stamp},
    }


def order(pair: int) -> tuple:
    """The sides of pair ``pair`` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(tree: Path, workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """One benchmark run from a fresh copy of ``tree``."""
    copy = Path(tempfile.mkdtemp(dir=workdir))
    try:
        shutil.copytree(tree, copy, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench", ".git"))
        command = COMMAND.format(workload=workload, seed=seed, seconds=seconds)
        done = subprocess.run(command.split(), cwd=copy, capture_output=True, text=True)
        if done.returncode:
            raise SystemExit(f"{command} failed in a copy of {tree}:\n{done.stderr}")
        return parse_output(done.stdout)
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def quartiles(values: list) -> list:
    """[q1, median, q3] of ``values`` (every one of them for a single value)."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def load_bounds(path: Path) -> dict:
    """Per end-to-end metric of the benchmark file ``path``, its
    (``better``, ``bound``)."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """How the ``change`` runs of a metric read against the ``parent``
    runs under the benchmark's ``better`` direction and ``bound``."""
    sign = 1 if better == "lower" else -1  # a positive sign * delta reads worse
    q1, med, q3 = quartiles(parent)
    worse = sign * (quartiles(change)[1] - med)
    return {
        "worse_by": worse / abs(med) if med else None,  # no fraction of a zero median
        "within_bound": worse <= bound * abs(med),
        "unresolved": (q3 - q1 > bound * abs(med)
                       and max(sign * c for c in change) >= min(sign * p for p in parent)),
    }


def summarize(pairs: list, bounds: dict) -> dict:
    """Per "<workload> seed <seed>", the summary of its pairs; a metric of
    ``bounds`` (as ``load_bounds`` gives them) gets its ``verdict``."""
    groups: dict = {}
    for pair in pairs:
        groups.setdefault(f"{pair['workload']} seed {pair['seed']}", []).append(pair)
    summary = {}
    for key, group in groups.items():
        entry = {
            "pairs": len(group),
            "digests_equal": all(pair["digests_equal"] for pair in group),
            "failed": sum(pair[side]["failed"] for pair in group for side in SIDES),
        }
        for name in group[0]["parent"]["metrics"]:
            parent = [pair["parent"]["metrics"][name] for pair in group]
            change = [pair["change"]["metrics"][name] for pair in group]
            entry[name] = {
                "parent_q1_med_q3": quartiles(parent),
                "change_q1_med_q3": quartiles(change),
                "change_lower": sum(c < p for p, c in zip(parent, change)),
                "change_higher": sum(c > p for p, c in zip(parent, change)),
            }
            if name in bounds:
                entry[name].update(verdict(parent, change, *bounds[name]))
        summary[key] = entry
    return summary


def run_spec(text: str) -> tuple:
    workload, seed, pairs = text.split(":")
    return workload, int(seed), int(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's tree")
    parser.add_argument("--change", type=Path, required=True, help="the change's tree")
    parser.add_argument("--run", type=run_spec, action="append", required=True,
                        metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent-rev", default="", help="the parent's commit, recorded as is")
    parser.add_argument("--what", default="", help="what the change is, recorded as is")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the fresh copies go (default: a temporary directory)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bounds = load_bounds(trees["change"] / "BENCHMARK.json")
    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        pairs, host = [], {}
        for workload, seed, count in args.run:
            for n in range(count):
                pair = {"workload": workload, "seed": seed, "first": order(n)[0]}
                for side in order(n):
                    pair[side] = run_once(trees[side], workload, seed, args.seconds,
                                          Path(workdir))
                    host = pair[side].pop("host")
                pair["digests_equal"] = pair["parent"]["digests"] == pair["change"]["digests"]
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {n + 1}/{count}: "
                      f"digests equal {pair['digests_equal']}", file=sys.stderr)
    result = {
        "what": "Interleaved benchmark pairs: the parent tree against this change, each "
                "run from a fresh copy of its tree (no __pycache__); 'first' names the "
                "side that ran first. " + args.what,
        "parent": args.parent_rev,
        "command": COMMAND.format(workload="<workload>", seed="<seed>", seconds=args.seconds),
        "host": host,
        "pairs": pairs,
        "summary": summarize(pairs, bounds),
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
