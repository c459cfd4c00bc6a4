"""Run one workload of the capseq benchmark and print its metrics.

Run from the repository root, which must hold the capseq sources under
``src/``:

    python3 perfbench/run.py --workload generate --seed 7 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced pass plus the tracing overhead. The line
before it is the run's stamp: versions, thread counts, seed and output
digests. Both, with per-recommender contract counts, are also written
to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "capseq" / "__init__.py").is_file():
        print(f"perfbench: no capseq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    WORKDIR.mkdir(exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), WORKDIR, ROOT)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORKDIR / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"stamp": result["stamp"]}))
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
