"""Golden output digests: the SHA-256 of every file a fixed in-process
CLI pipeline writes, committed in ``tests/golden/``.

Criterion 8 runs one tree twice, so it cannot see a change that moves
bytes on both runs; this fixture holds the bytes of an earlier commit.
``test_golden.py`` recomputes the digests and compares them with the
fixture. A change that moves bytes on purpose rewrites the fixture with

    python tests/golden.py --update

and names every file whose digest changed, and why.

The ingest pipeline: ``synth`` of a small corpus, then ``ingest`` and
``features`` in four variants (the defaults, ``--travel-time
lognormal``, ``--min-checkins 0``, and a copy of the CSV under Gowalla
column names read with ``--format gowalla``). ``EXTRA_ROWS`` add to the
synthetic log a user below the default ``--min-checkins``, a repeated
timestamp, a POI whose coordinates and category vary between check-ins,
and a malformed row.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "golden" / "ingest.json"
INGEST_FILES = ("sessions.jsonl", "encodings.json", "pois.json", "graph.json", "tables.json")
SYNTH = ["--seed", "5", "--users", "10", "--pois", "60", "--days", "3"]
EXTRA_ROWS = (
    "u9999,p0004,1330934400,40.7,-73.983392,synthville,Home/Work:Home\n"
    "u9999,p0000,1330938000,40.7,-74.0,synthville,Food:Coffee Shop\n"
    "u0000,p0059,1330937726,40.72,-73.99,,Arts:Museum\n"
    "u0001,p0004,1330937000,40.7001,-73.983,synthville,Home/Work:Office\n"
    "u0002,p0001,not-a-time,40.7,-74.0,synthville,Food:Coffee Shop\n"
)
GOWALLA_HEADER = "user,spotid,checkin_time,latitude,lng,city,spot_categories"
# variant -> (checkins file, extra ingest arguments)
INGEST_VARIANTS = {
    "default": ("checkins.csv", []),
    "lognormal": ("checkins.csv", ["--travel-time", "lognormal"]),
    "min-checkins-0": ("checkins.csv", ["--min-checkins", "0"]),
    "gowalla": ("gowalla.csv", ["--format", "gowalla"]),
}


def _run(argv: list) -> None:
    from capseq.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"capseq {' '.join(argv)} exited {code}")


def ingest_digests(workdir) -> dict:
    """variant -> output file -> SHA-256, from a fresh run in ``workdir``."""
    root = Path(workdir)
    raw = root / "raw"
    _run(["synth", *SYNTH, "--out-dir", str(raw)])
    with open(raw / "checkins.csv", "a", encoding="utf-8") as fh:
        fh.write(EXTRA_ROWS)
    header, rest = (raw / "checkins.csv").read_text(encoding="utf-8").split("\n", 1)
    (raw / "gowalla.csv").write_text(GOWALLA_HEADER + "\n" + rest, encoding="utf-8")
    digests = {}
    for name, (checkins, extra) in INGEST_VARIANTS.items():
        out = root / name
        _run(["ingest", "--checkins", str(raw / checkins),
              "--friends", str(raw / "friendships.csv"), *extra, "--out-dir", str(out)])
        _run(["features", "--data-dir", str(out), "--out-dir", str(out)])
        digests[name] = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                         for f in INGEST_FILES}
    return digests


def main(argv) -> int:
    import tempfile

    if argv != ["--update"]:
        print("usage: python tests/golden.py --update", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        digests = ingest_digests(tmp)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"golden: wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
