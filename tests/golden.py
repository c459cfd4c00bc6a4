"""Golden output digests: the SHA-256 of the files two fixed in-process
CLI pipelines write, committed in ``tests/golden/``.

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

The generate pipeline: ``synth`` of another small corpus, ``ingest
--min-checkins 0`` and ``features``, then ``train`` of each neural kind
at H16/E8 for 5 epochs and ``generate`` from each checkpoint, plain and
``--no-repeat --consolidated``, for two users, then ``evaluate --models
all`` over 2 folds with a length sweep and raw diversity at the same
model settings, and ``report`` of its CSVs; the fixture holds the digest
of each ``sequences.jsonl`` and of every ``evaluate`` and ``report``
output but ``timings.csv``, whose seconds differ from run to run.
Checkpoints and loss CSVs are not hashed: their last bits follow the
CPU's SIMD and BLAS kernels.

``--update`` prints each fixture entry whose digest it changed (or that
it added or dropped), or "no digest changed".
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "golden" / "ingest.json"
GENERATE_FIXTURE = FIXTURE.parent / "generate.json"
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
GENERATE_SYNTH = ["--seed", "21", "--users", "8", "--pois", "40", "--days", "6"]
GENERATE_KINDS = ("plain-rnn", "caps-rnn", "caps-lstm")
TRAIN_ARGS = ["--hidden-size", "16", "--embedding-size", "8", "--epochs", "5"]
# generate mode -> extra generate arguments
GENERATE_MODES = {"plain": [], "no-repeat-consolidated": ["--no-repeat", "--consolidated"]}
GENERATE_USERS = ("u0001", "u0006")
EVALUATE_ARGS = ["--models", "all", "--folds", "2", "--sweep-lengths", "3,5", "--diversity-raw"]


def _run(argv: list) -> None:
    from capseq.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"capseq {' '.join(argv)} exited {code}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        digests[name] = {f: _sha256(out / f) for f in INGEST_FILES}
    return digests


def generate_digests(workdir) -> dict:
    """"<kind>/<mode>/<user>" -> SHA-256 of its ``sequences.jsonl``, and
    "evaluate/<file>" and "report/<file>" -> SHA-256 of each output of
    those commands but ``timings.csv``, from a fresh run in ``workdir``."""
    root = Path(workdir)
    raw, data = root / "raw", root / "data"
    _run(["synth", *GENERATE_SYNTH, "--out-dir", str(raw)])
    _run(["ingest", "--checkins", str(raw / "checkins.csv"),
          "--friends", str(raw / "friendships.csv"), "--min-checkins", "0",
          "--out-dir", str(data)])
    _run(["features", "--data-dir", str(data), "--out-dir", str(data)])
    digests = {}
    for kind in GENERATE_KINDS:
        _run(["train", "--data-dir", str(data), "--model", kind, *TRAIN_ARGS,
              "--out-dir", str(root / "models")])
        for mode, extra in GENERATE_MODES.items():
            for user in GENERATE_USERS:
                out = root / kind / mode / user
                _run(["generate", "--data-dir", str(data),
                      "--checkpoint", str(root / "models" / f"{kind}.ckpt"),
                      "--user", user, *extra, "--out-dir", str(out)])
                digests[f"{kind}/{mode}/{user}"] = _sha256(out / "sequences.jsonl")
    evaluated, reported = root / "evaluate", root / "report"
    _run(["evaluate", "--data-dir", str(data), *EVALUATE_ARGS, *TRAIN_ARGS,
          "--out-dir", str(evaluated)])
    _run(["report", "--eval-csv", str(evaluated / "eval_report.csv"),
          "--sweep-csv", str(evaluated / "sweep.csv"), "--out-dir", str(reported)])
    for out in (evaluated, reported):
        for path in sorted(out.iterdir()):
            if path.name != "timings.csv":  # wall-clock seconds
                digests[f"{out.name}/{path.name}"] = _sha256(path)
    return digests


def _entries(digests: dict, prefix: str = "") -> dict:
    """A fixture flattened to "<key>/<key>..." -> digest."""
    flat = {}
    for key, value in digests.items():
        if isinstance(value, dict):
            flat.update(_entries(value, f"{prefix}{key}/"))
        else:
            flat[prefix + key] = value
    return flat


def _write(path: Path, digests: dict) -> list:
    """Write ``digests`` to the fixture ``path``; the names of the entries
    whose digest this changed, added or dropped, as "<file>: <entry>"."""
    old = _entries(json.loads(path.read_text(encoding="utf-8"))) if path.exists() else {}
    new = _entries(digests)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"golden: wrote {path}")
    return [f"{path.name}: {key}" for key in sorted(old.keys() | new.keys())
            if old.get(key) != new.get(key)]


def main(argv) -> int:
    import tempfile

    if argv != ["--update"]:
        print("usage: python tests/golden.py --update", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        changed = _write(FIXTURE, ingest_digests(Path(tmp) / "ingest"))
        changed += _write(GENERATE_FIXTURE, generate_digests(Path(tmp) / "generate"))
    for entry in changed:
        print(f"golden: digest changed: {entry}")
    if not changed:
        print("golden: no digest changed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
