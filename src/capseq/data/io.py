"""Serialization of the canonical dataset.

An ingested dataset directory contains:

* ``sessions.jsonl`` — one JSON object per session with encoded ids:
  ``{"user": int, "pois": [int...], "arrivals": [s...], "departures": [s...]}``
* ``encodings.json`` — the label encoding maps
* ``pois.json`` — per encoded POI: id, lat, lon, category; written from,
  and read back into, the POI catalogue of ``Encodings``
* ``graph.json`` — adjacency lists of the friendship graph (optional)

Everything is written with sorted keys and no timestamps so identical
inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from .types import CheckinRecord, DataError, Encodings, Session, SocialGraph, Visit

SESSIONS_FILE = "sessions.jsonl"
ENCODINGS_FILE = "encodings.json"
POIS_FILE = "pois.json"
GRAPH_FILE = "graph.json"


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def save_dataset(
    out_dir,
    sessions: Sequence[Session],
    encodings: Encodings,
    graph: SocialGraph | None = None,
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = []
    for session in sessions:
        pois, arrivals, departures = [], [], []
        for visit in session.visits:
            pois.append(encodings.poi(visit.poi.poi_id))
            arrivals.append(visit.arrival)
            departures.append(visit.departure)
        lines.append(
            json.dumps(
                {
                    "user": encodings.user(session.user_id),
                    "pois": pois,
                    "arrivals": arrivals,
                    "departures": departures,
                },
                sort_keys=True,
            )
        )
    (out / SESSIONS_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _dump_json(encodings.to_dict(), out / ENCODINGS_FILE)
    table = {str(l): {"id": p.poi_id, "lat": p.lat, "lon": p.lon, "category": p.category}
             for l, p in enumerate(encodings.pois())}
    _dump_json(table, out / POIS_FILE)
    if graph is not None:
        _dump_json(graph.to_dict(), out / GRAPH_FILE)


def _read_json(where, raw: bytes | None = None, build=None):
    """Parse ``raw`` (default: the bytes of the file ``where``) as JSON and
    turn it into objects with ``build``; bad JSON, or a value ``build``
    cannot take (wrong shape, bad field), raises ``DataError`` naming
    ``where``."""
    try:
        obj = json.loads(Path(where).read_bytes() if raw is None else raw)
    except ValueError as exc:  # bad JSON or text encoding
        raise DataError(f"{where}: not valid UTF-8 JSON: {exc}") from exc
    if build is None:
        return obj
    try:
        return build(obj)
    except (TypeError, AttributeError, KeyError, IndexError, ValueError) as exc:
        raise DataError(f"{where}: invalid content: {type(exc).__name__}: {exc}") from exc


def _with_pois(encodings: Encodings, table: dict) -> Encodings:
    """``encodings`` with the catalogue of a ``pois.json`` table, which
    holds one entry per encoded POI, under its index and naming it."""
    rows = [table[str(l)] for l in range(encodings.n_pois)]
    ids = [encodings.ix_to_poi[l] for l in range(encodings.n_pois)]
    if len(table) != len(rows) or [r["id"] for r in rows] != ids:
        raise ValueError("the entries are not the encoded POIs, each under its index")
    return encodings.with_catalogue([(r["lat"], r["lon"]) for r in rows],
                                    [encodings.category(r["category"]) for r in rows])


def load_dataset(data_dir) -> tuple[list[Session], Encodings, SocialGraph]:
    """Read a dataset directory; a file that is not valid JSON, or whose
    JSON has the wrong shape, raises ``DataError`` naming it (and the
    line, for ``sessions.jsonl``)."""
    data = Path(data_dir)
    encodings = _read_json(data / ENCODINGS_FILE, build=Encodings.from_dict)
    encodings = _read_json(data / POIS_FILE, build=lambda table: _with_pois(encodings, table))
    pois = dict(enumerate(encodings.pois()))

    def session(obj) -> Session:
        values = [obj["user"], *obj["pois"], *obj["arrivals"], *obj["departures"]]
        bad = [v for v in values if type(v) is not int]
        if bad:  # a float, string or bool (an int subclass): a lookup takes 1.0 or True as 1
            raise ValueError(f"user, POI or visit time {bad[0]!r} is not an integer")
        visits = tuple(
            Visit(pois[p], a, d)
            for p, a, d in zip(obj["pois"], obj["arrivals"], obj["departures"], strict=True)
        )
        return Session(encodings.ix_to_user[obj["user"]], visits)

    sessions = []
    sessions_path = data / SESSIONS_FILE
    with open(sessions_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                sessions.append(_read_json(f"{sessions_path}:{lineno}", line, session))
    graph_path = data / GRAPH_FILE
    graph = (
        _read_json(graph_path, build=SocialGraph.from_dict)
        if graph_path.exists()
        else SocialGraph()
    )
    return sessions, encodings, graph


def write_checkins_csv(path, records: Iterable[CheckinRecord]) -> None:
    """Write records in the canonical CSV schema."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["userid", "placeid", "datetime", "lat", "lon", "city", "category"])
        for r in records:
            writer.writerow(
                [r.user_id, r.poi_id, r.timestamp, f"{r.lat:.6f}", f"{r.lon:.6f}",
                 r.city or "", r.category]
            )


def write_friendships_csv(path, graph: SocialGraph) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["userid1", "userid2"])
        for u, friends in sorted(graph.to_dict().items()):
            for f in friends:
                if u < f:
                    writer.writerow([u, f])
