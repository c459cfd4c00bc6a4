"""Serialization of the canonical dataset.

An ingested dataset directory contains:

* ``sessions.jsonl`` — one JSON object per session with encoded ids:
  ``{"user": int, "pois": [int...], "arrivals": [s...], "departures": [s...]}``
* ``encodings.json`` — the label encoding maps
* ``pois.json`` — per encoded POI: id, lat, lon, category
* ``graph.json`` — adjacency lists of the friendship graph (optional)

Everything is written with sorted keys and no timestamps so identical
inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from .types import CheckinRecord, DataError, Encodings, Poi, Session, SocialGraph, Visit

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

    poi_table: dict[int, dict] = {}
    lines = []
    for session in sessions:
        pois, arrivals, departures = [], [], []
        for visit in session.visits:
            ix = encodings.poi(visit.poi.poi_id)
            if ix not in poi_table:
                poi_table[ix] = {
                    "id": visit.poi.poi_id,
                    "lat": visit.poi.lat,
                    "lon": visit.poi.lon,
                    "category": visit.poi.category,
                }
            pois.append(ix)
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
    _dump_json({str(k): v for k, v in sorted(poi_table.items())}, out / POIS_FILE)
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


def load_dataset(data_dir) -> tuple[list[Session], Encodings, SocialGraph]:
    """Read a dataset directory; a file that is not valid JSON, or whose
    JSON has the wrong shape, raises ``DataError`` naming it (and the
    line, for ``sessions.jsonl``)."""
    data = Path(data_dir)
    encodings = _read_json(data / ENCODINGS_FILE, build=Encodings.from_dict)
    pois = _read_json(data / POIS_FILE, build=lambda table: {
        int(ix): Poi(rec["id"], rec["lat"], rec["lon"], rec["category"])
        for ix, rec in table.items()
    })

    def session(obj) -> Session:
        visits = tuple(
            Visit(pois[p], a, d)
            for p, a, d in zip(obj["pois"], obj["arrivals"], obj["departures"])
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
