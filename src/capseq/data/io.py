"""Serialization of the canonical dataset.

An ingested dataset directory contains:

* ``sessions.jsonl`` — one JSON object per session with encoded ids:
  ``{"user": int, "pois": [int...], "arrivals": [s...], "departures": [s...]}``
* ``encodings.json`` — the label encoding maps
* ``pois.json`` — per encoded POI: id, lat, lon, category; written from,
  and read back into, the POI catalogue of ``Encodings``
* ``graph.json`` — adjacency lists of the friendship graph (optional)

Everything is written with sorted keys and no timestamps so identical
inputs produce identical bytes. Each ``sessions.jsonl`` line is one
f-string over the text of three int-list slices, keys in sorted order: a
Python list of ints prints as its JSON text, so the line is
``json.dumps(obj, sort_keys=True)`` of its session object.

``load_dataset`` reads ``sessions.jsonl`` one byte line at a time. A
line that is one UTF-8 JSON object from its first byte, of three lists
of one length, is scanned with ``JSONDecoder.raw_decode`` and its values
gathered into columns, whose integer type and 64-bit range are checked
once for the whole file. Any other line goes through the per-line reader
(``_read_json`` with ``_session_fields``), and the gathered values of the
first line the column checks flag go through ``_session_fields`` again,
so that function words every per-line error, and the first bad line is
the one named.
"""

from __future__ import annotations

import csv
import json
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .types import Checkins, DataError, Encodings, Session, SessionTable, SocialGraph

SESSIONS_FILE = "sessions.jsonl"
ENCODINGS_FILE = "encodings.json"
POIS_FILE = "pois.json"
GRAPH_FILE = "graph.json"

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


def dump_json(obj, path: Path) -> None:
    """``obj`` to ``path`` as JSON: sorted keys, one-space indents, a newline."""
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def save_dataset(
    out_dir,
    sessions: Sequence[Session],
    encodings: Encodings,
    graph: SocialGraph | None = None,
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    table = SessionTable.of(sessions, encodings)
    # a list of ints prints as its JSON text; the keys are in sorted order
    lines = [
        f'{{"arrivals": {a}, "departures": {d}, "pois": {p}, "user": {u}}}'
        for u, p, a, d in zip(table.users[table.starts].tolist(), table.split(table.pois),
                              table.split(table.arrivals), table.split(table.departures))
    ]
    (out / SESSIONS_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    dump_json(encodings.to_dict(), out / ENCODINGS_FILE)
    table = {str(l): {"id": p.poi_id, "lat": p.lat, "lon": p.lon, "category": p.category}
             for l, p in enumerate(encodings.pois())}
    dump_json(table, out / POIS_FILE)
    if graph is not None:
        dump_json(graph.to_dict(), out / GRAPH_FILE)


def _open(path):
    """``path`` opened for binary reading; ``DataError`` if it cannot be."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from exc


def _read_json(where, raw: bytes | None = None, build=None):
    """Parse ``raw`` (default: the bytes of the file ``where``) as JSON and
    turn it into objects with ``build``; an unreadable file, bad JSON, JSON
    nested past the recursion limit, or a value ``build`` cannot take (wrong
    shape, bad field), raises ``DataError`` naming ``where``."""
    if raw is None:
        with _open(where) as fh:
            raw = fh.read()
    try:
        obj = json.loads(raw)
    except ValueError as exc:  # bad JSON or text encoding
        raise DataError(f"{where}: not valid UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:
        raise DataError(f"{where}: JSON nested too deeply: {exc}") from exc
    return obj if build is None else _build(where, obj, build)


def _build(where, obj, build):
    """``build(obj)``; a value it cannot take raises ``DataError`` naming
    ``where``."""
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


def _session_fields(obj) -> tuple:
    """The user, POIs, arrivals and departures of one ``sessions.jsonl``
    object: 64-bit integers, and three lists of one length, not 0."""
    fields = obj["user"], obj["pois"], obj["arrivals"], obj["departures"]
    values = [fields[0], *fields[1], *fields[2], *fields[3]]
    bad = [v for v in values if type(v) is not int]
    if bad:  # a float, string or bool (an int subclass): a lookup takes 1.0 or True as 1
        raise ValueError(f"user, POI or visit time {bad[0]!r} is not an integer")
    if not INT64_MIN <= min(values) <= max(values) <= INT64_MAX:
        raise ValueError("a user, POI or visit time is not a 64-bit integer")
    if not len(fields[1]) == len(fields[2]) == len(fields[3]) > 0:
        raise ValueError("pois, arrivals and departures are not lists of one length > 0")
    return fields


_raw_decode = json.JSONDecoder().raw_decode


def _scan_session(line: bytes) -> tuple | None:
    """The user, POIs, arrivals and departures of a ``sessions.jsonl`` line
    that is a UTF-8 JSON object from its first byte, with only JSON
    whitespace after it, whose POIs, arrivals and departures are lists of
    one length, not 0; ``None`` for any other line. ``json.loads`` reads
    such a line as the same object. The values are not checked."""
    try:
        text = line.decode()
        obj, end = _raw_decode(text)
        fields = obj["user"], obj["pois"], obj["arrivals"], obj["departures"]
    except (ValueError, RecursionError, TypeError, KeyError):
        return None
    _, pois, arrivals, departures = fields
    if (type(pois) is type(arrivals) is type(departures) is list
            and len(pois) == len(arrivals) == len(departures) > 0
            and not text[end:].strip(" \t\r\n")):
        return fields
    return None


def _all_int64(columns) -> bool:
    """Whether non-empty lists hold only ints (no bools), all 64-bit."""
    return (all(set(map(type, column)) <= {int} for column in columns)
            and INT64_MIN <= min(map(min, columns))
            and max(map(max, columns)) <= INT64_MAX)


def load_dataset(data_dir) -> tuple[SessionTable, Encodings, SocialGraph]:
    """Read a dataset directory; a file that is not valid JSON, or whose
    JSON has the wrong shape, raises ``DataError`` naming it (and the
    first bad line, for ``sessions.jsonl``). The sessions are read into
    one ``SessionTable`` under the loaded encodings, whose visits are at
    their POIs' catalogue places."""
    data = Path(data_dir)
    encodings = _read_json(data / ENCODINGS_FILE, build=Encodings.from_dict)
    encodings = _read_json(data / POIS_FILE, build=lambda table: _with_pois(encodings, table))

    sessions_path = data / SESSIONS_FILE
    lines, users, lengths, pois, arrivals, departures = [], [], [], [], [], []
    error = None
    with _open(sessions_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = _scan_session(line)
            if fields is None:  # the per-line reader takes, or words, what the scan cannot
                try:
                    fields = _read_json(f"{sessions_path}:{lineno}", line, _session_fields)
                except DataError as exc:
                    error = exc  # raised below unless an earlier line is bad too
                    break
            user, p, a, d = fields
            lines.append(lineno)
            users.append(user)
            lengths.append(len(p))
            pois += p
            arrivals += a
            departures += d
    if users and not _all_int64((users, pois, arrivals, departures)):
        # the first line with a value that is not a 64-bit integer: its
        # fault is worded as the per-line reader words it, and it and the
        # lines after it are dropped
        start = 0
        for i, (user, n) in enumerate(zip(users, lengths)):
            end = start + n
            try:
                _build(f"{sessions_path}:{lines[i]}", {
                    "user": user, "pois": pois[start:end], "arrivals": arrivals[start:end],
                    "departures": departures[start:end]}, _session_fields)
            except DataError as exc:
                error = exc
                del lines[i:], users[i:], lengths[i:], pois[start:], arrivals[start:], \
                    departures[start:]
                break
            start = end
    users, lengths, pois, arrivals, departures = (np.array(x, dtype=np.int64) for x in (
        users, lengths, pois, arrivals, departures))
    at = np.repeat(np.arange(len(lines)), lengths)  # each visit's session
    rising = np.ones(len(at), dtype=bool)
    rising[1:] = (arrivals[1:] > arrivals[:-1]) | (at[1:] != at[:-1])
    faults = [(np.flatnonzero((users < 0) | (users >= encodings.n_users)),
               "a user index that is not encoded"),
              (at[(pois < 0) | (pois >= encodings.n_pois)], "a POI index that is not encoded"),
              (at[~rising], "arrivals that do not strictly increase"),
              (at[departures < arrivals], "a departure before its arrival")]
    found = [(bad[0], what) for bad, what in faults if len(bad)]
    if found:  # the first bad line, and its first fault
        i, what = min(found, key=itemgetter(0))
        raise DataError(f"{sessions_path}:{lines[i]}: invalid content: a session with {what}")
    if error is not None:
        raise error
    sessions = SessionTable(users[at], pois, arrivals, departures, lengths, encodings,
                            encodings.pois(), pois)
    graph_path = data / GRAPH_FILE
    graph = (
        _read_json(graph_path, build=SocialGraph.from_dict)
        if graph_path.exists()
        else SocialGraph()
    )
    return sessions, encodings, graph


def write_checkins_csv(path, records: Checkins) -> None:
    """Write the check-ins ``records``, in their order, in the canonical CSV
    schema."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["userid", "placeid", "datetime", "lat", "lon", "city", "category"])
        for user, poi, time, lat, lon, category, city in zip(
                records.users, records.pois, records.times, records.lats, records.lons,
                records.categories, records.cities):
            writer.writerow([user, poi, time, f"{lat:.6f}", f"{lon:.6f}", city or "", category])


def write_friendships_csv(path, graph: SocialGraph) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["userid1", "userid2"])
        for u, friends in sorted(graph.to_dict().items()):
            for f in friends:
                if u < f:
                    writer.writerow([u, f])
