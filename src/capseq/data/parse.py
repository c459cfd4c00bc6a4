"""Check-in log parsing into the canonical record form.

The canonical CSV schema is the Weeplaces convention::

    userid,placeid,datetime,lat,lon,city,category

Gowalla-style dumps use different column names; ``FORMATS`` maps both
onto the canonical fields. Rows with missing or garbled mandatory
fields are dropped and counted; more than 50% drops is treated as a
broken input file.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone

from .types import CheckinRecord, DataError

# canonical field -> acceptable source column names, in priority order
FORMATS = {
    "weeplaces": {
        "user": ["userid"],
        "poi": ["placeid"],
        "time": ["datetime"],
        "lat": ["lat"],
        "lon": ["lon"],
        "city": ["city"],
        "category": ["category"],
    },
    "gowalla": {
        "user": ["userid", "user"],
        "poi": ["placeid", "spotid"],
        "time": ["datetime", "checkin_time"],
        "lat": ["lat", "latitude"],
        "lon": ["lng", "lon", "longitude"],
        "city": ["city"],
        "category": ["category", "spot_categories"],
    },
}


@dataclass
class ParseResult:
    records: list  # check-in records, or friendship edges
    dropped: int  # malformed rows skipped


def _rows(path, what: str):
    """The rows of a UTF-8 CSV file; ``DataError`` if it cannot be read or split."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from csv.reader(fh)
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} file {path} is not UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{what} file {path}: {exc}") from exc


def _parse_timestamp(raw: str) -> int:
    raw = raw.strip()
    if raw.isdigit():
        return int(raw)
    # ISO-8601, with or without trailing Z
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def parse_checkins(path, fmt: str = "weeplaces") -> ParseResult:
    """Parse a check-in CSV into records sorted by (user, timestamp)."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(FORMATS)}")
    columns = FORMATS[fmt]
    records = []
    dropped = 0
    total = 0
    rows = _rows(path, "check-in")
    names = next(rows, None)
    if names is None:
        raise DataError(f"{path}: empty file, header row required")
    names = [name.strip().lower() for name in names]
    mapping = {}
    for field, candidates in columns.items():
        found = next((c for c in candidates if c in names), None)
        if found is None and field not in ("city",):
            raise DataError(
                f"{path}: missing required column for {field!r} "
                f"(expected one of {candidates})"
            )
        mapping[field] = found
    for values in rows:
        if not values:
            continue  # blank line
        total += 1
        # a short row lacks its last fields, and drops if one is mandatory
        row = {k: v.strip() for k, v in zip(names, values) if k}
        try:
            city = row.get(mapping["city"]) if mapping["city"] else None
            record = CheckinRecord(
                user_id=row[mapping["user"]],
                poi_id=row[mapping["poi"]],
                timestamp=_parse_timestamp(row[mapping["time"]]),
                lat=float(row[mapping["lat"]]),
                lon=float(row[mapping["lon"]]),
                category=row[mapping["category"]],
                city=city or None,
            )
        except (KeyError, ValueError, DataError):
            dropped += 1
            continue
        records.append(record)

    if total > 0 and dropped > total / 2:
        raise DataError(
            f"{path}: {dropped} of {total} rows dropped; "
            "input does not look like a valid check-in log"
        )
    records.sort(key=lambda r: (r.user_id, r.timestamp))
    return ParseResult(records=records, dropped=dropped)


def parse_friendships(path) -> ParseResult:
    """Parse a friendship edge list CSV ``userid1,userid2`` (header row)
    into (a, b) edges; blank lines are skipped, and rows without two
    non-empty fields are dropped and counted."""
    edges, dropped = [], 0
    rows = _rows(path, "friendship")
    next(rows, None)  # header
    for row in rows:
        a, b = (row + ["", ""])[:2]
        if a.strip() and b.strip():
            edges.append((a.strip(), b.strip()))
        elif row:
            dropped += 1
    return ParseResult(records=edges, dropped=dropped)
