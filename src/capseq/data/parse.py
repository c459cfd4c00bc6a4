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
import re
from dataclasses import dataclass
from datetime import datetime, timezone

from .types import Checkins, DataError, check_checkin

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


# the fields of a check-in, in CHECKIN_FIELDS order
FIELDS = ("user", "poi", "time", "lat", "lon", "category", "city")

# The ISO-8601 times every supported Python reads alike (``fromisoformat``
# takes more forms from 3.11 on): YYYY-MM-DD, then either Z or one
# separator character and HH[:MM[:SS[.fff[fff]]]], then optionally Z or
# an offset +HH:MM[:SS[.ffffff]].
ISO_TIME = re.compile(
    r"\d{4}-\d\d-\d\d"
    r"(Z|.\d\d(:\d\d(:\d\d(\.\d{3}(\d{3})?)?)?)?(Z|[+-]\d\d:\d\d(:\d\d(\.\d{6})?)?)?)?",
    re.ASCII | re.DOTALL)


@dataclass
class ParseResult:
    records: Checkins | list  # check-ins, or friendship edges
    dropped: int  # malformed rows skipped


def _rows(path, what: str):
    """The rows of a UTF-8 CSV file, with or without a byte-order mark;
    ``DataError`` if it cannot be read or split."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield from csv.reader(fh)
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} file {path} is not UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{what} file {path}: {exc}") from exc


def _parse_timestamp(raw: str) -> int:
    """Epoch seconds as ASCII digits, or an ISO-8601 time in ``ISO_TIME``."""
    raw = raw.strip()
    if raw.isascii() and raw.isdigit():
        return int(raw)
    if not ISO_TIME.fullmatch(raw):
        raise ValueError(f"not a time in the ISO-8601 grammar: {raw!r}")
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def parse_checkins(path, fmt: str = "weeplaces") -> ParseResult:
    """Parse a check-in CSV into ``Checkins`` columns sorted by (user,
    timestamp); a row that ``check_checkin`` refuses is dropped."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(FORMATS)}")
    columns = FORMATS[fmt]
    records = []  # one tuple of check-in fields per valid row
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
    # by_length[n]: the cell of each field in a row of n cells, the last of
    # its column's name there, else -1: the "" appended to every row, which
    # drops the row for a mandatory field and gives no city
    last, by_length = {}, [(-1,) * len(FIELDS)]
    for n, name in enumerate(names):
        last[name] = n
        by_length.append(tuple(last.get(mapping[field], -1) for field in FIELDS))
    width = len(names)
    for values in rows:
        if not values:
            continue  # blank line
        total += 1
        user, poi, time, lat, lon, category, city = by_length[min(len(values), width)]
        values.append("")
        try:
            record = (
                values[user].strip(), values[poi].strip(), _parse_timestamp(values[time]),
                float(values[lat].strip()), float(values[lon].strip()), values[category].strip(),
                values[city].strip() or None)
            check_checkin(*record)
        except ValueError:  # DataError included
            dropped += 1
            continue
        records.append(record)

    if total > 0 and dropped > total / 2:
        raise DataError(
            f"{path}: {dropped} of {total} rows dropped; "
            "input does not look like a valid check-in log"
        )
    return ParseResult(records=Checkins.from_rows(records), dropped=dropped)


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
