"""Sensor reading ingestion (toolkit-defined CSV: room,ts,value).

A reading is held as the row its sensor's table stores, in
``SENSOR_COLUMNS`` order (``sensor_row``); those pairs are the only
statement of a sensor table's columns, which ``ingest.default_schema``
reads.
"""

from __future__ import annotations

import csv
import math
from datetime import datetime

from ..lines import csv_rows, csv_text, split_lines
from .records import SENSOR_TYPES, IngestError


# (name, store attribute) of each column of a sensor's table, in sensor_row order
SENSOR_COLUMNS = (("reading_id", "text"), ("room", "text"), ("floor", "number"),
                  ("ts", "time"), ("value", "number"))


class BadTimestamp(IngestError):
    pass


class BadValue(IngestError):
    pass


def sensor_row(sensor_type: str, index: int, room: str, ts: datetime, value) -> tuple:
    """The stored row of the ``index``-th reading of a ``sensor_type`` sensor,
    in ``SENSOR_COLUMNS`` order.

    Floor is derived from rooms shaped like R<floor><nn>; otherwise null.  A
    digit that ``int`` does not read, such as "²", is no floor.
    """
    floor = int(room[1]) if len(room) >= 2 and room[0] in "Rr" and room[1].isdecimal() else None
    return (f"{sensor_type[:1]}{index:06d}", room, floor, ts, value)


def read_number(read, text: str):
    """``read(text)``, ``read`` being int or float, refusing non-ASCII text
    and "_", which both read but no writer writes: "2_1.5" or "٢١.٥" as 21.5."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert {text!r}")
    return read(text)


def ingest_sensors(text: str, sensor_type: str) -> list[tuple]:
    """Parse a sensor CSV into the rows of its readings (``sensor_row``).

    Lines are split by ``lines.split_lines`` and read by ``csv.reader``, one
    row per line.  Expects a ``room,ts,value`` header; ts is ISO-8601.  The
    room is kept as written; ts and value lose surrounding whitespace.  A
    value must be a finite number (not nan, inf, or digits beyond float
    range) written in ASCII without "_", and a motion value 0 or 1.  Raises
    BadTimestamp or BadValue with the offending line number.
    """
    if sensor_type not in SENSOR_TYPES:
        raise BadValue(f"unknown sensor type {sensor_type!r}")
    readings: list[tuple] = []
    rows = split_lines(text)
    header = next(csv.reader(rows[:1]), [])
    start = 1 if header and header[0].strip().casefold() == "room" else 0
    try:
        for line_no, parts in csv_rows(rows[start:], start + 1):
            if len(parts) != 3:
                raise BadValue(f"line {line_no}: expected room,ts,value")
            room, ts_text, value_text = parts[0], parts[1].strip(), parts[2].strip()
            try:
                ts = datetime.fromisoformat(ts_text)
            except ValueError as exc:
                raise BadTimestamp(f"line {line_no}: {exc}") from exc
            try:
                value = read_number(float, value_text)
                if value.is_integer() and "." not in value_text:
                    value = int(value_text)
            except ValueError as exc:
                raise BadValue(f"line {line_no}: bad value {value_text!r}") from exc
            if not math.isfinite(value):
                raise BadValue(f"line {line_no}: value must be finite: {value_text!r}")
            if sensor_type == "motion" and value not in (0, 1):
                raise BadValue(f"line {line_no}: motion value must be 0 or 1: {value}")
            readings.append(sensor_row(sensor_type, len(readings), room, ts, value))
    except csv.Error as exc:
        raise BadValue(str(exc)) from exc
    return readings


def serialize_sensors(rows: list[tuple]) -> str:
    """A sensor CSV (``room,ts,value``) of a sensor's rows; a room holding
    "\\n", "\\r" or NUL (``lines.csv_text``), or a value that
    ``ingest_sensors`` refuses as not finite, is a ValueError."""
    return csv_text([("room", "ts", "value"), *(
        (room, ts.isoformat(), int(value) if _finite(value).is_integer() else value)
        for _, room, _, ts, value in rows)])


def _finite(value) -> float:
    try:
        number = float(value)
    except OverflowError:  # an int beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"sensor value must be finite, got {value!r}")
    return number
