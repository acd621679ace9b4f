"""Sensor reading ingestion (toolkit-defined CSV: room,ts,value)."""

from __future__ import annotations

import csv
from datetime import datetime
from typing import Iterable

from ..lines import csv_rows, csv_text, split_lines
from .records import SENSOR_TYPES, IngestError, RecordInvariantError, SensorReading


class BadTimestamp(IngestError):
    pass


class BadValue(IngestError):
    pass


def ingest_sensors(text: str, sensor_type: str) -> list[SensorReading]:
    """Parse a sensor CSV into typed readings.

    Lines are split by ``lines.split_lines`` and read by ``csv.reader``, one
    row per line.  Expects a ``room,ts,value`` header; ts is ISO-8601.  The
    room is kept as written; ts and value lose surrounding whitespace.
    Raises BadTimestamp or BadValue with the offending line number.
    """
    if sensor_type not in SENSOR_TYPES:
        raise BadValue(f"unknown sensor type {sensor_type!r}")
    readings: list[SensorReading] = []
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
                value = float(value_text)
                if value.is_integer() and "." not in value_text:
                    value = int(value_text)
            except ValueError as exc:
                raise BadValue(f"line {line_no}: bad value {value_text!r}") from exc
            try:
                readings.append(SensorReading(sensor_type=sensor_type, room=room, ts=ts, value=value))
            except RecordInvariantError as exc:
                raise BadValue(f"line {line_no}: {exc}") from exc
    except csv.Error as exc:
        raise BadValue(str(exc)) from exc
    return readings


def serialize_sensors(readings: Iterable[SensorReading]) -> str:
    """A sensor CSV (``room,ts,value``); a room holding "\\n", "\\r" or NUL
    is a ValueError (``lines.csv_text``)."""
    return csv_text([("room", "ts", "value"), *(
        (r.room, r.ts.isoformat(), int(r.value) if float(r.value).is_integer() else r.value)
        for r in readings)])


def sensor_rows(readings: Iterable[SensorReading]) -> list[tuple]:
    """Store rows for a sensor table: (reading_id, room, floor, ts, value).

    Floor is derived from rooms shaped like R<floor><nn>; otherwise null.
    """
    rows = []
    for i, r in enumerate(readings):
        floor = None
        if len(r.room) >= 2 and r.room[0] in "Rr" and r.room[1].isdigit():
            floor = int(r.room[1])
        rid = f"{r.sensor_type[:1]}{i:06d}"
        rows.append((rid, r.room, floor, r.ts, r.value))
    return rows
