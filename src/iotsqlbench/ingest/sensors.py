"""Sensor reading ingestion (toolkit-defined CSV: room,ts,value)."""

from __future__ import annotations

from datetime import datetime
from typing import Iterable

from ..lines import split_lines
from .records import SENSOR_TYPES, IngestError, RecordInvariantError, SensorReading


class BadTimestamp(IngestError):
    pass


class BadValue(IngestError):
    pass


def ingest_sensors(text: str, sensor_type: str) -> list[SensorReading]:
    """Parse a sensor CSV into typed readings.

    Lines are split by ``lines.split_lines``.  Expects a ``room,ts,value``
    header; ts is ISO-8601.  Raises BadTimestamp or BadValue with the
    offending line number.
    """
    if sensor_type not in SENSOR_TYPES:
        raise BadValue(f"unknown sensor type {sensor_type!r}")
    readings: list[SensorReading] = []
    rows = split_lines(text)
    start = 0
    if rows[0].replace(" ", "").casefold().startswith("room,"):
        start = 1
    for line_no, raw in enumerate(rows[start:], start=start + 1):
        if not raw.strip():
            continue
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 3:
            raise BadValue(f"line {line_no}: expected room,ts,value")
        room, ts_text, value_text = parts
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
    return readings


def serialize_sensors(readings: Iterable[SensorReading]) -> str:
    lines = ["room,ts,value"]
    for r in readings:
        value = int(r.value) if float(r.value).is_integer() else r.value
        lines.append(f"{r.room},{r.ts.isoformat()},{value}")
    return "\n".join(lines) + "\n"


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
