"""The table each kind is stored in, with its columns as its reader gives
them: the one statement of the database's columns.

A reader's rows are loaded by position, so a table's columns are its
reader's, in its order: a Zeek log's from ``KIND_FIELDS[kind]`` (the store
attribute from its ``vtype``'s entry in ``zeek._TYPES``), a sensor's from
``sensors.SENSOR_COLUMNS`` and the devices' from ``synth.DEVICE_COLUMNS``.
"""

from __future__ import annotations

from ..store import ColumnDef, DatabaseSchema, TableSchema, define_schema
from .records import ALL_KINDS, KIND_FIELDS, SENSOR_TYPES, TABLE_FOR_KIND, UnknownKind
from .sensors import SENSOR_COLUMNS
from .synth import DEVICE_COLUMNS
from .zeek import _TYPES


def table_columns(kind: str) -> list[tuple[str, str]]:
    """(name, store attribute) of each column of a ``kind``'s table, in the
    order its reader gives a row's values, the order the rows are loaded in."""
    if kind in KIND_FIELDS:
        return [(spec.name, _TYPES[spec.vtype].attribute) for spec in KIND_FIELDS[kind]]
    if kind in SENSOR_TYPES:
        return list(SENSOR_COLUMNS)
    if kind == "devices":
        return list(DEVICE_COLUMNS)
    raise UnknownKind(f"unknown kind {kind!r}")


def default_schema() -> DatabaseSchema:
    """The shipped 12-table smart-building schema: each kind's table, in
    ``ALL_KINDS`` order (the six Zeek logs, the five sensors, the devices),
    with its reader's columns (``table_columns``).

    conn.log follows the standard 21-column Zeek connection log; the other
    Zeek tables are reconstructed from Zeek's field documentation, and the
    sensor/device tables are toolkit-defined.
    """
    return define_schema(
        TableSchema(TABLE_FOR_KIND[kind], tuple(ColumnDef(*column) for column in table_columns(kind)))
        for kind in ALL_KINDS)
