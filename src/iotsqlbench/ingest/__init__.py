"""Parsers for Zeek logs, IoT-23 labels, and sensor data, plus synthesis."""

from .records import (
    ALL_KINDS,
    KIND_FIELDS,
    SENSOR_TYPES,
    TABLE_FOR_KIND,
    ZEEK_KINDS,
    AttackLabel,
    ConnTable,
    IngestError,
    UnknownKind,
    UnknownLabel,
    parse_iot23_label,
)
from .sensors import BadTimestamp, BadValue, ingest_sensors, sensor_row, serialize_sensors
from .synth import (
    InvalidSpec,
    SynthSpec,
    apportion,
    parse_devices,
    serialize_devices,
    synthesize_logs,
)
from .tables import default_schema, table_columns
from .zeek import (
    BadDirective,
    MissingFieldsHeader,
    datetime_to_epoch,
    epoch_to_datetime,
    parse_zeek,
    rows_for_table,
    serialize_zeek,
)

__all__ = [
    "ALL_KINDS",
    "AttackLabel",
    "BadDirective",
    "BadTimestamp",
    "BadValue",
    "ConnTable",
    "IngestError",
    "InvalidSpec",
    "KIND_FIELDS",
    "MissingFieldsHeader",
    "SENSOR_TYPES",
    "SynthSpec",
    "TABLE_FOR_KIND",
    "UnknownKind",
    "UnknownLabel",
    "ZEEK_KINDS",
    "apportion",
    "datetime_to_epoch",
    "default_schema",
    "epoch_to_datetime",
    "ingest_sensors",
    "parse_devices",
    "parse_iot23_label",
    "parse_zeek",
    "rows_for_table",
    "sensor_row",
    "serialize_devices",
    "serialize_sensors",
    "serialize_zeek",
    "synthesize_logs",
    "table_columns",
]
