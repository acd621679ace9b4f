"""A conn log is held as a ConnTable: its rows as columns, one list per
name of CONN_TABLE_NAMES.  A producer of rows in that order gathers them
with ``ConnTable.of``."""

import pytest

from iotsqlbench.ingest import (
    AttackLabel,
    ConnTable,
    SynthSpec,
    parse_zeek,
    serialize_zeek,
    synthesize_logs,
)
from iotsqlbench.ingest.records import CONN_TABLE_NAMES
from tests.conftest import conn_records

MIX = {
    AttackLabel.Benign: 0.6,
    AttackLabel.Okiru: 0.1,
    AttackLabel.PartOfAHorizontalPortScan: 0.1,
    AttackLabel.DDoS: 0.1,
    AttackLabel.CandC: 0.1,
}


@pytest.fixture(scope="module")
def records():
    return synthesize_logs(SynthSpec(counts={"conn": 40}, label_mix=MIX, seed=3))["conn"]


def test_of_gathers_records_into_columns(records):
    rows = conn_records(records)
    table = ConnTable.of(rows)
    assert tuple(table.columns) == CONN_TABLE_NAMES
    assert table.columns["uid"] == [r.uid for r in rows]
    assert table.columns["label"] == [r.label for r in rows]
    assert table == records and len(table) == 40
    assert conn_records(table) == rows
    with pytest.raises(ValueError):  # a row without its label
        ConnTable.of([rows[0][:-1]])
    with pytest.raises(ValueError):  # rows of two widths
        ConnTable.of([rows[0], rows[1][:-1]])


def test_a_table_equals_only_a_table_of_equal_columns(records):
    rows = conn_records(records)
    assert conn_records(records.take([5, 0, 5])) == [rows[5], rows[0], rows[5]]
    changed = [*rows[:-1], rows[-1]._replace(history="x")]
    assert records != ConnTable.of(changed) and records != ConnTable.of(rows[:-1])
    assert records != rows and records != "not records" and records != 40
    with pytest.raises(TypeError):
        hash(records)


def test_empty_table(records):
    empty = ConnTable.of([])
    assert len(empty) == 0 and not empty
    assert empty == records.take([]) and empty != records
    text = serialize_zeek(empty, "conn")
    assert len(text.splitlines()) == 9 and "label" not in text  # the header and #close alone


def test_a_conn_parse_is_a_table_equal_to_its_records(records):
    text = serialize_zeek(records, "conn")
    table = parse_zeek(text, "conn").records
    assert isinstance(table, ConnTable) and table == records
    assert serialize_zeek(table, "conn") == text
