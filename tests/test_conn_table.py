"""A parsed conn log is a ConnTable: a read-only sequence of ConnRecords held
as columns, which builds a record only when one is indexed or iterated."""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from iotsqlbench.cli import main
from iotsqlbench.ingest import (
    AttackLabel,
    ConnRecord,
    ConnTable,
    SynthSpec,
    conn_columns,
    parse_zeek,
    serialize_zeek,
    synthesize_logs,
)

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


def test_table_is_a_sequence_of_its_records(records):
    table = ConnTable(conn_columns(records))
    assert len(table) == 40
    assert table[0] == records[0] and table[-1] == records[-1] and table[-40] == records[0]
    with pytest.raises(IndexError):
        table[40]
    assert list(table) == records
    assert isinstance(table[3:9], ConnTable) and list(table[3:9]) == records[3:9]
    assert list(table[::-7]) == records[::-7]
    assert table.take([5, 0, 5]) == [records[5], records[0], records[5]]
    assert records[7] in table and table.index(records[7]) == 7


def test_table_equals_any_sequence_of_equal_records(records):
    table = ConnTable(conn_columns(records))
    assert table == records and records == table
    assert table == tuple(records) and table == ConnTable(conn_columns(records))
    changed = [*records[:-1], dataclasses.replace(records[-1], history="x")]
    assert table != changed and changed != table
    assert table != records[:-1] and records[:-1] != table
    assert table != ConnTable(conn_columns(changed))
    assert table != "not records" and table != 40
    with pytest.raises(TypeError):
        hash(table)


def test_empty_table(records):
    empty = ConnTable(conn_columns([]))
    assert len(empty) == 0 and not empty and list(empty) == []
    assert empty == [] and [] == empty and empty == ConnTable(conn_columns(records))[:0]
    assert empty != records
    with pytest.raises(IndexError):
        empty[0]
    assert serialize_zeek(empty, "conn") == serialize_zeek([], "conn")


def test_conn_columns_gives_a_table_its_own_columns(records):
    columns = conn_columns(iter(records))
    assert list(columns) == [*(f.name for f in dataclasses.fields(ConnRecord))]
    assert columns["uid"] == [r.uid for r in records]
    assert columns["label"] == [r.label for r in records]
    table = ConnTable(columns)
    assert conn_columns(table) is columns


def test_a_conn_parse_is_a_table_equal_to_its_records(records):
    text = serialize_zeek(records, "conn")
    table = parse_zeek(text, "conn").records
    assert isinstance(table, ConnTable) and table == records
    assert serialize_zeek(table, "conn") == text


# ---------------------------------------------------------------------------
# the CLI detection stages read and write columns and build no ConnRecord


class _NoRecord:
    """Stands in for ConnRecord's ``uid`` slot: building a record (through
    ``__init__`` or by setting its slots) or reading one fails."""

    def __get__(self, record, owner=None):
        if record is None:
            return self
        raise AssertionError("a ConnRecord was read")

    def __set__(self, record, value):
        raise AssertionError("a ConnRecord was built")


def _tree(root: Path) -> dict:
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _detection_stages(logs: Path, out: Path) -> dict:
    base = ["--seed", "4", "--out", str(out), "--set", "baseline.n_trees=3"]
    network = ["--anonymized", str(out / "splits/conn.anonymized.tsv"),
               "--network-manifest", str(out / "splits/network_manifest.txt")]
    assert main(base + ["ingest", "--logs", str(logs)]) == 0
    assert main(base + ["split", "--db", str(out / "db")]) == 0
    assert main(base + ["emit", *network]) == 0
    assert main(base + ["baseline", *network]) == 0
    return _tree(out)


def test_cli_detection_stages_build_no_conn_record(tmp_path, monkeypatch):
    logs = tmp_path / "logs"
    logs.mkdir()
    records = synthesize_logs(SynthSpec(counts={"conn": 300}, label_mix=MIX, seed=8))["conn"]
    (logs / "conn.log").write_text(serialize_zeek(records, "conn"), encoding="utf-8")
    plain = _detection_stages(logs, tmp_path / "plain")
    values = dataclasses.astuple(records[0])
    monkeypatch.setattr(ConnRecord, "uid", _NoRecord())
    with pytest.raises(AssertionError, match="was built"):
        ConnRecord(*values)
    with pytest.raises(AssertionError, match="was read"):
        records[0].uid
    assert _detection_stages(logs, tmp_path / "columns") == plain
    assert {"db/conn.log.tsv", "splits/conn.anonymized.tsv", "model_io/detect_train.jsonl",
            "baseline/model.json", "baseline/report_test.json"} <= set(plain)
