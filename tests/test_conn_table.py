"""A conn log is held as a ConnTable: its rows as columns, one list per
ConnRecord field.  A producer of checked records gathers them with
``ConnTable.of``."""

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
    parse_zeek,
    serialize_zeek,
    synthesize_logs,
)
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
    assert list(table.columns) == [*(f.name for f in dataclasses.fields(ConnRecord))]
    assert table.columns["uid"] == [r.uid for r in rows]
    assert table.columns["label"] == [r.label for r in rows]
    assert table == records and len(table) == 40
    assert conn_records(table) == rows


def test_a_table_equals_only_a_table_of_equal_columns(records):
    rows = conn_records(records)
    assert conn_records(records.take([5, 0, 5])) == [rows[5], rows[0], rows[5]]
    changed = [*rows[:-1], dataclasses.replace(rows[-1], history="x")]
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
    first = conn_records(records)[0]
    values = dataclasses.astuple(first)
    monkeypatch.setattr(ConnRecord, "uid", _NoRecord())
    with pytest.raises(AssertionError, match="was built"):
        ConnRecord(*values)
    with pytest.raises(AssertionError, match="was read"):
        first.uid
    assert _detection_stages(logs, tmp_path / "columns") == plain
    assert {"db/conn.log.tsv", "splits/conn.anonymized.tsv", "model_io/detect_train.jsonl",
            "baseline/model.json", "baseline/report_test.json"} <= set(plain)
