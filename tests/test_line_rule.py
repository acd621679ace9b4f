"""Every text file the toolkit writes and reads back ends a line at "\\n"
alone: each writer -> reader pair keeps a value holding U+2028, U+2029 or
U+0085, which ``str.splitlines`` would break, and reads its CRLF form, from
its text (a JSON-lines reader, which takes a path, from a file holding the
text) and from its file; from its file also a value holding a lone "\\r",
which text mode would break, wherever the writer writes one."""

from datetime import datetime

import pytest

from iotsqlbench.ingest import (
    AttackLabel,
    ConnTable,
    SynthSpec,
    default_schema,
    ingest_sensors,
    parse_devices,
    parse_zeek,
    serialize_devices,
    serialize_sensors,
    sensor_row,
    serialize_zeek,
    synthesize_logs,
)
from iotsqlbench.cli import _parse_zeek_file, read_logs_dir
from iotsqlbench.lines import read_text, split_lines
from iotsqlbench.modelio import build_sql_input, read_jsonl, read_sql_examples, write_sql_examples
from iotsqlbench.splitter import SplitManifest, dump_manifest, load_manifest
from iotsqlbench.store import linearize_schema
from iotsqlbench.templates import TextSqlPair, pair_to_json, read_corpus
from iotsqlbench.ingest.synth import DEVICE_COLUMNS
from tests.conftest import conn_records, text_file


def _devices(mark, tmp_path):
    devices = synthesize_logs(SynthSpec(counts={"devices": 3}, seed=3))["devices"]
    name = [column for column, _ in DEVICE_COLUMNS].index("name")
    devices[1] = (*devices[1][:name], f"hub{mark}R101", *devices[1][name + 1:])
    return devices, serialize_devices(devices), parse_devices


def _sensors(mark, tmp_path):
    readings = [sensor_row("co2", 0, f"R1{mark}01", datetime(2021, 3, 1, 10), 415),
                sensor_row("co2", 1, "R102", datetime(2021, 3, 1, 11), 420.5)]
    return readings, serialize_sensors(readings), lambda text: ingest_sensors(text, "co2")


def _manifest(mark, tmp_path):
    manifest = SplitManifest(assignment={f"C1{mark}x": "train", "C2": "test"}, ratios=(0.6, 0.4),
                             seed=5, train_attack_labels=frozenset({AttackLabel.Okiru}))
    return manifest, dump_manifest(manifest), load_manifest


def _corpus(mark, tmp_path):
    pairs = [TextSqlPair(question=f"How many{mark}sessions?", sql="SELECT COUNT(*) FROM conn.log",
                         template_id="t1", tables_referenced=frozenset({"conn.log"}),
                         category="retrieval")]
    text = "".join(pair_to_json(p) + "\n" for p in pairs)
    return pairs, text, lambda text: read_corpus(text_file(tmp_path, text))


def _sql_examples_and_inputs(path):
    """The examples read from ``path``, and each line's input as written."""
    return read_sql_examples(path), [obj["input"] for _, obj in read_jsonl(path)]


def _jsonl(mark, tmp_path):
    pairs = [TextSqlPair(question=f"Which{mark}hosts?",
                         sql=f"SELECT orig_h FROM conn.log WHERE history = 'S{mark}h'")]
    path = tmp_path / "sql.jsonl"
    examples = write_sql_examples(pairs, default_schema(), path)
    inputs = [build_sql_input(pair.question, linearize_schema(default_schema())) for pair in pairs]
    text = path.read_text(encoding="utf-8")
    return (examples, inputs), text, lambda text: _sql_examples_and_inputs(text_file(tmp_path, text))


def _zeek(mark, tmp_path):
    records = conn_records(synthesize_logs(SynthSpec(counts={"conn": 3}, seed=3))["conn"])
    records[1] = records[1]._replace(uid=f"C{mark}1", history=f"Sh{mark}Ad")
    table = ConnTable.of(records)
    return table, serialize_zeek(table, "conn"), lambda text: parse_zeek(text, "conn").records


PAIRS = {"devices": _devices, "sensors": _sensors, "manifest": _manifest,
         "corpus": _corpus, "jsonl": _jsonl, "zeek": _zeek}

# the file each pair's text is written to, and how the CLI reads it back
FILES = {
    "devices": ("devices.csv", lambda path: read_logs_dir(path.parent)[0]["devices"]),
    "sensors": ("co2.csv", lambda path: read_logs_dir(path.parent)[0]["co2"]),
    "manifest": ("manifest.txt", lambda path: load_manifest(read_text(path))),
    "corpus": ("corpus.jsonl", read_corpus),
    "jsonl": ("sql.jsonl", _sql_examples_and_inputs),
    "zeek": ("conn.log", lambda path: _parse_zeek_file(path, "conn").records),
}

MARKS = ["\u2028", "\u2029", "\x85"]
# the CSV writers refuse a value holding "\r", and the JSON writers escape it
FILE_CASES = [(pair, mark) for pair in PAIRS for mark in MARKS] + [
    ("manifest", "\r"), ("zeek", "\r")]


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
@pytest.mark.parametrize("mark", MARKS)
@pytest.mark.parametrize("pair", list(PAIRS))
def test_writer_reader_pair_keeps_a_value_holding_a_unicode_line_break(pair, mark, line_end, tmp_path):
    written, text, read = PAIRS[pair](mark, tmp_path)
    assert mark in text
    assert read(text.replace("\n", line_end)) == written


def test_a_line_ends_at_newline_alone():
    assert split_lines("a\u2028b\x85c\r\nd\re\x0cf\x1cg\n") == ["a\u2028b\x85c", "d\re\x0cf\x1cg", ""]
    assert split_lines("") == [""]


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
@pytest.mark.parametrize("pair, mark", FILE_CASES)
def test_writer_reader_pair_reads_the_same_from_its_file(pair, mark, line_end, tmp_path):
    written, text, _ = PAIRS[pair](mark, tmp_path)
    assert mark in text
    name, read_file = FILES[pair]
    path = tmp_path / "read" / name
    path.parent.mkdir()
    path.write_bytes(text.replace("\n", line_end).encode("utf-8"))
    assert read_file(path) == written
