import json
import math
import tracemalloc
from datetime import datetime
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iotsqlbench.ingest import (
    KIND_FIELDS,
    ZEEK_KINDS,
    AttackLabel,
    BadDirective,
    ConnTable,
    MissingFieldsHeader,
    SynthSpec,
    UnknownKind,
    UnknownLabel,
    datetime_to_epoch,
    epoch_to_datetime,
    parse_iot23_label,
    parse_zeek,
    serialize_zeek,
    synthesize_logs,
)
from iotsqlbench.baselines import fit_featurizer
from iotsqlbench.ingest import zeek
from tests.conftest import ConnRow, conn_records

HEADER = "\n".join([
    "#separator \\x09",
    "#set_separator\t,",
    "#empty_field\t(empty)",
    "#unset_field\t-",
    "#path\tconn",
    "#open\t2020-01-01-00-00-00",
    "#fields\t" + "\t".join([
        "ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p", "proto",
        "service", "duration", "orig_bytes", "resp_bytes", "conn_state", "local_orig",
        "local_resp", "missed_bytes", "history", "orig_pkts", "orig_ip_bytes",
        "resp_pkts", "resp_ip_bytes", "tunnel_parents",
    ]),
    "#types\t" + "\t".join([
        "time", "string", "addr", "port", "addr", "port", "enum", "string", "interval",
        "count", "count", "string", "bool", "bool", "count", "string", "count", "count",
        "count", "count", "set[string]",
    ]),
])

GOOD_LINE = "\t".join([
    "1616161616.123456", "CAbc1", "192.168.1.5", "51234", "10.0.0.9", "80", "tcp",
    "http", "1.500000", "450", "2300", "SF", "T", "F", "0", "ShADadFf", "7", "730",
    "9", "2660", "-",
])


def test_header_only_stream_yields_zero_records():
    result = parse_zeek(HEADER + "\n", "conn")
    assert len(result.records) == 0
    assert result.issues == []


def test_conn_line_parses_all_21_columns():
    result = parse_zeek(HEADER + "\n" + GOOD_LINE + "\n", "conn")
    assert not result.issues
    assert isinstance(result.records, ConnTable)
    (rec,) = conn_records(result.records)
    assert rec.uid == "CAbc1"
    assert rec.orig_p == 51234 and rec.resp_p == 80
    assert rec.duration == pytest.approx(1.5)
    assert rec.orig_bytes == 450 and rec.resp_ip_bytes == 2660
    assert rec.local_orig is True and rec.local_resp is False
    assert rec.tunnel_parents is None
    assert rec.ts.year == 2021 and rec.ts.microsecond == 123456
    assert rec.label is AttackLabel.Benign and rec.label.is_malicious is False


def test_dash_maps_to_unset():
    line = GOOD_LINE.split("\t")
    line[8] = "-"   # duration
    line[9] = "-"   # orig_bytes
    line[7] = "-"   # service
    result = parse_zeek(HEADER + "\n" + "\t".join(line) + "\n", "conn")
    (rec,) = conn_records(result.records)
    assert rec.duration is None and rec.orig_bytes is None and rec.service is None


def test_labels_as_declared_columns():
    header = HEADER.replace("#fields\t", "#fields\t").replace(
        "\ttunnel_parents", "\ttunnel_parents\tlabel\tdetailed-label"
    ).replace("\tset[string]", "\tset[string]\tstring\tstring")
    line = GOOD_LINE + "\tMalicious\tOkiru"
    result = parse_zeek(header + "\n" + line + "\n", "conn")
    (rec,) = conn_records(result.records)
    assert rec.label is AttackLabel.Okiru and rec.label.is_malicious


def test_labels_as_extra_trailing_columns():
    line = GOOD_LINE + "\tMalicious\tPartOfAHorizontalPortScan"
    result = parse_zeek(HEADER + "\n" + line + "\n", "conn")
    (rec,) = conn_records(result.records)
    assert rec.label is AttackLabel.PartOfAHorizontalPortScan


def test_labels_glued_with_spaces():
    parts = GOOD_LINE.split("\t")
    parts[-1] = "(empty)   Malicious   Okiru"
    result = parse_zeek(HEADER + "\n" + "\t".join(parts) + "\n", "conn")
    (rec,) = conn_records(result.records)
    assert rec.label is AttackLabel.Okiru
    assert rec.tunnel_parents == ""


def test_field_count_mismatch_reported_with_line_number():
    bad = "\t".join(GOOD_LINE.split("\t")[:15])
    result = parse_zeek(HEADER + "\n" + GOOD_LINE + "\n" + bad + "\n", "conn")
    assert len(result.records) == 1
    (issue,) = result.issues
    assert issue.line_no == 10  # header is 8 lines, good line 9
    assert "15" in issue.message


def test_out_of_range_port_reported_not_coerced():
    parts = GOOD_LINE.split("\t")
    parts[3] = "70000"
    result = parse_zeek(HEADER + "\n" + "\t".join(parts) + "\n", "conn")
    assert not result.records
    (issue,) = result.issues
    assert "orig_p" in issue.message


def test_negative_count_reported():
    parts = GOOD_LINE.split("\t")
    parts[16] = "-3"
    result = parse_zeek(HEADER + "\n" + "\t".join(parts) + "\n", "conn")
    assert not result.records and len(result.issues) == 1


def test_missing_fields_header():
    with pytest.raises(MissingFieldsHeader):
        parse_zeek("#separator \\x09\n" + GOOD_LINE + "\n", "conn")


def test_unknown_kind():
    with pytest.raises(UnknownKind):
        parse_zeek(HEADER, "ssl")


def test_json_lines_format():
    line = (
        '{"ts": 1616161616.5, "uid": "CJson1", "id.orig_h": "192.168.1.2",'
        ' "id.orig_p": 1024, "id.resp_h": "10.0.0.1", "id.resp_p": 443,'
        ' "proto": "tcp", "conn_state": "SF", "missed_bytes": 0, "history": "S",'
        ' "orig_pkts": 1, "orig_ip_bytes": 40, "resp_pkts": 1, "resp_ip_bytes": 40,'
        ' "label": "Malicious", "detailed-label": "C&C"}'
    )
    result = parse_zeek(line + "\n", "conn")
    (rec,) = conn_records(result.records)
    assert rec.uid == "CJson1"
    assert rec.label is AttackLabel.CandC
    assert rec.duration is None


def test_json_line_that_is_not_an_object_is_a_parse_issue():
    good = json.dumps(_JSON_CONN)
    result = parse_zeek("\n".join([good, "[1, 2]", "{oops", "5", good]) + "\n", "conn")
    assert len(result.records) == 2
    assert [issue.line_no for issue in result.issues] == [2, 3, 4]
    assert result.issues[0].message == result.issues[2].message == "expected a JSON object"
    assert result.issues[1].message.startswith("bad json")


# min and max skip a NaN that is not first, so the column range check
# searches a duration column for one, in the reader and in the writer
@pytest.mark.parametrize("position", [0, 1, 255, 256, 299])
def test_nan_duration_reported_as_negative_duration(position):
    lines = [GOOD_LINE.replace("CAbc1", f"CNan{i}") for i in range(300)]
    columns = parse_zeek(HEADER + "\n" + "\n".join(lines) + "\n", "conn").records.columns
    duration = [float("nan") if i == position else value for i, value in enumerate(columns["duration"])]
    with pytest.raises(zeek.UnreadableValue) as refused:
        serialize_zeek(ConnTable({**columns, "duration": duration}), "conn")
    assert str(refused.value) == f"record {position + 1}: duration must be finite and nonnegative: nan"
    parts = lines[position].split("\t")
    parts[8] = "nan"
    lines[position] = "\t".join(parts)
    result = parse_zeek(HEADER + "\n" + "\n".join(lines) + "\n", "conn")
    (issue,) = result.issues
    assert issue.line_no == 9 + position
    assert issue.message == "duration must be finite and nonnegative: nan"
    assert len(result.records) == 299
    assert f"CNan{position}" not in result.records.columns["uid"]


def test_nan_duration_in_json_reported():
    line = json.dumps({
        "ts": 1616161616.5, "uid": "CJsonNan", "id.orig_h": "192.168.1.2",
        "id.orig_p": 1024, "id.resp_h": "10.0.0.1", "id.resp_p": 443, "proto": "tcp",
        "duration": float("nan"), "conn_state": "SF", "missed_bytes": 0, "history": "S",
        "orig_pkts": 1, "orig_ip_bytes": 40, "resp_pkts": 1, "resp_ip_bytes": 40,
    })
    result = parse_zeek(line + "\n", "conn")
    assert not result.records
    assert [issue.message for issue in result.issues] == ["duration must be finite and nonnegative: nan"]


def test_parsed_row_holds_each_value_in_its_type():
    parts = GOOD_LINE.split("\t")
    parts[7], parts[8], parts[12], parts[13], parts[20] = "(empty)", "-", "-", "T", "(empty)"
    labeled = "\t".join(parts + ["Malicious", "Okiru"])
    (record,) = conn_records(parse_zeek(HEADER + "\n" + labeled + "\n", "conn").records)
    reference = ConnRow(
        ts=datetime(2021, 3, 19, 13, 46, 56, 123456), uid="CAbc1", orig_h="192.168.1.5",
        orig_p=51234, resp_h="10.0.0.9", resp_p=80, proto="tcp", service="", duration=None,
        orig_bytes=450, resp_bytes=2300, conn_state="SF", local_orig=None, local_resp=True,
        missed_bytes=0, history="ShADadFf", orig_pkts=7, orig_ip_bytes=730, resp_pkts=9,
        resp_ip_bytes=2660, tunnel_parents="", label=AttackLabel.Okiru,
    )
    for name in ConnRow._fields:
        value, expected = getattr(record, name), getattr(reference, name)
        assert value == expected and type(value) is type(expected), name
    assert record == reference and hash(record) == hash(reference)
    assert repr(record) == repr(reference)


@pytest.mark.parametrize("block", [1, 256])
def test_a_string_column_holds_each_distinct_text_once_per_run_of_markers(block):
    parts = GOOD_LINE.split("\t")
    reply = list(parts)
    reply[2], reply[4] = parts[4], parts[2]  # the addresses swapped
    unset_service = list(parts)
    unset_service[7] = "-"
    lines = [HEADER, GOOD_LINE, "\t".join(reply), "\t".join(unset_service),
             "#unset_field\tNULL", "\t".join(unset_service)]
    with mock.patch.object(zeek, "_BLOCK_LINES", block):
        result = parse_zeek("\n".join(lines) + "\n", "conn")
    assert not result.issues
    columns = result.records.columns
    # a text repeated in one column, and one found in two columns, is one object
    assert columns["history"][0] == "ShADadFf" and columns["history"][0] is columns["history"][1]
    assert columns["orig_h"][0] is columns["resp_h"][1] and columns["resp_h"][0] is columns["orig_h"][1]
    # under the new unset marker "-" is text, and the earlier "-" stays null
    assert columns["service"] == ["http", "http", None, "-"]
    assert columns["tunnel_parents"] == [None, None, None, "-"]


def test_a_parsed_conn_log_holds_each_distinct_text_once():
    text = serialize_zeek(synthesize_logs(SynthSpec(counts={"conn": 20_000}, seed=3))["conn"], "conn")
    tracemalloc.start()
    try:
        records = parse_zeek(text, "conn").records
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 20_000
    # 14.9 MiB when each row holds its own copy of each text (the pool's
    # addresses, proto, service, conn_state, history); 8.9 MiB held once
    assert kept < 12 << 20


# an out-of-range value of each bounded field, and the issue it gives; a
# NaN duration is refused in every kind
_OUT_OF_RANGE = [
    ("conn", "id.orig_p", 65536, "orig_p out of range: 65536"),
    ("conn", "id.orig_p", -1, "orig_p out of range: -1"),
    ("conn", "id.resp_p", 70000, "resp_p out of range: 70000"),
    ("conn", "duration", -0.5, "duration must be finite and nonnegative: -0.5"),
    ("conn", "duration", float("nan"), "duration must be finite and nonnegative: nan"),
    *(("conn", name, -1, f"{name} must be a count in [0, 2**64): -1") for name in (
        "orig_bytes", "resp_bytes", "missed_bytes", "orig_pkts", "orig_ip_bytes",
        "resp_pkts", "resp_ip_bytes")),
    ("conn", "orig_bytes", 2**64, f"orig_bytes must be a count in [0, 2**64): {2**64}"),
    ("files", "duration", float("nan"), "duration must be finite and nonnegative: nan"),
    ("dns", "rtt", float("nan"), "rtt must be finite and nonnegative: nan"),
]


@pytest.mark.parametrize("kind, field, bad, message", _OUT_OF_RANGE)
def test_reader_refuses_an_out_of_range_value_in_tsv_and_json(kind, field, bad, message):
    _assert_refused_in_tsv_and_json(kind, field, bad, message)


def _assert_refused_in_tsv_and_json(kind, field, bad, message):
    """A synthesized line of ``kind`` and a copy with ``bad`` in ``field``
    give one record and ``message`` for the copy, in TSV and in JSON."""
    lines = serialize_zeek(synthesize_logs(SynthSpec(counts={kind: 1}, seed=3))[kind], kind).splitlines()
    good = lines[8]
    values = good.split("\t")
    values[lines[6].split("\t")[1:].index(field)] = str(bad)
    tsv = parse_zeek("\n".join([*lines[:8], good, "\t".join(values)]) + "\n", kind)
    json_good = _JSON_CONN if kind == "conn" else {"ts": 1616161616.5, "uid": "CJson1"}
    lines = [json.dumps(json_good), json.dumps(dict(json_good, **{field: bad}))]
    from_json = parse_zeek("\n".join(lines) + "\n", kind)
    assert len(tsv.records) == len(from_json.records) == 1
    assert [(i.line_no, i.message) for i in tsv.issues] == [(10, message)]
    assert [(i.line_no, i.message) for i in from_json.issues] == [(2, message)]


# +-inf in every float and duration field (http and weird have none), and
# the issue it gives; TSV reads "inf", JSON "Infinity"
_INFINITE = [
    (kind, spec, bad, f"{spec.name} must be "
     f"{'a finite number' if spec.vtype == 'float' else 'finite and nonnegative'}: {bad}")
    for kind in ZEEK_KINDS for spec in KIND_FIELDS[kind] if spec.vtype in ("float", "duration")
    for bad in (math.inf, -math.inf)
]


@pytest.mark.parametrize("kind, spec, bad, message", _INFINITE,
                         ids=[f"{kind}.{spec.name}={bad}" for kind, spec, bad, _ in _INFINITE])
def test_an_infinite_number_is_refused_by_both_readers_and_the_writer(kind, spec, bad, message):
    _assert_refused_in_tsv_and_json(kind, spec.zeek_name, bad, message)
    records = synthesize_logs(SynthSpec(counts={kind: 2}, seed=3))[kind]
    rows = conn_records(records) if kind == "conn" else list(records)
    rows[1] = rows[1]._replace(**{spec.name: bad}) if kind == "conn" else tuple(
        bad if other is spec else value for other, value in zip(KIND_FIELDS[kind], rows[1]))
    with pytest.raises(zeek.UnreadableValue) as refused:
        serialize_zeek(ConnTable.of(rows) if kind == "conn" else rows, kind)
    assert str(refused.value) == f"record 2: {message}"


# an integer of 401 digits is beyond float range: both readers read it as
# inf, and a float or duration field refuses it
@pytest.mark.parametrize("kind, field, message", [
    ("conn", "duration", "duration must be finite and nonnegative: inf"),
    ("ntp", "poll", "poll must be a finite number: inf"),
])
def test_an_integer_beyond_float_range_is_refused_alike_in_tsv_and_json(kind, field, message):
    _assert_refused_in_tsv_and_json(kind, field, 10**401 - 1, message)


def test_a_json_integer_of_too_many_digits_is_a_bad_line():
    lines = [json.dumps(_JSON_CONN), json.dumps(_JSON_CONN)[:-1] + ', "duration": ' + "9" * 5000 + "}"]
    result = parse_zeek("\n".join(lines) + "\n", "conn")
    assert len(result.records) == 1
    assert [i.line_no for i in result.issues] == [2]
    assert result.issues[0].message.startswith("bad json: Exceeds the limit")


# a count is Zeek's 64-bit count: the writer refuses 2**64 as both readers
# do (_OUT_OF_RANGE), and the largest count loads and featurizes
def test_a_count_must_fit_64_bits():
    message = f"orig_bytes must be a count in [0, 2**64): {2**64}"
    rows = conn_records(synthesize_logs(SynthSpec(counts={"conn": 2}, seed=3))["conn"])
    with pytest.raises(zeek.UnreadableValue) as refused:
        serialize_zeek(ConnTable.of([rows[0], rows[1]._replace(orig_bytes=2**64)]), "conn")
    assert str(refused.value) == f"record 2: {message}"
    table = ConnTable.of([rows[0], rows[1]._replace(orig_bytes=2**64 - 1)])
    read = parse_zeek(serialize_zeek(table, "conn"), "conn")
    assert not read.issues and conn_records(read.records)[1].orig_bytes == 2**64 - 1
    features = fit_featurizer(read.records).transform(read.records)
    assert np.isfinite(features).all()


def test_parse_iot23_label_cases():
    assert parse_iot23_label("Benign", "-") is AttackLabel.Benign
    assert parse_iot23_label("benign", "") is AttackLabel.Benign
    assert parse_iot23_label("Malicious", "PartOfAHorizontalPortScan") is AttackLabel.PartOfAHorizontalPortScan
    assert parse_iot23_label("MALICIOUS", " okiru ") is AttackLabel.Okiru
    assert parse_iot23_label("Malicious", "C&C") is AttackLabel.CandC
    assert parse_iot23_label("Malicious", "c and c".replace(" ", "")) is AttackLabel.CandC
    assert parse_iot23_label("DDoS", "-") is AttackLabel.DDoS
    with pytest.raises(UnknownLabel) as exc:
        parse_iot23_label("Malicious", "Zerg")
    assert "Zerg" in str(exc.value)


def test_label_taxonomy_closed():
    assert len(AttackLabel) == 10
    expected = {
        "Attack", "Benign", "C&C", "DDoS", "FileDownload", "HeartBeat",
        "Mirai", "Okiru", "Torii", "PartOfAHorizontalPortScan",
    }
    assert {label.value for label in AttackLabel} == expected


def test_round_trip_all_kinds(synth_data):
    for kind in ("conn", "dns", "http", "files", "ntp", "weird"):
        text = serialize_zeek(synth_data[kind], kind)
        back = parse_zeek(text, kind)
        assert not back.issues
        assert back.records == synth_data[kind]
        assert serialize_zeek(back.records, kind) == text


@pytest.mark.parametrize("mark", ["\u2028", "\u2029", "\x85"])
def test_round_trip_keeps_a_value_holding_a_unicode_line_break(mark):
    records = conn_records(synthesize_logs(SynthSpec(counts={"conn": 3}, seed=3))["conn"])
    records[1] = records[1]._replace(history=f"Sh{mark}Ad")
    text = serialize_zeek(ConnTable.of(records), "conn")
    back = parse_zeek(text, "conn")
    assert not back.issues
    assert back.records == ConnTable.of(records)


# string values the Zeek reader reads back as written anywhere in a line:
# no unset or empty marker, no tab or "\n", and no "\r" (it would be dropped
# at the end of a line); README states the writer's contract
_READABLE = st.text(alphabet=st.characters(exclude_characters="\t\n\r")).filter(
    lambda value: value not in ("-", "(empty)"))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["conn", "dns", "http", "files", "ntp", "weird"]), st.data())
def test_round_trip_keeps_every_string_the_writer_accepts(kind, data):
    records = synthesize_logs(SynthSpec(counts={kind: 3}, seed=3))[kind]
    specs = KIND_FIELDS[kind]
    if kind == "conn":
        records = ConnTable.of([
            record._replace(**{
                spec.name: data.draw(_READABLE) for spec in specs if spec.vtype == "str"})
            for record in conn_records(records)])
    else:
        records = [tuple(data.draw(_READABLE) if spec.vtype == "str" else value
                         for value, spec in zip(record, specs))
                   for record in records]
    back = parse_zeek(serialize_zeek(records, kind), kind)
    assert not back.issues
    assert back.records == records


@pytest.mark.parametrize("value", ["-", "(empty)", "S\tA", "S\nA"])
def test_serialize_rejects_a_string_the_reader_would_misread(value):
    records = conn_records(synthesize_logs(SynthSpec(counts={"conn": 3}, seed=3))["conn"])
    records[1] = records[1]._replace(history=value)
    with pytest.raises(ValueError, match="history: the Zeek reader would misread"):
        serialize_zeek(ConnTable.of(records), "conn")


def test_serialize_rejects_a_last_value_the_reader_would_misread_only_where_it_is_last():
    # "\r" is dropped at a line's end: a weird line ends in its source, a
    # conn line in its label columns
    records = list(synthesize_logs(SynthSpec(counts={"weird": 3}, seed=3))["weird"])
    records[1] = (*records[1][:-1], "C1\r")
    with pytest.raises(ValueError, match="source: the Zeek reader would misread"):
        serialize_zeek(records, "weird")
    records[1] = (*records[1][:-2], "C1\r", "IP")
    assert parse_zeek(serialize_zeek(records, "weird"), "weird").records == records
    conn = conn_records(synthesize_logs(SynthSpec(counts={"conn": 3}, seed=3))["conn"])
    for value in ["C1\r", "C1  Malicious  Okiru"]:
        conn[1] = conn[1]._replace(tunnel_parents=value)
        table = ConnTable.of(conn)
        assert parse_zeek(serialize_zeek(table, "conn"), "conn").records == table


def test_crlf_log_parses_as_its_lf_form():
    text = f"{HEADER}\n{GOOD_LINE}\n\n{GOOD_LINE}\n"
    crlf = parse_zeek(text.replace("\n", "\r\n"), "conn")
    assert not crlf.issues
    assert crlf.records == parse_zeek(text, "conn").records
    assert len(crlf.records) == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 40))
def test_generator_parser_duality(seed, n):
    spec = SynthSpec(
        counts={"conn": n},
        label_mix={AttackLabel.Benign: 0.5, AttackLabel.Okiru: 0.25, AttackLabel.DDoS: 0.25},
        seed=seed,
    )
    records = synthesize_logs(spec)["conn"]
    text = serialize_zeek(records, "conn")
    back = parse_zeek(text, "conn")
    assert not back.issues
    assert back.records == records


# ---------------------------------------------------------------------------
# Column-at-a-time TSV conversion against a line-by-line reference

_REFERENCE_REQUIRED = (
    "ts", "uid", "orig_h", "orig_p", "resp_h", "resp_p", "proto", "conn_state",
    "missed_bytes", "history", "orig_pkts", "orig_ip_bytes", "resp_pkts", "resp_ip_bytes",
)


def _reference_record(kind, plan, values, unset, empty):
    """One line, one value at a time through zeek._convert; a conn line then
    reads its label and checks its required fields, and gives its values
    and label."""
    converted, raw_label, raw_detail = {}, None, None
    for spec, value in zip(plan, values):
        if spec is None:
            continue
        if spec.name == "label":
            raw_label = value
        elif spec.name == "detailed_label":
            raw_detail = value
        else:
            converted[spec.name] = zeek._convert(value, spec, unset, empty)
    if kind != "conn":
        return tuple(converted.get(s.name) for s in KIND_FIELDS[kind])
    label = AttackLabel.Benign
    if raw_label is not None:
        label = parse_iot23_label(raw_label, raw_detail if raw_detail is not None else "-")
    for name in _REFERENCE_REQUIRED:
        if converted.get(name) is None:
            raise ValueError(f"required field {name} is unset")
    return ConnRow(*(converted.get(spec.name) for spec in KIND_FIELDS["conn"]), label)


# the label columns the reference appends to a line's plan; the reference
# reads them by name only
_REFERENCE_LABELS = [SimpleNamespace(name="label"), SimpleNamespace(name="detailed_label")]


def _reference_arity(values, plan, kind):
    """The IoT-23 label layouts, restated here rather than taken from the
    parser: (values, plan), or None for a line with the wrong number of
    values.  A conn line may carry its two labels glued into its last value
    with runs of spaces ("-   Malicious   Okiru") when the plan holds the
    plain conn columns, or as two extra values when the plan names no label
    column."""
    names = {spec.name for spec in plan if spec is not None}
    if kind == "conn" and len(values) == len(plan) == len(KIND_FIELDS["conn"]):
        glued = values[-1].strip()
        if "  " in glued and len(glued.split()) == 3:
            return values[:-1] + glued.split(), plan + _REFERENCE_LABELS
    if kind == "conn" and len(values) == len(plan) + 2 and not names & {"label", "detailed_label"}:
        return values, plan + _REFERENCE_LABELS
    return (values, plan) if len(values) == len(plan) else None


def _rows(records):
    """A parse's records as a list: a conn table's rows as ConnRows."""
    return conn_records(records) if isinstance(records, ConnTable) else records


def _reference_parse(text, kind):
    """Line-by-line parse of a log: (records, [(line_no, message)])."""
    separator, unset, empty, plan = "\t", "-", "(empty)", None
    records, issues = [], []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        if not raw.strip():
            continue
        if raw.startswith("#"):
            parts = raw[1:].split(separator)
            if parts[0].startswith("separator "):
                separator = parts[0].split(" ", 1)[1].encode().decode("unicode_escape")
            elif parts[0] == "fields":
                plan = zeek._field_plan(kind, parts[1:])
            elif parts[0] == "unset_field":
                unset = parts[1]
            elif parts[0] == "empty_field":
                empty = parts[1]
            continue
        values = raw.split(separator)
        reconciled = _reference_arity(values, plan, kind)
        if reconciled is None:
            issues.append((line_no, f"expected {len(plan)} fields, got {len(values)}"))
            continue
        values, line_plan = reconciled
        try:
            records.append(_reference_record(kind, line_plan, values, unset, empty))
        except (ValueError, UnknownLabel) as exc:
            issues.append((line_no, str(exc)))
    return records, issues


_GOOD = {
    "time": ["1616161616.123456", "0.5", "-1.5", "1616161616"],
    "count": ["0", "450", "7", "007"],
    "port": ["0", "80", "65535"],
    "float": ["1.5", "-0.25", "nan", "inf", "1e3"],
    "duration": ["0.0", "1.500000", "inf"],
    "bool": ["T", "F", "true", "False"],
    "str": ["abc", "x y", "CAbc1", "-x", "(empty)x"],
}
_BAD = {
    # int() and float() would read "_" between digits, a Unicode digit and
    # surrounding whitespace, which Zeek never writes in these types
    "time": ["abc", "1.x", "99999999999999.5", "1_614_796_756.742000", "١614796756.742000",
             " 1614796756.742000"],
    "count": ["-3", "1.9", "x", "4_50", "٤٥٠", "450\x0b"],
    "port": ["70000", "-1", "8O", "8_0", "٨٠", " 80"],
    "float": ["x", "1,5", "1_0.5", "١.٥", "1.5\x0c"],
    "duration": ["-0.5", "1,5", "nan", "1_0.5", "١.٥", "1.5 "],
    "bool": ["yes", "1"],
}
_LABEL_PAIRS = [
    ("Benign", "-"), ("Malicious", "Okiru"), ("Malicious", "C&C"), ("malicious", " okiru "),
    ("Malicious", "Zerg"), ("Bogus", "-"), ("-", "-"), ("DDoS", "-"),
]
_MARKERS = [("-", "(empty)"), ("NA", "EMPTY"), ("5", "T")]


# one-character separators other than tab, and multi-character ones, which
# can match across a line boundary
_SEPARATORS = ["\t", "\t", "\t", "|", " ", "||", "\t;"]


def _separator_directive(separator):
    return "#separator " + "".join(f"\\x{ord(c):02x}" for c in separator)


@st.composite
def _tsv_logs(draw):
    """A log of one kind: one to three #fields headers (columns dropped,
    repeated or unknown; markers changed), each followed by lines that are
    clean, hold markers or hold bad values, with labels declared, appended
    or glued, wrong field counts, blank and whitespace-only lines, and
    directives between data lines; and runs of clean lines of one width,
    which cross block edges and may hold one NaN duration or unknown label.
    The separator is a tab, another character, or several characters."""
    kind = draw(st.sampled_from(["conn", "dns", "http", "files", "ntp", "weird"]))
    rnd = draw(st.randoms(use_true_random=False))  # per-value choices, cheap to draw
    sep = draw(st.sampled_from(_SEPARATORS))
    specs = KIND_FIELDS[kind]
    lines = [_separator_directive(sep), sep.join(["#set_separator", ","]), sep.join(["#path", kind])]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)) == 0:
            unset, empty = draw(st.sampled_from(_MARKERS))
            lines += [sep.join(["#unset_field", unset]), sep.join(["#empty_field", empty])]
        else:
            unset, empty = "-", "(empty)"
        fields = list(specs)
        if draw(st.integers(0, 3)) == 0:
            fields = draw(st.permutations(fields))[: draw(st.integers(1, len(fields)))]
            fields += draw(st.lists(st.sampled_from(specs), max_size=3))
        names = [spec.zeek_name for spec in fields]
        if draw(st.integers(0, 4)) == 0:
            names.append("unknown_column")
            fields.append(None)
        declared_labels = kind == "conn" and draw(st.booleans())
        if declared_labels:
            names += ["label", "detailed-label"]
        lines.append(sep.join(["#fields"] + names))

        def line(mode, shape, label_pair, nan_duration=False):
            values = [rnd.choice(_GOOD[spec.vtype]) if spec else "x" for spec in fields]
            if nan_duration:
                values = ["nan" if spec and spec.name == "duration" else v
                          for v, spec in zip(values, fields)]
            for j, spec in enumerate(fields):
                if mode == "markers" and rnd.randint(0, 5) == 0:
                    values[j] = rnd.choice([unset, empty])
                if mode == "bad" and spec and spec.vtype in _BAD and rnd.randint(0, 4) == 0:
                    values[j] = rnd.choice(_BAD[spec.vtype])
            label, detail = label_pair
            if declared_labels:
                values += [label, detail]
            elif kind == "conn" and shape == "appended":
                values += [label, detail]
            elif kind == "conn" and shape == "glued" and fields == list(specs):
                values[-1] = f"{values[-1]}   {label}   {detail}"
            if shape == "short":
                values = values[:-1]
            elif shape == "long":
                values.append("extra")
            return sep.join(values)

        for _ in range(rnd.randint(0, 10)):
            mode = rnd.choice(["clean", "clean", "clean", "markers", "bad", "blank", "directive", "run"])
            if mode == "blank":
                lines.append(rnd.choice(["", "   ", sep * (len(names) - 1)]))
            elif mode == "directive":
                lines.append(rnd.choice(["#types", "#open", sep.join(["#unset_field", unset])]))
            elif mode == "run":
                shape = rnd.choice(["plain", "appended"])
                label_pair = rnd.choice(_LABEL_PAIRS[:4])
                run = [line("clean", shape, label_pair) for _ in range(rnd.randint(2, 12))]
                if kind == "conn" and rnd.randint(0, 2) == 0:
                    # one NaN duration, or one unknown label, in a clean run
                    bad = (line("clean", shape, label_pair, nan_duration=True) if rnd.randint(0, 1)
                           else line("clean", shape, ("Malicious", "Zerg")))
                    run[rnd.randrange(len(run))] = bad
                lines += run
            else:
                shape = rnd.choice(["plain"] * 3 + ["appended"] * 2 + ["glued"] * 2 + ["short", "long"])
                lines.append(line(mode, shape, rnd.choice(_LABEL_PAIRS)))
    return kind, "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_tsv_logs(), st.sampled_from([1, 2, 3, 256]))
def test_column_conversion_matches_line_by_line_reference(log, block):
    kind, text = log
    want_records, want_issues = _reference_parse(text, kind)
    with mock.patch.object(zeek, "_BLOCK_LINES", block):
        got = parse_zeek(text, kind)
    # repr compares types too (1 vs 1.0 vs True) and treats NaN as equal to NaN
    assert list(map(repr, _rows(got.records))) == list(map(repr, want_records))
    assert [(i.line_no, i.message) for i in got.issues] == want_issues


@pytest.mark.parametrize("kind", ZEEK_KINDS)
def test_every_bad_value_is_a_malformed_line(synth_data, kind):
    # each value of _BAD in each field of its type, one to a line among good
    # lines, so that the column pass meets it before the per-value converter
    lines = serialize_zeek(synth_data[kind], kind).split("\n")
    bad_lines = []
    for j, spec in enumerate(KIND_FIELDS[kind]):
        for bad in _BAD.get(spec.vtype, ()):
            i = 8 + len(bad_lines)
            parts = lines[i].split("\t")
            parts[j] = bad
            lines[i] = "\t".join(parts)
            bad_lines.append(i + 1)
    assert lines[i + 1] and not lines[i + 1].startswith("#")
    result = parse_zeek("\n".join(lines), kind)
    assert [issue.line_no for issue in result.issues] == bad_lines
    assert len(result.records) == len(synth_data[kind]) - len(bad_lines)


@pytest.mark.parametrize("field, value, message", [
    ("id.orig_p", "8_0", "orig_p: bad port '8_0'"),
    ("id.orig_p", "٨٠", "orig_p: bad port '٨٠'"),
    ("id.orig_p", " 80", "orig_p: bad port ' 80'"),
    ("ts", "1_614_796_756.742000", "ts: bad time '1_614_796_756.742000'"),
    ("ts", "١614796756.742000", "ts: bad time '١614796756.742000'"),
])
def test_a_number_or_time_zeek_never_writes_is_a_malformed_line_naming_its_field(field, value, message):
    names = ["ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p", "name"]
    good = ["1614796756.742000", "CW1", "10.0.0.1", "80", "10.0.0.2", "443", "bad_TCP_checksum"]
    bad = [value if name == field else text for name, text in zip(names, good)]
    text = "#fields\t" + "\t".join(names) + "\n" + "\t".join(good) + "\n" + "\t".join(bad) + "\n"
    result = parse_zeek(text, "weird")
    assert len(result.records) == 1
    assert [(issue.line_no, issue.message) for issue in result.issues] == [(3, message)]
    if field == "ts":
        with pytest.raises(ValueError, match="^bad time "):
            epoch_to_datetime(value)
        json_line = json.dumps({"ts": value, "uid": "CW1", "name": "bad_TCP_checksum"})
        assert [issue.message for issue in parse_zeek(json_line + "\n", "weird").issues] == [
            f"bad time {value!r}"]


def test_column_conversion_mixed_label_shapes_across_blocks():
    parts = GOOD_LINE.split("\t")
    glued = "\t".join(parts[:-1] + ["-   Malicious   Okiru"])
    bad_port = "\t".join(parts[:3] + ["70000"] + parts[4:])
    body = []
    for i in range(700):
        body.append([GOOD_LINE, GOOD_LINE + "\tMalicious\tDDoS", glued, bad_port, ""][i % 5])
    text = HEADER + "\n" + "\n".join(body) + "\n"
    want_records, want_issues = _reference_parse(text, "conn")
    got = parse_zeek(text, "conn")
    assert len(got.records) == 420 and len(got.issues) == 140
    assert list(map(repr, _rows(got.records))) == list(map(repr, want_records))
    assert [(i.line_no, i.message) for i in got.issues] == want_issues
    assert got.records.columns["label"][:3] == [AttackLabel.Benign, AttackLabel.DDoS, AttackLabel.Okiru]


def test_bad_line_reports_its_first_failing_column():
    parts = GOOD_LINE.split("\t")
    parts[3] = "70000"      # orig_p out of range
    parts[9] = "1.9"        # orig_bytes not a count
    line = "\t".join(parts) + "\tMalicious\tZerg"
    result = parse_zeek(HEADER + "\n" + GOOD_LINE + "\n" + line + "\n", "conn")
    assert [(i.line_no, i.message) for i in result.issues] == [(10, "orig_p out of range: 70000")]
    assert len(result.records) == 1


def test_multi_character_separator_is_not_matched_across_lines():
    # joined by "||", "b|" and "|c" would read as "b", "", "|c"
    text = "#separator \\x7c\\x7c\n#fields||uid||name\na||b|\n|c||d\n"
    result = parse_zeek(text, "weird")
    assert result.issues == []
    names = [spec.name for spec in KIND_FIELDS["weird"]]
    rows = [dict(zip(names, record)) for record in result.records]
    assert [(row["uid"], row["name"]) for row in rows] == [("a", "b|"), ("|c", "d")]


@pytest.mark.parametrize("directive,message", [
    ("#separator", "line 1: #separator has no value"),
    ("#separator \\x", "line 1: bad #separator value '\\\\x'"),
    ("#separator ", "line 1: #separator has no value"),
    ("#unset_field", "line 1: #unset_field has no value"),
    ("#empty_field", "line 1: #empty_field has no value"),
])
def test_bad_directive_is_an_ingest_error_naming_the_line(directive, message):
    with pytest.raises(BadDirective) as info:
        parse_zeek(directive + "\n" + HEADER + "\n" + GOOD_LINE + "\n", "conn")
    assert str(info.value) == message


def test_ingest_exits_1_on_a_bad_directive(tmp_path, capsys):
    from iotsqlbench.cli import main

    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "conn.log").write_text(HEADER + "\n#separator \\x\n" + GOOD_LINE + "\n", encoding="utf-8")
    assert main(["--out", str(tmp_path / "out"), "ingest", "--logs", str(logs)]) == 1
    assert f"{logs / 'conn.log'}:9: bad #separator value" in capsys.readouterr().err


def test_missing_fields_header_names_the_first_data_line():
    with pytest.raises(MissingFieldsHeader) as info:
        parse_zeek("#separator \\x09\n\n" + GOOD_LINE + "\n", "conn")
    assert (info.value.line_no, str(info.value)) == (3, "line 3: data line before #fields directive")
    with pytest.raises(MissingFieldsHeader) as info:
        parse_zeek("#separator \\x09\n", "conn")
    assert (info.value.line_no, str(info.value)) == (None, "no #fields directive found")


@pytest.mark.parametrize("text, where", [
    ("a\tb\n", "conn.log:1: data line before #fields directive"),
    ("#separator \\x09\n", "conn.log: no #fields directive found"),
])
def test_ingest_names_the_log_without_a_fields_header(tmp_path, capsys, text, where):
    from iotsqlbench.cli import main

    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "conn.log").write_text(text, encoding="utf-8")
    assert main(["--out", str(tmp_path / "out"), "ingest", "--logs", str(logs)]) == 1
    assert f"error: {logs / where}" in capsys.readouterr().err


def test_duplicate_field_checked_at_each_position():
    header = HEADER.replace("\ttunnel_parents", "\ttunnel_parents\tid.orig_p")
    good = GOOD_LINE + "\t443"
    bad = GOOD_LINE + "\t-5"
    result = parse_zeek(header + "\n" + good + "\n" + bad + "\n", "conn")
    assert result.records.columns["orig_p"] == [443]
    assert [(i.line_no, i.message) for i in result.issues] == [(10, "orig_p out of range: -5")]


def test_serialize_and_rows_render_unset_and_empty_values():
    parts = GOOD_LINE.split("\t")
    parts[7], parts[8], parts[12], parts[20] = "(empty)", "-", "-", "(empty)"
    text = HEADER + "\n" + "\t".join(parts) + "\n" + GOOD_LINE + "\n"
    records = parse_zeek(text, "conn").records
    out = serialize_zeek(records, "conn")
    assert out.splitlines()[8:10] == ["\t".join(parts) + "\tBenign\t-", GOOD_LINE + "\tBenign\t-"]
    rows = zeek.rows_for_table(records, "conn")
    assert rows[0][7] == "" and rows[0][8] is None and rows[0][12] is None
    assert rows[1] == tuple(getattr(conn_records(records)[1], spec.name) for spec in KIND_FIELDS["conn"])


# ---------------------------------------------------------------------------
# Epoch times on both sides of 1970

_EPOCH_PAIRS = [
    ("0.000000", datetime(1970, 1, 1)),
    ("1.500000", datetime(1970, 1, 1, 0, 0, 1, 500000)),
    ("-0.500000", datetime(1969, 12, 31, 23, 59, 59, 500000)),
    ("-1.500000", datetime(1969, 12, 31, 23, 59, 58, 500000)),
    ("-86400.000001", datetime(1969, 12, 30, 23, 59, 59, 999999)),
    ("1616161616.123456", datetime(2021, 3, 19, 13, 46, 56, 123456)),
    ("-62135596800.000000", datetime(1, 1, 1)),
]


@pytest.mark.parametrize("text,dt", _EPOCH_PAIRS)
def test_epoch_known_pairs(text, dt):
    assert epoch_to_datetime(text) == dt
    assert datetime_to_epoch(dt) == text


def test_epoch_short_fraction_and_sign():
    assert epoch_to_datetime("-1.5") == datetime(1969, 12, 31, 23, 59, 58, 500000)
    assert epoch_to_datetime("-0.25") == datetime(1969, 12, 31, 23, 59, 59, 750000)
    assert epoch_to_datetime("-2") == datetime(1969, 12, 31, 23, 59, 58)
    assert epoch_to_datetime("2.1234567") == datetime(1970, 1, 1, 0, 0, 2, 123456)


@settings(max_examples=300, deadline=None)
@given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59, 999999)))
def test_epoch_round_trip_from_datetime(dt):
    assert epoch_to_datetime(datetime_to_epoch(dt)) == dt


@settings(max_examples=300, deadline=None)
@given(st.integers(-62135596800, 253402300799), st.integers(0, 999_999))
@example(-62135596800, 0)
@example(-62135596800, 1)  # 1 µs before year 1
def test_epoch_round_trip_from_text(secs, usec):
    text = f"{'-' if secs < 0 else ''}{abs(secs)}.{usec:06d}"
    # compared in integers: at 6.2e10 s a float drops the microseconds
    if secs < 0 and -secs * 10**6 + usec > 62135596800 * 10**6:
        return  # before year 1
    assert datetime_to_epoch(epoch_to_datetime(text)) == text


# ts texts for the column pass: plain digits.dddddd values, and values it
# must leave to epoch_to_datetime (signs, short, long or missing fractions,
# "_", spaces, non-ASCII digits) or reject (beyond year 9999, no digits)
_PLAIN_TIME = st.builds(
    "{}.{:06d}".format,
    st.one_of(st.integers(0, 2_000_000_000), st.integers(253_402_300_700, 10**13),
              st.integers(10**20, 10**30)).map(str)
    | st.integers(0, 10**6).map("{:012d}".format),
    st.integers(0, 999_999),
)
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_ODD_TIME = st.one_of(
    _PLAIN_TIME.map("-{}".format), _PLAIN_TIME.map("+{}".format),
    _PLAIN_TIME.map(" {}".format), _PLAIN_TIME.map("{} ".format),
    _PLAIN_TIME.map(lambda t: t[:-3]),                  # short fraction
    _PLAIN_TIME.map("{}123".format),                    # long fraction
    _PLAIN_TIME.map(lambda t: t.split(".")[0]),         # no fraction
    _PLAIN_TIME.map(lambda t: t.split(".")[0] + "."),   # empty fraction
    _PLAIN_TIME.map(lambda t: t[:1] + "_" + t[1:]),
    _PLAIN_TIME.map(lambda t: t.translate(_ARABIC_INDIC)),
    _PLAIN_TIME.map(lambda t: t[:-7] + "." + t[-7:]),   # two dots
    st.sampled_from([".123456", "1.123456", "", ".", "-.500000", "1.5e3", "nan"]),
)
_TIME_COLUMNS = st.one_of(
    st.lists(_PLAIN_TIME, min_size=1, max_size=12),
    st.lists(_PLAIN_TIME | _ODD_TIME, min_size=1, max_size=12),
)


def _epoch_value_by_value(column):
    """epoch_to_datetime over each value: the values, or None if one fails."""
    try:
        return list(map(epoch_to_datetime, column))
    except ValueError:
        return None


@settings(max_examples=400, deadline=None)
@given(_TIME_COLUMNS)
@example(["1616161616.123456", "0000000000.000001"])
@example(["253402300799.999999"])  # the last microsecond of year 9999
@example(["253402300800.000000"])  # the first beyond it
@example(["1.123456", ".123456"])
@example(["1.123456", "1.1.3456"])
def test_time_column_pass_matches_epoch_to_datetime(column):
    want = _epoch_value_by_value(column)
    if want is None:
        with pytest.raises(ValueError):
            zeek._epoch_column(column)
    else:
        assert zeek._epoch_column(column) == want


@settings(max_examples=150, deadline=None)
@given(st.lists(_PLAIN_TIME | _ODD_TIME | st.sampled_from(["-", "(empty)"]), min_size=1, max_size=12),
       st.sampled_from([1, 3, 256]))
def test_time_column_pass_in_a_log_matches_line_by_line_reference(times, block):
    parts = GOOD_LINE.split("\t")
    lines = ["\t".join([ts] + parts[1:]) for ts in times]
    text = HEADER + "\n" + "\n".join(lines) + "\n"
    want_records, want_issues = _reference_parse(text, "conn")
    with mock.patch.object(zeek, "_BLOCK_LINES", block):
        got = parse_zeek(text, "conn")
    assert list(map(repr, _rows(got.records))) == list(map(repr, want_records))
    assert [(i.line_no, i.message) for i in got.issues] == want_issues


def test_epoch_out_of_range_is_a_bad_line_not_a_crash():
    with pytest.raises(ValueError, match="out of range"):
        epoch_to_datetime("99999999999999.0")
    with pytest.raises(ValueError, match="out of range"):
        epoch_to_datetime("-62135596800.000001")  # 1 µs before year 1
    parts = GOOD_LINE.split("\t")
    parts[0] = "99999999999999.0"
    result = parse_zeek(HEADER + "\n" + "\t".join(parts) + "\n" + GOOD_LINE + "\n", "conn")
    assert len(result.records) == 1
    assert [(i.line_no, i.message) for i in result.issues] == [
        (9, "time out of range: '99999999999999.0'")
    ]


# ---------------------------------------------------------------------------
# JSON logs: integer fields take JSON integers only

_JSON_CONN = {
    "ts": 1616161616.5, "uid": "CJson1", "id.orig_h": "192.168.1.2", "id.orig_p": 1024,
    "id.resp_h": "10.0.0.1", "id.resp_p": 443, "proto": "tcp", "conn_state": "SF",
    "missed_bytes": 0, "history": "S", "orig_pkts": 1, "orig_ip_bytes": 40,
    "resp_pkts": 1, "resp_ip_bytes": 40,
}


@pytest.mark.parametrize("field,value,message", [
    ("orig_bytes", 1.9, "orig_bytes must be an integer: 1.9"),
    ("orig_pkts", True, "orig_pkts must be an integer: True"),
    ("id.resp_p", 80.7, "resp_p must be an integer: 80.7"),
    ("id.resp_p", 80.0, "resp_p must be an integer: 80.0"),
    ("missed_bytes", "0", "missed_bytes must be an integer: '0'"),
    ("resp_bytes", [1, 2], "resp_bytes must be an integer: [1, 2]"),
])
def test_json_integer_fields_reject_non_integers(field, value, message):
    obj = dict(_JSON_CONN, **{field: value})
    result = parse_zeek(json.dumps(_JSON_CONN) + "\n" + json.dumps(obj) + "\n", "conn")
    assert len(result.records) == 1
    assert [(i.line_no, i.message) for i in result.issues] == [(2, message)]


def test_json_integer_fields_keep_range_checks():
    lines = [
        dict(_JSON_CONN, **{"id.orig_p": 65535, "orig_bytes": 2**40}),
        dict(_JSON_CONN, **{"id.orig_p": 65536}),
        dict(_JSON_CONN, **{"orig_bytes": -1}),
    ]
    result = parse_zeek("".join(json.dumps(o) + "\n" for o in lines), "conn")
    (rec,) = conn_records(result.records)
    assert rec.orig_p == 65535 and rec.orig_bytes == 2**40
    assert [(i.line_no, i.message) for i in result.issues] == [
        (2, "orig_p out of range: 65536"),
        (3, "orig_bytes must be a count in [0, 2**64): -1"),
    ]


# ---------------------------------------------------------------------------
# JSON logs: bool, float and duration fields are not read through text


@pytest.mark.parametrize("field,value,message", [
    ("local_orig", [True], "bad bool [True]"),
    ("duration", [1.5], "duration must be a number: [1.5]"),
    ("duration", True, "duration must be a number: True"),
    ("duration", "2.5", "duration must be a number: '2.5'"),
])
def test_json_fields_take_values_of_their_type_only(field, value, message):
    obj = dict(_JSON_CONN, **{field: value})
    result = parse_zeek(json.dumps(_JSON_CONN) + "\n" + json.dumps(obj) + "\n", "conn")
    assert len(result.records) == 1
    assert [(i.line_no, i.message) for i in result.issues] == [(2, message)]


def test_json_float_fields_take_json_numbers():
    lines = [dict(_JSON_CONN, duration=2), dict(_JSON_CONN, duration=1.5, local_orig=True)]
    first, second = conn_records(parse_zeek("".join(json.dumps(o) + "\n" for o in lines), "conn").records)
    assert first.duration == 2.0 and isinstance(first.duration, float)
    assert second.duration == 1.5 and second.local_orig is True
    ntp = parse_zeek(json.dumps({"ts": 1.0, "uid": "N1", "poll": [8.0]}) + "\n", "ntp")
    assert [i.message for i in ntp.issues] == ["poll must be a number: [8.0]"]


def test_json_list_is_joined_in_a_string_field():
    obj = dict(_JSON_CONN, tunnel_parents=["CA", "CB"])
    (rec,) = conn_records(parse_zeek(json.dumps(obj) + "\n", "conn").records)
    assert rec.tunnel_parents == "CA,CB"


def test_ingest_reports_a_json_list_in_a_bool_field(tmp_path):
    from iotsqlbench.cli import main

    logs = tmp_path / "logs"
    logs.mkdir()
    lines = [_JSON_CONN, dict(_JSON_CONN, uid="CJson2", local_orig=[True])]
    (logs / "conn.log").write_text("".join(json.dumps(o) + "\n" for o in lines), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--out", str(out), "ingest", "--logs", str(logs)]) == 0
    issues = (out / "db/ingest_issues.txt").read_text(encoding="utf-8")
    assert issues == "conn.log:2\tbad bool [True]\n"
