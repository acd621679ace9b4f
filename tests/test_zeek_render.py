"""serialize_zeek renders every kind a column at a time; each rendered line
must equal the one a per-value ``_render`` gives.  What it writes, the
reader reads back, and a value the reader refuses the writer refuses."""

import math
from datetime import datetime
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotsqlbench.ingest import (
    KIND_FIELDS,
    ZEEK_KINDS,
    AttackLabel,
    ConnTable,
    datetime_to_epoch,
    parse_zeek,
    serialize_zeek,
)
from iotsqlbench.ingest import zeek
from iotsqlbench.ingest.records import FieldSpec
from iotsqlbench.ingest.zeek import UnreadableValue
from tests.conftest import ConnRow


def _render(value, spec: FieldSpec) -> str:
    """One value's TSV text, the reference each column render must match."""
    if value is None:
        return "-"
    if value == "" and spec.vtype == "str":
        return "(empty)"
    if spec.vtype == "time":
        return datetime_to_epoch(value)
    if spec.vtype == "bool":
        return "T" if value else "F"
    if spec.vtype in ("float", "duration"):
        return f"{value:.6f}"
    return str(value)


_TIMES = st.datetimes(min_value=datetime(1, 1, 1),
                      max_value=datetime(9999, 12, 31, 23, 59, 59, 999999))
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# non-string values of each type the reader reads: ports in range, counts
# in 0..2**64-1, floats finite, durations finite and nonnegative
_VALUES = {
    "time": _TIMES,
    "count": st.integers(0, 2**64 - 1),
    "port": st.integers(0, 65535),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "duration": st.floats(min_value=0.0, allow_infinity=False),
    "bool": st.booleans(),
}
# the values above that the reader reads back equal to what was written: a
# float of whole microseconds, since the writer renders six decimals
_MICROS = st.integers(-2**53, 2**53).map(lambda n: n / 10**6)
_READ_BACK = _VALUES | {"float": _MICROS, "duration": _MICROS.map(abs)}
# in-type values the reader refuses, and the issue it gives
_REFUSED = {
    "count": (st.integers(-2**64, -1) | st.integers(2**64, 2**65), "must be a count in [0, 2**64)"),
    "port": (st.integers(-2**64, -1) | st.integers(65536, 2**64), "out of range"),
    "float": (st.sampled_from([math.inf, -math.inf, math.nan]), "must be a finite number"),
    "duration": (st.floats(max_value=-math.ulp(0.0)) | st.sampled_from([math.inf, math.nan]),
                 "must be finite and nonnegative"),
}
# the conn fields a conn line must set, in the order the reader checks them
_CONN_REQUIRED = ("ts", "uid", "orig_h", "orig_p", "resp_h", "resp_p", "proto", "conn_state",
                  "missed_bytes", "history", "orig_pkts", "orig_ip_bytes", "resp_pkts",
                  "resp_ip_bytes")

# string values serialize_zeek accepts in any position (README states its
# contract): no tab, "\n" or "\r", and no unset or empty marker
_READABLE_TEXT = st.text(alphabet=st.characters(exclude_characters="\t\n\r"), max_size=6).filter(
    lambda value: value not in ("-", "(empty)"))


@st.composite
def _records(draw, values=_VALUES, required=()):
    """(kind, records): records of one kind whose columns hold None
    (and, in a string column, "") only when ``holes`` is drawn, so that both
    the mapped and the value-by-value column paths are taken; a conn field
    named in ``required`` is never None."""
    kind = draw(st.sampled_from(ZEEK_KINDS))
    holes = draw(st.booleans())
    columns = []
    for spec in KIND_FIELDS[kind]:
        if spec.vtype == "str":
            column = _READABLE_TEXT if holes else _READABLE_TEXT.filter(bool)
        else:
            column = values[spec.vtype]
        unset = holes and not (kind == "conn" and spec.name in required)
        columns.append(st.none() | column if unset else column)
    rows = draw(st.lists(st.tuples(*columns), max_size=9))
    if kind != "conn":
        return kind, rows
    labels = draw(st.lists(st.sampled_from(list(AttackLabel)), min_size=len(rows), max_size=len(rows)))
    return kind, [ConnRow(*row, label) for row, label in zip(rows, labels)]


def _reference_serialize(records, kind):
    """One value at a time through ``_render``, header and labels
    spelled out: a conn log with records has its two label columns."""
    specs = KIND_FIELDS[kind]
    with_labels = kind == "conn" and bool(records)
    names = [spec.zeek_name for spec in specs] + (["label", "detailed-label"] if with_labels else [])
    types = [spec.zeek_type for spec in specs] + (["string", "string"] if with_labels else [])
    lines = ["#separator \\x09", "#set_separator\t,", "#empty_field\t(empty)", "#unset_field\t-",
             f"#path\t{kind}", "#open\t2000-01-01-00-00-00",
             "\t".join(["#fields", *names]), "\t".join(["#types", *types])]
    for record in records:
        row = tuple(getattr(record, spec.name) for spec in specs) if kind == "conn" else record
        values = [_render(value, spec) for value, spec in zip(row, specs)]
        if with_labels:
            values += (["Benign", "-"] if record.label is AttackLabel.Benign
                       else ["Malicious", record.label.value])
        lines.append("\t".join(values))
    return "\n".join(lines + ["#close\t2000-01-01-00-00-00"]) + "\n"


@settings(max_examples=300, deadline=None)
@given(_records(required=_CONN_REQUIRED), st.sampled_from([1, 2, 3, 256]))
def test_serialize_every_kind_matches_per_value_render(data, block):
    kind, records = data
    with mock.patch.object(zeek, "_BLOCK_LINES", block):
        got = serialize_zeek(ConnTable.of(records) if kind == "conn" else records, kind)
    assert got == _reference_serialize(records, kind)


def test_serialize_renders_markers_bools_nan_and_pre_epoch_times():
    names = [spec.name for spec in KIND_FIELDS["files"]]
    first, second = [None] * len(names), [None] * len(names)
    first[names.index("ts")] = datetime(1969, 12, 31, 23, 59, 58, 500000)
    first[names.index("filename")], second[names.index("filename")] = "", "a.bin"
    first[names.index("is_orig")], second[names.index("is_orig")] = True, False
    records = [tuple(first), tuple(second)]
    lines = serialize_zeek(records, "files").splitlines()[8:10]
    got = [dict(zip(names, line.split("\t"))) for line in lines]
    assert [row["ts"] for row in got] == ["-1.500000", "-"]
    assert [row["filename"] for row in got] == ["(empty)", "a.bin"]
    assert [row["is_orig"] for row in got] == ["T", "F"]
    # a float column renders NaN and -inf, which the writer then refuses
    poll = [spec.name for spec in KIND_FIELDS["ntp"]].index("poll")
    assert zeek._render_column([math.nan, -math.inf], KIND_FIELDS["ntp"][poll]) == ["nan", "-inf"]
    rows = [tuple(value if j == poll else None for j in range(len(KIND_FIELDS["ntp"])))
            for value in (0.5, -math.inf)]
    with pytest.raises(UnreadableValue) as refused:
        serialize_zeek(rows, "ntp")
    assert str(refused.value) == "record 2: poll must be a finite number: -inf"


@settings(max_examples=100, deadline=None)
@given(_records(_READ_BACK), st.sampled_from([1, 2, 256]), st.data())
def test_the_writer_refuses_what_the_reader_refuses(data, block, draws):
    kind, records = data
    specs = KIND_FIELDS[kind]
    # a conn row with a required field unset: the reader refuses the first
    # such row, naming its first unset field, and so must the writer
    unset = [(row, name) for row, record in enumerate(records) if kind == "conn"
             for name in _CONN_REQUIRED if getattr(record, name) is None][:1]
    with mock.patch.object(zeek, "_BLOCK_LINES", block):
        table = ConnTable.of(records) if kind == "conn" else records
        if unset:
            with pytest.raises(UnreadableValue) as refused:
                serialize_zeek(table, kind)
            (row, name), = unset
            assert str(refused.value) == f"record {row + 1}: required field {name} is unset"
            return
        back = parse_zeek(serialize_zeek(table, kind), kind)
        assert not back.issues
        assert back.records == table
        if not records:
            return
        # one in-type value the reader refuses, which the writer names
        row = draws.draw(st.integers(0, len(records) - 1))
        vtype = draws.draw(st.sampled_from(sorted({spec.vtype for spec in specs} & set(_REFUSED))))
        j = draws.draw(st.sampled_from([j for j, spec in enumerate(specs) if spec.vtype == vtype]))
        values, issue = _REFUSED[vtype]
        bad = draws.draw(values)
        changed = [*records[row][:j], bad, *records[row][j + 1:]]
        records[row] = ConnRow(*changed) if kind == "conn" else tuple(changed)
        with pytest.raises(UnreadableValue) as refused:
            serialize_zeek(ConnTable.of(records) if kind == "conn" else records, kind)
    assert str(refused.value) == f"record {row + 1}: {specs[j].name} {issue}: {bad}"


def test_serialize_rejects_a_record_of_another_width_in_a_block():
    full = (datetime(2021, 1, 1), "C1", "10.0.0.1", 1, "10.0.0.2", 2, "bad", None, False, "zeek", "IP")
    records = [full, full[:5]]
    with pytest.raises(ValueError):
        serialize_zeek(records, "weird")


_COLUMN_VALUES = {
    "str": st.none() | st.sampled_from(["", "-", "(empty)", "None"]) | st.text(max_size=4),
    # times on both sides of 1970, to the microsecond
    "time": st.none() | _TIMES,
    "count": st.none() | st.integers(-2**64, 2**64),
    "float": st.none() | _FLOATS,
    "bool": st.none() | st.booleans(),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_COLUMN_VALUES)).flatmap(
    lambda vtype: st.tuples(st.just(vtype), st.lists(_COLUMN_VALUES[vtype], max_size=12))))
def test_render_column_matches_per_value_render(data):
    vtype, column = data
    spec = next(spec for kind in ZEEK_KINDS for spec in KIND_FIELDS[kind] if spec.vtype == vtype)
    want = [_render(value, spec) for value in column]
    assert zeek._render_column(column, spec) == want
    assert zeek._render_column(tuple(column), spec) == want


def test_render_column_markers_and_pre_epoch_times():
    specs = {spec.vtype: spec for spec in KIND_FIELDS["files"]}
    assert zeek._render_column([None, "", "x", "-"], specs["str"]) == ["-", "(empty)", "x", "-"]
    times = [datetime(1969, 12, 31, 23, 59, 59, 500000), None, datetime(1970, 1, 1),
             datetime(1, 1, 1), datetime(2021, 3, 19, 13, 46, 56, 123456)]
    assert zeek._render_column(times, specs["time"]) == [
        "-0.500000", "-", "0.000000", "-62135596800.000000", "1616161616.123456"]
    assert zeek._render_column([None, 0.5, None], specs["duration"]) == ["-", "0.500000", "-"]
    assert zeek._render_column([None, None], specs["bool"]) == ["-", "-"]
