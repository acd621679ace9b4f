"""serialize_zeek renders every kind a column at a time; each rendered line
must equal the one a per-value ``_render`` gives."""

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
    serialize_zeek,
)
from iotsqlbench.ingest import zeek
from tests.conftest import ConnRow

_TIMES = st.datetimes(min_value=datetime(1, 1, 1),
                      max_value=datetime(9999, 12, 31, 23, 59, 59, 999999))
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# non-string values the writer renders in a row of any kind; a conn row keeps
# the reader's ranges (ports in range, counts and duration nonnegative, no
# NaN duration)
_VALUES = {
    "time": _TIMES,
    "count": st.integers(-2**64, 2**64),
    "port": st.integers(-1, 70000),
    "float": _FLOATS,
    "duration": _FLOATS,
    "bool": st.booleans(),
}
_CONN_VALUES = _VALUES | {
    "count": st.integers(0, 2**64),
    "port": st.integers(0, 65535),
    "duration": st.floats(min_value=0.0),
}

# string values serialize_zeek accepts in any position (README states its
# contract): no tab, "\n" or "\r", and no unset or empty marker
_READABLE_TEXT = st.text(alphabet=st.characters(exclude_characters="\t\n\r"), max_size=6).filter(
    lambda value: value not in ("-", "(empty)"))


@st.composite
def _records(draw):
    """(kind, records): records of one kind whose columns hold None
    (and, in a string column, "") only when ``holes`` is drawn, so that both
    the mapped and the value-by-value column paths are taken."""
    kind = draw(st.sampled_from(ZEEK_KINDS))
    holes = draw(st.booleans())
    values = _CONN_VALUES if kind == "conn" else _VALUES
    columns = []
    for spec in KIND_FIELDS[kind]:
        if spec.vtype == "str":
            column = _READABLE_TEXT if holes else _READABLE_TEXT.filter(bool)
        else:
            column = values[spec.vtype]
        columns.append(st.none() | column if holes else column)
    rows = draw(st.lists(st.tuples(*columns), max_size=9))
    if kind != "conn":
        return kind, rows
    labels = draw(st.lists(st.sampled_from(list(AttackLabel)), min_size=len(rows), max_size=len(rows)))
    return kind, [ConnRow(*row, label) for row, label in zip(rows, labels)]


def _reference_serialize(records, kind):
    """One value at a time through ``zeek._render``, header and labels
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
        values = [zeek._render(value, spec) for value, spec in zip(row, specs)]
        if with_labels:
            values += (["Benign", "-"] if record.label is AttackLabel.Benign
                       else ["Malicious", record.label.value])
        lines.append("\t".join(values))
    return "\n".join(lines + ["#close\t2000-01-01-00-00-00"]) + "\n"


@settings(max_examples=300, deadline=None)
@given(_records(), st.sampled_from([1, 2, 3, 256]))
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
    first[names.index("duration")], second[names.index("duration")] = float("nan"), float("-inf")
    first[names.index("is_orig")], second[names.index("is_orig")] = True, False
    records = [tuple(first), tuple(second)]
    lines = serialize_zeek(records, "files").splitlines()[8:10]
    got = [dict(zip(names, line.split("\t"))) for line in lines]
    assert [row["ts"] for row in got] == ["-1.500000", "-"]
    assert [row["filename"] for row in got] == ["(empty)", "a.bin"]
    assert [row["duration"] for row in got] == ["nan", "-inf"]
    assert [row["is_orig"] for row in got] == ["T", "F"]


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
    want = [zeek._render(value, spec) for value in column]
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
