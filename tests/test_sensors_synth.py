from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotsqlbench.ingest import (
    AttackLabel,
    BadTimestamp,
    BadValue,
    IngestError,
    InvalidSpec,
    SynthSpec,
    apportion,
    ingest_sensors,
    parse_devices,
    serialize_devices,
    sensor_row,
    serialize_sensors,
    synthesize_logs,
)
from iotsqlbench.ingest.synth import DEVICE_COLUMNS
from tests.conftest import conn_records

DEVICE_NAMES = [name for name, _ in DEVICE_COLUMNS]

CO2_FIXTURE = "\n".join(
    ["room,ts,value"]
    + [f"R1{i:02d},2021-03-01T0{i}:00:00,{400 + 10 * i}" for i in range(10)]
)


def test_empty_stream_zero_readings():
    assert ingest_sensors("room,ts,value\n", "co2") == []


def test_co2_fixture_round_trip():
    readings = ingest_sensors(CO2_FIXTURE, "co2")
    assert len(readings) == 10
    assert [room for _, room, _, _, _ in readings] == [f"R1{i:02d}" for i in range(10)]
    assert readings[3] == ("c000003", "R103", 1, datetime(2021, 3, 1, 3), 430)
    again = ingest_sensors(serialize_sensors(readings), "co2")
    assert again == readings


def test_motion_value_must_be_binary():
    with pytest.raises(BadValue, match="^line 2: motion value must be 0 or 1: 2$"):
        ingest_sensors("room,ts,value\nR101,2021-03-01T10:00:00,2\n", "motion")
    ok = ingest_sensors("room,ts,value\nR101,2021-03-01T10:00:00,1\n", "motion")
    assert ok == [("m000000", "R101", 1, datetime(2021, 3, 1, 10), 1)]


def test_bad_timestamp():
    with pytest.raises(BadTimestamp):
        ingest_sensors("room,ts,value\nR101,yesterday,5\n", "co2")


def test_bad_value():
    with pytest.raises(BadValue):
        ingest_sensors("room,ts,value\nR101,2021-03-01T10:00:00,warm\n", "temperature")


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400", "9" * 400],
                         ids=["nan", "inf", "-Infinity", "1e400", "400-digit-int"])
def test_a_non_finite_value_is_refused_by_reader_and_writer(value):
    # a NaN reading would make every gold query over it unequal to itself
    text = f"room,ts,value\nR101,2021-03-01T10:00:00,5\nR102,2021-03-01T10:00:00,{value}\n"
    with pytest.raises(BadValue, match=r"^line 3: value must be finite: "):
        ingest_sensors(text, "temperature")
    number = int(value) if value.isdigit() else float(value)
    with pytest.raises(ValueError, match="^sensor value must be finite"):
        serialize_sensors([sensor_row("temperature", 0, "R101", datetime(2021, 3, 1, 10), number)])


@pytest.mark.parametrize("value", ["2_1.5", "٢١.٥"])
def test_a_value_float_would_misread_is_a_bad_value(value):
    # float() reads "2_1.5" and Arabic-Indic "٢١.٥" as 21.5; the writers never write them
    text = f"room,ts,value\nR101,2021-03-01T10:00:00,5\nR102,2021-03-01T10:00:00, {value} \n"
    with pytest.raises(BadValue) as refused:
        ingest_sensors(text, "temperature")
    assert str(refused.value) == f"line 3: bad value {value!r}"


def test_synth_determinism(synth_spec, synth_data):
    again = synthesize_logs(synth_spec)
    assert again == synth_data


def test_synth_label_mix_within_one():
    spec = SynthSpec(
        counts={"conn": 1000},
        label_mix={
            AttackLabel.Benign: 0.6,
            AttackLabel.Okiru: 0.2,
            AttackLabel.PartOfAHorizontalPortScan: 0.2,
        },
        seed=7,
    )
    records = synthesize_logs(spec)["conn"]
    counts = {}
    for label in records.columns["label"]:
        counts[label] = counts.get(label, 0) + 1
    assert abs(counts[AttackLabel.Benign] - 600) <= 1
    assert abs(counts[AttackLabel.Okiru] - 200) <= 1
    assert abs(counts[AttackLabel.PartOfAHorizontalPortScan] - 200) <= 1


def test_synth_byte_identical_serialization(synth_spec):
    from iotsqlbench.ingest import serialize_zeek

    a = serialize_zeek(synthesize_logs(synth_spec)["conn"], "conn")
    b = serialize_zeek(synthesize_logs(synth_spec)["conn"], "conn")
    assert a == b


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        SynthSpec(counts={"conn": 10}, label_mix={AttackLabel.Benign: 0.9}).validate()
    with pytest.raises(InvalidSpec):
        SynthSpec(counts={"conn": -1}).validate()
    with pytest.raises(InvalidSpec):
        SynthSpec(counts={"pcap": 5}).validate()
    with pytest.raises(InvalidSpec):
        synthesize_logs(SynthSpec(counts={"conn": 10}, label_mix={AttackLabel.Benign: 0.5}))


def test_apportion_largest_remainder():
    fractions = {"a": 0.5, "b": 0.3, "c": 0.2}
    counts = apportion(7, fractions)
    assert sum(counts.values()) == 7
    for key, frac in fractions.items():
        assert abs(counts[key] - 7 * frac) < 1


def test_conn_records_satisfy_invariants(synth_data):
    for rec in conn_records(synth_data["conn"]):
        assert 0 <= rec.orig_p <= 65535 and 0 <= rec.resp_p <= 65535
        for name in ("missed_bytes", "orig_pkts", "orig_ip_bytes", "resp_pkts", "resp_ip_bytes"):
            assert getattr(rec, name) >= 0
        if rec.duration is not None:
            assert rec.duration >= 0
        assert rec.label.is_malicious == (rec.label is not AttackLabel.Benign)


DEVICES_TEXT = serialize_devices(synthesize_logs(SynthSpec(counts={"devices": 3}, seed=3))["devices"])


@pytest.mark.parametrize("line, message", [
    ("D0099,two-values", "devices line 3: expected 16 values, got 2"),
    ("floor=x", "devices line 3: bad value invalid literal for int()"),
    ("install_ts=yesterday", "devices line 3: bad value Invalid isoformat string"),
    ("is_gateway=yes", "devices line 3: bad value 'yes'"),
])
def test_parse_devices_names_a_bad_line(line, message):
    lines = DEVICES_TEXT.split("\n")
    if "=" in line:  # one value of the second device replaced
        column, value = line.split("=")
        values = lines[2].split(",")
        values[DEVICE_NAMES.index(column)] = value
        line = ",".join(values)
    lines[2] = line
    with pytest.raises(IngestError) as exc:
        parse_devices("\n".join(lines))
    assert str(exc.value).startswith(message)


def test_parse_devices_needs_every_column_in_its_header():
    assert len(parse_devices(DEVICES_TEXT)) == 3
    with pytest.raises(IngestError, match="devices line 1: the header must name"):
        parse_devices(DEVICES_TEXT.replace(",floor,", ",level,"))


def test_parse_devices_refuses_a_header_naming_a_column_twice():
    # a second name column, with a value in every row: not read by its last occurrence
    lines = DEVICES_TEXT.split("\n")
    text = "\n".join([lines[0] + ",name", *(line + ",other" for line in lines[1:] if line)]) + "\n"
    with pytest.raises(IngestError, match="^devices line 1: the header names 'name' twice$"):
        parse_devices(text)


# text a CSV writer accepts: no "\n", "\r" or NUL (README, "Sensor and device CSVs")
_CSV_TEXT = st.text(alphabet=st.characters(exclude_characters="\n\r\x00"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_CSV_TEXT, st.datetimes(),
                          st.integers(-10**300, 10**300) | st.floats(allow_nan=False, allow_infinity=False)),
                max_size=5))
def test_sensor_csv_round_trips_every_room_value_and_time(drawn):
    rows = [sensor_row("co2", i, room, ts, value) for i, (room, ts, value) in enumerate(drawn)]
    assert ingest_sensors(serialize_sensors(rows), "co2") == rows


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_CSV_TEXT, _CSV_TEXT), min_size=3, max_size=3))
def test_device_csv_round_trips_every_name_and_room(names_and_rooms):
    devices = [list(device) for device in synthesize_logs(SynthSpec(counts={"devices": 3}, seed=3))["devices"]]
    for device, (name, room) in zip(devices, names_and_rooms):
        device[DEVICE_NAMES.index("name")], device[DEVICE_NAMES.index("room")] = name, room
    rows = list(map(tuple, devices))
    assert parse_devices(serialize_devices(rows)) == rows


@pytest.mark.parametrize("value", ["R1\n01", "R1\r01", "R101\r", "R1\x0001"])
def test_csv_writers_reject_a_line_break_or_nul(value):
    with pytest.raises(ValueError, match="cannot hold a line break or NUL"):
        serialize_sensors([sensor_row("co2", 0, value, datetime(2021, 3, 1, 10), 415)])
    devices = synthesize_logs(SynthSpec(counts={"devices": 3}, seed=3))["devices"]
    devices[1] = (devices[1][0], value, *devices[1][2:])
    with pytest.raises(ValueError, match="cannot hold a line break or NUL"):
        serialize_devices(devices)


def test_csv_readers_name_the_line_of_malformed_quoting():
    # a quoted value left open at the end of its line, and text after a closing quote
    with pytest.raises(BadValue, match="^line 2: unexpected end of data"):
        ingest_sensors('room,ts,value\n"R1,2021-03-01T10:00:00,5\nR2",2021-03-01T10:00:00,5\n', "co2")
    with pytest.raises(BadValue, match="^line 2: ',' expected after"):
        ingest_sensors('room,ts,value\n"R1"01,2021-03-01T10:00:00,5\n', "co2")
    lines = DEVICES_TEXT.split("\n")
    lines[2] = '"' + lines[2]
    with pytest.raises(IngestError, match="^devices line 3: unexpected end of data"):
        parse_devices("\n".join(lines))


def test_sensor_csv_keeps_the_room_as_written_and_strips_ts_and_value():
    readings = ingest_sensors('room,ts,value\n" R1,01 ", 2021-03-01T10:00:00 , 415 \n', "co2")
    assert readings == [("c000000", " R1,01 ", None, datetime(2021, 3, 1, 10), 415)]


def test_sensor_floor_is_the_decimal_digit_after_r():
    text = "room,ts,value\nR201,2021-03-01T10:00:00,5\nr\u0663x,2021-03-01T10:00:00,5\nR\u00b201,2021-03-01T10:00:00,5\n"
    assert [floor for _, _, floor, _, _ in ingest_sensors(text, "co2")] == [2, 3, None]


@pytest.mark.parametrize("header", ["room,ts,value", '"room",ts,value', ' Room , ts , value'])
def test_sensor_csv_header_is_read_through_csv(header):
    readings = ingest_sensors(header + '\nR1,2021-03-01T10:00:00,415\n', "co2")
    assert readings == [("c000000", "R1", 1, datetime(2021, 3, 1, 10), 415)]
