import itertools
import json
from collections.abc import Sequence
from datetime import datetime

import pytest

from iotsqlbench import workers
from iotsqlbench.ingest import AttackLabel, SynthSpec, synthesize_logs
from iotsqlbench.ingest.sensors import sensor_rows
from iotsqlbench.ingest.synth import device_rows
from iotsqlbench.ingest.zeek import rows_for_table, table_name
from iotsqlbench.store import ColumnDef, Database, TableSchema, default_schema, define_schema

SENSORS = ("humidity", "co2", "temperature", "luminosity", "motion")

FULL_MIX = {
    AttackLabel.Benign: 0.6,
    AttackLabel.Okiru: 0.1,
    AttackLabel.PartOfAHorizontalPortScan: 0.1,
    AttackLabel.DDoS: 0.05,
    AttackLabel.CandC: 0.05,
    AttackLabel.Attack: 0.025,
    AttackLabel.FileDownload: 0.025,
    AttackLabel.HeartBeat: 0.02,
    AttackLabel.Mirai: 0.015,
    AttackLabel.Torii: 0.015,
}


def build_database(data):
    db = Database(default_schema())
    for kind in ("conn", "dns", "http", "files", "ntp", "weird"):
        if data.get(kind):
            db.load_records(table_name(kind), rows_for_table(data[kind], kind))
    for sensor in SENSORS:
        if data.get(sensor):
            db.load_records(sensor, sensor_rows(data[sensor]))
    if data.get("devices"):
        db.load_records("devices", device_rows(data["devices"]))
    return db


@pytest.fixture(scope="session")
def synth_spec():
    return SynthSpec(
        counts={
            "conn": 900, "dns": 220, "http": 160, "files": 120, "ntp": 90, "weird": 60,
            "humidity": 130, "co2": 130, "temperature": 130, "luminosity": 130, "motion": 130,
            "devices": 12,
        },
        label_mix=FULL_MIX,
        seed=101,
    )


@pytest.fixture(scope="session")
def synth_data(synth_spec):
    return synthesize_logs(synth_spec)


@pytest.fixture(scope="session")
def synth_db(synth_data):
    return build_database(synth_data)


# Hand-authored conn.log rows; expected values below are computed by hand
# or by explicit Python loops inside the tests, never via the engine.
FIXTURE_CONN_ROWS = [
    # ts, uid, orig_h, orig_p, resp_h, resp_p, proto, service, duration,
    # orig_bytes, resp_bytes, conn_state, local_orig, local_resp,
    # missed_bytes, history, orig_pkts, orig_ip_bytes, resp_pkts, resp_ip_bytes, tunnel_parents
    (datetime(2021, 3, 1, 10, 0, 0), "CFix01", "192.168.1.1", 443, "10.0.0.2", 55000,
     "tcp", "ssl", 3.5, 1000, 2000, "SF", True, False, 0, "ShADadFf", 10, 1500, 12, 2400, None),
    (datetime(2021, 3, 1, 11, 30, 0), "CFix02", "192.168.1.1", 80, "10.0.0.3", 55001,
     "tcp", "http", 1.5, 500, 700, "SF", True, False, 0, "ShADadFf", 5, 700, 6, 900, None),
    (datetime(2021, 3, 2, 9, 15, 0), "CFix03", "192.168.1.9", 53, "10.0.0.4", 55002,
     "udp", "dns", None, None, 100, "S0", False, False, 0, "D", 1, 80, 0, 0, None),
    (datetime(2021, 3, 2, 22, 45, 0), "CFix04", "192.168.1.1", 8080, "10.0.0.2", 55003,
     "tcp", "http", 7.0, 4000, 900, "RSTO", True, False, 0, "ShAdDa", 9, 4400, 4, 1100, None),
    (datetime(2021, 3, 3, 6, 5, 0), "CFix05", "192.168.1.7", 123, "10.0.0.9", 123,
     "udp", "ntp", 0.5, 48, 48, "SF", False, False, 0, "Dd", 1, 76, 1, 76, None),
]


@pytest.fixture()
def fixture_db():
    db = Database(default_schema())
    db.load_records("conn.log", FIXTURE_CONN_ROWS)
    return db


@pytest.fixture()
def toy_schema():
    return define_schema([
        TableSchema(name="T", columns=(ColumnDef("c", "number"),)),
    ])


# ---------------------------------------------------------------------------
# Counting calls made in forked workers, and pinning how many processes work


class CallLog(Sequence):
    """The values noted by this process and by every process forked from it,
    in the order they were written: each note appends one JSON line to a
    file, so a note made in a worker is read back here."""

    def __init__(self, path):
        self.path = path

    def note(self, value):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(value) + "\n")

    def _values(self):
        if not self.path.exists():
            return []
        return [json.loads(line) for line in self.path.read_text(encoding="utf-8").splitlines()]

    def __getitem__(self, index):
        return self._values()[index]

    def __len__(self):
        return len(self._values())

    def __eq__(self, other):
        return self._values() == other

    def __repr__(self):
        return repr(self._values())

    def clear(self):
        self.path.unlink(missing_ok=True)


@pytest.fixture()
def call_log(tmp_path):
    """Makes a new, empty CallLog on each call."""
    made = itertools.count()
    return lambda: CallLog(tmp_path / f"calls-{next(made)}.jsonl")


@pytest.fixture()
def count_executes(monkeypatch, call_log):
    """Call it to log the SQL text of every later ``Database.execute`` call,
    in any process; it returns the CallLog."""

    def start():
        calls = call_log()
        real_execute = Database.execute

        def execute(self, sql, timeout=5.0):
            calls.note(sql)
            return real_execute(self, sql, timeout)

        monkeypatch.setattr(Database, "execute", execute)
        return calls

    return start


@pytest.fixture()
def processes(monkeypatch):
    """Call it with a count to make every later worker pool compute with
    that many processes, whatever the CPUs."""

    def pin(count):
        monkeypatch.setattr(workers, "process_count", lambda: count)

    return pin

