"""Desk-scale synthetic corpus generation for Zeek logs, sensors, devices.

Substitute for the real captures: deterministic given the seed, label mix
within one record of the requested fractions, and every record satisfies
the same invariants the parsers enforce (generator/parser duality).  Each
kind is made in the shape the parsers give and the database stores: a conn
log as a ``ConnTable``, other Zeek logs as row tuples, a sensor's readings
as its rows (``sensors.sensor_row``), devices as tuples in DEVICE_COLUMNS
order.  DEVICE_COLUMNS, the (name, store attribute) pairs of a device row,
is the only statement of the devices table's columns: devices.csv's
header, ``parse_devices`` and ``ingest.default_schema`` read it.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from ..lines import csv_rows, csv_text, split_lines
from .records import (
    ALL_KINDS,
    SENSOR_TYPES,
    AttackLabel,
    ConnTable,
    IngestError,
)
from .sensors import read_number, sensor_row

# (name, store attribute) of each column of a device row, in devices.csv and
# in the devices table
DEVICE_COLUMNS = (
    ("device_id", "text"), ("name", "text"), ("type", "text"), ("vendor", "text"),
    ("model", "text"), ("firmware_version", "text"), ("mac", "text"), ("ip", "text"),
    ("room", "text"), ("floor", "number"), ("install_ts", "time"), ("last_seen_ts", "time"),
    ("status", "text"), ("battery_level", "number"), ("network_segment", "text"),
    ("is_gateway", "boolean"),
)
_DEVICE_NAMES = tuple(name for name, _ in DEVICE_COLUMNS)


class InvalidSpec(IngestError):
    pass


@dataclass(frozen=True)
class SynthSpec:
    """What to synthesize: record counts per kind, attack mix, time window."""

    counts: dict = field(default_factory=dict)
    label_mix: dict = field(default_factory=lambda: {AttackLabel.Benign: 1.0})
    window: tuple = (datetime(2021, 3, 1), datetime(2021, 3, 8))
    address_pool_size: int = 24
    seed: int = 0

    def validate(self) -> None:
        for kind, n in self.counts.items():
            if kind not in ALL_KINDS:
                raise InvalidSpec(f"unknown kind {kind!r}")
            if n < 0:
                raise InvalidSpec(f"count for {kind!r} must be nonnegative")
        total = sum(self.label_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise InvalidSpec(f"label fractions must sum to 1, got {total}")
        for frac in self.label_mix.values():
            if frac < 0:
                raise InvalidSpec("label fractions must be nonnegative")
        lo, hi = self.window
        if not lo < hi:
            raise InvalidSpec("time window must be nonempty")
        if self.address_pool_size < 2:
            raise InvalidSpec("address pool needs at least 2 addresses")


def apportion(n: int, fractions: dict) -> dict:
    """Largest-remainder split of n items; each count within 1 of n*fraction."""
    keys = sorted(fractions, key=lambda k: str(k))
    floors = {k: int(n * fractions[k]) for k in keys}
    remainder = n - sum(floors.values())
    by_frac = sorted(keys, key=lambda k: (n * fractions[k]) - floors[k], reverse=True)
    for k in by_frac[:remainder]:
        floors[k] += 1
    return floors


_SERVICES = ["http", "dns", "ssl", "ntp", None, None]
_STATES_BENIGN = ["SF", "SF", "SF", "S1", "RSTO"]
_HISTORY_BENIGN = ["ShADadFf", "ShADadfF", "ShAdDaFf", "Dd"]
_WEIRD_NAMES = ["bad_TCP_checksum", "data_before_established", "active_connection_reuse",
                "possible_split_routing", "inappropriate_FIN"]
_QUERIES = ["ntp.pool.org", "updates.vendor.example", "cdn.media.example",
            "time.cloud.example", "telemetry.iot.example", "firmware.hub.example"]
_METHODS = ["GET", "GET", "GET", "POST", "HEAD"]
_URIS = ["/", "/status", "/api/v1/data", "/firmware.bin", "/index.html", "/metrics"]
_DEVICE_TYPES = ["camera", "thermostat", "lock", "speaker", "hub", "plug"]
_VENDORS = ["Acme", "Lumen", "Nest", "Orbit", "Vega"]


class _Synth:
    def __init__(self, spec: SynthSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        half = max(1, spec.address_pool_size // 2)
        self.local_ips = [f"192.168.{1 + i // 250}.{2 + i % 250}" for i in range(half)]
        self.remote_ips = [
            f"203.0.113.{2 + i % 250}" if i % 2 == 0 else f"198.51.100.{2 + i % 250}"
            for i in range(spec.address_pool_size - half)
        ] or ["203.0.113.2"]
        self.rooms = [f"R{1 + i // 13}{i % 13:02d}" for i in range(51)]
        self._uid_counter = 0
        self.conn_uids: list[str] = []

    def _uid(self, prefix: str = "C") -> str:
        self._uid_counter += 1
        alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        tail = "".join(self.rng.choice(alphabet) for _ in range(9))
        return f"{prefix}{self._uid_counter:06d}{tail}"

    def _ts(self) -> datetime:
        lo, hi = self.spec.window
        span = int((hi - lo).total_seconds())
        return lo + timedelta(seconds=self.rng.randrange(span), microseconds=self.rng.randrange(0, 1_000_000, 1000))

    def conn(self, n: int) -> ConnTable:
        labels: list[AttackLabel] = []
        for label, count in apportion(n, self.spec.label_mix).items():
            labels.extend([label] * count)
        self.rng.shuffle(labels)
        return ConnTable.of([self._conn_one(label) for label in labels])

    def _conn_one(self, label: AttackLabel) -> tuple:
        """One conn row in CONN_TABLE_NAMES order."""
        rng = self.rng
        uid = self._uid()
        self.conn_uids.append(uid)
        orig_h = rng.choice(self.local_ips)
        resp_h = rng.choice(self.remote_ips if rng.random() < 0.8 else self.local_ips)
        orig_p = rng.randrange(49152, 65536)
        ts = self._ts()
        # each branch draws its values in one fixed order, which the seeded
        # corpora depend on
        if label is AttackLabel.Benign:
            service = rng.choice(_SERVICES)
            duration = round(rng.uniform(0.05, 120.0), 6)
            orig_pkts = rng.randrange(1, 50)
            resp_pkts = rng.randrange(1, 60)
            orig_bytes = rng.randrange(40, 20_000)
            resp_bytes = rng.randrange(40, 80_000)
            proto = rng.choice(["tcp", "tcp", "udp"])
            conn_state = rng.choice(_STATES_BENIGN)
            history = rng.choice(_HISTORY_BENIGN)
            orig_ip_bytes = orig_bytes + 40 * orig_pkts
            resp_ip_bytes = resp_bytes + 40 * resp_pkts
            resp_p = rng.choice([80, 443, 53, 123, 8080])
        elif label in (AttackLabel.PartOfAHorizontalPortScan, AttackLabel.Okiru, AttackLabel.Mirai):
            # scan-style: single unanswered probe
            orig_pkts = rng.randrange(1, 4)
            proto, service, conn_state, history = "tcp", None, "S0", "S"
            duration = round(rng.uniform(0.000001, 0.01), 6) if rng.random() < 0.4 else None
            orig_bytes, resp_bytes, resp_pkts, resp_ip_bytes = 0, 0, 0, 0
            orig_ip_bytes = 40 * orig_pkts
            resp_p = rng.choice([23, 2323, 81, 8080])
        elif label is AttackLabel.DDoS:
            orig_pkts = rng.randrange(500, 5000)
            proto = rng.choice(["tcp", "udp"])
            service = None
            duration = round(rng.uniform(5.0, 300.0), 6)
            orig_bytes = orig_pkts * rng.randrange(40, 120)
            resp_bytes, resp_pkts, resp_ip_bytes = 0, 0, 0
            conn_state = rng.choice(["S0", "OTH"])
            history = "D"
            orig_ip_bytes = orig_pkts * 60
            resp_p = rng.choice([80, 443])
        elif label is AttackLabel.FileDownload:
            resp_bytes = rng.randrange(200_000, 5_000_000)
            resp_pkts = resp_bytes // 1200
            proto, service, conn_state, history = "tcp", "http", "SF", "ShADadFf"
            duration = round(rng.uniform(1.0, 90.0), 6)
            orig_bytes = rng.randrange(100, 600)
            orig_pkts = rng.randrange(5, 40)
            orig_ip_bytes = rng.randrange(300, 2_400)
            resp_ip_bytes = resp_bytes + 40 * resp_pkts
            resp_p = rng.choice([80, 8080])
        else:
            # C&C-style periodic traffic: CandC, HeartBeat, Torii, Attack
            orig_bytes = rng.randrange(40, 400) if label is not AttackLabel.HeartBeat else rng.randrange(0, 60)
            resp_bytes = rng.randrange(40, 800) if label is not AttackLabel.HeartBeat else rng.randrange(0, 60)
            orig_pkts = rng.randrange(1, 12)
            resp_pkts = rng.randrange(1, 12)
            proto = "tcp"
            service = rng.choice(["http", "ssl", None])
            duration = round(rng.uniform(0.1, 10.0), 6)
            conn_state = rng.choice(["SF", "RSTO", "S1"])
            history = "ShAdDa"
            orig_ip_bytes = orig_bytes + 40 * orig_pkts
            resp_ip_bytes = resp_bytes + 40 * resp_pkts
            resp_p = rng.choice([80, 443, 6667, 8080])
        return (ts, uid, orig_h, orig_p, resp_h, resp_p, proto, service, duration,
                orig_bytes, resp_bytes, conn_state, True, False, 0, history,
                orig_pkts, orig_ip_bytes, resp_pkts, resp_ip_bytes, None, label)

    def _uid_for_sub(self) -> str:
        if self.conn_uids and self.rng.random() < 0.5:
            return self.rng.choice(self.conn_uids)
        return self._uid()

    def dns(self, n: int) -> list[tuple]:
        out = []
        for _ in range(n):
            rng = self.rng
            qtype, qtype_name = rng.choice([(1, "A"), (28, "AAAA"), (12, "PTR"), (16, "TXT")])
            rcode, rcode_name = rng.choice([(0, "NOERROR"), (0, "NOERROR"), (3, "NXDOMAIN")])
            out.append((
                self._ts(), self._uid_for_sub(), rng.choice(self.local_ips),
                rng.randrange(49152, 65536), rng.choice(self.remote_ips), 53, "udp",
                rng.randrange(0, 65536), round(rng.uniform(0.001, 0.4), 6),
                rng.choice(_QUERIES), 1, "C_INTERNET", qtype, qtype_name,
                rcode, rcode_name, rng.random() < 0.1, False, True, rng.random() < 0.9,
                0, rng.choice(["203.0.113.9", "198.51.100.7", ""]),
                float(rng.choice([60, 300, 2523, 3600, 86400])), rcode != 0,
            ))
        return out

    def http(self, n: int) -> list[tuple]:
        out = []
        for _ in range(n):
            rng = self.rng
            status = rng.choice([200, 200, 200, 404, 301, 500])
            req_len = rng.randrange(0, 1200)
            resp_len = rng.randrange(100, 500_000)
            out.append((
                self._ts(), self._uid_for_sub(), rng.choice(self.local_ips),
                rng.randrange(49152, 65536), rng.choice(self.remote_ips),
                rng.choice([80, 8080]), 1, rng.choice(_METHODS),
                rng.choice(_QUERIES), rng.choice(_URIS), None, "1.1",
                rng.choice(["curl/7.81.0", "IoTClient/2.3", "Mozilla/5.0"]), None,
                req_len, resp_len, status,
                "OK" if status == 200 else "Error", None, None, "",
                None, None, None, None, None, None,
                f"F{rng.randrange(10**8):08d}" if rng.random() < 0.4 else None,
                None, rng.choice(["text/html", "application/json", "application/octet-stream"]),
            ))
        return out

    def files(self, n: int) -> list[tuple]:
        out = []
        for _ in range(n):
            rng = self.rng
            seen = rng.randrange(100, 2_000_000)
            total = seen if rng.random() < 0.8 else None
            out.append((
                self._ts(), f"F{rng.randrange(10**8):08d}", self._uid_for_sub(),
                rng.choice(self.local_ips), rng.randrange(49152, 65536),
                rng.choice(self.remote_ips), rng.choice([80, 443]),
                "HTTP", 0, "MD5,SHA1",
                rng.choice(["application/octet-stream", "text/plain", "application/zip"]),
                rng.choice(["firmware.bin", "update.zip", "config.txt", None]),
                round(rng.uniform(0.01, 20.0), 6), False, False,
                seen, total, 0, 0, rng.random() < 0.05, None,
                f"{rng.randrange(16**8):08x}" * 4, None, None, None, False, None,
            ))
        return out

    def ntp(self, n: int) -> list[tuple]:
        out = []
        for _ in range(n):
            rng = self.rng
            ts = self._ts()
            out.append((
                ts, self._uid_for_sub(), rng.choice(self.local_ips),
                rng.randrange(49152, 65536), rng.choice(self.remote_ips), 123,
                4, 3, rng.choice([2, 3, 4]), 6.0, round(rng.uniform(-20.0, -5.0), 6),
                round(rng.uniform(0.0, 0.2), 6), round(rng.uniform(0.0, 0.1), 6),
                rng.choice(["203.0.113.9", "GPS", "POOL"]),
                ts - timedelta(seconds=rng.randrange(1, 3600)),
                ts - timedelta(milliseconds=rng.randrange(1, 500)),
                ts - timedelta(milliseconds=rng.randrange(1, 400)),
                ts, 0,
            ))
        return out

    def weird(self, n: int) -> list[tuple]:
        out = []
        for _ in range(n):
            rng = self.rng
            out.append((
                self._ts(), self._uid_for_sub(), rng.choice(self.local_ips),
                rng.randrange(49152, 65536), rng.choice(self.remote_ips),
                rng.choice([80, 443, 53]), rng.choice(_WEIRD_NAMES),
                None, False, "zeek", "IP",
            ))
        return out

    def sensor(self, sensor_type: str, n: int) -> list[tuple]:
        rng = self.rng
        ranges = {
            "humidity": (20.0, 70.0),
            "co2": (350.0, 1400.0),
            "temperature": (17.0, 29.0),
            "luminosity": (0.0, 900.0),
        }
        out = []
        for i in range(n):
            room = rng.choice(self.rooms)
            if sensor_type == "motion":
                value: float = rng.randrange(2)
            else:
                lo, hi = ranges[sensor_type]
                value = round(rng.uniform(lo, hi), 2)
            out.append(sensor_row(sensor_type, i, room, self._ts(), value))
        return out

    def devices(self, n: int) -> list[tuple]:
        rng = self.rng
        out = []
        for i in range(n):
            vendor = rng.choice(_VENDORS)
            dtype = rng.choice(_DEVICE_TYPES)
            room = rng.choice(self.rooms)
            install = self.spec.window[0] - timedelta(days=rng.randrange(30, 400))
            out.append((  # DEVICE_COLUMNS order
                f"D{i:04d}",
                f"{dtype}-{room}-{i:02d}",
                dtype,
                vendor,
                f"{vendor[:2].upper()}-{rng.randrange(100, 999)}",
                f"{rng.randrange(1, 4)}.{rng.randrange(0, 10)}.{rng.randrange(0, 20)}",
                ":".join(f"{rng.randrange(256):02x}" for _ in range(6)),
                self.local_ips[i % len(self.local_ips)],
                room,
                int(room[1]),
                install,
                self._ts(),
                rng.choice(["online", "online", "online", "offline"]),
                rng.randrange(5, 101),
                rng.choice(["iot-a", "iot-b", "guest"]),
                dtype == "hub",
            ))
        return out


def synthesize_logs(spec: SynthSpec) -> dict:
    """Generate records per kind, deterministically from the spec's seed: a
    ``ConnTable`` for conn, a list of rows for every other kind.

    Kinds are generated in a fixed order so the same spec always yields the
    same records regardless of dict ordering in ``counts``.
    """
    spec.validate()
    synth = _Synth(spec)
    out: dict[str, list] = {}
    for kind in ALL_KINDS:
        n = spec.counts.get(kind, 0)
        # a Zeek kind and the devices each have a method of their own name
        out[kind] = synth.sensor(kind, n) if kind in SENSOR_TYPES else getattr(synth, kind)(n)
    return out


def _device_text(value) -> str:
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, bool):
        return "T" if value else "F"
    return str(value)


def serialize_devices(devices: list[tuple]) -> str:
    """devices.csv of device rows in DEVICE_COLUMNS order; a value holding
    "\\n", "\\r" or NUL is a ValueError (``lines.csv_text``)."""
    return csv_text([_DEVICE_NAMES, *(list(map(_device_text, device)) for device in devices)])


def parse_devices(text: str) -> list[tuple]:
    """Device rows, in DEVICE_COLUMNS order, of a devices.csv text, its lines
    split by ``lines.split_lines`` and read by ``csv.reader``: a header naming
    every DEVICE_COLUMNS column and no column twice, then one row of the
    header's width per line, each value read by its column's name and kept
    as written.  A row of another width, or a value that does not convert,
    is an IngestError naming its line."""
    lines = split_lines(text)
    header = next(csv.reader(lines[:1]), [])
    if text.strip() and not set(_DEVICE_NAMES).issubset(header):
        raise IngestError(f"devices line 1: the header must name {','.join(_DEVICE_NAMES)}")
    repeated = [name for name in header if header.count(name) > 1]
    if repeated:
        raise IngestError(f"devices line 1: the header names {repeated[0]!r} twice")
    out = []
    try:
        for line_no, values in csv_rows(lines[1:], 2):
            if len(values) != len(header):
                raise IngestError(f"devices line {line_no}: expected {len(header)} values, got {len(values)}")
            d: dict = dict(zip(header, values))
            try:
                d["floor"] = read_number(int, d["floor"])
                d["battery_level"] = read_number(int, d["battery_level"])
                d["install_ts"] = datetime.fromisoformat(d["install_ts"])
                d["last_seen_ts"] = datetime.fromisoformat(d["last_seen_ts"])
                d["is_gateway"] = {"T": True, "F": False}[d["is_gateway"]]
            except (KeyError, ValueError) as exc:  # KeyError: an is_gateway other than T or F
                raise IngestError(f"devices line {line_no}: bad value {exc}") from exc
            out.append(tuple(map(d.__getitem__, _DEVICE_NAMES)))
    except csv.Error as exc:
        raise IngestError(f"devices {exc}") from exc
    return out
