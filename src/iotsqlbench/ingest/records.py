"""Typed records for Zeek logs and attack labels.

A parsed dns, http, files, ntp or weird log is a list of row tuples, each
holding its values in ``KIND_FIELDS[kind]`` order: the rows the database
stores and the Zeek writer renders.  A parsed conn log is a ``ConnTable``:
its values held as columns, one list per name of ``CONN_TABLE_NAMES`` (the
CONN_FIELDS names, then the label), which the detection path
(anonymization, the splits, the TSV and JSONL writers, the featurizer)
reads and replaces a column at a time.  A producer that makes one row at a
time, in CONN_TABLE_NAMES order, gathers its rows into a table with
``ConnTable.of``.  A value's range is stated once, by its ``vtype``'s
entry in the Zeek rules (``zeek._TYPES``), which the readers and the writer
read.

``ALL_KINDS`` lists every kind a reader gives (the six Zeek logs, the five
sensors, the devices) and ``TABLE_FOR_KIND`` the table each is stored in.
A Zeek log's ``KIND_FIELDS[kind]`` is the only statement of its table's
columns (``tables.table_columns``).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass


class IngestError(Exception):
    pass


class UnknownLabel(IngestError):
    pass


class UnknownKind(IngestError):
    pass


class AttackLabel(enum.Enum):
    Attack = "Attack"
    Benign = "Benign"
    CandC = "C&C"
    DDoS = "DDoS"
    FileDownload = "FileDownload"
    HeartBeat = "HeartBeat"
    Mirai = "Mirai"
    Okiru = "Okiru"
    Torii = "Torii"
    PartOfAHorizontalPortScan = "PartOfAHorizontalPortScan"

    @property
    def is_malicious(self) -> bool:
        return self is not AttackLabel.Benign


def _fold_label(text: str) -> str:
    return text.strip().casefold().replace(" ", "").replace("-", "").replace("&", "and")


_LABEL_LOOKUP = {_fold_label(label.value): label for label in AttackLabel}


@functools.lru_cache(maxsize=1024)
def parse_iot23_label(raw_label: str, raw_detail: str = "-") -> AttackLabel:
    """Map (label, detailed-label) strings to the ten-variant taxonomy.

    Tolerates case and spacing differences; ``C&C`` maps to CandC.  Raises
    UnknownLabel naming the offending string for anything outside the set.
    Memoised per pair: a log repeats a handful of label pairs on every line.
    """
    coarse = _fold_label(raw_label or "")
    detail = _fold_label(raw_detail or "")
    if coarse == "benign" or (coarse in ("", "unset") and detail in ("", "benign")):
        return AttackLabel.Benign
    if coarse == "malicious":
        if detail in _LABEL_LOOKUP:
            return _LABEL_LOOKUP[detail]
        raise UnknownLabel(f"unknown detailed label {raw_detail!r}")
    if coarse in _LABEL_LOOKUP:
        return _LABEL_LOOKUP[coarse]
    raise UnknownLabel(f"unknown label {raw_label!r}")


SENSOR_TYPES = ("humidity", "co2", "temperature", "luminosity", "motion")


@dataclass(frozen=True)
class FieldSpec:
    name: str       # record / database column name
    zeek_name: str  # name in the #fields directive
    zeek_type: str  # entry in the #types directive
    vtype: str      # time | str | float | bool | port | count | duration


def _f(name, zeek_type, vtype, zeek_name=None) -> FieldSpec:
    return FieldSpec(name=name, zeek_name=zeek_name or name, zeek_type=zeek_type, vtype=vtype)


_ID_FIELDS = [
    _f("orig_h", "addr", "str", zeek_name="id.orig_h"),
    _f("orig_p", "port", "port", zeek_name="id.orig_p"),
    _f("resp_h", "addr", "str", zeek_name="id.resp_h"),
    _f("resp_p", "port", "port", zeek_name="id.resp_p"),
]

CONN_FIELDS = [
    _f("ts", "time", "time"),
    _f("uid", "string", "str"),
    *_ID_FIELDS,
    _f("proto", "enum", "str"),
    _f("service", "string", "str"),
    _f("duration", "interval", "duration"),
    _f("orig_bytes", "count", "count"),
    _f("resp_bytes", "count", "count"),
    _f("conn_state", "string", "str"),
    _f("local_orig", "bool", "bool"),
    _f("local_resp", "bool", "bool"),
    _f("missed_bytes", "count", "count"),
    _f("history", "string", "str"),
    _f("orig_pkts", "count", "count"),
    _f("orig_ip_bytes", "count", "count"),
    _f("resp_pkts", "count", "count"),
    _f("resp_ip_bytes", "count", "count"),
    _f("tunnel_parents", "set[string]", "str"),
]

DNS_FIELDS = [
    _f("ts", "time", "time"),
    _f("uid", "string", "str"),
    *_ID_FIELDS,
    _f("proto", "enum", "str"),
    _f("trans_id", "count", "count"),
    _f("rtt", "interval", "duration"),
    _f("query", "string", "str"),
    _f("qclass", "count", "count"),
    _f("qclass_name", "string", "str"),
    _f("qtype", "count", "count"),
    _f("qtype_name", "string", "str"),
    _f("rcode", "count", "count"),
    _f("rcode_name", "string", "str"),
    _f("AA", "bool", "bool"),
    _f("TC", "bool", "bool"),
    _f("RD", "bool", "bool"),
    _f("RA", "bool", "bool"),
    _f("Z", "count", "count"),
    _f("answers", "vector[string]", "str"),
    _f("TTLs", "vector[interval]", "float"),
    _f("rejected", "bool", "bool"),
]

HTTP_FIELDS = [
    _f("ts", "time", "time"),
    _f("uid", "string", "str"),
    *_ID_FIELDS,
    _f("trans_depth", "count", "count"),
    _f("method", "string", "str"),
    _f("host", "string", "str"),
    _f("uri", "string", "str"),
    _f("referrer", "string", "str"),
    _f("version", "string", "str"),
    _f("user_agent", "string", "str"),
    _f("origin", "string", "str"),
    _f("request_body_len", "count", "count"),
    _f("response_body_len", "count", "count"),
    _f("status_code", "count", "count"),
    _f("status_msg", "string", "str"),
    _f("info_code", "count", "count"),
    _f("info_msg", "string", "str"),
    _f("tags", "set[enum]", "str"),
    _f("username", "string", "str"),
    _f("password", "string", "str"),
    _f("proxied", "set[string]", "str"),
    _f("orig_fuids", "vector[string]", "str"),
    _f("orig_filenames", "vector[string]", "str"),
    _f("orig_mime_types", "vector[string]", "str"),
    _f("resp_fuids", "vector[string]", "str"),
    _f("resp_filenames", "vector[string]", "str"),
    _f("resp_mime_types", "vector[string]", "str"),
]

FILES_FIELDS = [
    _f("ts", "time", "time"),
    _f("fuid", "string", "str"),
    _f("uid", "string", "str"),
    *_ID_FIELDS,
    _f("source", "string", "str"),
    _f("depth", "count", "count"),
    _f("analyzers", "set[string]", "str"),
    _f("mime_type", "string", "str"),
    _f("filename", "string", "str"),
    _f("duration", "interval", "duration"),
    _f("local_orig", "bool", "bool"),
    _f("is_orig", "bool", "bool"),
    _f("seen_bytes", "count", "count"),
    _f("total_bytes", "count", "count"),
    _f("missing_bytes", "count", "count"),
    _f("overflow_bytes", "count", "count"),
    _f("timedout", "bool", "bool"),
    _f("parent_fuid", "string", "str"),
    _f("md5", "string", "str"),
    _f("sha1", "string", "str"),
    _f("sha256", "string", "str"),
    _f("extracted", "string", "str"),
    _f("extracted_cutoff", "bool", "bool"),
    _f("extracted_size", "count", "count"),
]

NTP_FIELDS = [
    _f("ts", "time", "time"),
    _f("uid", "string", "str"),
    *_ID_FIELDS,
    _f("version", "count", "count"),
    _f("mode", "count", "count"),
    _f("stratum", "count", "count"),
    _f("poll", "interval", "float"),
    _f("precision", "interval", "float"),
    _f("root_delay", "interval", "float"),
    _f("root_disp", "interval", "float"),
    _f("ref_id", "string", "str"),
    _f("ref_time", "time", "time"),
    _f("org_time", "time", "time"),
    _f("rec_time", "time", "time"),
    _f("xmt_time", "time", "time"),
    _f("num_exts", "count", "count"),
]

WEIRD_FIELDS = [
    _f("ts", "time", "time"),
    _f("uid", "string", "str"),
    *_ID_FIELDS,
    _f("name", "string", "str"),
    _f("addl", "string", "str"),
    _f("notice", "bool", "bool"),
    _f("peer", "string", "str"),
    _f("source", "string", "str"),
]

ZEEK_KINDS = ("conn", "dns", "http", "files", "ntp", "weird")

KIND_FIELDS = {
    "conn": CONN_FIELDS,
    "dns": DNS_FIELDS,
    "http": HTTP_FIELDS,
    "files": FILES_FIELDS,
    "ntp": NTP_FIELDS,
    "weird": WEIRD_FIELDS,
}

ALL_KINDS = ZEEK_KINDS + SENSOR_TYPES + ("devices",)

# the table each kind's rows are stored in: <kind>.log for a Zeek log, else the kind
TABLE_FOR_KIND = {kind: f"{kind}.log" if kind in ZEEK_KINDS else kind for kind in ALL_KINDS}

LABEL_FIELDS = [
    FieldSpec(name="label", zeek_name="label", zeek_type="string", vtype="str"),
    FieldSpec(name="detailed_label", zeek_name="detailed-label", zeek_type="string", vtype="str"),
]


# a ConnTable's column names: CONN_FIELDS order, then the label
_CONN_NAMES = tuple(spec.name for spec in CONN_FIELDS)
CONN_TABLE_NAMES = (*_CONN_NAMES, "label")


@dataclass(frozen=True, slots=True)
class ConnTable:
    """Conn log rows held as columns.

    ``columns`` maps each name of CONN_TABLE_NAMES, in that order, to a list
    of one value per row; the lists are shared with whoever made them and
    are never changed.  Their values keep the Zeek reader's per-value rules,
    as those of a parse or of the synthesizer do.  Two tables are equal when
    their columns are.
    """

    columns: dict[str, list]

    @classmethod
    def of(cls, rows: list[tuple]) -> ConnTable:
        """The table of rows, each in CONN_TABLE_NAMES order, transposed once;
        a row of another width is a ValueError."""
        columns = list(map(list, zip(*rows, strict=True))) or [[] for _ in CONN_TABLE_NAMES]
        return cls(dict(zip(CONN_TABLE_NAMES, columns, strict=True)))

    def __len__(self) -> int:
        return len(self.columns["label"])

    def take(self, positions: list[int]) -> ConnTable:
        """The sub-table of the rows at ``positions``, in that order."""
        return ConnTable({name: list(map(column.__getitem__, positions))
                          for name, column in self.columns.items()})
