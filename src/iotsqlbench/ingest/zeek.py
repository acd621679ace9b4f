"""Zeek log parsing and serialization.

Handles both classic TSV (``#separator``/``#fields`` directive headers)
and line-delimited JSON.  ``-`` is the unset marker, ``(empty)`` the empty
collection.  Labeled IoT-23 conn logs are accepted in the three shapes
seen in the wild: label columns declared in ``#fields``, appended as extra
TSV columns, or glued onto the final field with spaces.

Each value type (``FieldSpec.vtype``) has one entry in ``_TYPES``: its
parse, range, JSON types, render and store attribute.  The TSV reader
(a column at a time, or value by value in ``_convert``), the JSON reader
(``_convert_json``), the writer (``_check_readable``, ``_render_column``)
and ``tables.table_columns`` read it; only string markers have rules of
their own.

A TSV log is read ``_BLOCK_LINES`` data lines at a time.  Each line is
split and checked by ``_reconcile_arity`` (the IoT-23 label quirks, the
field count), and a block's lines are converted as columns, each in one
pass and one range check.  A column that holds the empty marker outside a
string column, or a value that does not parse or is out of range, goes
value by value instead, so issues and records are the same as a
line-by-line parse gives.  A string column holds each distinct text once
per run of markers.  A conn block then reads its labels and checks
its required fields; each line reports its first failure (column, then
label, then required field).  A conn log parses to a ``records.ConnTable``
of columns, any other kind to row tuples in ``KIND_FIELDS[kind]`` order.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import compress, count, repeat
from operator import attrgetter, is_, is_not, itemgetter
from typing import Callable

from ..lines import split_lines
from .records import (
    CONN_FIELDS,
    CONN_TABLE_NAMES,
    KIND_FIELDS,
    LABEL_FIELDS,
    AttackLabel,
    ConnTable,
    FieldSpec,
    IngestError,
    UnknownKind,
    UnknownLabel,
    _CONN_NAMES,
    parse_iot23_label,
)

_EPOCH = datetime(1970, 1, 1)


class BadDirective(IngestError):
    """A ``#separator``, ``#unset_field`` or ``#empty_field`` line without a
    usable value, at ``line_no``; or a missing ``#fields`` directive
    (``MissingFieldsHeader``)."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class UnreadableValue(IngestError, ValueError):
    """A value ``serialize_zeek`` refuses because ``parse_zeek`` would
    misread or refuse it (``_check_readable``)."""


class MissingFieldsHeader(BadDirective):
    """A data line at ``line_no`` before any ``#fields`` directive, or
    (``line_no`` None) a log with no ``#fields`` directive at all."""


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    message: str


@dataclass
class ZeekParseResult:
    records: list | ConnTable  # a ConnTable for a conn log, else row tuples
    issues: list[ParseIssue]


# what int() and float() read in ASCII text besides what Zeek writes: "_"
# between digits, a "+" sign, and whitespace around a value
_UNWRITTEN = ("_", "+", " ", "\t", "\n", "\r", "\x0b", "\x0c")


def _plain(text: str) -> bool:
    """Whether ``text`` holds no character that ``int`` or ``float`` would
    read but Zeek never writes in a number or time field: a Unicode digit or
    space, "_", "+", or ASCII whitespace.  Else ``8_0``, ``٨٠``, ``+80`` or
    `` 80`` would read as 80.  One C-level pass per character tested."""
    return text.isascii() and not any(map(text.__contains__, _UNWRITTEN))


def epoch_to_datetime(text: str) -> datetime:
    """Zeek epoch-seconds string to naive UTC datetime, exact to the microsecond.

    The sign applies to the fraction too: ``-1.5`` is 1.5 s before the epoch.
    A time beyond the range of ``datetime``, a text holding a character Zeek
    never writes (``_plain``) or a fraction of anything but digits is a ValueError.
    """
    secs_part, dot, frac = text.partition(".")
    if not _plain(text) or dot and not frac.isdigit():
        raise ValueError(f"bad time {text!r}")
    secs = int(secs_part)
    usec = int((frac + "000000")[:6]) if dot else 0
    if secs_part.startswith("-"):
        usec = -usec
    try:
        return _EPOCH + timedelta(seconds=secs, microseconds=usec)
    except OverflowError as exc:
        raise ValueError(f"time out of range: {text!r}") from exc


def datetime_to_epoch(dt: datetime) -> str:
    delta = dt - _EPOCH
    sign = ""
    if delta.days < 0:  # before the epoch: the sign goes before the whole value
        sign, delta = "-", -delta
    return f"{sign}{delta.days * 86400 + delta.seconds}.{delta.microseconds:06d}"


class _Bools(dict):  # a Zeek bool's text to its value; any other text is a bad bool
    def __missing__(self, value):
        raise ValueError(f"bad bool {value!r}")


_BOOLS = _Bools({"T": True, "true": True, "True": True, "F": False, "false": False, "False": False})


# kept: without it detect-pipeline setup_s read +8.9%, slower in 11 of 12 pairs (BENCH_28.json)
def _epoch_column(column) -> list:
    """``epoch_to_datetime`` over a column.  A column of plain values, all
    ``digits.dddddd`` (ASCII digits, one dot at [-7], no sign), is taken in
    C-level passes as exact microsecond counts; any other column goes value
    by value.  A time beyond the range of ``datetime`` is a ValueError."""
    digits = list(map(str.replace, column, repeat("."), repeat("")))
    joined = "".join(digits)
    if (joined.isascii() and joined.isdigit()
            and len(joined) + len(digits) == sum(map(len, column))  # one dot each
            and min(map(len, column)) > 7
            and all(map(".".__eq__, map(itemgetter(-7), column)))):
        try:
            return list(map(_EPOCH.__add__,
                            map(timedelta, repeat(0), repeat(0), map(int, digits))))
        except OverflowError as exc:
            raise ValueError("time out of range") from exc
    return list(map(epoch_to_datetime, column))


@dataclass(frozen=True)
class _Type:
    """The rules of one Zeek value type, for a value that is no marker."""
    attribute: str          # the store attribute of a column of the type
    parse: Callable         # TSV text to value; a ValueError with the issue
    render: Callable        # value (never None) to TSV text
    from_json: Callable     # JSON value (never null) of a type it takes to value
    json_types: tuple = ()  # the exact JSON types it takes (a bool is no number); () any
    json_issue: str = ""
    bounds: tuple = ()      # (lowest, highest, issue) of a value; a NaN is outside
    parse_column: Callable | None = None  # parse over a column (None: parse mapped over it)
    plain: bool = False     # its text must pass _plain before parse reads it


def _float_of_json(value) -> float:
    """A JSON number read from its digits, as the TSV reader reads them: an
    integer beyond float range is inf, which the bounds refuse."""
    return float(str(value))


_INTEGER, _NUMBER = "{name} must be an integer: {value!r}", "{name} must be a number: {value!r}"
_COUNT = (0, 2**64 - 1, "{name} must be a count in [0, 2**64): {value}")  # Zeek's count is 64-bit
_FINITE = (-sys.float_info.max, sys.float_info.max, "{name} must be a finite number: {value}")
_FINITE_NONNEGATIVE = (0, sys.float_info.max, "{name} must be finite and nonnegative: {value}")
_PORT = (0, 65535, "{name} out of range: {value}")
_TYPES = {
    # a JSON set or vector is a list, its members joined as in TSV
    "str": _Type("text", str, str, lambda v: ",".join(map(str, v)) if isinstance(v, list) else str(v)),
    "time": _Type("time", epoch_to_datetime, datetime_to_epoch, lambda v: epoch_to_datetime(str(v)),
                  parse_column=_epoch_column, plain=True),
    "count": _Type("number", int, str, int, (int,), _INTEGER, _COUNT, plain=True),
    "port": _Type("number", int, str, int, (int,), _INTEGER, _PORT, plain=True),
    "float": _Type("number", float, "{:.6f}".format, _float_of_json, (int, float), _NUMBER, _FINITE,
                   plain=True),
    "duration": _Type("number", float, "{:.6f}".format, _float_of_json, (int, float), _NUMBER,
                      _FINITE_NONNEGATIVE, plain=True),
    "bool": _Type("boolean", _BOOLS.__getitem__, {True: "T", False: "F"}.__getitem__, bool, (bool,),
                  "bad bool {value!r}"),
}


def _check_range(values: list, spec: FieldSpec) -> list:
    """``values`` (no None) if each is within the bounds of ``spec``'s type,
    else a ValueError with the reader's issue for the first that is not.  One
    min() and one max() test a list; both skip a NaN unless it leads, so the
    sum, NaN when any value is, must also equal itself."""
    bounds = _TYPES[spec.vtype].bounds
    if bounds and values:
        total = sum(values)
        if not (bounds[0] <= min(values) and max(values) <= bounds[1] and total == total):
            bad = next(value for value in values if not bounds[0] <= value <= bounds[1])
            raise ValueError(bounds[2].format(name=spec.name, value=bad))
    return values


def _convert(value: str, spec: FieldSpec, unset: str, empty: str):
    if value == unset:
        return None
    if value == empty:
        # the empty marker stands for an empty set or vector, which only a
        # string column holds; in a number, time or bool column it is a bad value
        if spec.vtype == "str":
            return ""
        raise ValueError(f"{spec.name}: empty marker in a {spec.zeek_type} field")
    rules = _TYPES[spec.vtype]
    if rules.plain and not _plain(value):
        raise ValueError(f"{spec.name}: bad {spec.zeek_type} {value!r}")
    return _check_range([rules.parse(value)], spec)[0]


def parse_zeek(text: str, kind: str) -> ZeekParseResult:
    """Parse the text of one Zeek log into typed records.

    Lines are split by ``lines.split_lines``. Returns the records
    plus per-line issues for malformed rows (wrong field count, out-of-range
    values, a JSON line that is not an object); bad lines are reported,
    never silently coerced into records.
    """
    if kind not in KIND_FIELDS:
        raise UnknownKind(f"unknown Zeek log kind {kind!r}")
    lines = split_lines(text)
    for line in lines:
        if not line.strip():
            continue
        if line.lstrip().startswith("{"):
            return _parse_json(lines, kind)
        break
    return _parse_tsv(lines, kind)


def _field_plan(kind: str, names: list[str]) -> list[FieldSpec | None]:
    """Match ``#fields`` names to specs; unknown columns map to None (skipped)."""
    by_zeek = {spec.zeek_name: spec for spec in KIND_FIELDS[kind]}
    by_name = {spec.name: spec for spec in KIND_FIELDS[kind]}
    label_specs = {spec.zeek_name: spec for spec in LABEL_FIELDS}
    label_specs.update({spec.name: spec for spec in LABEL_FIELDS})
    plan: list[FieldSpec | None] = []
    for name in names:
        spec = by_zeek.get(name) or by_name.get(name)
        if spec is None and kind == "conn":
            spec = label_specs.get(name)
        plan.append(spec)
    return plan


# Lines converted together: enough for each column pass to run in C, few
# enough to bound the split values held at once (MonetDB/X100's vectors).
_BLOCK_LINES = 256


def _parse_tsv(lines: list[str], kind: str) -> ZeekParseResult:
    separator = "\t"
    unset, empty = "-", "(empty)"
    texts = {empty: "", unset: None}
    field_names: list[str] | None = None
    plan: list | None = None
    # a conn log's rows gather as columns, any other kind's as row tuples
    columns = {name: [] for name in CONN_TABLE_NAMES} if kind == "conn" else None
    records: list = []
    issues: list[ParseIssue] = []
    # the data lines between two directives are a run, taken _BLOCK_LINES
    # lines at a time: each line of a block is split on its own, and the
    # block is converted a column at a time, so that only one block's split
    # values are held; every marker and the plan hold for the whole run.
    # ``texts`` maps the markers to None and "" (the unset marker winning
    # where the two are the same) and every other string value to the first
    # equal one read under these markers (``_convert_column``), so that each
    # distinct text is held once; a marker directive starts a new map, as an
    # old marker is ordinary text under a new one
    directives = [*compress(count(), map(str.startswith, lines, repeat("#"))), len(lines)]
    start = 0
    for stop in directives:
        for first in range(start, stop, _BLOCK_LINES):
            block = lines[first:min(first + _BLOCK_LINES, stop)]
            if plan is None:
                line_no = next(compress(count(first + 1), map(str.strip, block)), None)
                if line_no is not None:
                    raise MissingFieldsHeader(line_no, "data line before #fields directive")
                continue
            for line_plan, line_nos, raw_columns in _split_block(block, first + 1, plan, kind,
                                                                 separator, issues):
                rows, block_issues = _convert_group(kind, line_plan, line_nos, raw_columns,
                                                    unset, empty, texts)
                if columns is None:
                    records.extend(rows)
                else:
                    for name, column in rows.items():
                        columns[name] += column
                issues.extend(block_issues)
        if stop == len(lines):
            break
        raw, start = lines[stop], stop + 1
        directive = raw[1:].split(separator)[0].split(" ")[0]
        if directive == "separator":
            separator = _directive_value(raw, directive, separator, stop + 1)
        elif directive == "fields":
            field_names = raw[1:].split(separator)[1:]
            plan = _field_plan(kind, field_names)
        elif directive == "unset_field":
            unset = _directive_value(raw, directive, separator, stop + 1)
            texts = {empty: "", unset: None}
        elif directive == "empty_field":
            empty = _directive_value(raw, directive, separator, stop + 1)
            texts = {empty: "", unset: None}
    if field_names is None:
        raise MissingFieldsHeader(None, "no #fields directive found")
    issues.sort(key=attrgetter("line_no"))
    return ZeekParseResult(records=records if columns is None else ConnTable(columns),
                           issues=issues)


def _directive_value(raw: str, directive: str, separator: str, line_no: int) -> str:
    """The value of a ``#separator``, ``#unset_field`` or ``#empty_field``
    line.  A missing value, or a separator that is empty or does not decode,
    is a BadDirective naming the line."""
    body = raw[1:]
    parts = body.split(" ", 1) if directive == "separator" and " " in body else body.split(separator)
    if len(parts) < 2:
        raise BadDirective(line_no, f"#{directive} has no value")
    if directive != "separator":
        return parts[1]
    try:
        value = parts[1].encode().decode("unicode_escape")
    except UnicodeError as exc:
        raise BadDirective(line_no, f"bad #separator value {parts[1]!r}") from exc
    if not value:
        raise BadDirective(line_no, "#separator has no value")
    return value


def _split_block(block: list[str], first_line_no: int, plan: list, kind: str,
                 separator: str, issues: list):
    """The data lines of a block as (line plan, line numbers, columns) groups
    of consecutive lines of one line plan (the plan, or the plan plus the
    IoT-23 label columns), each line split and reconciled by
    ``_reconcile_arity``; a blank line is skipped, and a line of the wrong
    width goes to ``issues``.
    """
    groups: list = []
    rows: list[list[str]] = []
    for line_no, raw in enumerate(block, start=first_line_no):
        if not raw.strip():
            continue
        values, line_plan, issue = _reconcile_arity(raw.split(separator), plan, kind, line_no)
        if issue is not None:
            issues.append(issue)
            continue
        if not rows or len(line_plan) != len(groups[-1][0]):
            rows = []
            groups.append((line_plan, [], rows))
        groups[-1][1].append(line_no)
        rows.append(values)
    return [(line_plan, line_nos, list(zip(*rows))) for line_plan, line_nos, rows in groups]


def _reconcile_arity(values: list[str], plan: list, kind: str, line_no: int):
    """Handle IoT-23 label-column quirks; otherwise enforce the field count."""
    expected = len(plan)
    if len(values) == expected:
        # labels glued into the final column with spaces
        if kind == "conn" and expected == len(CONN_FIELDS) and "  " in values[-1].strip():
            tail = values[-1].split()
            if len(tail) == 3:
                return values[:-1] + tail, plan + LABEL_FIELDS, None
        return values, plan, None
    if (len(values) == expected + 2 and kind == "conn"
            and not any(spec in LABEL_FIELDS for spec in plan)):
        return values, plan + LABEL_FIELDS, None
    return values, plan, ParseIssue(
        line_no=line_no,
        message=f"expected {expected} fields, got {len(values)}",
    )


def _convert_column(column, spec: FieldSpec, unset: str, empty: str, texts: dict,
                    errors: dict) -> list:
    """Convert one column of raw values; a value that fails records its
    message in ``errors`` (row index -> message) unless that row already
    failed in an earlier column, whose values then stop being converted.

    A string column maps each value through ``texts`` in one pass: a marker
    to None or "", as ``_convert`` does, and any other text to the first
    equal text read under these markers, which it adds when new.  So each
    distinct text is held once, in this column and every other string
    column, per run of markers.  Any other column parses its values but the
    unset marker in one pass, checks them (``_check_range``) and puts None
    back in the marker's places (``_fill``); a column holding the empty
    marker, a character Zeek never writes in its type (``_plain``), or whose
    pass fails, goes value by value.
    """
    if spec.vtype == "str":
        return list(map(texts.setdefault, column, column))
    rules = _TYPES[spec.vtype]
    if empty not in column:
        keep = list(map(unset.__ne__, column)) if unset in column else None
        present = column if keep is None else list(compress(column, keep))
        if not rules.plain or _plain("".join(present)):
            try:
                out = _check_range(list(map(rules.parse, present)) if rules.parse_column is None
                                   else rules.parse_column(present), spec)
            except ValueError:
                pass
            else:
                return out if keep is None else _fill(keep, out, None)
    out = []
    for i, value in enumerate(column):
        if i in errors:
            out.append(None)
            continue
        try:
            out.append(_convert(value, spec, unset, empty))
        except ValueError as exc:
            errors[i] = str(exc)
            out.append(None)
    return out


def _fill(keep: list, values: list, marker) -> list:
    """``values`` where ``keep`` is true and ``marker`` where it is false, in
    one C-level pass: each flag picks the iterator that gives the next item."""
    sources = (repeat(marker), iter(values))
    return list(map(next, map(sources.__getitem__, keep)))


def _convert_group(kind: str, line_plan: list, line_nos, columns: list, unset: str, empty: str,
                   texts: dict):
    """(rows, issues) for a block of data lines that share one line plan,
    given as ``columns`` of raw values (emptied here as they are converted);
    ``texts`` maps string values as ``_convert_column`` says.
    The rows are tuples in ``KIND_FIELDS[kind]`` order, or for a conn block
    the value and label columns of its good rows
    (``records.CONN_TABLE_NAMES``).

    Converts column by column; a conn block then reads its label column and
    checks its required fields.  A line reports what a line-by-line parse
    would: its first failing column in column order, then its label, then
    its first unset required field.
    """
    n = len(line_nos)
    errors: dict[int, str] = {}
    by_name: dict[str, object] = {}
    for j, spec in enumerate(line_plan):
        column, columns[j] = columns[j], None
        if spec is None:
            continue
        if spec.name in ("label", "detailed_label"):
            by_name[spec.name] = column
        else:
            # a name listed twice in #fields is converted at each position;
            # the last one is kept, as in a line-by-line parse
            by_name[spec.name] = _convert_column(column, spec, unset, empty, texts, errors)
    unset_column = [None] * n
    values = [by_name.get(spec.name, unset_column) for spec in KIND_FIELDS[kind]]
    if kind == "conn":
        values.append(_label_column(by_name.get("label"), by_name.get("detailed_label", ["-"] * n),
                                    n, errors))
        for name, j in _REQUIRED:
            if None in values[j]:
                for i in compress(count(), map(is_, values[j], repeat(None))):
                    errors.setdefault(i, f"required field {name} is unset")
    issues = [ParseIssue(line_no=line_nos[i], message=errors[i]) for i in sorted(errors)]
    if errors:
        keep = [i not in errors for i in range(n)]
        values = [list(compress(column, keep)) for column in values]
    if kind == "conn":
        return dict(zip(CONN_TABLE_NAMES, values)), issues
    return list(zip(*values)), issues


def _label_column(raw_labels, raw_details, n: int, errors: dict) -> list:
    """The AttackLabel of each line (Benign without a label column); an
    unknown label records its message in ``errors`` unless the line already
    failed."""
    if raw_labels is None:
        return [AttackLabel.Benign] * n
    try:
        return list(map(parse_iot23_label, raw_labels, raw_details))
    except UnknownLabel:
        pass
    labels = []
    for i, (raw, detail) in enumerate(zip(raw_labels, raw_details)):
        try:
            labels.append(parse_iot23_label(raw, detail))
        except UnknownLabel as exc:
            errors.setdefault(i, str(exc))
            labels.append(None)
    return labels


_REQUIRED = [
    (name, _CONN_NAMES.index(name))
    for name in ("ts", "uid", "orig_h", "orig_p", "resp_h", "resp_p",
                 "proto", "conn_state", "missed_bytes", "history",
                 "orig_pkts", "orig_ip_bytes", "resp_pkts", "resp_ip_bytes")
]


def _parse_json(lines: list[str], kind: str) -> ZeekParseResult:
    records: list = []
    issues: list[ParseIssue] = []
    specs = KIND_FIELDS[kind]
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
            issues.append(ParseIssue(line_no=line_no, message=f"bad json: {exc}"))
            continue
        if not isinstance(obj, dict):
            issues.append(ParseIssue(line_no=line_no, message="expected a JSON object"))
            continue
        try:
            values = tuple(
                _convert_json(obj.get(spec.zeek_name, obj.get(spec.name)), spec) for spec in specs
            )
            if kind == "conn":
                # a line without label fields reads as ("-", "-"), Benign
                label = parse_iot23_label(str(obj.get("label", "-")),
                                          str(obj.get("detailed-label", "-")))
                missing = [name for name, j in _REQUIRED if values[j] is None]
                if missing:
                    raise ValueError(f"required field {missing[0]} is unset")
                values = (*values, label)
            records.append(values)
        except (ValueError, UnknownLabel) as exc:
            issues.append(ParseIssue(line_no=line_no, message=str(exc)))
    return ZeekParseResult(records=ConnTable.of(records) if kind == "conn" else records,
                           issues=issues)


def _convert_json(value, spec: FieldSpec):
    if value is None:
        return None
    rules = _TYPES[spec.vtype]
    if rules.json_types and type(value) not in rules.json_types:
        raise ValueError(rules.json_issue.format(name=spec.name, value=value))
    return _check_range([rules.from_json(value)], spec)[0]


def serialize_zeek(records: ConnTable | list[tuple], kind: str) -> str:
    """Render records as a Zeek TSV log (deterministic header, no wall clock).

    A conn log is rendered from its ``ConnTable``'s columns, with its label
    columns when it has rows; a log of any other kind from its row tuples.
    A value that ``parse_zeek`` would misread or refuse (``_check_readable``),
    or a conn row whose required field is unset (``_REQUIRED``), is an
    UnreadableValue, a ValueError and a data error; no value is escaped."""
    if kind not in KIND_FIELDS:
        raise UnknownKind(f"unknown Zeek log kind {kind!r}")
    n = len(records)
    if kind == "conn":
        columns = records.columns
    specs = KIND_FIELDS[kind] + LABEL_FIELDS if kind == "conn" and n else KIND_FIELDS[kind]
    lines = [
        "#separator \\x09",
        "#set_separator\t,",
        "#empty_field\t(empty)",
        "#unset_field\t-",
        f"#path\t{kind}",
        "#open\t2000-01-01-00-00-00",
        "#fields\t" + "\t".join(spec.zeek_name for spec in specs),
        "#types\t" + "\t".join(spec.zeek_type for spec in specs),
    ]
    # a block of rows at a time, so that only one block's rendered values are
    # held before they are joined into lines; a row whose width differs
    # from the others' is a ValueError (strict), never a cut to theirs
    for start in range(0, n, _BLOCK_LINES):
        stop = start + _BLOCK_LINES
        if kind == "conn":
            block = [columns[name][start:stop] for name in _CONN_NAMES]
            # the first row with a required field unset, and its first such
            # field, as the reader names them
            unset = [(block[j].index(None), name) for name, j in _REQUIRED if None in block[j]]
            if unset:
                row, name = min(unset, key=itemgetter(0))
                raise UnreadableValue(f"record {start + 1 + row}: required field {name} is unset")
        else:
            block = zip(*records[start:stop], strict=True)
        rendered = []
        for column, spec in zip(block, KIND_FIELDS[kind]):
            _check_readable(column, spec, spec is specs[-1], start + 1)
            rendered.append(_render_column(column, spec))
        if kind == "conn":
            labels = columns["label"][start:stop]
            rendered.append(["Benign" if label is AttackLabel.Benign else "Malicious"
                             for label in labels])
            rendered.append(["-" if label is AttackLabel.Benign else label.value
                             for label in labels])
        lines.extend(map("\t".join, zip(*rendered)))
    lines.append("#close\t2000-01-01-00-00-00")
    return "\n".join(lines) + "\n"


def _check_readable(column, spec: FieldSpec, last: bool, first_row: int) -> None:
    """Raise UnreadableValue, naming the first record that ``parse_zeek``
    would misread or refuse, counted from ``first_row``.  A string value is
    misread when it equals the unset or empty marker or holds a tab or
    "\\n", or, as the ``last`` value of its line, ends in "\\r", which
    the line rule drops.  Any other value is refused, with the reader's own
    issue, when it lies outside its type's bounds (``_check_range``)."""
    if spec.vtype == "str":
        for row, value in enumerate(column, first_row):
            if value and (value in ("-", "(empty)") or "\t" in value or "\n" in value
                          or last and value.endswith("\r")):
                raise UnreadableValue(f"record {row}: {spec.name}: the Zeek reader would misread {value!r}")
        return
    rows = count(first_row)
    if None in column:
        keep = list(map(is_not, column, repeat(None)))
        rows, column = compress(rows, keep), list(compress(column, keep))
    try:
        _check_range(column, spec)
    except ValueError:
        for row, value in zip(rows, column):
            try:
                _check_range([value], spec)
            except ValueError as exc:
                raise UnreadableValue(f"record {row}: {exc}") from None


_STR_MARKERS_RENDERED = {None: "-", "": "(empty)"}


def _render_column(column, spec: FieldSpec) -> list[str]:
    """Render one column in one pass.  A string column maps None to "-" and
    "" to "(empty)" as it renders; any other column renders its values
    other than None in one pass and puts "-" back in place of each None
    (``_fill``)."""
    if spec.vtype == "str":
        return list(map(_STR_MARKERS_RENDERED.get, column, map(str, column)))
    render = _TYPES[spec.vtype].render
    if None in column:
        keep = list(map(is_not, column, repeat(None)))
        return _fill(keep, list(map(render, compress(column, keep))), "-")
    return list(map(render, column))


def rows_for_table(records: ConnTable | list[tuple], kind: str) -> list[tuple]:
    """Store-ready rows (conn label columns excluded; table schema order):
    a conn table's rows zipped from its columns, and the rows of any other
    kind as they are."""
    if kind == "conn":
        return list(zip(*map(records.columns.__getitem__, _CONN_NAMES)))
    return records
