"""Embedded relational store: typed row storage and query evaluation.

Values are Python natives: str (text), int/float (number), naive UTC
datetime (time), bool (boolean), None (null).  Evaluation semantics, whose
written form is ``values_eq``/``values_lt``:

* integer comparisons are exact; floats compare with relative tolerance
  1e-9 (abs 1e-12); comparisons involving null or incompatible types are
  false;
* a time compares against text read as ISO-8601 (literal, column or
  subquery value); text with a UTC offset is a TypeMismatch, since stored
  times are naive;
* ``=``, ``IN (subquery)`` and ``JOIN ... ON`` share one equality, while
  GROUP BY and DISTINCT key numbers exactly;
* every stored or computed number is finite and within float range:
  ``load_records`` refuses any other (TypeMismatch), so does a SUM or AVG
  whose result would be one, and a number literal beyond float range is a
  ParseError;
* aggregates skip nulls, COUNT(*) counts rows, empty aggregates yield
  null (COUNT yields 0);
* result rows keep a deterministic evaluation order (a join emits each
  left row's right matches in right-table order) but are semantically
  unordered unless the query has ORDER BY.

A query is compiled before any row is read.  Each condition is compiled
once, to passes over a chunk of rows.  Each comparison gets one comparator,
chosen from the attributes of its two sides (column attribute, literal
type, scalar-subquery value), so rows are tested without type dispatch.
AND is its parts' passes run in sequence.  OR is one pass that keeps, in
chunk order, the rows any part keeps; each part tests only the rows the
parts before it dropped, as a row-at-a-time OR would, so a part that can
raise (a time against text with a UTC offset) raises on no other row.

``_run_query`` chains the stages, each taking rows and returning rows, and
loops over no row itself.  Scan filters one base table by WHERE.  ``_join``
filters each table by the WHERE conjuncts that read it alone, joins them
(``_hash_join``), filters the joined rows by the rest and returns them
with the scope narrowed to them: a joined row holds only the columns read
after the join (``_read_after_join``; all of them for SELECT *).
``_project`` takes an ungrouped query's rows, ``_group`` a grouped one's
(the groups, their aggregates and HAVING); each returns the columns, the
output rows (the rows read, where the select list is each of their columns
in order, else each built once) and the ORDER BY keys.  ``_finish`` applies
DISTINCT, ORDER BY (a stable sort of row positions per key) and LIMIT.

WHERE, HAVING, GROUP BY and the join take their rows a chunk of
_CHECK_EVERY rows at a time and read the deadline once per chunk (and once
per group, and once per _CHECK_EVERY joined rows).  A comparison reads the
chunk's column (both, for a column against a column) in one pass, maps
its comparator over the values and keeps rows with ``itertools.compress``;
a null passes no test, so a chunk whose column holds one tests only its
other rows.  A column IN (subquery) maps the subquery's
equality lookup over the column, and a comparison of two constants keeps
every row or none.  GROUP BY takes a chunk's keys with one ``itemgetter`` pass, an
aggregate reads its argument column of a group in one pass, and the join
takes its build and probe keys the same way.

Each stored table is one tuple of rows.  A load builds the table's longer
tuple and swaps in a new table mapping under the writers' lock; no stored
mapping or tuple changes after it is built.  ``snapshot`` is the current
mapping, read-only, so a reader takes no lock, copies no row and sees every
load that finished before it began, and none that finishes during it.
"""

from __future__ import annotations

import bisect
import copy
import heapq
import math
import operator
import threading
import time as _time
import types
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain, compress, repeat
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import sql as _sql
from .errors import (
    ArityMismatch,
    ParseError,
    QueryTimeout,
    TypeMismatch,
    UnknownIdentifier,
    UnknownTable,
)
from .schema import ColumnDef, DatabaseSchema, TableSchema

DEFAULT_TIMEOUT = 5.0

_REL_TOL = 1e-9
_ABS_TOL = 1e-12
_CHECK_EVERY = 4096


@dataclass
class ResultTable:
    """A query's columns and rows; ``query`` is the statement that
    ``Database.execute`` parsed and ran, so no caller parses it again."""
    columns: list[str]
    rows: list[tuple]
    query: _sql.Query | None = field(default=None, compare=False, repr=False)


def parse_time_literal(text: str) -> datetime | None:
    """ISO-8601 (date or date+time, 'T' or space separator), else None."""
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        return None


def _time_of_text(text: str) -> datetime | None:
    """``text`` compared with a stored time: its naive time, or None when it
    is no ISO-8601 time.  A UTC offset is a TypeMismatch, since stored times
    are naive UTC."""
    parsed = parse_time_literal(text)
    if parsed is not None and parsed.tzinfo is not None:
        raise TypeMismatch(f"time text {text!r} has a UTC offset; stored times are naive UTC")
    return parsed


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def numbers_equal(a: float, b: float) -> bool:
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


def values_eq(a: object, b: object) -> bool | None:
    """Equality with null/type strictness: None when not comparable."""
    if a is None or b is None:
        return None
    if _is_number(a) and _is_number(b):
        return numbers_equal(a, b)
    if isinstance(a, bool) and isinstance(b, bool):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, datetime) and isinstance(b, datetime):
        return a == b
    if isinstance(a, datetime) and isinstance(b, str):
        parsed = _time_of_text(b)
        return None if parsed is None else a == parsed
    if isinstance(a, str) and isinstance(b, datetime):
        return values_eq(b, a)
    return None


def values_lt(a: object, b: object) -> bool | None:
    if a is None or b is None:
        return None
    if _is_number(a) and _is_number(b):
        if numbers_equal(a, b):
            return False
        return a < b
    if isinstance(a, str) and isinstance(b, str):
        return a < b
    if isinstance(a, datetime) and isinstance(b, datetime):
        return a < b
    if isinstance(a, datetime) and isinstance(b, str):
        parsed = _time_of_text(b)
        return None if parsed is None else a < parsed
    if isinstance(a, str) and isinstance(b, datetime):
        parsed = _time_of_text(a)
        return None if parsed is None else parsed < b
    return None


def _finite(numbers: Sequence) -> bool:
    """Whether each of ``numbers`` (or null) is finite and within float
    range, as every stored number is, at C speed.  filter(None, ...) drops
    nulls, and zeros, which are finite.  A float sum is finite unless a
    term is NaN or infinite, or the sum of finite terms overflows, which
    the term-by-term pass then tells apart."""
    try:
        if math.isfinite(sum(filter(None, numbers), 0.0)):
            return True
    except OverflowError:  # an int beyond float range
        return False
    return all(map(math.isfinite, filter(None, numbers)))


def _value_checker(col: ColumnDef, table: str) -> Callable[[object], object]:
    """The stored form of a value for ``col``: None stays None, a value of
    the column's attribute passes (a time may also be ISO-8601 text), any
    other value is a TypeMismatch."""
    attr = col.attribute

    def bad(value):
        raise TypeMismatch(
            f"table {table!r}, column {col.name!r} ({attr}): bad value {value!r}"
        )

    def time_value(value):
        parsed = parse_time_literal(value) if isinstance(value, str) else value
        # stored times are naive UTC; an aware one would not order against them
        if isinstance(parsed, datetime) and parsed.tzinfo is None:
            return parsed
        return bad(value)

    if attr == "time":
        return lambda v: v if v is None else time_value(v)
    if attr == "text":
        return lambda v: v if v is None or isinstance(v, str) else bad(v)
    if attr == "number":
        return lambda v: v if v is None or (_is_number(v) and _finite((v,))) else bad(v)
    return lambda v: v if v is None or isinstance(v, bool) else bad(v)  # boolean


_STORED_TYPES = {"text": {str}, "number": {int, float}, "boolean": {bool}, "time": {datetime}}


def _stored_as_is(columns: Sequence[ColumnDef], rows: list[tuple]) -> bool:
    """Whether every value is None or of the exact type its column stores,
    with naive times and finite numbers: values ``_value_checker`` would
    return unchanged, so the rows need no per-value check.  It checks a
    batch per column at C speed; anything else goes through the checkers."""
    for col, values in zip(columns, zip(*rows)):
        kinds = set(map(type, values)) - {type(None)}
        if not kinds <= _STORED_TYPES[col.attribute]:
            return False
        if col.attribute == "time" and any(v.tzinfo is not None for v in values if v is not None):
            return False
        if col.attribute == "number" and not _finite(values):
            return False
    return True


class Database:
    """Schema-validated row store with a minimal SQL front end."""

    def __init__(self, schema: DatabaseSchema):
        self.schema = schema
        self._tables: dict[str, tuple] = {t.name: () for t in schema.tables}
        self._lock = threading.Lock()

    def load_records(self, table: str, records: Iterable[Sequence]) -> int:
        """Validate and append rows; returns the number inserted."""
        tschema = self.schema.table(table)
        if tschema is None:
            raise UnknownTable(f"no such table {table!r}")
        ncols = len(tschema.columns)
        staged = [tuple(record) for record in records]
        if not (set(map(len, staged)) <= {ncols} and _stored_as_is(tschema.columns, staged)):
            # time text to convert, or a bad row to report: the first in order
            checkers = [_value_checker(col, tschema.name) for col in tschema.columns]
            for pos, row in enumerate(staged):
                if len(row) != ncols:
                    raise ArityMismatch(
                        f"table {table!r} expects {ncols} values, got {len(row)}"
                    )
                staged[pos] = tuple([check(v) for check, v in zip(checkers, row)])
        with self._lock:
            self._tables = {**self._tables, tschema.name: self._tables[tschema.name] + tuple(staged)}
        return len(staged)

    def snapshot(self) -> Mapping[str, tuple]:
        return types.MappingProxyType(self._tables)

    def execute(self, query: str, timeout: float = DEFAULT_TIMEOUT) -> ResultTable:
        if math.isnan(timeout):  # no deadline would ever pass
            raise ValueError("timeout must be a number of seconds, not NaN")
        parsed = _sql.parse(query)
        deadline = _time.monotonic() + timeout
        snap = self.snapshot()
        result = _run_query(parsed, self.schema, snap, deadline)
        result.query = parsed
        return result


# ---------------------------------------------------------------------------
# Compiled comparisons: one comparator per (op, attribute, attribute)


class _Operand(NamedTuple):
    """One side of a comparison: a position in the row, or a constant."""

    index: int | None
    attr: str | None  # column attribute; for a constant, that of its value
    value: object = None


def _value_attr(value: object) -> str | None:
    """The attribute a constant compares as; None for null."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "text"
    if isinstance(value, datetime):
        return "time"
    return None


def _constant(value: object) -> _Operand:
    return _Operand(None, _value_attr(value), value)


_FLIPPED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}

# text and time values of the same attribute use Python's own order
_ORDERED = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    ">": operator.gt, "<=": operator.le, ">=": operator.ge,
}
# booleans have equality but no order, so <= and >= reduce to =
_BOOLEAN = {"=": operator.eq, "!=": operator.ne, "<=": operator.eq, ">=": operator.eq}
_NUMBER = {
    "=": numbers_equal,
    "!=": lambda a, b: not numbers_equal(a, b),
    "<": lambda a, b: a < b and not numbers_equal(a, b),
    ">": lambda a, b: a > b and not numbers_equal(a, b),
    "<=": lambda a, b: a < b or numbers_equal(a, b),
    ">=": lambda a, b: a > b or numbers_equal(a, b),
}
# time against text: the text side is parsed per value
_MIXED = {
    "=": lambda a, b: values_eq(a, b) is True,
    "!=": lambda a, b: values_eq(a, b) is False,
    "<": lambda a, b: values_lt(a, b) is True,
    ">": lambda a, b: values_lt(b, a) is True,
    "<=": lambda a, b: values_lt(a, b) is True or values_eq(a, b) is True,
    ">=": lambda a, b: values_lt(b, a) is True or values_eq(a, b) is True,
}


def _value_test(op: str, left_attr: str | None, right_attr: str | None):
    """``(a, b) -> a op b`` for non-null values of the two attributes, as
    values_eq/values_lt decide it; None when the pair never compares true."""
    if left_attr is None or right_attr is None:
        return None
    if left_attr != right_attr:
        return _MIXED[op] if {left_attr, right_attr} == {"time", "text"} else None
    if left_attr == "number":
        return _NUMBER[op]
    if left_attr == "boolean":
        return _BOOLEAN.get(op)
    return _ORDERED[op]


def _tolerance_window(x) -> tuple:
    """(lo, hi) holding every number equal to ``x`` under numbers_equal.

    The window is wider than the tolerance, so a number inside it still
    needs numbers_equal; one outside it never does.
    """
    slack = 2 * (_REL_TOL * abs(x) + _ABS_TOL)
    return x - slack, x + slack


def _comparison_pass(op: str, lhs: _Operand, rhs: _Operand) -> Callable[[Sequence[tuple]], Iterable]:
    """``lhs op rhs`` as a pass over a chunk of rows: its test mapped over
    the column (or the two columns) it reads.  Two constants keep every row
    or none."""
    if op not in _FLIPPED:
        raise ParseError(f"unsupported operator {op!r}")
    if lhs.index is None and rhs.index is not None:
        op, lhs, rhs = _FLIPPED[op], rhs, lhs
    test = _value_test(op, lhs.attr, rhs.attr)
    if test is None:
        return _constant_pass(False)
    if lhs.index is None:
        return _constant_pass(test(lhs.value, rhs.value))
    if rhs.index is not None:
        return _column_pass((lhs.index, rhs.index), lambda a, b: map(test, a, b))
    v = rhs.value
    return _column_pass((lhs.index,), lambda values: map(test, values, repeat(v)))


def _constant_pass(keep: bool) -> Callable[[Sequence[tuple]], Iterable]:
    """A pass that keeps every row of a chunk, or none."""
    return lambda chunk: repeat(keep, len(chunk))


def _column_pass(indexes: tuple, decide: Callable[..., Iterable]) -> Callable[[Sequence[tuple]], Iterable]:
    """A pass that keeps the rows of a chunk whose values at ``indexes``
    ``decide`` finds true; ``decide`` maps one list of non-null values per
    index to their truth values.  A null passes no test, so a chunk whose
    columns hold one decides only its other rows."""
    getters = [operator.itemgetter(index) for index in indexes]

    def column_pass(chunk: Sequence[tuple]) -> Iterable:
        columns = [list(map(get, chunk)) for get in getters]
        if not any(None in values for values in columns):
            return decide(*columns)
        present = list(map(operator.is_not, columns[0], repeat(None)))
        for values in columns[1:]:
            present = list(map(operator.and_, present, map(operator.is_not, values, repeat(None))))
        decided = iter(decide(*[list(compress(values, present)) for values in columns])).__next__
        return [keep and decided() for keep in present]

    return column_pass


def _mask(passes: list, chunk: Sequence[tuple]) -> list:
    """Whether each row of ``chunk`` passes every pass, each run only on
    the rows the passes before it keep."""
    keep = list(passes[0](chunk))
    for run in passes[1:]:
        decided = iter(run(list(compress(chunk, keep)))).__next__
        keep = [kept and decided() for kept in keep]
    return keep


def _any_pass(parts: list[list]) -> Callable[[Sequence[tuple]], list]:
    """OR as one pass: a row is kept when any part (its passes run in
    sequence) keeps it.  Each part tests only the rows the parts before it
    dropped, as a row-at-a-time OR would, so a part raises only on a row
    that OR tests with it."""

    def any_pass(chunk: Sequence[tuple]) -> list:
        keep = _mask(parts[0], chunk)
        for passes in parts[1:]:
            decided = iter(_mask(passes, list(compress(chunk, map(operator.not_, keep))))).__next__
            keep = [kept or decided() for kept in keep]
        return keep

    return any_pass


def _typed_literal(side: _Operand, other_attr: str | None) -> _Operand:
    """An ISO string constant compared with a time value, parsed once."""
    if side.index is None and side.attr == "text" and other_attr == "time":
        parsed = _time_of_text(side.value)
        if parsed is not None:
            return _constant(parsed)
    return side


# ---------------------------------------------------------------------------
# Equality lookup, shared by IN (subquery) and JOIN


def _number_lookup(entries: Iterable[tuple]) -> Callable[[object], Sequence]:
    # keyed by (value, is float): an int key equals an int probe only
    # exactly, so 1 and 1.0 stay apart
    groups: dict = {}
    for pos, (key, payload) in enumerate(entries):
        if key is not None:  # null equals nothing
            groups.setdefault((key, isinstance(key, float)), []).append((pos, payload))
    keys = sorted(groups)

    def lookup(x) -> Sequence:
        lo, hi = _tolerance_window(x)
        i = bisect.bisect_left(keys, (lo,))
        hits = []
        while i < len(keys) and keys[i][0] <= hi:
            if numbers_equal(x, keys[i][0]):
                hits.append(groups[keys[i]])
            i += 1
        return [payload for _, payload in heapq.merge(*hits)]

    return lookup


def _equality_lookup(
    probe_attr: str | None, key_attr: str | None, entries: Iterable[tuple]
) -> Callable[[object], Sequence]:
    """``probe -> payloads`` of the (key, payload) entries whose key equals
    the non-null probe under values_eq, in entry order."""
    if probe_attr is None or key_attr is None:
        return lambda x: ()
    if probe_attr == key_attr == "number":
        return _number_lookup(entries)
    parse_keys = parse_probe = False
    if probe_attr != key_attr:
        if {probe_attr, key_attr} != {"time", "text"}:
            return lambda x: ()
        parse_keys, parse_probe = key_attr == "text", probe_attr == "text"
    # one attribute per side, so hashing never meets 1 == True
    buckets: dict = {}
    for key, payload in entries:
        if key is not None and parse_keys:
            key = _time_of_text(key)
        if key is not None:
            buckets.setdefault(key, []).append(payload)
    if parse_probe:
        return lambda x: buckets.get(_time_of_text(x), ())
    return lambda x: buckets.get(x, ())


# ---------------------------------------------------------------------------
# Evaluation


class Scope:
    """Column resolution over one table or a joined pair."""

    def __init__(self, schema: DatabaseSchema, tables: list[tuple[TableSchema, int]]):
        # tables: (table, base offset into the combined row); ``schema``
        # finds the table a qualifier names
        self.schema = schema
        self.tables = tables
        self._slots: dict[int, int] | None = None  # set by narrowed()

    @classmethod
    def of(cls, query: _sql.Query, schema: DatabaseSchema) -> "Scope":
        """The columns a query's own row holds: its table's, then its join
        table's.  An unknown table or a self-join is an error."""
        main = _resolve_table(schema, query.table)
        if query.join is None:
            return cls(schema, [(main, 0)])
        right = _resolve_table(schema, query.join.table)
        if right is main:
            raise ParseError("self-joins are not supported")
        return cls(schema, [(main, 0), (right, len(main.columns))])

    def narrowed(self, positions: Sequence[int]) -> "Scope":
        """This scope over rows that hold only the combined row's
        ``positions``, in that order.  Names resolve as before; a name
        outside ``positions`` is a KeyError, a bug in the caller."""
        narrow = copy.copy(self)
        narrow._slots = {pos: slot for slot, pos in enumerate(positions)}
        return narrow

    def resolve(self, raw: str) -> tuple[int, ColumnDef]:
        idx, col = self._locate(raw)
        return (idx, col) if self._slots is None else (self._slots[idx], col)

    def _locate(self, raw: str) -> tuple[int, ColumnDef]:
        hits = [(t, base, i) for t, base in self.tables if (i := t.column_index(raw)) is not None]
        if len(hits) == 1:
            t, base, i = hits[0]
            return base + i, t.columns[i]
        if hits:
            raise UnknownIdentifier(f"ambiguous column {raw!r}; qualify with a table name")
        # qualified form: longest table-name prefix split at a dot
        for split in range(len(raw) - 1, 0, -1):
            if raw[split] != ".":
                continue
            named = self.schema.table(raw[:split])
            for t, base in self.tables:
                if t is named and (i := t.column_index(raw[split + 1 :])) is not None:
                    return base + i, t.columns[i]
        raise UnknownIdentifier(f"unknown column {raw!r}")

    def operand(self, node) -> _Operand:
        """A WHERE operand: a column of the scope's row, or a literal."""
        if isinstance(node, _sql.ColumnRef):
            idx, col = self.resolve(node.name)
            return _Operand(idx, col.attribute)
        if isinstance(node, _sql.Literal):
            return _constant(node.value)
        raise ParseError("aggregates are not allowed in WHERE or JOIN conditions")

    def all_columns(self) -> list[ColumnDef]:
        out: list[ColumnDef] = []
        for t, _ in self.tables:
            out.extend(t.columns)
        return out


def _resolve_table(schema: DatabaseSchema, raw: str) -> TableSchema:
    t = schema.table(raw)
    if t is None:
        raise UnknownIdentifier(f"unknown table {raw!r}")
    return t


def _check_deadline(deadline: float) -> None:
    if _time.monotonic() > deadline:
        raise QueryTimeout("query exceeded its time budget")


def _chunks(rows: Sequence[tuple], deadline: float) -> Iterable[Sequence[tuple]]:
    """``rows`` in slices of _CHECK_EVERY, checking the deadline before each."""
    for start in range(0, len(rows), _CHECK_EVERY):
        _check_deadline(deadline)
        yield rows[start : start + _CHECK_EVERY]


def _filter(rows: Sequence[tuple], passes: list, deadline: float) -> Sequence[tuple]:
    """The rows every pass keeps, in order; a pass takes a chunk of rows
    and returns the truth value of each."""
    if not passes:
        return rows
    kept: list[tuple] = []
    for chunk in _chunks(rows, deadline):
        for run in passes:
            chunk = list(compress(chunk, run(chunk)))
        kept.extend(chunk)
    return kept


class _AggSpec:
    """One aggregate computation over a group of rows."""

    def __init__(self, call: _sql.AggCall, scope: Scope):
        self.op = call.op
        self.attr = "number"
        if isinstance(call.arg, _sql.Star):
            self.index: int | None = None
            self.label = f"{call.op}(*)"
        else:
            idx, col = scope.resolve(call.arg.name)
            if call.op in ("AVG", "SUM") and col.attribute not in ("number",):
                raise ParseError(f"{call.op} requires a number column, got {col.name!r} ({col.attribute})")
            if call.op in ("MIN", "MAX"):
                self.attr = col.attribute
            self.index = idx
            self.label = f"{call.op}({col.name})"
        self.key = (self.op, self.index)

    def compute(self, rows: Sequence[tuple]) -> object:
        if self.index is None:  # COUNT(*)
            return len(rows)
        values = list(map(operator.itemgetter(self.index), rows))
        if None in values:
            values = [v for v in values if v is not None]
        if self.op == "COUNT":
            return len(values)
        if not values:
            return None
        if self.op == "MIN":
            return min(values)
        if self.op == "MAX":
            return max(values)
        try:
            total = sum(values)  # exact over ints alone
            result = total / len(values) if self.op == "AVG" else total
            if math.isfinite(result):  # an int beyond float range raises here
                return result
        except OverflowError:  # an int beyond float range divided, or added to a float
            pass
        raise TypeMismatch(f"{self.label} is beyond float range")


def _compile_passes(cond, operand, schema, snap, deadline) -> list:
    """A WHERE or HAVING condition as passes over a chunk of rows, run one
    after the other; ``operand`` places an AST operand in the row or makes
    it a constant.  AND is its parts' passes, OR one pass, a comparison one
    pass per comparison it amounts to, and ``probe IN (subquery)`` one pass
    that keeps a non-null probe equal to a value the subquery returned."""
    if isinstance(cond, _sql.And):
        return [p for item in cond.items for p in _compile_passes(item, operand, schema, snap, deadline)]
    if isinstance(cond, _sql.Or):
        return [_any_pass([_compile_passes(item, operand, schema, snap, deadline) for item in cond.items])]
    if isinstance(cond, _sql.InSubquery):
        # the values are one column's, so they share one attribute
        values = [v for v in _subquery_values(cond.query, schema, snap, deadline, "IN") if v is not None]
        probe = operand(cond.operand)
        key_attr = _value_attr(values[0]) if values else None
        lookup = _equality_lookup(probe.attr, key_attr, [(v, True) for v in values])
        if probe.index is None:
            return [_constant_pass(probe.value is not None and bool(lookup(probe.value)))]
        return [_column_pass((probe.index,), lambda probes: map(lookup, probes))]
    return [_comparison_pass(*c) for c in _comparisons(cond, operand, schema, snap, deadline)]


def _comparisons(cond, operand, schema, snap, deadline) -> list[tuple[str, _Operand, _Operand]]:
    """The (op, lhs, rhs) comparisons a comparison, BETWEEN or scalar
    subquery condition amounts to, with text constants compared against a
    time typed as times."""
    if isinstance(cond, _sql.Comparison):
        lhs, rhs = operand(cond.lhs), operand(cond.rhs)
        return [(cond.op, _typed_literal(lhs, rhs.attr), _typed_literal(rhs, lhs.attr))]
    if isinstance(cond, _sql.Between):
        value = operand(cond.operand)
        lo = _typed_literal(operand(cond.lo), value.attr)
        hi = _typed_literal(operand(cond.hi), value.attr)
        return [(">=", value, lo), ("<=", value, hi)]
    if isinstance(cond, _sql.SubqueryCmp):
        values = _subquery_values(cond.query, schema, snap, deadline, "scalar")
        if len(values) > 1:
            raise ParseError("scalar subquery returned more than one row")
        rhs = _constant(values[0] if values else None)
        lhs = operand(cond.lhs)
        return [(cond.op, _typed_literal(lhs, rhs.attr), _typed_literal(rhs, lhs.attr))]
    raise ParseError(f"unsupported condition {cond!r}")


def _conjuncts(cond) -> list:
    if cond is None:
        return []
    if isinstance(cond, _sql.And):
        return [c for item in cond.items for c in _conjuncts(item)]
    return [cond]


def _shifted(operand: Callable[[object], _Operand], offset: int) -> Callable[[object], _Operand]:
    """``operand`` for a row that starts ``offset`` columns into the scope's row."""

    def shifted(node) -> _Operand:
        side = operand(node)
        return side if side.index is None else side._replace(index=side.index - offset)

    return shifted


def _subquery_values(query, schema, snap, deadline, kind: str) -> list:
    """The values of a subquery's one column, in row order; ``kind`` names
    the subquery in the error for any other width."""
    result = _run_query(query, schema, snap, deadline)
    if len(result.columns) != 1:
        raise ParseError(f"{kind} subquery must select exactly one column")
    return [row[0] for row in result.rows]


def _run_query(
    query: _sql.Query,
    schema: DatabaseSchema,
    snap: Mapping[str, tuple],
    deadline: float,
) -> ResultTable:
    _check_deadline(deadline)
    if query.table is None:
        values = tuple(item.value for item in query.select)
        return ResultTable(columns=[_render_literal_name(v) for v in values], rows=[values])
    scope = Scope.of(query, schema)
    if query.join is not None:
        scope, rows = _join(query, scope, snap, deadline)
    else:
        where = [] if query.where is None else _compile_passes(
            query.where, scope.operand, schema, snap, deadline)
        rows = _filter(snap[scope.tables[0][0].name], where, deadline)
    aggregates = any(isinstance(item, _sql.AggCall) for item in query.select)
    if query.group_by or query.having is not None or aggregates:
        columns, out_rows, order_keys = _group(query, scope, rows, snap, deadline)
    else:
        columns, out_rows, order_keys = _project(query, scope, rows)
    return _finish(query, columns, out_rows, order_keys)


def _join(query: _sql.Query, scope: Scope, snap, deadline) -> tuple[Scope, list[tuple]]:
    """``scope`` narrowed to a query's joined rows, and those rows.  A WHERE
    conjunct that reads one table filters that table before the join; the
    rest filter the joined rows."""
    (left, _), (right, base) = scope.tables
    left_key = scope.resolve(query.join.left.name)
    right_key = scope.resolve(query.join.right.name)
    if left_key[0] >= base and right_key[0] < base:
        left_key, right_key = right_key, left_key
    elif not (left_key[0] < base <= right_key[0]):
        raise ParseError("JOIN condition must relate one column from each table")

    def passes_of(cond, operand):
        return _compile_passes(cond, operand, scope.schema, snap, deadline)

    left_passes, right_passes, spanning = [], [], []
    for cond in _conjuncts(query.where):
        sides = {
            scope.resolve(node.name)[0] >= base
            for leaf in _sql.leaves(cond)
            for node in _sql.operands(leaf)
            if isinstance(node, _sql.ColumnRef)
        }
        if sides == {True}:
            right_passes.extend(passes_of(cond, _shifted(scope.operand, base)))
        elif sides == {True, False}:
            spanning.append(cond)
        else:
            left_passes.extend(passes_of(cond, scope.operand))
    # joined rows hold only the columns read after the join; everything
    # after it resolves names to their place in that narrow row
    reads = _read_after_join(query, spanning, scope)
    narrow = scope.narrowed(reads)
    joined_passes = [p for cond in spanning for p in passes_of(cond, narrow.operand)]
    rows = _hash_join(
        _filter(snap[left.name], left_passes, deadline),
        _filter(snap[right.name], right_passes, deadline),
        (left_key[0], left_key[1].attribute, [p for p in reads if p < base]),
        (right_key[0] - base, right_key[1].attribute, [p - base for p in reads if p >= base]),
        deadline,
    )
    return narrow, _filter(rows, joined_passes, deadline)


def _project(query: _sql.Query, scope: Scope, rows: Sequence[tuple]) -> tuple:
    """An ungrouped query's select list over ``rows``: (its columns, the
    output rows, the ORDER BY keys ``_finish`` takes)."""
    if any(isinstance(item, _sql.Star) for item in query.select):
        columns = [c.name for c in scope.all_columns()]
        selected = None
        out_rows = list(rows)
    else:
        selected, getters, columns = [], [], []
        for item in query.select:
            if isinstance(item, _sql.ColumnRef):
                idx, col = scope.resolve(item.name)
                selected.append(idx)
                getters.append(operator.itemgetter(idx))
                columns.append(col.name)
            elif isinstance(item, _sql.Literal):
                getters.append(lambda row, v=item.value: v)
                columns.append(_render_literal_name(item.value))
            else:
                raise ParseError("select items must be columns, literals, or aggregates")
        if len(selected) != len(getters):  # literal items
            out_rows = [tuple([g(row) for g in getters]) for row in rows]
        else:
            out_rows = list(_picked(selected, rows))
    if not query.order_by:
        return columns, out_rows, None
    idxs = []
    for item in query.order_by:
        if isinstance(item.expr, _sql.AggCall):
            raise ParseError("aggregate ORDER BY requires GROUP BY")
        idx, _ = scope.resolve(item.expr.name)
        if query.distinct and selected is not None and idx not in selected:
            raise ParseError("ORDER BY with DISTINCT must use selected columns")
        idxs.append(idx)
    return columns, out_rows, (list(_picked(idxs, rows)), [item.desc for item in query.order_by])


def _group(query: _sql.Query, scope: Scope, rows: Sequence[tuple], snap, deadline) -> tuple:
    """A grouped query over ``rows``: each group becomes one row of its key
    values followed by every aggregate the query uses, computed once per
    group, and HAVING filters those rows.  Returns (the columns, the output
    rows, the ORDER BY keys ``_finish`` takes)."""
    if any(isinstance(item, _sql.Star) for item in query.select):
        raise ParseError("'*' cannot be combined with aggregation or GROUP BY")
    group_idxs = [scope.resolve(ref.name)[0] for ref in query.group_by]
    agg_specs: dict[tuple, _AggSpec] = {}

    def slot(node, message: str) -> tuple[int, str, str]:
        """(place in a group row, attribute, label) of an aggregate or a
        group column; any other column is ParseError(``message``)."""
        if isinstance(node, _sql.AggCall):
            spec = _AggSpec(node, scope)
            spec = agg_specs.setdefault(spec.key, spec)
            return len(group_idxs) + list(agg_specs).index(spec.key), spec.attr, spec.label
        idx, col = scope.resolve(node.name)
        if idx not in group_idxs:
            raise ParseError(message.format(name=col.name))
        return group_idxs.index(idx), col.attribute, col.name

    columns, select_slots = [], []
    for item in query.select:
        if not isinstance(item, (_sql.AggCall, _sql.ColumnRef)):
            raise ParseError("select items must be columns or aggregates")
        place, _, label = slot(item, "column {name!r} must appear in GROUP BY or inside an aggregate")
        select_slots.append(place)
        columns.append(label)

    def having_operand(node) -> _Operand:
        if isinstance(node, _sql.Literal):
            return _constant(node.value)
        return _Operand(*slot(node, "HAVING may only use group columns or aggregates, not {name!r}")[:2])

    having = [] if query.having is None else _compile_passes(
        query.having, having_operand, scope.schema, snap, deadline)
    order_slots = [slot(item.expr, "ORDER BY in a grouped query must use group columns or aggregates")[0]
                   for item in query.order_by]

    # one group key: the value itself, made a 1-tuple once per group
    groups: dict = {}
    if group_idxs:
        key_of = operator.itemgetter(*group_idxs)
        for chunk in _chunks(rows, deadline):
            for key, row in zip(map(key_of, chunk), chunk):
                members = groups.get(key)
                if members is None:
                    groups[key] = [row]
                else:
                    members.append(row)
    else:
        groups[()] = rows

    one_key = len(group_idxs) == 1
    group_rows: list[tuple] = []
    for key, members in groups.items():
        _check_deadline(deadline)
        aggregates = tuple([spec.compute(members) for spec in agg_specs.values()])
        group_rows.append(((key,) if one_key else key) + aggregates)
    group_rows = _filter(group_rows, having, deadline)
    order_keys = None
    if order_slots:
        order_keys = list(_picked(order_slots, group_rows)), [item.desc for item in query.order_by]
    return columns, list(_picked(select_slots, group_rows)), order_keys


def _read_after_join(query: _sql.Query, spanning: list, scope: Scope) -> Sequence[int]:
    """The positions in the joined row that are read after the join, in
    order: by WHERE conjuncts that span both tables, the select list,
    GROUP BY, aggregate arguments, HAVING and ORDER BY.  SELECT * reads
    every position."""
    if any(isinstance(item, _sql.Star) for item in query.select):
        return range(len(scope.all_columns()))
    nodes = [*query.select, *query.group_by, *(item.expr for item in query.order_by)]
    for cond in (*spanning, query.having):
        nodes.extend(node for leaf in _sql.leaves(cond) for node in _sql.operands(leaf))
    refs = (node.arg if isinstance(node, _sql.AggCall) else node for node in nodes)
    return sorted({scope.resolve(ref.name)[0] for ref in refs if isinstance(ref, _sql.ColumnRef)})


def _picked(positions: Sequence[int], rows: Sequence[tuple]) -> Iterable[tuple]:
    """The tuple of each row's values at ``positions``, in row order: the
    rows themselves where ``positions`` is each of their places, in order."""
    if not positions:
        return repeat((), len(rows))
    if rows and list(positions) == list(range(len(rows[0]))):
        return rows
    if len(positions) == 1:
        return zip(map(operator.itemgetter(positions[0]), rows))
    return map(operator.itemgetter(*positions), rows)


def _hash_join(left_rows, right_rows, left_key, right_key, deadline) -> list[tuple]:
    """Equi-join on (index, attribute, kept positions) keys under the
    engine's equality.  A joined row holds its left row's kept positions,
    then its right row's."""
    (left_idx, left_attr, left_kept), (right_idx, right_attr, right_kept) = left_key, right_key
    right_key_of, left_key_of = operator.itemgetter(right_idx), operator.itemgetter(left_idx)
    lookup = _equality_lookup(
        left_attr, right_attr,
        chain.from_iterable(
            zip(map(right_key_of, chunk), _picked(right_kept, chunk))
            for chunk in _chunks(right_rows, deadline)
        ),
    )
    # a side that keeps no column adds nothing to its joined rows
    if not right_kept:
        joined_rows = lambda lpart, rparts: repeat(lpart, len(rparts))
    elif not left_kept:
        joined_rows = lambda lpart, rparts: rparts
    else:
        joined_rows = lambda lpart, rparts: [lpart + rpart for rpart in rparts]
    joined: list[tuple] = []
    checked_at = 0
    for chunk in _chunks(left_rows, deadline):
        for key, lpart in zip(map(left_key_of, chunk), _picked(left_kept, chunk)):
            if key is None:
                continue
            matches = lookup(key)
            for start in range(0, len(matches), _CHECK_EVERY):
                joined.extend(joined_rows(lpart, matches[start : start + _CHECK_EVERY]))
                if len(joined) - checked_at >= _CHECK_EVERY:
                    _check_deadline(deadline)
                    checked_at = len(joined)
    return joined


def _render_literal_name(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_TYPE_RANK = {bool: 0, int: 1, float: 1, datetime: 2, str: 3}


def _sort_token(value: object):
    if value is None:
        return (0, 0, 0)
    rank = _TYPE_RANK.get(type(value), 4)
    if isinstance(value, bool):
        return (1, rank, int(value))
    return (1, rank, value)


def _finish(query, columns, rows, order_keys) -> ResultTable:
    """Shared tail: DISTINCT (the first of equal rows), ORDER BY (stable,
    nulls first asc), LIMIT.  ``order_keys`` is (the key values of each row,
    the desc flag of each key), or None without ORDER BY."""
    if order_keys is not None:
        keys, descs = order_keys
        if query.distinct:
            seen: set = set()
            kept = [i for i, row in enumerate(rows) if not (row in seen or seen.add(row))]
            rows, keys = [rows[i] for i in kept], [keys[i] for i in kept]
        order = list(range(len(rows)))
        for pos in range(len(descs) - 1, -1, -1):
            order.sort(key=lambda i: _sort_token(keys[i][pos]), reverse=descs[pos])
        rows = [rows[i] for i in order]
    elif query.distinct:
        rows = list(dict.fromkeys(rows))
    if query.limit is not None:
        rows = rows[: query.limit]
    return ResultTable(columns=columns, rows=rows)
