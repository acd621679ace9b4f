"""The engine agrees with its written semantics (values_eq / values_lt) on
every comparison path: compiled WHERE and HAVING comparisons, IN
(subquery), JOIN, and WHERE filters pushed below a join."""

import math
import tracemalloc
from datetime import datetime
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iotsqlbench.evaluation import score_sql_corpus
from iotsqlbench.modelio import PredictionRecord, SqlExample
from iotsqlbench.store import (
    ColumnDef,
    Database,
    ParseError,
    QueryTimeout,
    TableSchema,
    TypeMismatch,
    UnknownIdentifier,
    define_schema,
    parse,
)
from iotsqlbench.store import engine
from iotsqlbench.store import sql as _sql
from iotsqlbench.store.engine import values_eq, values_lt
from iotsqlbench.templates import CorpusConfig, generate_corpus

ATTRS = ("text", "number", "time", "boolean")
OPS = ("=", "!=", "<", ">", "<=", ">=")


def written(op, a, b):
    """``a op b`` as values_eq/values_lt define it."""
    eq, lt, gt = values_eq(a, b) is True, values_lt(a, b) is True, values_lt(b, a) is True
    return {
        "=": eq, "!=": values_eq(a, b) is False, "<": lt, ">": gt, "<=": lt or eq, ">=": gt or eq,
    }[op]


def one_row_db(row: dict):
    """Tables ``t`` and ``k``, each with one row: column ``<name>_<attr>``
    holds ``row[name]`` in the column of its attribute, null elsewhere."""
    cols = tuple(ColumnDef(f"{name}_{attr}", attr) for name in row for attr in ATTRS)
    db = Database(define_schema([TableSchema("t", cols), TableSchema("k", cols)]))
    values = tuple(v if attr == attr_of(v) else None for v in row.values() for attr in ATTRS)
    db.load_records("t", [values])
    db.load_records("k", [values])
    return db


def attr_of(value):
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, datetime):
        return "time"
    return "text"


def literal(value):
    """SQL text for a literal, or None when the dialect cannot spell it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        text = repr(abs(value))
        return f"-{text}" if math.copysign(1.0, value) < 0 else text
    if isinstance(value, datetime):
        return f'"{value.isoformat()}"'
    return f'"{value}"'


NEAR = (0.0, 1e-12, -1e-12, 5e-10, -5e-10, 9.99e-10, 1e-9, -1e-9, 1.01e-9, 2e-9, 1e-6)
BASES = (0.0, 1.0, 3.0, -2.5, 1e-13, 1e12, 1.7976931348623157e308, 2.0**60)

near_floats = st.builds(
    lambda base, rel, absolute: base * (1 + rel) + absolute,
    st.sampled_from(BASES), st.sampled_from(NEAR), st.sampled_from((0.0, 0.0, 1e-12, -3e-12)),
)
numbers = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-5, 5),
    near_floats,
    st.sampled_from((math.nan, math.inf, -math.inf, 3, 3.0, 3.0000000001, 2**60, 2**60 + 1, float(2**60))),
    st.floats(allow_nan=True, allow_infinity=True),
)
times = st.datetimes(min_value=datetime(2020, 12, 30), max_value=datetime(2021, 1, 2))
texts = st.one_of(
    st.sampled_from(("2021-01-01", "2021-01-01T00:00:00", "2021-01-01 12:30:00", "2021-13-45", "abc", "")),
    st.text(alphabet="abz019-:T ", max_size=10),
)
VALUES = {"text": texts, "number": numbers, "time": times, "boolean": st.booleans()}


def values_of(attr):
    return st.one_of(st.none(), VALUES[attr], VALUES[attr])


def count(db, sql):
    return db.execute(sql).rows[0][0]


@pytest.mark.parametrize("left", ATTRS)
@pytest.mark.parametrize("right", ATTRS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_comparisons_follow_written_semantics(left, right, data):
    a = data.draw(values_of(left), label="a")
    b = data.draw(values_of(right), label="b")
    if left == right == "number" and a is not None and data.draw(st.booleans()):
        # b within or just outside tolerance of a
        b = data.draw(st.builds(
            lambda rel, absolute: a * (1 + rel) + absolute,
            st.sampled_from(NEAR + tuple(-r for r in NEAR)), st.sampled_from((0.0, 1e-12, -3e-12)),
        ), label="b near a")
    db = one_row_db({"a": a, "b": b})
    col_a, col_b = f"a_{left}", f"b_{right}"
    lit_a, lit_b = literal(a), literal(b)
    for op in OPS:
        expected = int(written(op, a, b))
        assert count(db, f"SELECT COUNT(*) FROM t WHERE {col_a} {op} {col_b}") == expected, op
        assert count(db, f"SELECT COUNT(*) FROM t WHERE {col_a} {op} (SELECT {col_b} FROM k)") == expected, op
        # HAVING compares aggregates through the same comparators
        having = f"SELECT {col_a} FROM t GROUP BY {col_a} HAVING MAX({col_a}) {op} (SELECT {col_b} FROM k)"
        assert len(db.execute(having).rows) == expected, op
        if b is not None and lit_b is not None:
            # a literal compares as written; a time column pre-parses it
            want = int(written(op, a, b if isinstance(b, (bool, int, float)) else lit_b[1:-1]))
            assert count(db, f"SELECT COUNT(*) FROM t WHERE {col_a} {op} {lit_b}") == want, op
        if a is not None and lit_a is not None:
            want = int(written(op, a if isinstance(a, (bool, int, float)) else lit_a[1:-1], b))
            assert count(db, f"SELECT COUNT(*) FROM t WHERE {lit_a} {op} {col_b}") == want, op


@settings(max_examples=60, deadline=None)
@given(
    probes=st.lists(st.one_of(st.none(), numbers), max_size=8),
    keys=st.lists(st.one_of(st.none(), numbers), max_size=8),
)
# an int probe equals an int key only exactly, a float key within tolerance
@example(probes=[2**60 + 1, 2**60], keys=[2**60, float(2**60), math.nan, math.inf])
def test_in_and_join_over_numbers_follow_values_eq(probes, keys):
    db = Database(define_schema([
        TableSchema("p", (ColumnDef("i", "number"), ColumnDef("x", "number"))),
        TableSchema("q", (ColumnDef("j", "number"), ColumnDef("y", "number"))),
    ]))
    db.load_records("p", list(enumerate(probes)))
    db.load_records("q", list(enumerate(keys)))
    got = db.execute("SELECT i FROM p WHERE x IN (SELECT y FROM q)").rows
    assert got == [(i,) for i, x in enumerate(probes) if any(values_eq(x, y) is True for y in keys)]
    # a join emits left rows in order, each followed by its right matches in order
    joined = db.execute("SELECT i, j FROM p JOIN q ON p.x = q.y").rows
    assert joined == [
        (i, j) for i, x in enumerate(probes) for j, y in enumerate(keys) if values_eq(x, y) is True
    ]


def attr_db():
    db = Database(define_schema([
        TableSchema("t", (ColumnDef("id", "number"), ColumnDef("n", "number"),
                          ColumnDef("f", "number"), ColumnDef("flag", "boolean"),
                          ColumnDef("ts", "time"))),
        TableSchema("u", (ColumnDef("n", "number"), ColumnDef("flag", "boolean"),
                          ColumnDef("label", "text"))),
    ]))
    db.load_records("t", [
        (1, 1, 3.0000000001, True, datetime(2021, 1, 1, 12)),
        (2, 0, 2.5, False, datetime(2020, 12, 31)),
        (3, 3, 7.0, True, None),
    ])
    db.load_records("u", [(1, True, "one"), (3, False, "three"), (0, True, "zero")])
    return db


def test_in_subquery_keeps_booleans_apart_from_numbers():
    db = attr_db()
    assert count(db, "SELECT COUNT(*) FROM t WHERE flag = 1") == 0
    assert count(db, "SELECT COUNT(*) FROM t WHERE flag IN (SELECT n FROM u)") == 0
    assert count(db, "SELECT COUNT(*) FROM t WHERE n IN (SELECT flag FROM u)") == 0
    assert count(db, "SELECT COUNT(*) FROM t WHERE flag IN (SELECT flag FROM u)") == 3


def test_in_subquery_uses_float_tolerance_like_equals():
    db = attr_db()
    assert count(db, "SELECT COUNT(*) FROM t WHERE f = 3") == 1
    assert db.execute("SELECT id FROM t WHERE f IN (SELECT n FROM u)").rows == [(1,)]


def test_join_never_matches_boolean_to_number():
    db = attr_db()
    assert count(db, "SELECT COUNT(*) FROM t JOIN u ON t.n = u.flag") == 0
    assert count(db, "SELECT COUNT(*) FROM t JOIN u ON t.flag = u.n") == 0
    assert db.execute("SELECT id, label FROM t JOIN u ON t.flag = u.flag").rows == [
        (1, "one"), (1, "zero"), (2, "three"), (3, "one"), (3, "zero"),
    ]


def test_int_beyond_float_range_compares_without_error():
    db = Database(define_schema([TableSchema("t", (ColumnDef("n", "number"),))]))
    huge = 10**400
    db.load_records("t", [(huge,), (1.5,), (3,)])
    assert db.execute(f"SELECT n FROM t WHERE n = {huge}").rows == [(huge,)]
    assert db.execute(f"SELECT n FROM t WHERE n < {huge}").rows == [(1.5,), (3,)]
    assert db.execute("SELECT n FROM t WHERE n IN (SELECT n FROM t)").rows == [(huge,), (1.5,), (3,)]


@pytest.mark.parametrize("where", [
    't.ts < "2021-01-01T00:00:00+00:00"',
    't.ts = "2021-01-01 00:00:00+00:00"',
    't.ts BETWEEN "2020-01-01" AND "2021-06-01T00:00:00-05:00"',
    't.ts < (SELECT "2021-01-01T00:00:00+00:00")',
    '"2021-01-01T00:00:00+00:00" > (SELECT MAX(ts) FROM t)',
    't.ts = (SELECT "2021-01-01T00:00:00+00:00")',
])
def test_offset_aware_time_literal_is_a_type_mismatch(where):
    with pytest.raises(TypeMismatch):
        attr_db().execute(f"SELECT id FROM t WHERE {where}")


@pytest.mark.parametrize("having", [
    'MAX(ts) > "2021-01-01T00:00:00+01:00"',
    'MAX(ts) > (SELECT "2021-01-01T00:00:00+01:00")',
])
def test_offset_aware_time_literal_in_having_is_a_type_mismatch(having):
    with pytest.raises(TypeMismatch):
        attr_db().execute(f"SELECT n FROM t GROUP BY n HAVING {having}")


@pytest.mark.parametrize("sql", [
    "SELECT id FROM t WHERE ts < s",
    "SELECT id FROM t WHERE s >= ts",
    "SELECT id FROM t WHERE ts = s",
    "SELECT id FROM t WHERE ts < (SELECT s FROM v)",
    "SELECT id FROM t WHERE ts IN (SELECT s FROM v)",
    "SELECT id FROM v WHERE s IN (SELECT ts FROM t)",
    "SELECT id FROM t JOIN v ON t.ts = v.s",
])
def test_offset_aware_text_value_against_a_time_is_a_type_mismatch(sql):
    db = Database(define_schema([
        TableSchema("t", (ColumnDef("id", "number"), ColumnDef("ts", "time"), ColumnDef("s", "text"))),
        TableSchema("v", (ColumnDef("s", "text"),)),
    ]))
    db.load_records("t", [(1, datetime(2021, 1, 1), "2021-01-01T00:00:00+00:00")])
    db.load_records("v", [("2021-01-01T00:00:00+00:00",)])
    with pytest.raises(TypeMismatch):
        db.execute(sql)


@pytest.mark.parametrize("value", [
    "2021-01-01T00:00:00+00:00",
    datetime.fromisoformat("2021-01-01T00:00:00+01:00"),
])
def test_offset_aware_time_is_rejected_at_load(value):
    db = Database(define_schema([TableSchema("t", (ColumnDef("ts", "time"),))]))
    with pytest.raises(TypeMismatch):
        db.load_records("t", [(value,)])
    assert db.row_count("t") == 0


def test_long_flat_and_or_conditions_compile_and_run():
    db = attr_db()
    ors = " OR ".join(f"(n = {k})" for k in range(2000, 4000)) + " OR (n = 3)"
    assert db.execute(f"SELECT id FROM t WHERE {ors}").rows == [(3,)]
    ands = " AND ".join(f"(COUNT(*) > {-k})" for k in range(2000))
    assert db.execute(f"SELECT n FROM t GROUP BY n HAVING {ands}").rows == [(1,), (0,), (3,)]
    nested_ands = "(id = 1) OR (" + " AND ".join(f"(n < {k})" for k in range(1, 2001)) + ")"
    assert db.execute(f"SELECT id FROM t WHERE {nested_ands}").rows == [(1,), (2,)]


def pushdown_db(left_rows, right_rows):
    db = Database(define_schema([
        TableSchema("a", (ColumnDef("id", "number"), ColumnDef("k", "text"), ColumnDef("x", "number"))),
        TableSchema("b", (ColumnDef("k", "text"), ColumnDef("y", "number"), ColumnDef("tag", "text"))),
    ]))
    db.load_records("a", left_rows)
    db.load_records("b", right_rows)
    return db


# (WHERE clause, the same test on a joined row (a.id, a.k, a.x, b.k, b.y,
# b.tag) given the subquery results ctx)
PUSHDOWN_CASES = [
    ("a.x > 2", lambda r, ctx: r[2] is not None and r[2] > 2),
    ('b.tag = "p"', lambda r, ctx: r[5] == "p"),
    ('(x > 2) AND (tag = "p")', lambda r, ctx: r[2] is not None and r[2] > 2 and r[5] == "p"),
    ('(x > 2) OR (tag = "p")', lambda r, ctx: (r[2] is not None and r[2] > 2) or r[5] == "p"),
    ('(y < 5) AND ((x = 1) OR (tag != "q")) AND (id >= 0)',
     lambda r, ctx: r[4] is not None and r[4] < 5 and (r[2] == 1 or (r[5] is not None and r[5] != "q"))
     and r[0] >= 0),
    ("(x = y) AND (y > 1)",
     lambda r, ctx: r[2] is not None and r[4] is not None and r[2] == r[4] and r[4] > 1),
    ('(a.k IN (SELECT k FROM b WHERE (tag = "q"))) AND (1 = 1)', lambda r, ctx: r[1] in ctx["q_keys"]),
    ("b.y > (SELECT MIN(x) FROM a)",
     lambda r, ctx: r[4] is not None and ctx["min_x"] is not None and r[4] > ctx["min_x"]),
]

rows_a = st.lists(
    st.tuples(st.integers(0, 9), st.sampled_from(("k0", "k1", "k2")), st.one_of(st.none(), st.integers(0, 4))),
    max_size=10,
)
rows_b = st.lists(
    st.tuples(st.sampled_from(("k0", "k1", "k2")), st.one_of(st.none(), st.integers(0, 6)),
              st.one_of(st.none(), st.sampled_from(("p", "q")))),
    max_size=10,
)


@pytest.mark.parametrize("where, keep", PUSHDOWN_CASES, ids=[c[0] for c in PUSHDOWN_CASES])
@settings(max_examples=40, deadline=None)
@given(left=rows_a, right=rows_b)
def test_pushdown_matches_filtering_after_the_join(where, keep, left, right):
    db = pushdown_db(left, right)
    xs = [x for _, _, x in left if x is not None]
    ctx = {"q_keys": {k for k, _, tag in right if tag == "q"}, "min_x": min(xs) if xs else None}
    joined = db.execute("SELECT * FROM a JOIN b ON a.k = b.k").rows
    got = db.execute(f"SELECT * FROM a JOIN b ON a.k = b.k WHERE {where}").rows
    assert got == [row for row in joined if keep(row, ctx)]


def test_pushdown_keeps_name_resolution_of_the_joined_scope():
    db = pushdown_db([(1, "k0", 1)], [("k0", 1, "p")])
    with pytest.raises(UnknownIdentifier):  # k is in both tables
        db.execute('SELECT * FROM a JOIN b ON a.k = b.k WHERE k = "k0"')
    with pytest.raises(UnknownIdentifier):
        db.execute("SELECT * FROM a JOIN b ON a.k = b.k WHERE (nope = 1) AND (x = 1)")
    with pytest.raises(ParseError):
        db.execute("SELECT * FROM a JOIN b ON a.k = b.k WHERE COUNT(*) > 1")
    assert db.execute('SELECT b.tag FROM a JOIN b ON a.k = b.k WHERE a.k = "k0"').rows == [("p",)]


def test_join_checks_deadline_while_emitting(monkeypatch):
    """The deadline is read at least once per _CHECK_EVERY joined rows, so
    a join of a few left rows with a wide fan-out still times out.  The
    engine's clock is replaced, so nothing here depends on machine speed."""
    db = Database(define_schema([
        TableSchema("l", (ColumnDef("k", "number"),)),
        TableSchema("r", (ColumnDef("k", "number"), ColumnDef("v", "number"))),
    ]))
    wide = 3 * engine._CHECK_EVERY
    db.load_records("l", [(1,)] * 8)
    db.load_records("r", [(1, i) for i in range(wide)])
    sql = "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k"

    reads = []
    monkeypatch.setattr(engine, "_time", SimpleNamespace(monotonic=lambda: reads.append(1) or 0.0))
    assert db.execute(sql, timeout=1.0).rows == [(8 * wide,)]
    assert len(reads) >= 8 * wide // engine._CHECK_EVERY

    # time runs out after half of those reads: the join itself raises
    limit = len(reads) // 2
    reads.clear()
    monkeypatch.setattr(engine, "_time", SimpleNamespace(
        monotonic=lambda: reads.append(1) or (0.0 if len(reads) <= limit else 10.0)))
    with pytest.raises(QueryTimeout) as info:
        db.execute(sql, timeout=1.0)
    assert any(entry.name == "_hash_join" for entry in info.traceback)


def join_db(left_rows, right_rows):
    db = Database(define_schema([
        TableSchema("l", (ColumnDef("id", "number"), ColumnDef("k", "number"),
                          ColumnDef("x", "number"), ColumnDef("s", "text"))),
        TableSchema("r", (ColumnDef("k", "number"), ColumnDef("y", "number"),
                          ColumnDef("tag", "text"), ColumnDef("z", "number"))),
    ]))
    db.load_records("l", left_rows)
    db.load_records("r", right_rows)
    return db


def nulls_first(value):
    return (value is not None, 0 if value is None else value)


def tag_groups(joined):
    """GROUP BY tag HAVING SUM(z) > 2, selecting tag, COUNT(*), MAX(y)."""
    groups = {}
    for row in joined:
        groups.setdefault(row[6], []).append(row)
    out = []
    for tag, members in groups.items():
        zs = [row[7] for row in members if row[7] is not None]
        ys = [row[5] for row in members if row[5] is not None]
        if zs and values_lt(2, sum(zs)) is True:
            out.append((tag, len(members), max(ys) if ys else None))
    return out


def distinct(rows):
    return list(dict.fromkeys(rows))


# (select list, clauses after "FROM l JOIN r ON l.k = r.k", the result
# computed from the full-width joined rows (l.id, l.k, l.x, l.s, r.k, r.y,
# r.tag, r.z))
JOIN_CASES = [
    ("COUNT(*)", "", lambda j: [(len(j),)]),
    ("s, y, l.id", "", lambda j: [(r[3], r[5], r[0]) for r in j]),
    ("id, tag", 'WHERE ((x < y) OR (tag = "p")) AND (id > 0)',
     lambda j: [(r[0], r[6]) for r in j
                if (values_lt(r[2], r[5]) is True or r[6] == "p") and r[0] > 0]),
    ("tag, COUNT(*), MAX(y)", "GROUP BY tag HAVING SUM(z) > 2", tag_groups),
    # a stable sort: ties keep scan order, nulls come last when descending
    ("id", "ORDER BY y DESC LIMIT 3",
     lambda j: [(r[0],) for r in sorted(j, key=lambda r: nulls_first(r[5]), reverse=True)][:3]),
    ("DISTINCT tag", "ORDER BY tag",
     lambda j: sorted(distinct((r[6],) for r in j), key=lambda t: nulls_first(t[0]))),
    ("*", "", lambda j: j),
]

# null keys; 2, 2.0 and 2.000000001 are equal under the 1e-9 tolerance,
# 2.00000001 is not
join_keys = st.sampled_from((None, 1, 2, 2.0, 2.000000001, 2.00000001, 3.5))
rows_l = st.lists(
    st.tuples(st.integers(0, 5), join_keys, st.one_of(st.none(), st.integers(0, 4)),
              st.sampled_from((None, "a", "b"))),
    max_size=8,
)
rows_r = st.lists(
    st.tuples(join_keys, st.one_of(st.none(), st.integers(0, 4), st.floats(0, 4)),
              st.sampled_from((None, "p", "q")), st.one_of(st.none(), st.integers(0, 3))),
    max_size=8,
)


@pytest.mark.parametrize(
    "select, clauses, expected", JOIN_CASES, ids=[f"{c[0]} {c[1]}".strip() for c in JOIN_CASES]
)
@settings(max_examples=40, deadline=None)
@given(left=rows_l, right=rows_r)
def test_join_matches_a_nested_loop_over_full_rows(select, clauses, expected, left, right):
    """Joined rows keep only the columns read after the join; the result is
    the one a nested loop over full-width rows gives."""
    db = join_db(left, right)
    joined = [lrow + rrow for lrow in left for rrow in right if values_eq(lrow[1], rrow[0]) is True]
    got = db.execute(f"SELECT {select} FROM l JOIN r ON l.k = r.k {clauses}").rows
    assert got == expected(joined)


def test_count_over_a_wide_join_keeps_joined_rows_narrow():
    """COUNT(*) reads no column after the join, so a joined row holds none.
    Full-width rows here are 40-value tuples of 56 + 40 * 8 = 376 B each,
    about 30 MB for the 80,000 joined rows; narrow ones are the shared
    empty tuple, so the joined list is 80,000 pointers (640 kB, under
    720 kB with list over-allocation).  The 4 MB cap leaves room for the
    key lookup and interpreter noise and is well below full width."""
    cols = tuple(ColumnDef(f"c{i}", "number") for i in range(20))
    db = Database(define_schema([TableSchema("l", cols), TableSchema("r", cols)]))
    for table in ("l", "r"):  # keys 0 and 1, 200 rows each
        db.load_records(table, [(i % 2,) + (i,) * 19 for i in range(400)])
    tracemalloc.start()
    try:
        rows = db.execute("SELECT COUNT(*) FROM l JOIN r ON l.c0 = r.c0").rows
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == [(2 * 200 * 200,)]
    assert peak < 4_000_000


def test_parse_errors_are_raised_on_every_call():
    for _ in range(3):
        with pytest.raises(ParseError):
            parse("SELEC uid FROM conn.log")


@pytest.mark.parametrize("text", [
    "SELECT uid FROM conn.log WHERE (orig_bytes > 1000) ORDER BY uid",
    "SELECT dns.log.query FROM conn.log JOIN dns.log ON conn.log.uid = dns.log.uid"
    " WHERE conn.log.uid IN (SELECT uid FROM conn.log WHERE orig_bytes > 10)",
    "SELECT 1",
])
def test_execute_returns_the_query_it_ran(fixture_db, text):
    result = fixture_db.execute(text)
    assert result.query == parse(text)
    assert result == engine.ResultTable(result.columns, result.rows)  # query is not compared


def count_parses_and_executes(monkeypatch, log):
    """Counts parse and execute calls in this process and in any process
    forked from it, noting each call's name in the CallLog ``log``.
    Returns a function that reads the counts."""
    real_parse, real_execute = _sql.parse, Database.execute

    def counting_parse(text):
        log.note("parse")
        return real_parse(text)

    def counting_execute(self, text, timeout=5.0):
        log.note("execute")
        return real_execute(self, text, timeout)

    monkeypatch.setattr(_sql, "parse", counting_parse)
    monkeypatch.setattr(Database, "execute", counting_execute)

    def counts():
        return {"parse": log.count("parse"), "execute": log.count("execute")}

    return counts


def test_generation_parses_each_text_once(synth_db, monkeypatch, call_log):
    counts = count_parses_and_executes(monkeypatch, call_log())
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=60, seed=3))
    assert len(pairs) == 60
    assert counts()["parse"] == counts()["execute"] >= 60


def test_scoring_parses_each_text_once(synth_db, monkeypatch, call_log):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=30, seed=5))
    golds = [p.sql for p in pairs] + [pairs[0].sql]  # one gold text twice
    examples = [SqlExample(id=f"e{i}", input="q", gold_sql=g) for i, g in enumerate(golds)]
    payloads = [g if i % 3 == 0 else g.lower() if i % 3 == 1 else g + " junk"
                for i, g in enumerate(golds)]  # echo, formatting, parse error
    predictions = [PredictionRecord(id=f"e{i}", payload=p) for i, p in enumerate(payloads)]
    counts = count_parses_and_executes(monkeypatch, call_log())
    report = score_sql_corpus(examples, predictions, synth_db)
    assert report.n == len(golds)
    assert counts()["parse"] == counts()["execute"] > len(golds)


# ---------------------------------------------------------------------------
# The result tail (DISTINCT, ORDER BY, LIMIT) against the paired form it
# replaced, which carried each row with its output and its order key


def paired_finish(query, columns, projected, order_keys):
    """The earlier tail, kept as the reference: ``projected`` holds
    (source row, output row) pairs and ``order_keys`` one (key values,
    desc flags) pair per row."""
    paired = list(zip(projected, order_keys or [None] * len(projected)))
    if query.distinct:
        seen = set()
        deduped = []
        for (ctx, out), key in paired:
            if out not in seen:
                seen.add(out)
                deduped.append(((ctx, out), key))
        paired = deduped
    if order_keys is not None and paired:
        n_keys = len(paired[0][1][0])
        for pos in range(n_keys - 1, -1, -1):
            desc = paired[0][1][1][pos]
            paired.sort(key=lambda item: engine._sort_token(item[1][0][pos]), reverse=desc)
    rows = [out for (_, out), _ in paired]
    if query.limit is not None:
        rows = rows[: query.limit]
    return engine.ResultTable(columns=columns, rows=rows)


TAIL_T = ("id", "a", "b", "c")  # number, number, text, boolean
TAIL_U = ("tid", "e", "f")  # number, number, text
tail_numbers = st.one_of(
    st.none(), st.sampled_from((0, 1, 1.0, 2, 2.0, 2.5, -1, 2**64, math.inf, math.nan)),
)
tail_texts = st.sampled_from((None, "", "a", "b", "B"))
tail_t = st.lists(st.tuples(st.sampled_from((None, 1, 2, 3)), tail_numbers, tail_texts,
                            st.one_of(st.none(), st.booleans())), max_size=8)
tail_u = st.lists(st.tuples(st.sampled_from((None, 1, 2, 2.0)), tail_numbers, tail_texts), max_size=6)
AGGS = ("COUNT(*)", "MAX(a)", "MIN(b)", "SUM(a)", "COUNT(c)", "MAX(c)", "MIN(e)")


def tail_db(t_rows, u_rows):
    db = Database(define_schema([
        TableSchema("t", (ColumnDef("id", "number"), ColumnDef("a", "number"),
                          ColumnDef("b", "text"), ColumnDef("c", "boolean"))),
        TableSchema("u", (ColumnDef("tid", "number"), ColumnDef("e", "number"), ColumnDef("f", "text"))),
    ]))
    db.load_records("t", t_rows)
    db.load_records("u", u_rows)
    return db


@st.composite
def tail_queries(draw):
    """(SQL, the same query without DISTINCT/ORDER BY/LIMIT selecting the
    output columns and then the order keys, output width or None for
    SELECT *, the order key positions in a SELECT * row, desc flags,
    DISTINCT, LIMIT)."""
    join = draw(st.booleans())
    cols = TAIL_T + TAIL_U if join else TAIL_T
    source = "t JOIN u ON t.id = u.tid" if join else "t"
    distinct = draw(st.booleans())
    limit = draw(st.one_of(st.none(), st.integers(0, 4)))
    grouped = draw(st.booleans())
    if grouped:
        group = draw(st.lists(st.sampled_from(("id", "b", "c")), min_size=1, max_size=2, unique=True))
        aggs = [a for a in AGGS if join or not a.endswith("(e)")]
        select = draw(st.lists(st.sampled_from(group + aggs), min_size=1, max_size=3))
        order = draw(st.lists(st.sampled_from(group + aggs), max_size=3))  # aggregates need not be selected
        tail = f" GROUP BY {', '.join(group)}"
        star = False
    else:
        tail = ""
        star = draw(st.integers(0, 4)) == 0
        if star:
            select = ["*"]
            order = draw(st.lists(st.sampled_from(cols), max_size=3))
        else:
            select = draw(st.lists(st.sampled_from(cols + ("5", "true", '"s"')), min_size=1, max_size=3))
            chosen = [item for item in select if item in cols]
            # with DISTINCT, ORDER BY may only use selected columns
            allowed = chosen if distinct else cols
            order = draw(st.lists(st.sampled_from(allowed), max_size=3)) if allowed else []
    descs = [draw(st.booleans()) for _ in order]
    sql = f"SELECT {'DISTINCT ' if distinct else ''}{', '.join(select)} FROM {source}{tail}"
    if order:
        sql += " ORDER BY " + ", ".join(f"{item}{' DESC' if desc else ''}" for item, desc in zip(order, descs))
    if limit is not None:
        sql += f" LIMIT {limit}"
    if star:
        wide = f"SELECT * FROM {source}"
        return sql, wide, None, [cols.index(item) for item in order], descs, distinct, limit
    wide = f"SELECT {', '.join(select + order)} FROM {source}{tail}"
    return sql, wide, len(select), None, descs, distinct, limit


def exact(result):
    """A result with every value's type, and NaN equal to itself."""
    return result.columns, [[(type(v).__name__, repr(v)) for v in row] for row in result.rows]


@settings(max_examples=300, deadline=None)
@given(query=tail_queries(), t_rows=tail_t, u_rows=tail_u)
@example(  # DISTINCT keeps the first row's key, also when the key is not selected
    query=("SELECT DISTINCT COUNT(*) FROM t GROUP BY b ORDER BY MAX(a) DESC",
           "SELECT COUNT(*), MAX(a) FROM t GROUP BY b", 1, None, [True], True, None),
    t_rows=[(1, 1, "a", None), (1, 5, "b", None), (1, 3, "B", True), (2, 0, "B", None)], u_rows=[],
)
def test_result_tail_matches_the_paired_reference(query, t_rows, u_rows):
    sql, wide_sql, width, star_keys, descs, distinct, limit = query
    db = tail_db(t_rows, u_rows)
    wide = db.execute(wide_sql)
    if width is None:  # SELECT *: output and keys come from the whole row
        columns = wide.columns
        projected = [(row, row) for row in wide.rows]
        keys = [[row[i] for i in star_keys] for row in wide.rows]
    else:
        columns = wide.columns[:width]
        projected = [(row, row[:width]) for row in wide.rows]
        keys = [list(row[width:]) for row in wide.rows]
    order_keys = [(key, descs) for key in keys] if descs else None
    expected = paired_finish(SimpleNamespace(distinct=distinct, limit=limit), columns, projected, order_keys)
    assert exact(db.execute(sql)) == exact(expected)


# (query with a bad select item and a bad ORDER BY, the error it raised
# before the tail was rewritten): the select list is still checked first
BAD_SELECT_AND_ORDER = [
    ("SELECT nope FROM t ORDER BY alsonope", UnknownIdentifier, "unknown column 'nope'"),
    ("SELECT DISTINCT nope FROM t ORDER BY a", UnknownIdentifier, "unknown column 'nope'"),
    ("SELECT nope FROM t ORDER BY MAX(a)", UnknownIdentifier, "unknown column 'nope'"),
    ("SELECT nope FROM t JOIN u ON t.id = u.tid ORDER BY bad", UnknownIdentifier, "unknown column 'nope'"),
    ("SELECT nope, COUNT(*) FROM t GROUP BY b ORDER BY bad", UnknownIdentifier, "unknown column 'nope'"),
    ("SELECT a FROM t GROUP BY b ORDER BY nope", ParseError,
     "column 'a' must appear in GROUP BY or inside an aggregate"),
    ("SELECT DISTINCT b FROM t ORDER BY a, nope", ParseError,
     "ORDER BY with DISTINCT must use selected columns"),
]


@pytest.mark.parametrize("sql, error, message", BAD_SELECT_AND_ORDER, ids=[c[0] for c in BAD_SELECT_AND_ORDER])
def test_bad_select_list_is_reported_before_bad_order_by(sql, error, message):
    db = tail_db([(1, 2, "x", True)], [(1, 5, "y")])
    with pytest.raises(error) as info:
        db.execute(sql)
    assert str(info.value) == message
