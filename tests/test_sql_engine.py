import sys
import threading
from datetime import datetime

import pytest

from iotsqlbench.ingest import default_schema
from iotsqlbench.store import (
    ArityMismatch,
    ColumnDef,
    Database,
    ParseError,
    QueryTimeout,
    TableSchema,
    TypeMismatch,
    UnknownIdentifier,
    UnknownTable,
    define_schema,
    parse,
    referenced_tables,
)
from tests.conftest import FIXTURE_CONN_ROWS


def brute_mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def test_select_constant(fixture_db):
    result = fixture_db.execute("SELECT 1")
    assert len(result.columns) == 1
    assert result.rows == [(1,)]


def test_avg_with_filter_matches_hand_mean(fixture_db):
    # brute force over the fixture rows, computed without the engine
    durations = [row[8] for row in FIXTURE_CONN_ROWS if row[2] == "192.168.1.1"]
    expected = brute_mean(durations)  # (3.5 + 1.5 + 7.0) / 3
    assert expected == pytest.approx(4.0)
    result = fixture_db.execute('SELECT AVG(duration) FROM CONN_LOG WHERE (orig_h = "192.168.1.1")')
    assert result.rows[0][0] == pytest.approx(expected)


def test_aggregates_ignore_nulls_count_star_counts_rows(fixture_db):
    durations = [row[8] for row in FIXTURE_CONN_ROWS]
    expected_avg = brute_mean(durations)
    result = fixture_db.execute("SELECT AVG(duration) FROM conn.log")
    assert result.rows[0][0] == pytest.approx(expected_avg)
    assert fixture_db.execute("SELECT COUNT(*) FROM conn.log").rows == [(5,)]
    # COUNT(col) skips the null duration
    assert fixture_db.execute("SELECT COUNT(duration) FROM conn.log").rows == [(4,)]
    # SUM / MIN / MAX ignore nulls too
    values = [v for v in durations if v is not None]
    assert fixture_db.execute("SELECT SUM(duration) FROM conn.log").rows[0][0] == pytest.approx(sum(values))
    assert fixture_db.execute("SELECT MIN(duration) FROM conn.log").rows[0][0] == pytest.approx(min(values))
    assert fixture_db.execute("SELECT MAX(duration) FROM conn.log").rows[0][0] == pytest.approx(max(values))


def test_group_having_matches_brute_force(fixture_db):
    # per-group mean resp_bytes, computed by explicit loops
    groups = {}
    for row in FIXTURE_CONN_ROWS:
        groups.setdefault(row[7], []).append(row[10])
    expected = sorted(s for s, vals in groups.items() if brute_mean(vals) >= 829)
    result = fixture_db.execute(
        "SELECT service FROM conn.log GROUP BY service HAVING AVG(resp_bytes) >= 829"
    )
    assert sorted(r[0] for r in result.rows) == expected


def test_where_boolean_connectives(fixture_db):
    rows = fixture_db.execute(
        'SELECT uid FROM conn.log WHERE (proto = "tcp") AND (orig_bytes > 600)'
    ).rows
    expected = sorted(
        row[1] for row in FIXTURE_CONN_ROWS
        if row[6] == "tcp" and row[9] is not None and row[9] > 600
    )
    assert sorted(r[0] for r in rows) == expected
    rows = fixture_db.execute(
        'SELECT uid FROM conn.log WHERE (proto = "udp") OR (resp_p = 55000)'
    ).rows
    expected = sorted(row[1] for row in FIXTURE_CONN_ROWS if row[6] == "udp" or row[5] == 55000)
    assert sorted(r[0] for r in rows) == expected


def test_null_comparisons_are_false(fixture_db):
    # CFix03 has null duration; neither < nor >= matches a null
    rows = fixture_db.execute("SELECT uid FROM conn.log WHERE (duration >= 0)").rows
    assert ("CFix03",) not in rows
    rows = fixture_db.execute("SELECT uid FROM conn.log WHERE (duration < 100)").rows
    assert ("CFix03",) not in rows


def test_datetime_between_and_ordering(fixture_db):
    result = fixture_db.execute(
        'SELECT uid FROM conn.log WHERE (ts BETWEEN "2021-03-01" AND "2021-03-02T12:00:00") ORDER BY ts'
    )
    expected = sorted(
        (row[0], row[1]) for row in FIXTURE_CONN_ROWS
        if datetime(2021, 3, 1) <= row[0] <= datetime(2021, 3, 2, 12)
    )
    assert [r[0] for r in result.rows] == [uid for _, uid in expected]


def test_datetime_comparison_against_iso_literal(fixture_db):
    rows = fixture_db.execute('SELECT uid FROM conn.log WHERE (ts > "2021-03-02")').rows
    expected = {row[1] for row in FIXTURE_CONN_ROWS if row[0] > datetime(2021, 3, 2)}
    assert {r[0] for r in rows} == expected


def test_order_by_desc_limit(fixture_db):
    result = fixture_db.execute("SELECT uid FROM conn.log ORDER BY orig_bytes DESC LIMIT 2")
    ranked = sorted(
        (row for row in FIXTURE_CONN_ROWS if row[9] is not None),
        key=lambda r: r[9],
        reverse=True,
    )
    # nulls first on ascending, so DESC puts the null row last; top-2 from values
    assert [r[0] for r in result.rows] == [ranked[0][1], ranked[1][1]]


def test_distinct(fixture_db):
    result = fixture_db.execute("SELECT DISTINCT proto FROM conn.log ORDER BY proto")
    assert result.rows == [("tcp",), ("udp",)]


def test_scalar_subquery(fixture_db):
    mean = brute_mean([row[9] for row in FIXTURE_CONN_ROWS])
    expected = sorted(row[1] for row in FIXTURE_CONN_ROWS if row[9] is not None and row[9] > mean)
    rows = fixture_db.execute(
        "SELECT uid FROM conn.log WHERE (orig_bytes > (SELECT AVG(orig_bytes) FROM conn.log))"
    ).rows
    assert sorted(r[0] for r in rows) == expected


def test_in_subquery_and_join(synth_db):
    joined = synth_db.execute(
        "SELECT COUNT(*) FROM conn.log JOIN dns.log ON conn.log.uid = dns.log.uid"
        ' WHERE (conn.log.proto = "tcp")'
    )
    sub = synth_db.execute(
        "SELECT COUNT(*) FROM dns.log WHERE (uid IN (SELECT uid FROM conn.log WHERE"
        ' (proto = "tcp")))'
    )
    assert joined.rows[0][0] >= sub.rows[0][0] >= 0


def test_join_matches_nested_loop_oracle(fixture_db):
    fixture_db.load_records("dns.log", [
        (datetime(2021, 3, 1, 10, 0, 1), "CFix01", "192.168.1.1", 40001, "10.0.0.53", 53, "udp",
         7, 0.01, "a.example", 1, "C_INTERNET", 1, "A", 0, "NOERROR",
         False, False, True, True, 0, "10.0.0.9", 300.0, False),
        (datetime(2021, 3, 2, 9, 15, 1), "CFix03", "192.168.1.9", 40002, "10.0.0.53", 53, "udp",
         8, 0.02, "b.example", 1, "C_INTERNET", 1, "A", 0, "NOERROR",
         False, False, True, True, 0, "10.0.0.9", 600.0, False),
        (datetime(2021, 3, 2, 9, 15, 2), "CNoMatch", "192.168.1.9", 40003, "10.0.0.53", 53, "udp",
         9, 0.03, "c.example", 1, "C_INTERNET", 1, "A", 0, "NOERROR",
         False, False, True, True, 0, "10.0.0.9", 900.0, False),
    ])
    result = fixture_db.execute(
        "SELECT conn.log.uid, dns.log.query FROM conn.log JOIN dns.log"
        " ON conn.log.uid = dns.log.uid"
    )
    conn_uids = [row[1] for row in FIXTURE_CONN_ROWS]
    expected = {("CFix01", "a.example"), ("CFix03", "b.example")}
    assert all(uid in conn_uids for uid, _ in expected)
    assert set(result.rows) == expected


def test_case_insensitive_identifiers(fixture_db):
    a = fixture_db.execute("SELECT COUNT(*) FROM conn.log")
    b = fixture_db.execute("SELECT count(*) FROM IoT23_CONN_LOG".replace("IoT23_", ""))
    assert a.rows == b.rows
    c = fixture_db.execute("SELECT COUNT(*) FROM Conn_Log")
    assert c.rows == a.rows


def test_string_literals_case_sensitive(fixture_db):
    upper = fixture_db.execute('SELECT COUNT(*) FROM conn.log WHERE (conn_state = "SF")')
    lower = fixture_db.execute('SELECT COUNT(*) FROM conn.log WHERE (conn_state = "sf")')
    assert upper.rows[0][0] == 3
    assert lower.rows[0][0] == 0


def test_execute_referentially_transparent(synth_db):
    q = 'SELECT proto, COUNT(*) FROM conn.log GROUP BY proto'
    first = synth_db.execute(q)
    second = synth_db.execute(q)
    assert first.rows == second.rows and first.columns == second.columns


def test_parse_errors():
    db = Database(default_schema())
    with pytest.raises(ParseError):
        db.execute("SELEC * FROM conn.log")
    with pytest.raises(ParseError):
        db.execute("SELECT * FROM conn.log WHERE (uid IN (SELECT uid FROM dns.log"
                   " WHERE (uid IN (SELECT uid FROM http.log))))")  # two nesting levels
    with pytest.raises(ParseError):
        db.execute("DELETE FROM conn.log")
    with pytest.raises(UnknownIdentifier):
        db.execute("SELECT nope FROM conn.log")
    with pytest.raises(UnknownIdentifier):
        db.execute("SELECT * FROM not_a_table")
    with pytest.raises(ParseError):
        db.execute("SELECT proto, COUNT(*) FROM conn.log")  # bare column without GROUP BY


def test_load_records_validation():
    db = Database(default_schema())
    with pytest.raises(UnknownTable):
        db.load_records("nope", [])
    with pytest.raises(ArityMismatch):
        db.load_records("conn.log", [FIXTURE_CONN_ROWS[0][:20]])
    bad = list(FIXTURE_CONN_ROWS[0])
    bad[3] = "not-a-port"
    with pytest.raises(TypeMismatch):
        db.load_records("conn.log", [tuple(bad)])
    assert db.load_records("conn.log", FIXTURE_CONN_ROWS[:3]) == 3
    assert len(db.snapshot()["conn.log"]) == 3


def test_time_column_accepts_iso_strings():
    db = Database(define_schema([
        TableSchema(name="t", columns=(ColumnDef("when", "time"), ColumnDef("v", "number"))),
    ]))
    db.load_records("t", [("2021-03-01T10:00:00", 1), (datetime(2021, 3, 2), 2)])
    rows = db.execute('SELECT v FROM t WHERE (when > "2021-03-01T12:00:00")').rows
    assert rows == [(2,)]


def test_timeout_enforced():
    # one wide table; a join against itself is disallowed, so use two tables
    cols = tuple(ColumnDef(f"c{i}", "number") for i in range(2))
    schema = define_schema([
        TableSchema(name="a", columns=(ColumnDef("k", "number"),) + cols),
        TableSchema(name="b", columns=(ColumnDef("k", "number"),) + cols),
    ])
    db = Database(schema)
    n = 3000
    db.load_records("a", [(1, i, i) for i in range(n)])
    db.load_records("b", [(1, i, i) for i in range(n)])
    with pytest.raises(QueryTimeout):
        # 9M-row cross-ish join with a tiny budget
        db.execute("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k", timeout=0.01)


def test_concurrent_readers_one_writer(fixture_db):
    errors = []

    def reader():
        try:
            for _ in range(30):
                result = fixture_db.execute("SELECT COUNT(*) FROM conn.log")
                assert result.rows[0][0] >= 5
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for i in range(10):
        batch = [list(FIXTURE_CONN_ROWS[i % 5]) for _ in range(3)]
        for j, row in enumerate(batch):
            row[1] = f"CThr{i:02d}{j}"
        fixture_db.load_records("conn.log", [tuple(r) for r in batch])
    for t in threads:
        t.join()
    assert not errors
    assert len(fixture_db.snapshot()["conn.log"]) == 5 + 30


def test_referenced_tables():
    assert referenced_tables(parse("SELECT * FROM a JOIN b ON a.x = b.x")) == {"a", "b"}
    assert referenced_tables(
        parse("SELECT * FROM a WHERE (x IN (SELECT x FROM c WHERE (y = 1)))")
    ) == {"a", "c"}
    assert referenced_tables(parse("SELECT 1")) == set()


# An integer literal longer than the interpreter's int-string limit (4,300
# digits by default) is a ParseError, in every place a literal may stand.
_HUGE = "1" * 5000
_converts_huge = getattr(sys, "get_int_max_str_digits", lambda: 0)() in range(1, len(_HUGE))


@pytest.mark.skipif(not _converts_huge, reason="this interpreter converts any integer literal")
@pytest.mark.parametrize("sql", [
    f"SELECT orig_p FROM conn.log WHERE orig_p = {_HUGE}",
    f"SELECT orig_p FROM conn.log WHERE orig_p > -{_HUGE}",
    f"SELECT {_HUGE}",
    f"SELECT orig_p FROM conn.log LIMIT {_HUGE}",
], ids=["where", "negative", "select", "limit"])
def test_oversize_integer_literal_is_a_parse_error(fixture_db, sql):
    with pytest.raises(ParseError, match="5000 digits"):
        parse(sql)
    with pytest.raises(ParseError):
        fixture_db.execute(sql)
