"""Name resolution and snapshots of the store.

``Scope.resolve`` is checked against a reference resolver written here,
which builds per-column folded maps the way the engine once did, and the
schema's ``table``/``column_index`` against a linear first-match scan.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotsqlbench.ingest import default_schema
from iotsqlbench.store import (
    ColumnDef,
    Database,
    DatabaseSchema,
    ParseError,
    Scope,
    StoreError,
    TableSchema,
    UnknownIdentifier,
    define_schema,
    norm_ident,
    parse,
)
from tests.conftest import FIXTURE_CONN_ROWS

SCHEMA = default_schema()


def reference_resolve(tables, raw):
    """(index, column) as per-column folded maps resolve ``raw``."""
    by_table = {norm_ident(t.name): (t, base) for t, base in tables}
    unqualified = {}
    for t, base in tables:
        for i, col in enumerate(t.columns):
            unqualified.setdefault(norm_ident(col.name), []).append((base + i, col))
    hits = unqualified.get(norm_ident(raw), [])
    if len(hits) == 1:
        return hits[0]
    if hits:
        raise UnknownIdentifier(f"ambiguous column {raw!r}")
    for split in range(len(raw) - 1, 0, -1):
        if raw[split] != "." or norm_ident(raw[:split]) not in by_table:
            continue
        t, base = by_table[norm_ident(raw[:split])]
        for i, col in enumerate(t.columns):
            if norm_ident(col.name) == norm_ident(raw[split + 1 :]):
                return base + i, col
    raise UnknownIdentifier(f"unknown column {raw!r}")


def outcome(resolve, raw):
    try:
        return resolve(raw)
    except StoreError as exc:
        return type(exc)


# each scope's query, and a column name both of its tables hold
SCOPES = {
    "conn.log": ("SELECT * FROM conn.log", None),
    "conn.log JOIN dns.log": ("SELECT * FROM CONN_LOG JOIN dns.log ON conn.log.uid = dns.log.uid", "uid"),
    "humidity JOIN devices": ("SELECT * FROM humidity JOIN Devices ON humidity.room = devices.room", "room"),
}


def spellings(name):
    """``name`` as written, folded by case, and with '.' and '_' swapped."""
    swapped = name.translate(str.maketrans("._", "_."))
    return {name, name.upper(), name.title(), swapped, swapped.upper()}


def names_for(scope):
    names = {"nosuch", "nosuch.uid", ".", "uid.", ".uid", "conn.log.", "conn_log_uid", "a..b"}
    for t, _ in scope.tables:
        for col in t.columns:
            names |= spellings(col.name)
            names |= {f"{table}.{column}" for table in spellings(t.name) for column in spellings(col.name)}
        names |= {f"{t.name}.nosuch", f"{t.name}.{t.name}"}
    names |= {f"{table}.orig_h" for table in ("conn.log", "CONN_LOG", "dns.log", "DNS.LOG", "http.log")}
    return sorted(names)


@pytest.mark.parametrize("sql,shared", SCOPES.values(), ids=SCOPES.keys())
def test_resolve_agrees_with_the_reference(sql, shared):
    scope = Scope.of(parse(sql), SCHEMA)
    names = names_for(scope)
    outcomes = {raw: outcome(scope.resolve, raw) for raw in names}
    assert outcomes == {raw: outcome(lambda r: reference_resolve(scope.tables, r), raw) for raw in names}
    unknown = {raw for raw, got in outcomes.items() if got is UnknownIdentifier}
    assert {"nosuch", "conn_log_uid"} <= unknown
    if shared is not None:  # ambiguous unqualified, found when qualified
        assert spellings(shared) <= unknown
        assert all(isinstance(outcomes[f"{t.name}.{shared}"], tuple) for t, _ in scope.tables)


@settings(max_examples=200, deadline=None)
@given(
    sql=st.sampled_from([sql for sql, _ in SCOPES.values()]),
    data=st.data(),
)
def test_resolve_agrees_with_the_reference_on_mixed_spellings(sql, data):
    scope = Scope.of(parse(sql), SCHEMA)
    name = data.draw(st.sampled_from(names_for(scope)))
    # flip some letters' case, and some separators between '.' and '_'
    flips = data.draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
    raw = "".join({".": "_", "_": "."}.get(ch, ch.swapcase()) if flip else ch for ch, flip in zip(name, flips))
    assert outcome(scope.resolve, raw) == outcome(lambda r: reference_resolve(scope.tables, r), raw)


def test_qualifiers_resolve_in_both_table_spellings():
    scope = Scope.of(parse(SCOPES["conn.log JOIN dns.log"][0]), SCHEMA)
    conn, dns = (t for t, _ in scope.tables)
    assert scope.resolve("conn.log.orig_h") == scope.resolve("CONN_LOG.orig_h") == (2, conn.columns[2])
    assert scope.resolve("Dns_Log.ORIG.H") == (len(conn.columns) + 2, dns.columns[2])
    with pytest.raises(UnknownIdentifier, match="ambiguous"):
        scope.resolve("orig_h")
    with pytest.raises(UnknownIdentifier, match="unknown column"):
        scope.resolve("http.log.uid")


@pytest.mark.parametrize("right", ["conn.log", "CONN_LOG", "Conn.Log"])
def test_self_join_is_rejected_in_any_spelling(right):
    with pytest.raises(ParseError, match="self-joins"):
        Scope.of(parse(f"SELECT * FROM conn.log JOIN {right} ON conn.log.uid = conn.log.uid"), SCHEMA)


def test_the_longest_table_prefix_qualifies():
    schema = define_schema([
        TableSchema("a", (ColumnDef("b.c", "number"),)),
        TableSchema("a.b", (ColumnDef("c", "number"),)),
    ])
    scope = Scope.of(parse("SELECT * FROM a JOIN a.b ON a.b.c = a.b.c"), schema)
    for raw in ("a.b.c", "A_B.C", "a.b_c", "A.B.C", "a_b_c"):
        assert outcome(scope.resolve, raw) == outcome(lambda r: reference_resolve(scope.tables, r), raw)
    assert scope.resolve("a.b.c") == (1, schema.table("a.b").columns[0])
    assert scope.resolve("a.b_c") == (0, schema.table("a").columns[0])


def linear_table(schema, name):
    return next((t for t in schema.tables if norm_ident(t.name) == norm_ident(name)), None)


def linear_column_index(table, name):
    return next((i for i, c in enumerate(table.columns) if norm_ident(c.name) == norm_ident(name)), None)


def test_schema_lookups_agree_with_a_linear_scan():
    for t in SCHEMA.tables:
        for raw in spellings(t.name) | {"nosuch", t.name + "s"}:
            assert SCHEMA.table(raw) is linear_table(SCHEMA, raw)
        for col in t.columns:
            for raw in spellings(col.name) | {"nosuch", "." + col.name}:
                assert t.column_index(raw) == linear_column_index(t, raw)
                assert t.column(raw) == (None if t.column_index(raw) is None else t.columns[t.column_index(raw)])


def test_a_schema_whose_table_names_fold_alike_finds_the_first():
    first = TableSchema("a.b", (ColumnDef("x", "number"),))
    second = TableSchema("A_B", (ColumnDef("y", "text"),))
    schema = DatabaseSchema((first, second, TableSchema("c", (ColumnDef("z", "time"),))))
    for raw in ("a.b", "A_B", "a_B", "A.b", "c", "C", "d"):
        assert schema.table(raw) is linear_table(schema, raw)
    assert schema.table("A_B") is first
    assert Scope.of(parse("SELECT x FROM A_B"), schema).resolve("a_b.X") == (0, first.columns[0])


# ---------------------------------------------------------------------------
# Snapshots: a load replaces a table whole; readers copy nothing


def _conn_db():
    db = Database(SCHEMA)
    db.load_records("conn.log", FIXTURE_CONN_ROWS)
    return db


def test_a_snapshot_keeps_its_row_counts_across_loads():
    db = _conn_db()
    before = db.snapshot()
    assert len(before["conn.log"]) == 5 and len(before["dns.log"]) == 0
    db.load_records("CONN_LOG", FIXTURE_CONN_ROWS[:2])
    assert len(before["conn.log"]) == 5
    after = db.snapshot()
    assert len(after["conn.log"]) == 7
    assert after["conn.log"][:5] == before["conn.log"]


def test_execute_sees_every_finished_load():
    db = _conn_db()
    for n in range(1, 4):
        db.load_records("conn.log", FIXTURE_CONN_ROWS[:n])
        assert db.execute("SELECT COUNT(*) FROM conn.log").rows == [(5 + n * (n + 1) // 2,)]
        assert db.execute("SELECT COUNT(*) FROM Conn.Log").rows == [(5 + n * (n + 1) // 2,)]


def test_a_snapshot_is_read_only():
    snap = _conn_db().snapshot()
    with pytest.raises(TypeError):
        snap["conn.log"] = ()
    with pytest.raises(TypeError):
        del snap["conn.log"]
    assert len(snap["conn.log"]) == 5


def test_concurrent_writers_lose_no_load_and_readers_see_whole_loads():
    db = Database(SCHEMA)
    batch, batches, writers, readers = 4, 25, 3, 3
    seen: list[list[int]] = [[] for _ in range(readers)]

    def write():
        for _ in range(batches):
            db.load_records("conn.log", FIXTURE_CONN_ROWS[:batch])

    def read(counts):
        for _ in range(60):
            counts.append(db.execute("SELECT COUNT(*) FROM conn.log").rows[0][0])

    threads = [threading.Thread(target=write) for _ in range(writers)]
    threads += [threading.Thread(target=read, args=(counts,)) for counts in seen]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(db.snapshot()["conn.log"]) == writers * batches * batch
    for counts in seen:
        assert len(counts) == 60
        assert all(n % batch == 0 for n in counts)
        assert counts == sorted(counts)
