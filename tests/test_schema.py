import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotsqlbench.ingest import default_schema
from iotsqlbench.store import (
    ATTRIBUTES,
    ColumnDef,
    DuplicateColumn,
    DuplicateTable,
    EmptySchema,
    TableSchema,
    define_schema,
    linearize_schema,
)


def test_define_schema_single_table():
    schema = define_schema([
        TableSchema(name="conn.log", columns=(
            ColumnDef("orig_h", "text"), ColumnDef("orig_p", "number"),
        )),
    ])
    assert sum(len(t.columns) for t in schema.tables) == 2
    assert schema.table("conn.log").column("orig_h").attribute == "text"


def test_define_schema_rejects_empty():
    with pytest.raises(EmptySchema):
        define_schema([])


def test_define_schema_rejects_duplicate_tables():
    t = TableSchema(name="t", columns=(ColumnDef("a", "text"),))
    with pytest.raises(DuplicateTable):
        define_schema([t, TableSchema(name="T", columns=(ColumnDef("b", "text"),))])


def test_duplicate_columns_rejected():
    with pytest.raises(DuplicateColumn):
        TableSchema(name="t", columns=(ColumnDef("a", "text"), ColumnDef("A", "number")))


def test_table_requires_columns():
    with pytest.raises(Exception):
        TableSchema(name="t", columns=())


def test_bad_attribute_rejected():
    with pytest.raises(Exception):
        ColumnDef("x", "varchar")


def test_default_schema_shape():
    schema = default_schema()
    assert len(schema.tables) == 12
    assert sum(len(t.columns) for t in schema.tables) == 173
    conn = schema.table("conn.log")
    assert len(conn.columns) == 21
    assert conn.column("orig_h").attribute == "text"
    assert conn.column("orig_p").attribute == "number"
    assert conn.column("ts").attribute == "time"


def test_linearize_smallest_schema(toy_schema):
    linearized = linearize_schema(toy_schema)
    assert list(linearized.tokens) == ["*", "T", "c", "number"]


def test_linearize_two_table_layout():
    schema = define_schema([
        TableSchema(name="conn.log", columns=(ColumnDef("orig_p", "text"),)),
        TableSchema(name="weird.log", columns=(ColumnDef("orig_p", "text"),)),
    ])
    tokens = list(linearize_schema(schema).tokens)
    assert tokens == ["*", "conn.log", "orig_p", "text", "weird.log", "orig_p", "text"]


def test_linearize_default_token_count():
    # hand-derived: 1 + tables + 2 * columns
    tokens = linearize_schema(default_schema()).tokens
    assert tokens[0] == "*"
    assert len(tokens) == 1 + 12 + 2 * 173 == 359


_names = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)


@st.composite
def _schemas(draw):
    n_tables = draw(st.integers(1, 4))
    tables = []
    used = set()
    for i in range(n_tables):
        name = f"t{i}_{draw(_names)}"
        n_cols = draw(st.integers(1, 5))
        cols = []
        col_used = set()
        for j in range(n_cols):
            cname = f"c{j}_{draw(_names)}"
            if cname.casefold() in col_used:
                continue
            col_used.add(cname.casefold())
            cols.append(ColumnDef(cname, draw(st.sampled_from(ATTRIBUTES))))
        if name.casefold() in used or not cols:
            continue
        used.add(name.casefold())
        tables.append(TableSchema(name=name, columns=tuple(cols)))
    if not tables:
        tables = [TableSchema(name="t", columns=(ColumnDef("c", "text"),))]
    return define_schema(tables)


@settings(max_examples=60, deadline=None)
@given(_schemas())
def test_linearize_token_count_property(schema):
    tokens = linearize_schema(schema).tokens
    expected = 1 + sum(1 + 2 * len(t.columns) for t in schema.tables)
    assert len(tokens) == expected
    assert tokens[0] == "*"


@settings(max_examples=40, deadline=None)
@given(_schemas(), _schemas())
def test_linearize_injective_on_distinct_sequences(a, b):
    seq_a = [(t.name, c.name, c.attribute) for t in a.tables for c in t.columns]
    seq_b = [(t.name, c.name, c.attribute) for t in b.tables for c in t.columns]
    names_a = [t.name for t in a.tables]
    names_b = [t.name for t in b.tables]
    if (seq_a, names_a) != (seq_b, names_b):
        assert linearize_schema(a).tokens != linearize_schema(b).tokens
    else:
        assert linearize_schema(a).tokens == linearize_schema(b).tokens
