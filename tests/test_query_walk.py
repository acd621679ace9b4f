"""The one query walk (store.sql queries/leaves/operands) and the analyses
built on it: referenced tables, temporal pairs and construct coverage."""

import pytest

from iotsqlbench import evaluation
from iotsqlbench.store import ColumnDef, Database, TableSchema, canonical_tables, define_schema
from iotsqlbench.store import sql as _sql
from iotsqlbench.templates import (
    CorpusConfig,
    TextSqlPair,
    construct_coverage,
    generate_corpus,
    has_datetime_predicate,
)
from iotsqlbench.templates.generate import CONSTRUCTS, query_constructs

# two tables that share an id and a time column name, each with one time
# column of its own
SCHEMA = define_schema([
    TableSchema(name="dev.log", columns=(
        ColumnDef("id", "text"), ColumnDef("ts", "time"), ColumnDef("seen", "time"),
        ColumnDef("n", "number"),
    )),
    TableSchema(name="evt", columns=(
        ColumnDef("id", "text"), ColumnDef("ts", "time"), ColumnDef("fired", "time"),
        ColumnDef("m", "number"),
    )),
])

JOIN = "SELECT dev.log.id FROM dev.log JOIN evt ON dev.log.id = evt.id"
T = '"2021-03-01T00:00:00"'


def test_queries_yield_the_query_then_its_subqueries():
    query = _sql.parse(
        f"SELECT id FROM dev.log WHERE id IN (SELECT id FROM evt) "
        f"AND (n > 1 OR n < (SELECT AVG(m) FROM evt WHERE fired > {T}))"
    )
    tables = [q.table for q in _sql.queries(query)]
    assert tables == ["dev.log", "evt", "evt"]
    assert [q.table for q in _sql.queries(_sql.parse("SELECT 1"))] == [None]


def test_leaves_flatten_and_or_in_order():
    query = _sql.parse("SELECT id FROM evt WHERE (m = 1 OR m = 2) AND id = 'x'")
    leaves = list(_sql.leaves(query.where))
    assert [leaf.rhs.value for leaf in leaves] == [1, 2, "x"]
    assert list(_sql.leaves(None)) == []


def test_operands_are_what_a_comparison_reads_from_its_own_row():
    where = _sql.parse(
        f"SELECT id FROM evt WHERE m BETWEEN 1 AND 2 AND id IN (SELECT id FROM dev.log) "
        f"AND ts > (SELECT MAX(seen) FROM dev.log) AND fired < {T}"
    ).where
    between, member, scalar, cmp = _sql.leaves(where)
    assert _sql.operands(between) == (_sql.ColumnRef("m"), _sql.Literal(1), _sql.Literal(2))
    assert _sql.operands(member) == (_sql.ColumnRef("id"),)
    assert _sql.operands(scalar) == (_sql.ColumnRef("ts"),)
    assert _sql.operands(cmp) == (_sql.ColumnRef("fired"), _sql.Literal("2021-03-01T00:00:00"))


def test_referenced_tables_cover_join_and_both_subquery_forms():
    sql = (
        f"{JOIN} WHERE evt.id IN (SELECT id FROM EVT) GROUP BY dev.log.id "
        "HAVING COUNT(*) > (SELECT COUNT(*) FROM dev_log)"
    )
    query = _sql.parse(sql)
    assert _sql.referenced_tables(query) == {"dev.log", "evt", "EVT", "dev_log"}
    assert canonical_tables(query, SCHEMA) == frozenset({"dev.log", "evt"})
    assert canonical_tables(_sql.parse("SELECT * FROM nowhere"), SCHEMA) == frozenset({"nowhere"})


def _temporal(sql):
    return has_datetime_predicate(_sql.parse(sql), SCHEMA)


@pytest.mark.parametrize("where", [
    f"dev.log.ts > {T}",                  # qualified, first table
    f"evt.ts > {T}",                      # qualified, join table
    f"dev_log.seen > {T}",                # qualified with the folded table name
    f"fired > {T}",                       # unqualified, only in one table
    f"dev.log.n > 1 OR seen BETWEEN {T} AND {T}",
])
def test_time_columns_in_a_join(where):
    assert _temporal(f"{JOIN} WHERE {where}")


@pytest.mark.parametrize("where", [
    "dev.log.n > 1",
    "evt.m = dev.log.n",
    "evt.id = 'x'",
])
def test_non_time_columns_in_a_join(where):
    assert not _temporal(f"{JOIN} WHERE {where}")


def test_time_predicates_inside_subqueries():
    assert _temporal(f"SELECT id FROM dev.log WHERE id IN (SELECT id FROM evt WHERE fired < {T})")
    assert _temporal(f"SELECT id FROM dev.log WHERE n > (SELECT AVG(m) FROM evt WHERE ts > {T})")
    # the compared operand itself is a time column
    assert _temporal("SELECT id FROM dev.log WHERE seen IN (SELECT fired FROM evt)")
    assert _temporal("SELECT id FROM dev.log WHERE seen > (SELECT MIN(fired) FROM evt)")
    # a subquery that selects a time column but compares none
    assert not _temporal("SELECT id FROM dev.log WHERE id IN (SELECT id FROM evt WHERE m > 1)")


def test_time_column_in_having():
    assert _temporal(f"SELECT ts, COUNT(*) FROM evt GROUP BY ts HAVING ts > {T}")
    assert not _temporal("SELECT id, COUNT(*) FROM evt GROUP BY id HAVING COUNT(*) > 1")


def test_columns_the_engine_cannot_resolve_are_no_time_columns():
    # ambiguous: both tables have ts
    assert not _temporal(f"{JOIN} WHERE ts > {T}")
    # from a table outside FROM
    assert not _temporal(f"SELECT id FROM dev.log WHERE evt.fired > {T}")
    # unknown table, self-join
    assert not _temporal(f"SELECT id FROM nowhere WHERE ts > {T}")
    assert not _temporal(f"SELECT id FROM evt JOIN evt ON evt.id = evt.id WHERE fired > {T}")


def _coverage(*sqls):
    return construct_coverage([
        TextSqlPair(question="q", sql=sql, constructs=query_constructs(_sql.parse(sql))) for sql in sqls
    ])


def test_coverage_counts_having_and_order_by_aggregates():
    cov = _coverage("SELECT id FROM evt GROUP BY id HAVING SUM(m) > 2 ORDER BY MIN(m) DESC LIMIT 3")
    assert (cov["SUM"], cov["MIN"], cov["AVG"]) == (1, 1, 0)
    assert (cov["having"], cov["group_by"], cov["order_by"], cov["limit"]) == (1, 1, 1, 1)
    assert cov["nested"] == 0


def test_coverage_counts_each_aggregate_once_per_pair():
    cov = _coverage(
        "SELECT COUNT(*), COUNT(id) FROM evt",
        "SELECT id FROM evt WHERE m > (SELECT AVG(n) FROM dev.log) ORDER BY id",
    )
    assert (cov["COUNT"], cov["AVG"], cov["nested"], cov["order_by"]) == (1, 1, 1, 1)


def test_coverage_counts_an_aggregate_compared_with_a_subquery_in_having():
    cov = _coverage(
        "SELECT id FROM evt GROUP BY id HAVING MAX(m) > (SELECT AVG(n) FROM dev.log)")
    assert (cov["MAX"], cov["AVG"], cov["nested"], cov["having"]) == (1, 1, 1, 1)


def test_generated_pairs_are_classified_as_a_fresh_parse_classifies(synth_db):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=300, seed=27))
    assert set().union(*(p.constructs for p in pairs)) == set(CONSTRUCTS)
    assert any(p.temporal for p in pairs) and not all(p.temporal for p in pairs)
    for pair in pairs:
        query = _sql.parse(pair.sql)
        assert pair.temporal == has_datetime_predicate(query, synth_db.schema), pair.sql
        assert pair.tables_referenced == canonical_tables(query, synth_db.schema), pair.sql
        from_text = _coverage(pair.sql)  # a pair classified from its text alone
        assert pair.constructs == {name for name, n in from_text.items() if n}, pair.sql
        assert construct_coverage([pair]) == from_text, pair.sql


def test_generation_and_scoring_name_tables_alike(synth_db):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=120, seed=5))
    assert any(len(p.tables_referenced) > 1 for p in pairs)
    for pair in pairs:
        gold = evaluation._gold(pair.sql, synth_db, evaluation.PRED_TIMEOUT)
        assert gold.tables == pair.tables_referenced, pair.sql


def test_scoring_names_tables_by_schema_name():
    db = Database(SCHEMA)
    db.load_records("evt", [("a", None, None, 1)])
    gold = evaluation._gold("SELECT id FROM EVT WHERE m IN (SELECT n FROM DEV_LOG)", db, 5.0)
    assert gold.tables == frozenset({"evt", "dev.log"})
