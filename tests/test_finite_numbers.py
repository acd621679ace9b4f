"""The store holds only finite numbers within float range.  A load, a SUM or
AVG and a number literal each refuse any other number, so no result that
scoring compares can hold one."""

import math

import pytest

from iotsqlbench.evaluation import execution_accuracy, score_sql_corpus
from iotsqlbench.modelio import PredictionRecord, SqlExample
from iotsqlbench.store import ColumnDef, Database, ParseError, TableSchema, TypeMismatch, define_schema

NOT_FINITE = [math.nan, math.inf, -math.inf, 10**400, -(10**400)]


def number_db(rows=()):
    db = Database(define_schema([TableSchema("t", (
        ColumnDef("id", "number"), ColumnDef("n", "number"), ColumnDef("ts", "time"),
    ))]))
    db.load_records("t", rows)
    return db


# rows of stored types alone take the batch check; time text is converted
# value by value
@pytest.mark.parametrize("ts", [None, "2021-01-01T00:00:00"], ids=["as-is", "converting"])
@pytest.mark.parametrize("value", NOT_FINITE, ids=["nan", "inf", "-inf", "10**400", "-10**400"])
def test_load_refuses_a_number_that_is_not_finite(value, ts):
    db = number_db([(0, 1.5, ts)])
    with pytest.raises(TypeMismatch, match=r"table 't', column 'n' \(number\): bad value"):
        db.load_records("t", [(1, 2.5, ts), (2, value, ts), (3, None, ts)])
    assert db.execute("SELECT id, n FROM t").rows == [(0, 1.5)]


@pytest.mark.parametrize("ts", [None, "2021-01-01T00:00:00"], ids=["as-is", "converting"])
def test_load_keeps_the_edges_of_float_range(ts):
    edges = [0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2**1023, -(2**1023)]
    db = number_db([(i, v, ts) for i, v in enumerate(edges)])
    assert [n for _, n in db.execute("SELECT id, n FROM t").rows] == edges


@pytest.mark.parametrize("values, ops", [
    ([1.7e308, 1.7e308], ("SUM", "AVG")),  # a float sum that overflows to inf
    ([-1.7e308, -1.7e308], ("SUM", "AVG")),
    ([10**308, 10**308], ("SUM",)),  # an int sum beyond float range
    ([10**308, 10**308, 1.0], ("SUM", "AVG")),  # an int sum beyond float range, added to a float
], ids=["inf", "-inf", "int", "int+float"])
def test_sum_and_avg_refuse_a_result_beyond_float_range(values, ops):
    db = number_db([(i, v, None) for i, v in enumerate(values)])
    for op in ops:
        with pytest.raises(TypeMismatch, match=rf"{op}\(n\) is beyond float range"):
            db.execute(f"SELECT {op}(n) FROM t")
        with pytest.raises(TypeMismatch, match=rf"{op}\(n\) is beyond float range"):
            db.execute(f"SELECT COUNT(*) FROM t GROUP BY ts HAVING {op}(n) > 0")


def test_sum_and_avg_within_float_range_are_kept():
    db = number_db([(0, 10**308, None), (1, -(10**308), None), (2, 1, None)])
    assert db.execute("SELECT SUM(n), AVG(n) FROM t").rows == [(1, 1 / 3)]
    # an int sum beyond float range whose average is within it
    db = number_db([(0, 10**308, None), (1, 10**308, None)])
    assert db.execute("SELECT AVG(n) FROM t").rows == [(1e308,)]


@pytest.mark.parametrize("literal", ["1e999", "-1e999", "9" * 400, "-" + "9" * 400, "1.5e309"],
                         ids=["1e999", "-1e999", "400 digits", "-400 digits", "1.5e309"])
def test_a_number_literal_beyond_float_range_is_a_parse_error(literal):
    db = number_db([(0, 1.5, None)])
    for sql in (f"SELECT {literal} FROM t", f"SELECT n FROM t WHERE n < {literal}",
                f"SELECT n FROM t GROUP BY n HAVING MAX(n) != {literal}"):
        with pytest.raises(ParseError, match="beyond float range"):
            db.execute(sql)


def test_a_limit_beyond_float_range_is_a_parse_error():
    db = number_db([(0, 1.5, None)])
    with pytest.raises(ParseError, match="beyond float range"):
        db.execute("SELECT n FROM t LIMIT " + "9" * 400)
    assert db.execute("SELECT n FROM t LIMIT " + "9" * 300).rows == [(1.5,)]


def test_a_prediction_with_a_literal_beyond_float_range_scores_false():
    db = number_db([(0, 1.5, None), (1, 2.5, None)])
    gold = "SELECT n FROM t WHERE n > 10"  # no rows, as the prediction would have returned
    for pred in ("SELECT n FROM t WHERE n > 1e999", "SELECT 1e999 FROM t WHERE n > 10"):
        assert not execution_accuracy(pred, gold, db)
    report = score_sql_corpus([SqlExample(id="e", gold_sql=gold)],
                              [PredictionRecord(id="e", payload="SELECT n FROM t WHERE n < -1e999")], db)
    assert report.execution_acc == 0.0
