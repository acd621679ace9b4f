"""Prepared gold results: built once per gold SQL text while a file is
scored, sorted on the first comparison that needs it, and compared through
``results_match``."""

import json
import math
import pickle
from datetime import datetime, timezone
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotsqlbench import evaluation
from iotsqlbench.evaluation import (
    GoldExecutionError,
    MissingPrediction,
    UnknownId,
    execution_accuracy,
    join_predictions,
    results_match,
    score_sql_corpus,
)
from iotsqlbench.modelio import DetectionExample, PredictionRecord, SqlExample
from iotsqlbench.store import (
    ArityMismatch,
    ColumnDef,
    Database,
    ResultTable,
    TableSchema,
    TypeMismatch,
    define_schema,
    engine,
)


def make_db():
    db = Database(define_schema([
        TableSchema(name="t", columns=(
            ColumnDef("a", "number"), ColumnDef("b", "number"), ColumnDef("x", "text"),
        )),
    ]))
    db.load_records("t", [(1, 10, "Ab"), (2, 20, "ab"), (3, 30, "Ab")])
    return db


GOLDS = ["SELECT a FROM t", "SELECT b FROM t WHERE a > 1", "SELECT a FROM t"]
EXAMPLES = [SqlExample(id=f"e{i}", gold_sql=g) for i, g in enumerate(GOLDS)]
PREDICTIONS = [
    PredictionRecord(id="e0", payload="SELECT a FROM t"),  # echo
    PredictionRecord(id="e1", payload="select b from t where a > 1"),  # formatting only
    PredictionRecord(id="e2", payload="SELECT nope FROM t"),  # store error
]


def test_scoring_runs_each_gold_once_and_rescoring_is_byte_identical(count_executes):
    db = make_db()
    calls = count_executes()
    first = score_sql_corpus(EXAMPLES, PREDICTIONS, db).to_json()
    gold_runs = [sql for sql in calls if sql in GOLDS]
    assert sorted(gold_runs) == sorted(set(GOLDS))
    # the echo and the formatting-only variant never run; the store error
    # runs once
    assert calls.count("select b from t where a > 1") == 0
    assert calls.count("SELECT nope FROM t") == 1
    assert len(calls) == len(set(GOLDS)) + 1
    assert score_sql_corpus(EXAMPLES, PREDICTIONS, db).to_json() == first


def test_report_matches_a_fresh_database_per_scoring():
    db = make_db()
    score_sql_corpus(EXAMPLES, PREDICTIONS, db)
    second = score_sql_corpus(EXAMPLES, PREDICTIONS, db).to_json()
    assert second == score_sql_corpus(EXAMPLES, PREDICTIONS, make_db()).to_json()


def test_rescore_after_load_sees_new_rows(count_executes):
    db = make_db()
    gold = "SELECT a FROM t"
    pred = "SELECT a FROM t WHERE b < 100"
    assert execution_accuracy(pred, gold, db)
    db.load_records("t", [(4, 400, "new")])
    calls = count_executes()
    assert not execution_accuracy(pred, gold, db)
    assert calls == [gold, pred]
    report = score_sql_corpus(
        [SqlExample(id="e", gold_sql=gold)], [PredictionRecord(id="e", payload=pred)], db
    )
    assert report.execution_acc == 0.0


def finite_db():
    """A one-column database that refused a NaN, then took finite rows."""
    db = Database(define_schema([TableSchema("t", (ColumnDef("v", "number"),))]))
    with pytest.raises(TypeMismatch, match="'v'"):
        db.load_records("t", [(1.0,), (math.nan,)])
    db.load_records("t", [(1.0,), (2.5,)])
    return db


def test_echo_of_a_gold_over_refused_nan_is_true():
    db = finite_db()
    gold = "SELECT v FROM t"
    assert execution_accuracy(gold, gold, db)
    assert execution_accuracy(gold, gold, db)  # from the prepared entry
    assert execution_accuracy("select v from t", gold, db)  # run, same verdict
    ordered = "SELECT v FROM t ORDER BY v"
    assert execution_accuracy(ordered, ordered, db)
    assert execution_accuracy("SELECT v FROM t WHERE v = 1", "SELECT v FROM t WHERE v < 2", db)


def test_formatting_variant_of_a_gold_over_refused_nan_is_true(count_executes):
    db = finite_db()
    golds = ["SELECT v FROM t", "SELECT v FROM t ORDER BY v"]
    examples = [SqlExample(id=f"e{i}", gold_sql=g) for i, g in enumerate(golds)]
    variants = [PredictionRecord(id=ex.id, payload=ex.gold_sql.lower() + " ;") for ex in examples]
    calls = count_executes()
    report = score_sql_corpus(examples, variants, db)
    # scored as the gold's echo, as running it would score
    assert report.logical_acc == 1.0 and report.execution_acc == 1.0
    assert sorted(calls) == sorted(golds)
    for ex, rec in zip(examples, variants):
        assert execution_accuracy(rec.payload, ex.gold_sql, db)
    assert calls.count("select v from t ;") == 1


def test_gold_error_raises_on_every_call(count_executes):
    db = make_db()
    calls = count_executes()
    for _ in range(3):
        with pytest.raises(GoldExecutionError):
            execution_accuracy("SELECT a FROM t", "SELECT nope FROM t", db)
    assert calls == ["SELECT nope FROM t"] * 3


def test_gold_verdict_does_not_depend_on_earlier_timeouts():
    db = make_db()
    gold = "SELECT a FROM t"
    example = [SqlExample(id="e", gold_sql=gold)]
    pred = [PredictionRecord(id="e", payload=gold)]
    assert execution_accuracy(gold, gold, db, timeout=60.0)
    assert score_sql_corpus(example, pred, db, timeout=60.0).execution_acc == 1.0
    # a deadline already past fails the gold query, whatever ran before
    with pytest.raises(GoldExecutionError):
        execution_accuracy(gold, gold, db, timeout=-1.0)
    with pytest.raises(GoldExecutionError):
        score_sql_corpus(example, pred, db, timeout=-1.0)


def test_execute_rejects_a_nan_timeout():
    # with a NaN deadline no comparison with the clock is ever true
    with pytest.raises(ValueError):
        make_db().execute("SELECT a FROM t", timeout=math.nan)


@pytest.mark.parametrize("timeout", [math.nan, math.inf])
def test_scoring_rejects_a_timeout_that_is_no_json_number(count_executes, timeout):
    calls = count_executes()
    with pytest.raises(ValueError):
        score_sql_corpus(EXAMPLES, PREDICTIONS, make_db(), timeout=timeout)
    assert calls == []  # raised before anything was scored


def test_gold_entry_keyed_by_exact_text():
    db = Database(define_schema([TableSchema("t", (ColumnDef("v", "number"),))]))
    db.load_records("t", [(1,), (2,)])
    # the two parse to equal queries, yet a number never equals a boolean
    one, true = "SELECT v FROM t WHERE v = 1", "SELECT v FROM t WHERE v = true"
    assert db.execute(one).rows == [(1,)]
    assert db.execute(true).rows == []
    assert execution_accuracy(one, one, db)
    assert not execution_accuracy(one, true, db)
    assert execution_accuracy(true, true, db)
    assert not execution_accuracy(one, true, db)


def test_prediction_beyond_float_range_is_scored_not_raised():
    db = make_db()
    huge = "1" + "0" * 400
    assert not execution_accuracy(f"SELECT {huge} FROM t", "SELECT a FROM t", db)
    assert not execution_accuracy(f"SELECT a, {huge} FROM t", "SELECT a, b FROM t", db)
    # a parse error, also where its rows would have matched the gold's
    assert not execution_accuracy(f"SELECT {huge} FROM t WHERE a > 5", "SELECT a FROM t WHERE a > 5", db)
    with pytest.raises(GoldExecutionError, match="beyond float range"):
        execution_accuracy(f"SELECT {huge} FROM t", f"SELECT {huge} FROM t WHERE a > 0", db)


def test_results_match_shares_the_prepared_path():
    gold = ResultTable(["a"], [(3,), (1,), (2,)])
    unordered, ordered = evaluation._Prepared.of(gold, False), evaluation._Prepared.of(gold, True)
    assert results_match(ResultTable(["z"], [(1,), (2,), (3.0000001,)]), unordered)
    assert not results_match(ResultTable(["a"], [(1,), (2,), (3,)]), ordered)
    assert not results_match(ResultTable(["a", "b"], [(1, 1)] * 3), unordered)
    ones = ResultTable(["a"], [(1,), (2,), (3,)])
    assert not results_match(ResultTable(["a"], [(True,), (2,), (3,)]), evaluation._Prepared.of(ones, False))


def test_join_predictions_pairs_by_id():
    examples = [
        DetectionExample(id="a", input="i x", gold=True),
        DetectionExample(id="b", input="i y", gold=False),
    ]
    preds = [
        PredictionRecord(id="b", payload="benign"),
        PredictionRecord(id="a", payload="benign"),
        PredictionRecord(id="a", payload="malicious"),
    ]
    pairs = join_predictions(examples, preds)
    assert [(ex.id, rec.payload) for ex, rec in pairs] == [("a", "malicious"), ("b", "benign")]
    with pytest.raises(UnknownId):
        join_predictions(examples, preds + [PredictionRecord(id="zzz", payload="benign")])
    with pytest.raises(MissingPrediction):
        join_predictions(examples, preds[:1])


# -- load_records: the per-column check keeps every rejection


def typed_db():
    return Database(define_schema([TableSchema("t", (
        ColumnDef("n", "number"), ColumnDef("s", "text"), ColumnDef("f", "boolean"), ColumnDef("ts", "time"),
    ))]))


GOOD = (1, "x", True, datetime(2021, 1, 1))


@pytest.mark.parametrize("pos,value", [
    (0, True), (0, "1"), (1, 1), (2, 1), (2, "true"),
    (3, "yesterday"), (3, 1), (3, "2021-01-01T00:00:00+00:00"),
    (3, datetime.fromisoformat("2021-01-01T00:00:00-05:00")),
])
def test_load_rejects_bad_values(pos, value):
    row = list(GOOD)
    row[pos] = value
    db = typed_db()
    with pytest.raises(TypeMismatch):
        db.load_records("t", [GOOD, tuple(row)])
    assert len(db.snapshot()["t"]) == 0


def test_load_reports_the_first_bad_row():
    db = typed_db()
    with pytest.raises(TypeMismatch):
        db.load_records("t", [GOOD, ("bad",) + GOOD[1:], GOOD[:2]])
    with pytest.raises(ArityMismatch):
        db.load_records("t", [GOOD, GOOD[:2], ("bad",) + GOOD[1:]])
    assert len(db.snapshot()["t"]) == 0


def test_load_converts_time_text_and_accepts_subclasses():
    class Label(str):
        pass

    db = typed_db()
    db.load_records("t", [
        (1.5, Label("a"), False, "2021-01-02T03:04:05"),
        (None, None, None, None),
        (2, "b", True, datetime(2021, 1, 1)),
    ])
    rows = db.execute("SELECT n, s, f, ts FROM t").rows
    assert rows == [
        (1.5, "a", False, datetime(2021, 1, 2, 3, 4, 5)),
        (None, None, None, None),
        (2, "b", True, datetime(2021, 1, 1)),
    ]


load_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=3),
    st.datetimes(), st.datetimes(timezones=st.just(timezone.utc)),
    st.sampled_from(["2021-01-02T03:04:05", "2021-01-01T00:00:00+00:00", "x", math.nan, 10**400]),
)
own_values = [  # per column of typed_db()
    st.one_of(st.none(), st.integers(), st.floats(allow_nan=False)),
    st.one_of(st.none(), st.text(max_size=3)),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.datetimes()),
]


@st.composite
def load_rows(draw):
    """Rows of each column's own types, with at most one value of any type."""
    rows = draw(st.lists(st.tuples(*own_values), min_size=1, max_size=4))
    if draw(st.booleans()):
        r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 3))
        rows[r] = rows[r][:c] + (draw(load_values),) + rows[r][c + 1:]
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=load_rows())
def test_batch_check_passes_only_what_the_checkers_keep(rows):
    columns = typed_db().schema.table("t").columns
    if not engine._stored_as_is(columns, rows):
        return
    checkers = [engine._value_checker(col, "t") for col in columns]
    for row in rows:
        assert tuple(check(v) for check, v in zip(checkers, row)) == row


def test_projection_keeps_shape_and_literals():
    db = make_db()
    assert db.execute("SELECT x, a FROM t WHERE a = 1").rows == [("Ab", 1)]
    assert db.execute("SELECT b FROM t WHERE a = 1").rows == [(10,)]
    assert db.execute('SELECT a, "k", b FROM t WHERE a = 2').rows == [(2, "k", 20)]
    assert db.execute("SELECT DISTINCT x, x FROM t ORDER BY x").rows == [("Ab", "Ab"), ("ab", "ab")]


# -- the sort key and the value fast path against the written policy

_OLD_TYPE_ORDER = {type(None): 0, bool: 1, int: 2, float: 2, datetime: 3, str: 4}


def old_sort_key(row: tuple):
    """The per-value sort key, written out apart from the evaluation module."""
    key = []
    for v in row:
        rank = _OLD_TYPE_ORDER.get(type(v), 5)
        if v is None:
            key.append((rank, 0))
        elif isinstance(v, bool):
            key.append((rank, int(v)))
        elif isinstance(v, (int, float)):
            key.append((rank, float(v)))
        elif isinstance(v, datetime):
            key.append((rank, v.isoformat()))
        else:
            key.append((rank, str(v)))
    return key


values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 1, -1, 0.0, 1.0, -0.0, 2**53, 2**53 + 1, float(2**53)]),
    st.datetimes(),
    st.text(max_size=3),
)


@st.composite
def result_rows(draw):
    """Rows whose columns hold one type, one type or null, or any mix."""
    width = draw(st.integers(min_value=1, max_value=3))
    kinds = [draw(st.sampled_from([
        values, st.booleans(), st.integers(-5, 5), st.floats(allow_nan=False, allow_infinity=False),
        st.one_of(st.integers(-5, 5), st.floats(-5, 5)), st.datetimes(), st.text(max_size=2),
        # ints that round to one float
        st.one_of(st.integers(2**53 - 2, 2**53 + 2), st.sampled_from([2.0**53, 2.0**53 + 2])),
    ])) for _ in range(width)]
    nulls = [draw(st.booleans()) for _ in range(width)]
    kinds = [st.one_of(k, st.none()) if null else k for k, null in zip(kinds, nulls)]
    n = draw(st.integers(min_value=0, max_value=12))
    return [tuple([draw(k) for k in kinds]) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(rows=result_rows())
def test_sort_orders_exactly_like_the_old_key(rows):
    want = sorted(range(len(rows)), key=lambda i: old_sort_key(rows[i]))
    position = {id(row): i for i, row in enumerate(rows)}
    got = [position[id(row)] for row in evaluation._sorted_rows(rows)]
    assert got == want


@settings(max_examples=500, deadline=None)
@given(a=values, b=values, same=st.booleans())
def test_values_match_fast_path_agrees_with_policy(a, b, same):
    if same:
        b = a
    assert evaluation._values_match(a, b) == evaluation._values_close(a, b)


# -- gold results are sorted on the first comparison that needs them


def count_gold_sorts(monkeypatch, call_log):
    """(the gold text of each prepared gold entry made, one note per rows
    list _sorted_rows sorts: the gold text whose rows they are, or None),
    noted in this process and in any worker forked from it."""
    golds, sorts = call_log(), call_log()
    made = []  # (gold text, entry) made in this process
    real_gold, real_sort = evaluation._gold, evaluation._sorted_rows

    def gold(gold_sql, *args):
        made.append((gold_sql, real_gold(gold_sql, *args)))
        golds.note(gold_sql)
        return made[-1][1]

    def sort(rows):
        entries = chain(made, *(kept.golds.items() for kept in evaluation._KEPT.values()))
        sorts.note(next((sql for sql, entry in entries if rows is entry.expected.rows), None))
        return real_sort(rows)

    monkeypatch.setattr(evaluation, "_gold", gold)
    monkeypatch.setattr(evaluation, "_sorted_rows", sort)
    return golds, sorts


def gold_sorts(golds, sorts):
    return sum(sql is not None and sql in golds for sql in sorts)


def score(pairs, db):
    examples = [SqlExample(id=f"e{i}", gold_sql=gold) for i, (gold, _) in enumerate(pairs)]
    preds = [PredictionRecord(id=f"e{i}", payload=pred) for i, (_, pred) in enumerate(pairs)]
    return score_sql_corpus(examples, preds, db)


def test_gold_is_not_sorted_when_no_prediction_compares_rows(monkeypatch, call_log):
    db = make_db()
    golds, sorts = count_gold_sorts(monkeypatch, call_log)
    report = score([
        ("SELECT a FROM t", "SELECT a FROM t"),  # echo
        ("SELECT b FROM t", "SELECT nope FROM t"),  # fails to run
        ("SELECT x FROM t", "SELECT x, a FROM t"),  # wrong width
        ("SELECT a FROM t WHERE b > 10", "SELECT a FROM t"),  # wrong row count
    ], db)
    assert report.execution_acc == 0.25
    assert len(golds) == 4
    assert sorts == []


def test_gold_is_sorted_once_for_many_comparisons(monkeypatch, call_log):
    db = make_db()
    golds, sorts = count_gold_sorts(monkeypatch, call_log)
    gold = "SELECT a FROM t WHERE b > 10"
    # each run prediction returns rows other than the gold's as returned
    report = score([
        (gold, "SELECT a FROM t WHERE b > 10 ORDER BY a DESC"),
        (gold, "SELECT a FROM t WHERE a < 3"),  # rows (1, 2), not (2, 3)
        (gold, gold),
        (gold, "SELECT a FROM t WHERE b >= 20 ORDER BY a DESC"),
    ], db)
    assert report.execution_acc == 0.75
    assert len(golds) == 1
    assert gold_sorts(golds, sorts) == 1
    assert len(sorts) == 4  # the gold once, each run prediction once


def test_rows_equal_as_returned_are_not_sorted(monkeypatch, call_log):
    db = make_db()
    golds, sorts = count_gold_sorts(monkeypatch, call_log)
    gold = "SELECT a FROM t WHERE b > 10"
    report = score([
        (gold, "select a from t where b > 10"),
        (gold, "SELECT a FROM t WHERE b >= 20"),
        ("SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a < 2"),
    ], db)
    assert report.execution_acc == 1.0
    assert sorts == []
    # equal rows with another cell type take the sorted path
    assert score([("SELECT a FROM t WHERE a = 1", "SELECT 1.0 FROM t WHERE a = 1")], db).execution_acc == 1.0
    assert len(sorts) == 2


def test_ordered_gold_is_never_sorted(monkeypatch, call_log):
    db = make_db()
    golds, sorts = count_gold_sorts(monkeypatch, call_log)
    gold = "SELECT a FROM t ORDER BY a DESC"
    report = score([
        (gold, "SELECT a FROM t ORDER BY b DESC"),
        (gold, "SELECT a FROM t ORDER BY a"),
        (gold, gold),
    ], db)
    assert report.execution_acc == 2 / 3
    assert sorts == []


@settings(max_examples=500, deadline=None)
@given(rows=result_rows())
def test_echo_verdict_is_the_rows_matching_themselves(rows):
    # the echo verdict is True: rows of finite values match themselves
    assert evaluation._rows_match(rows, rows)
    assert evaluation._rows_match(evaluation._sorted_rows(rows), evaluation._sorted_rows(rows))


# -- the exact pass settles a match only where sort-then-compare would


def sort_then_compare(pred_rows, gold_rows, ordered):
    """The verdict of the comparison without its exact pass."""
    if ordered:
        return evaluation._rows_match(pred_rows, gold_rows)
    return evaluation._rows_match(evaluation._sorted_rows(pred_rows), evaluation._sorted_rows(gold_rows))


def retyped(v):
    if type(v) is bool:
        return int(v)
    if type(v) is int and abs(v) <= 2**53:
        return float(v)
    return v


@st.composite
def gold_and_prediction(draw):
    gold = draw(result_rows())
    width = len(gold[0]) if gold else 1
    pred = draw(st.sampled_from(["same", "copy", "retyped", "permutation", "draw"]))
    if pred == "same":
        rows = gold
    elif pred == "copy":  # equal cells, none of them the gold's objects
        rows = pickle.loads(pickle.dumps(gold))
    elif pred == "retyped":  # equal under ==, yet booleans as ints and ints as floats
        rows = [tuple(map(retyped, row)) for row in gold]
    elif pred == "permutation":
        rows = draw(st.permutations(gold))
    else:
        rows = draw(result_rows())
    return gold, width, rows


@settings(max_examples=1000, deadline=None)
@given(case=gold_and_prediction(), ordered=st.booleans())
def test_exact_pass_never_changes_a_verdict(case, ordered):
    gold, width, rows = case
    pred_width = len(rows[0]) if rows else width
    want = pred_width == width and len(rows) == len(gold) and sort_then_compare(rows, gold, ordered)
    got = results_match(ResultTable(["c"] * pred_width, rows),
                        evaluation._Prepared.of(ResultTable(["c"] * width, gold), ordered))
    assert got == want


@pytest.mark.parametrize("ordered", [False, True])
def test_exact_pass_named_cases(ordered):
    def match(pred, gold):
        return results_match(ResultTable(["c"], pred), evaluation._Prepared.of(ResultTable(["c"], gold), ordered))

    assert not match([(True,)], [(1,)])  # equal under ==, yet a boolean is no number
    assert match([(1,)], [(1.0,)])


def test_unordered_match_sorts_by_exact_keys_then_compares_with_tolerance():
    # each predicted row is within tolerance of a distinct gold row, but the
    # exact sort keys pair them differently
    pred = ResultTable(["x", "y"], [(1.0 + 1e-12, "a"), (1.0, "b")])
    gold = ResultTable(["x", "y"], [(1.0, "a"), (1.0 + 1e-12, "b")])
    assert not results_match(pred, evaluation._Prepared.of(gold, False))


def test_report_header_records_the_timeout_used():
    db = make_db()
    default = json.loads(score_sql_corpus(EXAMPLES, PREDICTIONS, db).to_json())
    assert default["policy"]["prediction_timeout_seconds"] == evaluation.PRED_TIMEOUT == 5.0
    custom = json.loads(score_sql_corpus(EXAMPLES, PREDICTIONS, db, timeout=2.5).to_json())
    assert custom["policy"]["prediction_timeout_seconds"] == 2.5
    assert {**custom, "policy": default["policy"]} == default
