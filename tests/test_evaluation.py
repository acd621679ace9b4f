import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotsqlbench.evaluation import (
    _LITERAL_RE,
    Empty,
    GoldExecutionError,
    LengthMismatch,
    MissingPrediction,
    UnknownId,
    detection_metrics,
    execution_accuracy,
    logical_accuracy,
    normalize_sql,
    score_sql_corpus,
)
from iotsqlbench.modelio import PredictionRecord, SqlExample
from iotsqlbench.store import ColumnDef, Database, StoreError, TableSchema, TypeMismatch, define_schema
from iotsqlbench.store.sql import ParseError, parse
from iotsqlbench.templates import CorpusConfig, generate_corpus


@pytest.fixture()
def ab_db():
    schema = define_schema([
        TableSchema(name="t", columns=(
            ColumnDef("a", "number"), ColumnDef("b", "number"), ColumnDef("x", "text"),
        )),
    ])
    db = Database(schema)
    db.load_records("t", [(1, 10, "Ab"), (2, 20, "ab"), (3, 30, "Ab")])
    return db


# -- logical accuracy


def test_logical_case_insensitive_identifiers():
    assert logical_accuracy("select A from T", "SELECT a FROM t")


def test_logical_differs_on_extra_condition():
    assert not logical_accuracy("SELECT a FROM t", "SELECT a FROM t WHERE x=1")


def test_logical_preserves_literal_case(ab_db):
    upper = "SELECT * FROM t WHERE x = 'Ab'"
    lower = "SELECT * FROM t WHERE x = 'ab'"
    # the case change alters execution results, so logical must distinguish
    rows_upper = ab_db.execute(upper.replace("'", '"')).rows
    rows_lower = ab_db.execute(lower.replace("'", '"')).rows
    assert rows_upper != rows_lower
    assert not logical_accuracy(upper, lower)


def test_logical_whitespace_and_punctuation_normalization():
    assert logical_accuracy("SELECT  AVG( x )  FROM t", "select avg(x) from t")
    assert logical_accuracy("SELECT a , b FROM t", "SELECT a,b FROM t")
    assert logical_accuracy("SELECT a FROM t;", "SELECT a FROM t")
    assert logical_accuracy("SELECT x FROM t WHERE y = 'Key'", 'SELECT x FROM t WHERE y = "Key"')


def test_normalize_never_raises_on_junk():
    assert isinstance(normalize_sql("DROP ??? ~~ garbage ("), str)


@pytest.mark.parametrize("pred,gold", [
    # a long s (U+017F) and a Kelvin sign (U+212A) casefold to ASCII s and k
    ('\u017fELECT uid FROM conn_log WHERE proto = "tcp"', 'SELECT uid FROM conn_log WHERE proto = "tcp"'),
    ("SELECT orig_p\u212ats FROM conn_log", "SELECT orig_pkts FROM conn_log"),
])
def test_logical_folds_ascii_letters_only(pred, gold):
    # text the parser rejects never scores as logically correct
    with pytest.raises(ParseError):
        parse(pred)
    assert not logical_accuracy(pred, gold)
    assert logical_accuracy(gold.upper().replace('"TCP"', '"tcp"'), gold)


def test_logical_keeps_a_literal_with_a_double_quote_apart():
    gold = """SELECT uid FROM CONN_LOG WHERE (history = 'a"b')"""
    pred = 'SELECT uid FROM CONN_LOG WHERE (history = "a"b")'
    parse(gold)
    with pytest.raises(ParseError):
        parse(pred)
    assert not logical_accuracy(pred, gold)
    assert logical_accuracy("""select uid from conn_log where ( history = 'a"b' ) ;""", gold)


_RUN_DB = Database(define_schema([
    TableSchema(name="conn.log", columns=(
        ColumnDef("uid", "text"), ColumnDef("history", "text"),
        ColumnDef("orig_pkts", "number"), ColumnDef("local_orig", "boolean"),
    )),
]))
_RUN_DB.load_records("conn.log", [
    ("C1", "aB", 100, True), ("C2", "a'", 250, False), ("C3", 'B"', 1, True),
    ("C4", "aB", 101, None), ("C5", "", None, False), ("C6", " ", 7, True),
])

_SEPS = st.sampled_from([" ", "\n\t", "\u00a0", " \u00a0 "])
_BODIES = st.text(alphabet="aB \"'", max_size=4)
_LITERALS = st.builds(lambda quote, body: quote + body + quote, st.sampled_from(["'", '"', ""]), _BODIES)
_SELECTS = st.sampled_from(["uid", "CONN_LOG.UID", "Conn_Log.uid", "count ( * )", "COUNT(*)", "uid , history"])
_PREDICATES = st.one_of(
    st.builds("(history ={1}{0})".format, _LITERALS, st.sampled_from([" ", "", "\u00a0"])),
    st.sampled_from(["local_orig = TRUE", "local_orig = true", "orig_pkts > 1E2", "orig_pkts<=1e2",
                     "CONN_LOG.ORIG_PKTS >= 1e1", "uid IN ( SELECT uid FROM conn_log WHERE orig_pkts > 5 )"]),
)
_TAILS = st.sampled_from(["", ";", " ;", ";;", ", uid", ")", " ORDER BY uid DESC", "'", ' "', " 'aB"])
_TEXTS = st.builds(
    "SELECT{0}{1}{0}FROM{0}conn_log{0}WHERE{0}{2}{3}".format, _SEPS, _SELECTS, _PREDICATES, _TAILS,
)


def _reformatted(text, rng):
    """``text`` with its code's letter case and spacing, and the quotes of
    each literal whose body allows it, changed at random."""
    def code(piece):
        piece = piece.upper() if rng.random() < 0.5 else piece.lower()
        if rng.random() < 0.5:
            piece = piece.replace("(", " ( ").replace(",", "\u00a0,\u00a0")
        return piece.replace(" ", rng.choice([" ", "  ", "\u00a0", "\n"]))

    out, pos = [], 0
    for m in _LITERAL_RE.finditer(text):
        out.append(code(text[pos:m.start()]))
        body = m.group()[1:-1]
        quote = rng.choice([q for q in "'\"" if q not in body])
        out.append(quote + body + quote)
        pos = m.end()
    out.append(code(text[pos:]))
    return "".join(out)


def _run(text):
    """The columns and rows ``text`` returns on _RUN_DB, or the type of the
    store error it raises."""
    try:
        result = _RUN_DB.execute(text)
    except StoreError as exc:
        return type(exc)
    return result.columns, result.rows


# Scoring takes a logically correct prediction's execution verdict from its
# gold's run, so texts with one normal form must run alike.
@settings(max_examples=400, deadline=None)
@given(_TEXTS, st.randoms(use_true_random=False))
def test_texts_with_one_normal_form_run_alike(text, rng):
    normal = normalize_sql(text)
    expected = _run(text)
    for other in (normal, _reformatted(text, rng), _reformatted(normal, rng)):
        if normalize_sql(other) == normal:
            assert _run(other) == expected, (text, other)


# -- execution accuracy


def test_execution_identity(ab_db):
    assert execution_accuracy("SELECT a FROM t", "SELECT a FROM t", ab_db)


def test_execution_swapped_columns_false(ab_db):
    # oracle: positional multisets computed by hand from the three rows
    ab = {(1, 10), (2, 20), (3, 30)}
    ba = {(10, 1), (20, 2), (30, 3)}
    assert ab != ba
    assert not execution_accuracy("SELECT b, a FROM t", "SELECT a, b FROM t", ab_db)


def test_execution_true_for_equivalent_but_different_queries(ab_db):
    # brute force over the three rows: both forms return exactly {(3, 30)}
    rows = [(1, 10), (2, 20), (3, 30)]
    max_a = max(a for a, _ in rows)
    by_filter = {(a, b) for a, b in rows if a == max_a}
    assert by_filter == {(3, 30)}
    pred = "SELECT a, b FROM t WHERE (a = (SELECT MAX(a) FROM t))"
    gold = "SELECT a, b FROM t WHERE (a >= 3)"
    assert not logical_accuracy(pred, gold)
    assert execution_accuracy(pred, gold, ab_db)
    # and an inequality rewrite on integer data: a > 1 is a >= 2
    brute_gt = {a for a, _ in rows if a > 1}
    brute_ge = {a for a, _ in rows if a >= 2}
    assert brute_gt == brute_ge
    assert execution_accuracy(
        "SELECT a FROM t WHERE (a > 1)", "SELECT a FROM t WHERE (a >= 2)", ab_db
    )


def test_execution_row_order_insensitive_without_order_by(ab_db):
    # same rows either way; gold has no ORDER BY so order is ignored
    assert execution_accuracy("SELECT a FROM t ORDER BY a DESC", "SELECT a FROM t", ab_db)


def test_execution_order_sensitive_with_gold_order_by(ab_db):
    assert not execution_accuracy(
        "SELECT a FROM t ORDER BY a DESC", "SELECT a FROM t ORDER BY a", ab_db
    )
    assert execution_accuracy(
        "SELECT a FROM t ORDER BY a ASC", "SELECT a FROM t ORDER BY a", ab_db
    )


def test_execution_column_names_ignored(ab_db):
    assert execution_accuracy("SELECT a FROM t", "SELECT a FROM t", ab_db)
    # a and b differ in values, so this is false despite equal arity
    assert not execution_accuracy("SELECT b FROM t", "SELECT a FROM t", ab_db)


def test_execution_pred_error_is_false(ab_db):
    assert not execution_accuracy("SELECT nope FROM t", "SELECT a FROM t", ab_db)
    assert not execution_accuracy("garbage", "SELECT a FROM t", ab_db)


def test_execution_gold_error_raises(ab_db):
    with pytest.raises(GoldExecutionError):
        execution_accuracy("SELECT a FROM t", "SELECT nope FROM t", ab_db)


def test_execution_numeric_tolerance(ab_db):
    db = Database(define_schema([
        TableSchema(name="u", columns=(ColumnDef("v", "number"),)),
    ]))
    db.load_records("u", [(0.1,), (0.2,), (0.3,)])
    # AVG computed by different association orders may differ in the last ulp
    assert execution_accuracy("SELECT AVG(v) FROM u", "SELECT AVG(v) FROM u", db)


# -- corpus scoring


def _examples(ab_db):
    pairs = [
        ("SELECT a FROM t", "SELECT a FROM t"),
        ("SELECT b FROM t", "SELECT b FROM t"),
        ("SELECT COUNT(*) FROM t", "SELECT COUNT(*) FROM t"),
        ("SELECT a, b FROM t", "SELECT a, b FROM t"),
    ]
    examples = [SqlExample(id=f"e{i}", gold_sql=g) for i, (_, g) in enumerate(pairs)]
    predictions = [PredictionRecord(id=f"e{i}", payload=p) for i, (p, _) in enumerate(pairs)]
    return examples, predictions


def test_score_echo_is_perfect(ab_db):
    examples, predictions = _examples(ab_db)
    report = score_sql_corpus(examples, predictions, ab_db)
    assert report.execution_acc == 1.0 and report.logical_acc == 1.0
    assert report.per_table["t"].n == 4
    assert not report.failures


def test_score_one_wrong_of_four(ab_db):
    examples, predictions = _examples(ab_db)
    predictions[1] = PredictionRecord(id="e1", payload="SELECT a FROM t")
    report = score_sql_corpus(examples, predictions, ab_db)
    assert report.execution_acc == pytest.approx(0.75)
    assert report.logical_acc == pytest.approx(0.75)
    assert [f[0] for f in report.failures] == ["e1"]


def test_score_missing_prediction(ab_db):
    examples, predictions = _examples(ab_db)
    with pytest.raises(MissingPrediction):
        score_sql_corpus(examples, predictions[:-1], ab_db)


def test_score_unknown_id(ab_db):
    examples, predictions = _examples(ab_db)
    predictions.append(PredictionRecord(id="zzz", payload="SELECT 1"))
    with pytest.raises(UnknownId):
        score_sql_corpus(examples, predictions, ab_db)


def test_score_monotone_aggregation(ab_db):
    examples, predictions = _examples(ab_db)
    base = score_sql_corpus(examples, predictions, ab_db)
    predictions[2] = PredictionRecord(id="e2", payload="SELECT a FROM t")
    flipped = score_sql_corpus(examples, predictions, ab_db)
    n = len(examples)
    assert base.execution_acc - flipped.execution_acc == pytest.approx(1 / n)
    assert base.logical_acc - flipped.logical_acc == pytest.approx(1 / n)


def test_score_per_table_buckets(ab_db):
    examples = [
        SqlExample(id="a", gold_sql="SELECT a FROM t"),
        SqlExample(id="b", gold_sql="SELECT 1"),
    ]
    predictions = [
        PredictionRecord(id="a", payload="SELECT a FROM t"),
        PredictionRecord(id="b", payload="SELECT 1"),
    ]
    report = score_sql_corpus(examples, predictions, ab_db)
    assert report.per_table["t"].n == 1
    assert sum(bucket.n for bucket in report.per_table.values()) >= 1


def test_per_table_bucket_counts_match_gold_scan(synth_db):
    # bucket size must equal the number of goldens whose SQL references the
    # table, counted by scanning tables_referenced independently
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=1500, seed=142))
    conn_pairs = [p for p in pairs if "conn.log" in p.tables_referenced][:142]
    other_pairs = [p for p in pairs if "conn.log" not in p.tables_referenced][:58]
    assert len(conn_pairs) == 142
    chosen = conn_pairs + other_pairs
    examples = [SqlExample(id=f"e{i}", gold_sql=p.sql) for i, p in enumerate(chosen)]
    predictions = [PredictionRecord(id=ex.id, payload=ex.gold_sql) for ex in examples]
    report = score_sql_corpus(examples, predictions, synth_db)
    assert report.per_table["conn.log"].n == 142
    assert sum(b.n for b in report.per_table.values()) >= len(chosen)


def test_report_deterministic_bytes(ab_db):
    examples, predictions = _examples(ab_db)
    a = score_sql_corpus(examples, predictions, ab_db).to_json()
    b = score_sql_corpus(examples, predictions, ab_db).to_json()
    assert a == b


def test_soundness_logical_implies_execution(synth_db):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=150, seed=77))
    for pair in pairs:
        # gold against itself: logical true must imply execution true
        assert logical_accuracy(pair.sql, pair.sql)
        assert execution_accuracy(pair.sql, pair.sql, synth_db)


# -- detection metrics


def test_detection_perfect():
    report = detection_metrics([True, False, True], [True, False, True])
    assert report.macro_precision == 1.0
    assert report.macro_recall == 1.0
    assert report.macro_f1 == 1.0


def test_detection_hand_computed_confusion():
    golds = [True] * 50 + [False] * 50
    preds = [True] * 40 + [False] * 10 + [True] * 20 + [False] * 30
    report = detection_metrics(golds, preds)
    assert report.confusion == {"tp": 40, "fn": 10, "fp": 20, "tn": 30}
    # hand computation from the standard formulas:
    #   precision: malicious 40/60, benign 30/40 -> macro 17/24
    #   recall:    malicious 40/50, benign 30/50 -> macro 7/10
    #   F1:        malicious 8/11,  benign 2/3   -> macro 23/33
    assert report.macro_precision == pytest.approx(17 / 24, abs=1e-9)
    assert report.macro_recall == pytest.approx(7 / 10, abs=1e-9)
    assert report.macro_f1 == pytest.approx(23 / 33, abs=1e-9)


def test_detection_all_one_class_on_balanced():
    golds = [True] * 50 + [False] * 50
    preds = [True] * 100
    report = detection_metrics(golds, preds)
    # positive class: P=.5 R=1 F1=2/3; negative class: all zero
    assert report.macro_f1 == pytest.approx(1 / 3, abs=1e-9)
    assert report.per_class["benign"].f1 == 0.0


def test_detection_errors():
    with pytest.raises(LengthMismatch):
        detection_metrics([True], [True, False])
    with pytest.raises(Empty):
        detection_metrics([], [])


def test_detection_bounds_and_macro_le_max():
    golds = [True, True, False, False, True, False]
    preds = [True, False, True, False, True, False]
    report = detection_metrics(golds, preds)
    for value in (report.macro_precision, report.macro_recall, report.macro_f1):
        assert 0.0 <= value <= 1.0
    assert report.macro_f1 <= max(m.f1 for m in report.per_class.values())


def test_execution_pred_store_rejections_are_false():
    db = Database(define_schema([
        TableSchema(name="u", columns=(ColumnDef("ts", "time"), ColumnDef("v", "number"))),
    ]))
    db.load_records("u", [("2021-01-01T10:00:00", 1)])
    gold = 'SELECT v FROM u WHERE ts < "2021-02-01"'
    assert execution_accuracy(gold, gold, db)
    # offset-aware literal: TypeMismatch at compile time, scored as wrong
    assert not execution_accuracy('SELECT v FROM u WHERE ts < "2021-02-01T00:00:00+00:00"', gold, db)
    assert not execution_accuracy(
        'SELECT v FROM u WHERE ts < (SELECT "2021-02-01T00:00:00+00:00")', gold, db
    )
    assert not execution_accuracy(
        'SELECT v FROM u GROUP BY v HAVING MAX(ts) > (SELECT "2021-01-01T00:00:00+01:00")', gold, db
    )
    # nesting deep enough to exhaust the parser's recursion is a ParseError
    deep = "SELECT v FROM u WHERE " + "(" * 5000 + "v = 1" + ")" * 5000
    assert not execution_accuracy(deep, gold, db)


def test_execution_pred_engine_fault_propagates(ab_db, monkeypatch):
    gold = "SELECT a FROM t"
    real_execute = Database.execute

    def execute(self, sql, timeout=5.0):
        if sql != gold:
            raise RuntimeError("engine fault")
        return real_execute(self, sql, timeout)

    monkeypatch.setattr(Database, "execute", execute)
    with pytest.raises(RuntimeError):
        execution_accuracy("SELECT b FROM t", gold, ab_db)


def test_execution_scores_long_flat_conditions():
    db = Database(define_schema([
        TableSchema(name="u", columns=(ColumnDef("ts", "time"), ColumnDef("v", "number"))),
    ]))
    db.load_records("u", [("2021-01-01T10:00:00", 1), ("2021-01-02T10:00:00", 2)])
    gold = "SELECT v FROM u WHERE v = 1"
    ors = "SELECT v FROM u WHERE " + " OR ".join(["(v = 1)"] * 2000)
    assert execution_accuracy(ors, gold, db)
    ands = "SELECT v FROM u GROUP BY v HAVING " + " AND ".join(["(MAX(v) < 2)"] * 2000)
    assert execution_accuracy(ands, gold, db)


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() not in range(1, 5000),
    reason="this interpreter converts any integer literal",
)
def test_execution_pred_oversize_integer_literal_is_false(ab_db):
    # past the int-string limit the parse fails as a ParseError, not a ValueError
    assert not execution_accuracy("SELECT a FROM t WHERE a = " + "1" * 5000, "SELECT a FROM t", ab_db)


def _huge_db(other):
    db = Database(define_schema([TableSchema(name="h", columns=(ColumnDef("n", "number"),))]))
    db.load_records("h", [(10**308,), (other,)])
    return db


# an int sum past float range, and a float sum that overflows to inf
@pytest.mark.parametrize("other, aggregates", [(10**308, ("SUM",)), (1.7e308, ("AVG", "SUM"))],
                         ids=["int", "float"])
def test_aggregate_beyond_float_range_is_a_store_rejection(other, aggregates):
    db = _huge_db(other)
    gold = "SELECT COUNT(*) FROM h"
    for op in aggregates:
        text = f"SELECT {op}(n) FROM h"
        with pytest.raises(TypeMismatch, match=rf"{op}\(n\)"):
            db.execute(text)
        assert not execution_accuracy(text, gold, db)
        with pytest.raises(GoldExecutionError, match=rf"{op}\(n\)"):
            execution_accuracy(gold, text, db)
        report = score_sql_corpus(
            [SqlExample(id="e0", gold_sql=gold)], [PredictionRecord(id="e0", payload=text)], db,
        )
        assert report.execution_acc == 0.0


def test_sum_over_ints_alone_stays_exact():
    assert _huge_db(1).execute("SELECT SUM(n) FROM h").rows == [(10**308 + 1,)]
