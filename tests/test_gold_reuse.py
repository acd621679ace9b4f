"""Prepared gold results kept per database: reused across prediction files
while the rows and the timeout stay the same, and released with the
database."""

import gc
import sys
import threading
import weakref

import pytest

from iotsqlbench import evaluation
from iotsqlbench.evaluation import GoldExecutionError, score_sql_corpus
from iotsqlbench.modelio import PredictionRecord, SqlExample
from iotsqlbench.store import ColumnDef, Database, TableSchema, define_schema

ROWS = [(1, 10, "Ab"), (2, 20, "ab"), (3, 30, "Ab"), (4, 20, "cd")]


def make_db():
    db = Database(define_schema([
        TableSchema(name="t", columns=(
            ColumnDef("a", "number"), ColumnDef("b", "number"), ColumnDef("x", "text"),
        )),
    ]))
    db.load_records("t", ROWS)
    return db


GOLDS = [
    "SELECT a FROM t WHERE b > 10",
    "SELECT x, COUNT(*) FROM t GROUP BY x",
    "SELECT a FROM t ORDER BY a DESC",
    "SELECT a FROM t WHERE b > 10",
]
EXAMPLES = [SqlExample(id=f"e{i}", gold_sql=g) for i, g in enumerate(GOLDS)]


def predictions(*payloads):
    return [PredictionRecord(id=f"e{i}", payload=p) for i, p in enumerate(payloads)]


FILE_A = predictions(
    "SELECT a FROM t WHERE b > 10",  # echo
    "select x, count(*) from t group by x",  # formatting only
    "SELECT a FROM t ORDER BY a",  # wrong order
    "SELECT nope FROM t",  # store error
)
FILE_B = predictions(
    "SELECT a FROM t WHERE b >= 20",  # same rows
    "SELECT x, COUNT(*) FROM t GROUP BY x",  # echo
    "SELECT a FROM t ORDER BY b DESC",  # rows in another order
    "SELECT a FROM t WHERE a > 1 AND a < 5",  # same rows until a row is loaded
)


def gold_runs(calls):
    return sorted(sql for sql in calls if sql in GOLDS)


def report_bytes(report):
    return report.to_json() + "\n" + report.to_text()


def test_two_files_run_each_gold_once_and_match_fresh_databases(count_executes):
    alone = [report_bytes(score_sql_corpus(EXAMPLES, f, make_db())) for f in (FILE_A, FILE_B)]
    db = make_db()
    calls = count_executes()
    both = [report_bytes(score_sql_corpus(EXAMPLES, f, db)) for f in (FILE_A, FILE_B)]
    assert both == alone
    assert gold_runs(calls) == sorted(set(GOLDS))
    # predictions are never kept: each prediction that is not logically
    # correct runs once per file, and a formatting-only variant never runs
    assert calls.count("SELECT nope FROM t") == 1
    assert calls.count("SELECT a FROM t ORDER BY b DESC") == 1
    assert calls.count("select x, count(*) from t group by x") == 0
    assert len(calls) == len(set(GOLDS)) + 2 + 3


def test_a_load_between_files_runs_the_golds_again_on_the_new_rows(count_executes):
    db = make_db()
    before = report_bytes(score_sql_corpus(EXAMPLES, FILE_B, db))
    db.load_records("t", [(5, 50, "ef")])
    calls = count_executes()
    after = score_sql_corpus(EXAMPLES, FILE_B, db)
    assert gold_runs(calls) == sorted(set(GOLDS))
    fresh = make_db()
    fresh.load_records("t", [(5, 50, "ef")])
    assert report_bytes(after) == report_bytes(score_sql_corpus(EXAMPLES, FILE_B, fresh))
    assert report_bytes(after) != before
    # the last prediction matched the gold's rows (2, 3, 4) before the load,
    # and no longer matches (2, 3, 4, 5)
    assert ("e3", "logical mismatch") in score_sql_corpus(EXAMPLES, FILE_B, make_db()).failures
    assert ("e3", "execution mismatch, logical mismatch") in after.failures


def test_another_timeout_runs_the_golds_again(count_executes):
    db = make_db()
    calls = count_executes()
    first = score_sql_corpus(EXAMPLES, FILE_A, db, timeout=5.0)
    score_sql_corpus(EXAMPLES, FILE_A, db, timeout=5.0)
    assert gold_runs(calls) == sorted(set(GOLDS))
    calls.clear()
    second = score_sql_corpus(EXAMPLES, FILE_A, db, timeout=60.0)
    assert gold_runs(calls) == sorted(set(GOLDS))
    assert second.failures == first.failures
    assert second.policy["prediction_timeout_seconds"] == 60.0


# the failing gold raises in the process it is dealt to (with two processes
# the worker: it is the fourth distinct gold), and this process runs it
# again in example order
@pytest.mark.parametrize("count", [1, 2])
def test_a_failing_gold_raises_on_every_call_and_is_never_kept(count_executes, processes, count):
    processes(count)
    db = make_db()
    bad = "SELECT missing FROM t"
    examples = EXAMPLES + [SqlExample(id="e4", gold_sql=bad)]
    preds = FILE_A + [PredictionRecord(id="e4", payload="SELECT a FROM t")]
    calls = count_executes()
    for _ in range(3):
        with pytest.raises(GoldExecutionError):
            score_sql_corpus(examples, preds, db)
        assert bad not in evaluation._KEPT[db].golds
    assert calls.count(bad) == 3 * 2
    # the golds that ran are kept; the failing one is the only gold run again
    assert gold_runs(calls) == sorted(set(GOLDS))


def test_an_unordered_gold_is_sorted_at_most_once_across_files(monkeypatch):
    db = make_db()
    sorts = []
    real_sort = evaluation._sorted_rows
    monkeypatch.setattr(evaluation, "_sorted_rows", lambda rows: sorts.append(rows) or real_sort(rows))
    gold = "SELECT a FROM t WHERE b > 10"
    examples = [SqlExample(id="e", gold_sql=gold)]
    # rows in another order than the gold's, so each comparison sorts
    for pred in ("SELECT a FROM t WHERE b >= 20 ORDER BY a DESC", "SELECT a FROM t WHERE a > 1 ORDER BY a DESC"):
        assert score_sql_corpus(examples, [PredictionRecord(id="e", payload=pred)], db).execution_acc == 1.0
    # a kept entry is decoded anew for each comparison, so its rows are
    # told apart from a prediction's by value
    gold_rows = make_db().execute(gold).rows
    assert sum(rows == gold_rows for rows in sorts) == 1
    assert len(sorts) == 3  # the gold once, each prediction once


def holds_a_list(entry):
    """Whether a list, such as a result's rows, is reachable from ``entry``."""
    seen, todo = set(), [entry]
    while todo:
        obj = todo.pop()
        if isinstance(obj, list):
            return True
        if not isinstance(obj, type) and id(obj) not in seen:
            seen.add(id(obj))
            todo.extend(gc.get_referents(obj))
    return False


def test_no_kept_entry_holds_decoded_rows_after_a_one_process_call(processes):
    processes(1)
    db = make_db()
    for preds in (FILE_A, FILE_B):  # FILE_B compares rows against golds FILE_A kept
        score_sql_corpus(EXAMPLES, preds, db)
        golds = evaluation._KEPT[db].golds
        assert sorted(golds) == sorted(set(GOLDS))
        assert not any(map(holds_a_list, golds.values()))


def test_a_result_is_decoded_only_by_a_comparison_after_the_one_that_ran_it(monkeypatch, processes):
    processes(1)
    db = make_db()
    decodes = []
    real_decode = evaluation._Prepared.decode
    monkeypatch.setattr(evaluation._Prepared, "decode", lambda encoded: decodes.append(encoded) or real_decode(encoded))
    # the first and last predictions run and compare against one gold: the
    # first against the result as run, the last against the kept one
    score_sql_corpus(EXAMPLES, FILE_B, db)
    assert len(decodes) == 1
    score_sql_corpus(EXAMPLES, FILE_B, db)  # each of its three run predictions decodes
    assert len(decodes) == 1 + 3


def test_kept_entries_are_released_with_the_database():
    gc.collect()
    before = len(evaluation._KEPT)
    db = make_db()
    score_sql_corpus(EXAMPLES, FILE_A, db)
    kept = weakref.ref(evaluation._KEPT[db])
    assert len(evaluation._KEPT) == before + 1
    del db
    gc.collect()
    assert kept() is None
    assert len(evaluation._KEPT) == before


# another corpus: its kept set holds none of the golds above
OTHER = (
    [SqlExample(id="o", gold_sql="SELECT b FROM t")],
    [PredictionRecord(id="o", payload="SELECT b FROM t WHERE a > 0")],
)


def test_a_scorer_with_another_timeout_in_between_leaves_a_scoring_run_whole(monkeypatch, call_log):
    # another caller replaces the kept set after each execution_accuracy
    # call, as a second thread scoring with another timeout may
    db = make_db()
    alone = report_bytes(score_sql_corpus(EXAMPLES, FILE_A, make_db()))
    other = report_bytes(score_sql_corpus(*OTHER, make_db(), timeout=60.0))
    real = evaluation.execution_accuracy
    others = call_log()  # in whichever process scores the example

    def interleaved(pred_sql, gold_sql, db_, timeout=evaluation.PRED_TIMEOUT):
        verdict = real(pred_sql, gold_sql, db_, timeout)
        monkeypatch.setattr(evaluation, "execution_accuracy", real)
        others.note(report_bytes(score_sql_corpus(*OTHER, db, timeout=60.0)))
        monkeypatch.setattr(evaluation, "execution_accuracy", interleaved)
        return verdict

    monkeypatch.setattr(evaluation, "execution_accuracy", interleaved)
    assert report_bytes(score_sql_corpus(EXAMPLES, FILE_A, db)) == alone
    assert others == [other] * len(EXAMPLES)


def test_threads_with_different_timeouts_share_one_database():
    db = make_db()
    files = {5.0: (EXAMPLES, FILE_A), 60.0: OTHER}
    want = {t: report_bytes(score_sql_corpus(*f, make_db(), timeout=t)) for t, f in files.items()}
    start = threading.Barrier(len(files))
    got = {t: [] for t in files}
    errors = []

    def score(timeout):
        try:
            start.wait()
            for _ in range(30):
                got[timeout].append(report_bytes(score_sql_corpus(*files[timeout], db, timeout=timeout)))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        threads = [threading.Thread(target=score, args=(t,)) for t in files]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert got == {t: [want[t]] * 30 for t in files}


def test_a_gold_run_that_a_load_overtakes_is_not_kept(monkeypatch):
    db = make_db()
    gold, pred = "SELECT a FROM t", "SELECT a FROM t WHERE b < 100"
    calls = []
    real_execute = Database.execute

    def execute(self, sql, timeout=5.0):
        calls.append(sql)
        if len(calls) == 1:  # the rows change after scoring took its snapshot
            self.load_records("t", [(5, 500, "ef")])
        return real_execute(self, sql, timeout)

    monkeypatch.setattr(Database, "execute", execute)
    assert not evaluation.execution_accuracy(pred, gold, db)  # the gold saw row 5
    assert gold not in evaluation._KEPT[db].golds
    assert not evaluation.execution_accuracy(pred, gold, db)
    assert calls == [gold, pred, gold, pred]
    assert gold in evaluation._KEPT[db].golds
