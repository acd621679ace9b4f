"""Scoring computes execution verdicts in forked workers, one gold text per
process, and merges them in example order: the reports, the errors, the
queries run and the processes left behind must not depend on how many
processes scored."""

import gc
import os
import re

import pytest

from iotsqlbench import evaluation, workers
from iotsqlbench.evaluation import GoldExecutionError, score_sql_corpus
from iotsqlbench.modelio import PredictionRecord, SqlExample
from iotsqlbench.store import ColumnDef, Database, TableSchema, define_schema
from iotsqlbench.templates import CorpusConfig, generate_corpus

# run with a deadline already past, so the engine times it out at once
TIMEOUT_SQL = "SELECT COUNT(*) FROM conn.log JOIN dns.log ON conn.log.proto = dns.log.proto"
FLIPS = ((" = ", " != "), (" > ", " <= "), (" < ", " >= "), (" >= ", " < "), (" <= ", " > "))


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def fresh(db):
    """A copy of ``db`` with no gold result kept."""
    copy = Database(db.schema)
    for name, rows in db.snapshot().items():
        copy.load_records(name, rows)
    return copy


@pytest.fixture(scope="module")
def examples(synth_db):
    golds = [p.sql for p in generate_corpus(synth_db, CorpusConfig(n_pairs=40, seed=11))]
    golds += golds[1:12]  # golds with two examples each, scored by two kinds of prediction
    return [SqlExample(id=f"e{i}", gold_sql=g) for i, g in enumerate(golds)]


def mutant(sql):
    for old, new in FLIPS:
        if old in sql:
            return sql.replace(old, new, 1)
    return sql + " junk"


def predictions(examples, salt=0):
    """Echo, formatting-only, mutant, broken and timeout predictions, in turn."""
    kinds = (
        lambda sql: sql,
        lambda sql: "select" + sql[len("SELECT"):] + " ;",
        mutant,
        lambda sql: re.sub(r" FROM ", " FROM no_such_table, ", sql, count=1),
        lambda sql: TIMEOUT_SQL,
    )
    return [PredictionRecord(id=ex.id, payload=kinds[(i + salt) % len(kinds)](ex.gold_sql))
            for i, ex in enumerate(examples)]


@pytest.fixture()
def timeouts(monkeypatch):
    real_execute = Database.execute

    def execute(self, sql, timeout=5.0):
        return real_execute(self, sql, -1.0 if sql == TIMEOUT_SQL else timeout)

    monkeypatch.setattr(Database, "execute", execute)


def report_bytes(report):
    return report.to_json() + "\n" + report.to_text()


@pytest.mark.usefixtures("timeouts")
def test_reports_do_not_depend_on_the_process_count(synth_db, examples, processes):
    # with two processes, the third file's mutant of the sixth gold (a count
    # the worker runs in the first file) sorts that gold in the worker again,
    # after the second file's mutant sorted it there first
    files = [predictions(examples), predictions(examples, salt=2), predictions(examples, salt=3)]
    processes(1)
    alone = [report_bytes(score_sql_corpus(examples, preds, fresh(synth_db))) for preds in files]
    for count in (1, 2, 4):
        processes(count)
        db = fresh(synth_db)
        assert [report_bytes(score_sql_corpus(examples, preds, db)) for preds in files] == alone
        assert no_child_left()
    report = score_sql_corpus(examples, files[0], fresh(synth_db))
    assert 0.2 < report.execution_acc < 0.6  # every kind scored, not all alike
    timed_out = [ex.id for ex, rec in zip(examples, files[0]) if rec.payload == TIMEOUT_SQL]
    assert {ex for ex, _ in report.failures} >= set(timed_out)


def encoded(db):
    """The gold texts whose kept entries are still as a worker sent them."""
    return {sql for sql, gold in evaluation._KEPT[db].golds.items()
            if isinstance(gold, evaluation._SentGold) and gold.encoded is not None}


@pytest.mark.usefixtures("timeouts")
def test_a_worker_entry_stays_encoded_until_a_prediction_compares_rows(synth_db, examples, processes):
    golds = list(dict.fromkeys(ex.gold_sql for ex in examples))
    echoes = [PredictionRecord(id=ex.id, payload=ex.gold_sql) for ex in examples]
    # one mutant that runs, on a gold of the worker's, and echoes elsewhere
    k = next(i for i, ex in enumerate(examples)
             if golds.index(ex.gold_sql) % 2 and mutant(ex.gold_sql) != ex.gold_sql + " junk")
    one_mutant = list(echoes)
    one_mutant[k] = PredictionRecord(id=examples[k].id, payload=mutant(examples[k].gold_sql))
    files = [predictions(examples), echoes, one_mutant]
    processes(1)
    alone = [report_bytes(score_sql_corpus(examples, preds, fresh(synth_db))) for preds in files]
    processes(2)
    db = fresh(synth_db)
    got = [report_bytes(score_sql_corpus(examples, files[0], db))]
    assert encoded(db) == set(golds[1::2])  # the worker's share
    got.append(report_bytes(score_sql_corpus(examples, files[1], db)))
    assert encoded(db) == set(golds[1::2])  # an echo reads no rows, so decodes nothing
    processes(1)  # this process compares the mutant's rows
    got.append(report_bytes(score_sql_corpus(examples, files[2], db)))
    assert encoded(db) == set(golds[1::2]) - {examples[k].gold_sql}
    assert got == alone
    assert no_child_left()


@pytest.mark.usefixtures("timeouts")
@pytest.mark.parametrize("count", [1, 2])
def test_scoring_makes_no_reference_cycle(synth_db, examples, processes, count):
    # a pool pauses the collector, which is safe only while no cycle is made
    processes(count)
    db = fresh(synth_db)
    gc.collect()
    gc.disable()
    try:
        score_sql_corpus(examples, predictions(examples), db)
        assert not gc.isenabled()
        assert gc.collect() == 0
    finally:
        gc.enable()


def gold_error(examples, k):
    examples = list(examples)
    examples[k] = SqlExample(id=examples[k].id, gold_sql=f"SELECT no_such_column_{k} FROM conn.log")
    return examples


def engine_fault(monkeypatch, preds, k):
    """The prediction of example ``k`` raises an engine fault when it runs."""
    text = f"SELECT {k} FROM conn.log"
    preds[k] = PredictionRecord(id=preds[k].id, payload=text)
    real_execute = Database.execute

    def execute(self, sql, timeout=5.0):
        if sql == text:
            raise RuntimeError(f"engine fault at {k}")
        return real_execute(self, sql, timeout)

    monkeypatch.setattr(Database, "execute", execute)


def raised(examples, preds, db, processes, count):
    processes(count)
    with pytest.raises(Exception) as info:
        score_sql_corpus(examples, preds, fresh(db))
    assert no_child_left()
    return type(info.value), str(info.value)


@pytest.mark.usefixtures("timeouts")
@pytest.mark.parametrize("first", ["gold", "engine"])
@pytest.mark.parametrize("k", [4, 5, 12, 13, 45])
def test_an_error_raises_at_its_example(synth_db, examples, processes, monkeypatch, first, k):
    # two errors: the one at k raises, the other, five examples on, is
    # never reached, in whichever process each gold is scored
    later = (k + 5) % len(examples)
    preds = predictions(examples)
    gold_at, fault_at = (k, later) if first == "gold" else (later, k)
    examples = gold_error(examples, gold_at)
    engine_fault(monkeypatch, preds, fault_at)
    want = raised(examples, preds, synth_db, processes, 1)
    if later > k:  # the error at k is the first in example order
        assert want[0] is (GoldExecutionError if first == "gold" else RuntimeError)
        assert (f"no_such_column_{k}" if first == "gold" else f"engine fault at {k}") in want[1]
    assert raised(examples, preds, synth_db, processes, 2) == want


@pytest.mark.usefixtures("timeouts")
def test_a_worker_that_dies_changes_nothing(synth_db, examples, processes, monkeypatch):
    golds = list(dict.fromkeys(ex.gold_sql for ex in examples))
    k = [ex.gold_sql for ex in examples].index(golds[3])  # odd: in the worker's share
    doomed = "SELECT uid FROM conn.log"
    preds = predictions(examples)
    preds[k] = PredictionRecord(id=preds[k].id, payload=doomed)
    processes(1)
    expected = report_bytes(score_sql_corpus(examples, preds, fresh(synth_db)))
    parent = os.getpid()
    real_execute = Database.execute

    def execute(self, sql, timeout=5.0):
        if sql == doomed and os.getpid() != parent:
            os._exit(3)
        return real_execute(self, sql, timeout)

    received = []
    real_receive = workers.Worker.receive

    def receive(worker):
        received.append(real_receive(worker))
        return received[-1]

    monkeypatch.setattr(Database, "execute", execute)
    monkeypatch.setattr(workers.Worker, "receive", receive)
    processes(2)
    assert report_bytes(score_sql_corpus(examples, preds, fresh(synth_db))) == expected
    assert no_child_left()
    assert received == [None]


@pytest.mark.parametrize("files", [1, 2])
def test_executes_across_processes_equal_one_process(synth_db, examples, processes, count_executes, files):
    preds = [predictions(examples, salt) for salt in range(files)]
    runs = {}
    for count in (1, 2):
        processes(count)
        db = fresh(synth_db)
        calls = count_executes()
        for file in preds:
            score_sql_corpus(examples, file, db)
        runs[count] = sorted(calls)
        assert no_child_left()
    assert runs[2] == runs[1]


def formatted(sql, i):
    """A formatting-only variant of ``sql``, of kind ``i % 3``: keyword case
    and a trailing semicolon, spacing, or quote style."""
    if i % 3 == 0:
        return "select" + sql[len("SELECT"):] + " ;"
    if i % 3 == 1:
        return sql.replace(" FROM ", "\n  from ").replace("(", " ( ").replace(",", " ,")
    return sql if "'" in sql else sql.replace('"', "'")


def test_formatting_variants_score_alike_in_one_and_two_processes(synth_db, examples, processes, count_executes):
    preds = [PredictionRecord(id=ex.id, payload=formatted(ex.gold_sql, i)) for i, ex in enumerate(examples)]
    assert sum(rec.payload != ex.gold_sql for ex, rec in zip(examples, preds)) > len(examples) // 2
    reports = {}
    for count in (1, 2):
        processes(count)
        db = fresh(synth_db)
        calls = count_executes()
        reports[count] = score_sql_corpus(examples, preds, db)
        # no variant runs: each gold runs once, in one process or the other
        assert sorted(calls) == sorted({ex.gold_sql for ex in examples})
        assert no_child_left()
    assert report_bytes(reports[2]) == report_bytes(reports[1])
    assert reports[1].logical_acc == 1.0
    # the verdicts are those of running each variant
    db = fresh(synth_db)
    ran = [ex.id for ex, rec in zip(examples, preds)
           if not evaluation.execution_accuracy(rec.payload, ex.gold_sql, db)]
    assert [f[0] for f in reports[1].failures] == ran


def test_a_gold_sorted_in_a_worker_is_not_sorted_again(processes, call_log, monkeypatch):
    db = Database(define_schema([TableSchema("t", (ColumnDef("a", "number"), ColumnDef("b", "number")))]))
    db.load_records("t", [(1, 10), (2, 20), (3, 30)])
    golds = ["SELECT a FROM t WHERE b > 10", "SELECT b FROM t WHERE a > 1"]  # the second is the worker's
    examples = [SqlExample(id=f"e{i}", gold_sql=g) for i, g in enumerate(golds)]
    sorts = call_log()
    real_sort = evaluation._sorted_rows
    monkeypatch.setattr(evaluation, "_sorted_rows", lambda rows: sorts.note(rows) or real_sort(rows))
    processes(2)
    # each prediction returns its gold's rows in another order, so each
    # comparison sorts the prediction, and the gold unless it was sorted
    # before: the first file runs each gold and sorts it where it ran, and
    # the worker sends its gold back sorted
    for suffix in (" ORDER BY a DESC", " ORDER BY b DESC"):
        preds = [PredictionRecord(id=ex.id, payload=ex.gold_sql.lower() + suffix) for ex in examples]
        assert score_sql_corpus(examples, preds, db).execution_acc == 1.0
        assert no_child_left()
    assert sorts.count([[2], [3]]) == 1
    assert sorts.count([[20], [30]]) == 1
    assert len(sorts) == 2 + 4


@pytest.fixture()
def forks(monkeypatch):
    """The number of processes forked so far, counted in this process."""
    counted = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: counted.append(1) or real_fork())
    return counted


@pytest.mark.parametrize("distinct, forked", [(1, 0), (2, 1), (3, 2)])
def test_no_more_workers_than_gold_texts_minus_one(processes, forks, distinct, forked):
    db = Database(define_schema([TableSchema("t", (ColumnDef("a", "number"),))]))
    db.load_records("t", [(1,), (2,)])
    golds = [f"SELECT a FROM t WHERE a > {i % distinct}" for i in range(6)]
    examples = [SqlExample(id=f"e{i}", gold_sql=g) for i, g in enumerate(golds)]
    preds = [PredictionRecord(id=ex.id, payload=ex.gold_sql.lower()) for ex in examples]
    processes(4)
    assert score_sql_corpus(examples, preds, db).execution_acc == 1.0
    assert len(forks) == forked
    assert no_child_left()
