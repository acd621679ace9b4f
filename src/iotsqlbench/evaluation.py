"""Scoring: SQL logical/execution accuracy and detection macro metrics.

Logical accuracy is exact match after formatting-only normalization
(whitespace runs, identifier/keyword case, spacing around commas and
parentheses, quote style, except that a literal holding a double quote
keeps its single quotes); literal contents keep their case.  Execution
accuracy compares result multisets positionally, in one function,
``results_match``, with numeric relative tolerance 1e-6, turning
order-sensitive only when the gold query has ORDER BY; without it both
results are sorted by exact keys first, so two rows within tolerance may
still land at different positions.  Detection metrics are macro
precision/recall/F1 over the two classes with 0 substituted for empty
denominators.

Each gold query runs once per exact SQL text, database and timeout: its
result, as returned, is kept with the database while the database's rows
and the timeout stay the same, so a second prediction file scored on the
same rows runs no gold query again.  The store holds only finite numbers,
so every result value equals itself.  A prediction with the gold's width
and row count whose rows equal the gold's as returned, with the same type
in every cell, matches by one equality pass.  Any other such prediction is
compared after sorting, unless order counts; the sort of a gold result is
made on the first comparison that needs it.  Corpus scoring does not run a
logically correct prediction: texts with one normal form run alike, so it
is scored as its gold's echo, which matches.  A prediction textually
identical to its gold query is logically correct without being
normalized.  ``execution_accuracy`` called alone skips only that identical
text.  None of this changes the comparison policy.

Execution verdicts are computed in up to one process per CPU in the
affinity mask (forked workers, none with one CPU, one distinct gold text,
or where the platform cannot fork).  The distinct gold texts are dealt
round robin, so each gold query runs in one process, and the verdicts are
merged in example order: a report never depends on the process count, and
an error raises at the example where one process would raise it, because
a gold whose scoring raised is scored again in example order.  Every kept
gold entry holds its tables and its result encoded as one bytes object,
whichever process ran it, from the run of its query on; a later comparison
of rows decodes it for that comparison only, and a sort made is encoded
with it.  So a worker's entries are kept as it sends them.  Of an entry
kept before the call, a worker sends nothing back: a sort it made there is
made again when a later file needs it.
"""

from __future__ import annotations

import json
import math
import operator
import pickle
import re
import string
import weakref
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain
from typing import Mapping, Sequence

from .modelio import PredictionRecord, SqlExample
from .store import Database, ResultTable, StoreError
from .store import sql as _sql
from .workers import NOT_COMPUTED, Pool

EXEC_REL_TOL = 1e-6
PRED_TIMEOUT = 5.0


class EvalError(Exception):
    pass


class GoldExecutionError(EvalError):
    """Gold SQL failed to execute: the corpus, not the model, is broken."""


class MissingPrediction(EvalError):
    pass


class UnknownId(EvalError):
    pass


class LengthMismatch(EvalError):
    pass


class Empty(EvalError):
    pass


# ---------------------------------------------------------------------------
# logical accuracy

_LITERAL_RE = re.compile(r"'[^']*'|\"[^\"]*\"")


def normalize_sql(sql: str) -> str:
    """Formatting-only canonical form; never raises."""
    text = sql.strip()
    if text.endswith(";"):
        text = text[:-1].rstrip()
    pieces: list[str] = []
    pos = 0
    for m in _LITERAL_RE.finditer(text):
        pieces.append(_normalize_code(text[pos : m.start()]))
        body = m.group()[1:-1]
        # one quote style, but a body with a double quote keeps its single
        # quotes: as "a"b" it would be the normal form of text that fails
        pieces.append(f"'{body}'" if '"' in body else f'"{body}"')
        pos = m.end()
    pieces.append(_normalize_code(text[pos:]))
    return "".join(pieces).strip()


_SPACE_RE = re.compile(r"\s+")
_PUNCT_SPACE_RE = re.compile(r"\s*([(),])\s*")
# the dialect's keywords and identifiers are ASCII: only A-Z fold, so that
# text the parser rejects (a long s in "ſELECT") never normalizes to SQL
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def _normalize_code(code: str) -> str:
    folded = code.translate(_ASCII_LOWER)
    return _PUNCT_SPACE_RE.sub(r"\1", _SPACE_RE.sub(" ", folded))


def logical_accuracy(pred_sql: str, gold_sql: str) -> bool:
    # identical texts normalize alike
    return pred_sql == gold_sql or normalize_sql(pred_sql) == normalize_sql(gold_sql)


# ---------------------------------------------------------------------------
# execution accuracy


def _values_match(a, b) -> bool:
    # equal values of one type match at once
    if type(a) is type(b) and a == b:
        return True
    return _values_close(a, b)


def _values_close(a, b) -> bool:
    """The value policy: null matches null, a boolean only a boolean, numbers
    within the tolerance, anything else an equal value of its type."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=EXEC_REL_TOL, abs_tol=1e-9)
    if type(a) is not type(b):
        return False
    return a == b


def _rows_match(rows: list[tuple], expected: list[tuple]) -> bool:
    """Value by value, for rows of one width."""
    values, wanted = chain.from_iterable(rows), chain.from_iterable(expected)
    return all(map(_values_match, values, wanted))


# Unordered results are compared after sorting by a key of (type rank,
# value) per column: null < boolean < number < time < text < other, numbers
# as floats, so 1 and 1.0 tie and stay in their order.
_TYPE_ORDER = {type(None): 0, bool: 1, int: 2, float: 2, datetime: 3, str: 4}


def _cell_key(v) -> tuple:
    rank = _TYPE_ORDER.get(type(v), 5)
    if v is None:
        return (rank, 0)
    if isinstance(v, bool):
        return (rank, int(v))
    if isinstance(v, (int, float)):
        return (rank, float(v))
    if isinstance(v, datetime):
        return (rank, v.isoformat())
    return (rank, str(v))


def _sorted_rows(rows: list[tuple]) -> list[tuple]:
    """``rows`` sorted by their cells' keys; ties keep their order."""
    return sorted(rows, key=lambda row: tuple(map(_cell_key, row)))


@dataclass
class _Prepared:
    """A result to compare against.  A prediction whose rows equal its rows
    as returned, cell types included, matches it.  Otherwise, unless row
    order counts, its rows are sorted once, by the first comparison that
    gets that far.  A kept gold entry holds it, with that sort if made, as
    the bytes of ``encode``."""

    width: int
    ordered: bool
    rows: list  # as returned
    sorted_rows: list | None = None

    @property
    def comparable_rows(self) -> list:
        if not self.ordered and self.sorted_rows is None:
            self.sorted_rows = _sorted_rows(self.rows)
        return self.rows if self.ordered else self.sorted_rows

    def encode(self) -> bytes:
        # each rows list as one list of its cells: the pickler's memo then holds no row
        cells = [None if rows is None else list(chain.from_iterable(rows)) for rows in (self.rows, self.sorted_rows)]
        return pickle.dumps((self.width, self.ordered, *cells), pickle.HIGHEST_PROTOCOL)

    @classmethod
    def decode(cls, encoded: bytes) -> "_Prepared":
        width, ordered, *cells = pickle.loads(encoded)
        # every result has a column, so the cells split into rows of ``width``
        return cls(width, ordered, *(None if c is None else list(zip(*[iter(c)] * width)) for c in cells))


def results_match(pred: ResultTable, expected: _Prepared) -> bool:
    """Positional multiset comparison of ``pred`` with a prepared result,
    the one comparison scoring makes; column names are ignored."""
    if len(pred.columns) != expected.width or len(pred.rows) != len(expected.rows):
        return False
    # Rows equal as returned, of one type cell for cell, pass the first
    # test of _values_match at every position, ordered or sorted alike.
    if pred.rows == expected.rows and all(map(operator.is_, map(type, chain.from_iterable(pred.rows)),
                                              map(type, chain.from_iterable(expected.rows)))):
        return True
    rows = pred.rows if expected.ordered else _sorted_rows(pred.rows)
    return _rows_match(rows, expected.comparable_rows)


@dataclass
class _Gold:
    """What scoring needs of one gold query on one database."""

    tables: frozenset  # referenced tables, by their schema names
    encoded: bytes  # its _Prepared result; replaced whole when a sort is made


@dataclass
class _KeptGolds:
    """The gold entries prepared on one database, valid for the rows of
    ``snapshot`` under ``timeout``."""

    snapshot: Mapping
    timeout: float
    golds: dict = field(default_factory=dict)  # exact SQL text -> _Gold


# Released with their database.  Stored tables are immutable tuples that a
# load replaces, so comparing snapshots compares each table by identity
# first, and a table that grew is unequal by its length.  A kept set holds
# the table dict it was built on, so after a load the old rows stay in
# memory until the next scoring call on that database.
_KEPT: weakref.WeakKeyDictionary[Database, _KeptGolds] = weakref.WeakKeyDictionary()


def _kept_set(db: Database, snapshot: Mapping, timeout: float) -> _KeptGolds:
    """The set kept on ``db`` for the rows of ``snapshot`` under ``timeout``;
    a set kept for other rows or another timeout is replaced by an empty one."""
    kept = _KEPT.get(db)
    if kept is None or kept.timeout != timeout or kept.snapshot != snapshot:
        kept = _KEPT[db] = _KeptGolds(snapshot, timeout)
    return kept


def _prepared_gold(gold_sql: str, db: Database, timeout: float) -> tuple[_Gold, _Prepared | None]:
    """The gold entry for ``gold_sql`` on the current rows of ``db`` under
    ``timeout`` (the kept one, or one run now) and the result run now, or
    None.  A new entry is kept only if the rows did not change while it ran
    (a load only appends rows, so equal snapshots before and after mean the
    query saw those rows)."""
    snapshot = db.snapshot()
    kept = _kept_set(db, snapshot, timeout)
    gold, expected = kept.golds.get(gold_sql), None
    if gold is None:  # a gold query that raises is not kept
        gold, expected = _gold(gold_sql, db, timeout)
        if db.snapshot() == snapshot:
            kept.golds[gold_sql] = gold
    return gold, expected


def _gold(gold_sql: str, db: Database, timeout: float) -> tuple[_Gold, _Prepared]:
    try:
        result = db.execute(gold_sql, timeout=timeout)
    except Exception as exc:
        raise GoldExecutionError(f"gold SQL failed: {exc}") from exc
    expected = _Prepared(len(result.columns), bool(result.query.order_by), result.rows)
    return _Gold(_sql.canonical_tables(result.query, db.schema), expected.encode()), expected


def execution_accuracy(pred_sql: str, gold_sql: str, db: Database, timeout: float = PRED_TIMEOUT) -> bool:
    """True iff both queries run and their results match.

    A prediction the store rejects (StoreError: parse error, unknown
    identifier, type mismatch, timeout) counts as incorrect; any other
    exception is an engine fault and propagates.  A gold-side failure
    raises GoldExecutionError.  A prediction with the gold query's exact
    text is not run: on the same rows the engine returns the gold result.

    Prepared gold results are kept per database by exact SQL text (``= 1``
    and ``= true`` parse equal) while the database's rows and the timeout
    stay the same, so each gold query runs once for any number of calls
    and prediction files on those rows.  A load, or another timeout, starts
    an empty set.  Failed gold queries and predictions are never kept.
    The kept results, sorted ones and join results included, live as long
    as the database does (or until the next load or timeout change), not
    only until the call returns.
    """
    gold, expected = _prepared_gold(gold_sql, db, timeout)
    if pred_sql == gold_sql:
        return True
    try:
        pred_result = db.execute(pred_sql, timeout=timeout)
    except StoreError:
        return False
    expected = expected or _Prepared.decode(gold.encoded)
    unsorted = expected.sorted_rows is None
    matched = results_match(pred_result, expected)
    if unsorted and expected.sorted_rows is not None:  # kept with the sort this comparison made
        gold.encoded = expected.encode()
    return matched


# ---------------------------------------------------------------------------
# corpus scoring

COMPARISON_POLICY = {
    "order_sensitive_iff_gold_has_order_by": True,
    "column_names_ignored": True,
    "numeric_rel_tol": EXEC_REL_TOL,
    "prediction_timeout_seconds": PRED_TIMEOUT,
    "logical_normalization": "whitespace, keyword/identifier case, comma/paren spacing, quote style",
}


@dataclass
class TableBucket:
    n: int = 0
    execution_correct: int = 0
    logical_correct: int = 0

    @property
    def execution_acc(self) -> float:
        return self.execution_correct / self.n if self.n else 0.0

    @property
    def logical_acc(self) -> float:
        return self.logical_correct / self.n if self.n else 0.0


@dataclass
class SqlEvalReport:
    n: int
    execution_acc: float
    logical_acc: float
    per_table: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)  # (id, reason)
    policy: dict = field(default_factory=lambda: dict(COMPARISON_POLICY))

    def to_json(self) -> str:
        return json.dumps(
            {
                "policy": self.policy,
                "n": self.n,
                "execution_acc": round(self.execution_acc, 6),
                "logical_acc": round(self.logical_acc, 6),
                "per_table": {
                    name: {
                        "n": bucket.n,
                        "execution_acc": round(bucket.execution_acc, 6),
                        "logical_acc": round(bucket.logical_acc, 6),
                    }
                    for name, bucket in sorted(self.per_table.items())
                },
                "failures": [list(f) for f in self.failures],
            },
            sort_keys=True,
            indent=2,
        )

    def to_text(self) -> str:
        lines = [
            "SQL evaluation report",
            f"  examples:       {self.n}",
            f"  execution acc:  {self.execution_acc:.3f}",
            f"  logical acc:    {self.logical_acc:.3f}",
            "  per-table breakdown:",
        ]
        for name, bucket in sorted(self.per_table.items()):
            lines.append(
                f"    {name:<16} n={bucket.n:<6} exec={bucket.execution_acc:.3f} logical={bucket.logical_acc:.3f}"
            )
        if self.failures:
            lines.append(f"  failures: {len(self.failures)}")
        return "\n".join(lines)


def join_predictions(examples: Sequence, predictions: Sequence[PredictionRecord]) -> list[tuple]:
    """Each example paired with its prediction by id, in example order (a
    repeated id keeps its last record).  A prediction for no example raises
    UnknownId; an example without one raises MissingPrediction."""
    by_id = {rec.id: rec for rec in predictions}
    known = {ex.id for ex in examples}
    for rec in predictions:
        if rec.id not in known:
            raise UnknownId(f"prediction for unknown id {rec.id!r}")
    pairs = []
    for ex in examples:
        if ex.id not in by_id:
            raise MissingPrediction(f"no prediction for example {ex.id!r}")
        pairs.append((ex, by_id[ex.id]))
    return pairs


def _verdicts(pairs: list[tuple], db: Database, timeout: float) -> list[tuple[bool, bool, frozenset]]:
    """Each (example, prediction) pair's execution and logical verdicts and
    the tables its gold query references, in order, as one process computes
    them.

    The distinct gold texts are dealt, in order of first appearance, round
    robin over this process and its forked workers (``workers.Pool``).  Each
    process scores every example of each gold it was dealt, so each gold
    query runs in one process only.  A gold whose scoring raised, in any
    process, or whose worker died, is scored again in the example-order walk
    below, so an error raises at the example where one process would have
    raised it.  An entry is encoded where its gold ran, so each entry a
    worker ran, with any sort made, is kept here as sent if the rows have not
    changed since the workers were forked; a sort a worker made on an entry
    kept before the call is not sent back.
    """
    examples_of: dict[str, list[int]] = {}
    for i, (ex, _) in enumerate(pairs):
        examples_of.setdefault(ex.gold_sql, []).append(i)
    golds = list(examples_of)

    def verdict(i: int) -> tuple[bool, bool]:
        ex, rec = pairs[i]
        logical = logical_accuracy(rec.payload, ex.gold_sql)
        # a text with the gold's normal form runs as the gold: score its echo
        pred_sql = ex.gold_sql if logical else rec.payload
        return execution_accuracy(pred_sql, ex.gold_sql, db, timeout), logical

    def score_gold(j: int) -> tuple:
        """The verdicts of gold ``j``'s examples, its tables, and its entry
        if this call ran it, else None."""
        gold_sql = golds[j]
        kept = _KEPT.get(db)
        before = kept and kept.golds.get(gold_sql)
        verdicts = list(map(verdict, examples_of[gold_sql]))
        gold = _prepared_gold(gold_sql, db, timeout)[0]
        return verdicts, gold.tables, gold if gold is not before else None

    snapshot = db.snapshot()
    with Pool(score_gold, len(golds)) as pool:
        results = pool.compute(range(len(golds)))
    kept = _kept_set(db, snapshot, timeout).golds if db.snapshot() == snapshot else {}
    out: list = [None] * len(pairs)
    for gold_sql, result in zip(golds, results):
        if result == NOT_COMPUTED:
            continue
        verdicts, tables, ran = result
        for i, (execution, logical) in zip(examples_of[gold_sql], verdicts):
            out[i] = execution, logical, tables
        if ran is not None:
            kept[gold_sql] = ran
    for i, (ex, _) in enumerate(pairs):
        if out[i] is None:
            out[i] = *verdict(i), _prepared_gold(ex.gold_sql, db, timeout)[0].tables
    return out


def score_sql_corpus(
    examples: list[SqlExample],
    predictions: list[PredictionRecord],
    db: Database,
    timeout: float = PRED_TIMEOUT,
) -> SqlEvalReport:
    """Score a prediction file against emitted examples on one database."""
    if not math.isfinite(timeout):  # the report records it as a JSON number
        raise ValueError(f"timeout must be a finite number of seconds, got {timeout!r}")
    exec_correct = 0
    logical_correct = 0
    per_table: dict[str, TableBucket] = {}
    failures: list[tuple[str, str]] = []
    pairs = join_predictions(examples, predictions)
    for (ex, _), (execution, logical, tables) in zip(pairs, _verdicts(pairs, db, timeout)):
        exec_correct += execution
        logical_correct += logical
        for name in tables:
            bucket = per_table.setdefault(name, TableBucket())
            bucket.n += 1
            bucket.execution_correct += execution
            bucket.logical_correct += logical
        reason = ", ".join(text for text, ok in (("execution mismatch", execution), ("logical mismatch", logical)) if not ok)
        if reason:
            failures.append((ex.id, reason))
    n = len(examples)
    return SqlEvalReport(
        n=n,
        execution_acc=exec_correct / n if n else 0.0,
        logical_acc=logical_correct / n if n else 0.0,
        per_table=per_table,
        failures=failures,
        policy={**COMPARISON_POLICY, "prediction_timeout_seconds": timeout},
    )


# ---------------------------------------------------------------------------
# detection metrics


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class DetectionReport:
    n: int
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: dict  # tp / fn / fp / tn, positive class = malicious
    per_class: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "macro_precision": round(self.macro_precision, 6),
                "macro_recall": round(self.macro_recall, 6),
                "macro_f1": round(self.macro_f1, 6),
                "confusion": self.confusion,
                "per_class": {
                    name: {
                        "precision": round(m.precision, 6),
                        "recall": round(m.recall, 6),
                        "f1": round(m.f1, 6),
                    }
                    for name, m in sorted(self.per_class.items())
                },
            },
            sort_keys=True,
            indent=2,
        )

    def to_text(self) -> str:
        c = self.confusion
        return "\n".join(
            [
                "Detection report",
                f"  n:               {self.n}",
                f"  macro precision: {self.macro_precision:.3f}",
                f"  macro recall:    {self.macro_recall:.3f}",
                f"  macro F1:        {self.macro_f1:.3f}",
                f"  confusion:       TP={c['tp']} FN={c['fn']} FP={c['fp']} TN={c['tn']}",
            ]
        )


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def detection_metrics(golds: list[bool], preds: list[bool]) -> DetectionReport:
    """Macro-averaged precision/recall/F1 over the two classes."""
    if len(golds) != len(preds):
        raise LengthMismatch(f"{len(golds)} golds vs {len(preds)} predictions")
    if not golds:
        raise Empty("no examples to score")
    tp = sum(1 for g, p in zip(golds, preds) if g and p)
    fn = sum(1 for g, p in zip(golds, preds) if g and not p)
    fp = sum(1 for g, p in zip(golds, preds) if not g and p)
    tn = sum(1 for g, p in zip(golds, preds) if not g and not p)

    def metrics(tp_c: int, fp_c: int, fn_c: int) -> ClassMetrics:
        precision = _safe_div(tp_c, tp_c + fp_c)
        recall = _safe_div(tp_c, tp_c + fn_c)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        return ClassMetrics(precision=precision, recall=recall, f1=f1)

    malicious = metrics(tp, fp, fn)
    benign = metrics(tn, fn, fp)
    return DetectionReport(
        n=len(golds),
        macro_precision=(malicious.precision + benign.precision) / 2,
        macro_recall=(malicious.recall + benign.recall) / 2,
        macro_f1=(malicious.f1 + benign.f1) / 2,
        confusion={"tp": tp, "fn": fn, "fp": fp, "tn": tn},
        per_class={"malicious": malicious, "benign": benign},
    )
