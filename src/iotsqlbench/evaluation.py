"""Scoring: SQL logical/execution accuracy and detection macro metrics.

Logical accuracy is exact match after formatting-only normalization
(whitespace runs, identifier/keyword case, spacing around commas and
parentheses, quote style); literal contents keep their case.  Execution
accuracy compares result multisets positionally with numeric relative
tolerance 1e-6, turning order-sensitive only when the gold query has
ORDER BY.  Detection metrics are macro precision/recall/F1 over the two
classes with 0 substituted for empty denominators.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from datetime import datetime

from .modelio import PredictionRecord, SqlExample
from .store import Database, ResultTable, StoreError
from .store import sql as _sql

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
        pieces.append('"' + m.group()[1:-1] + '"')
        pos = m.end()
    pieces.append(_normalize_code(text[pos:]))
    return "".join(pieces).strip()


def _normalize_code(code: str) -> str:
    code = code.casefold()
    code = re.sub(r"\s+", " ", code)
    code = re.sub(r"\s*([(),])\s*", r"\1", code)
    return code


def logical_accuracy(pred_sql: str, gold_sql: str) -> bool:
    return normalize_sql(pred_sql) == normalize_sql(gold_sql)


# ---------------------------------------------------------------------------
# execution accuracy


def _values_match(a, b, rel_tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-9)
    if type(a) is not type(b):
        return False
    return a == b


_TYPE_ORDER = {type(None): 0, bool: 1, int: 2, float: 2, datetime: 3, str: 4}


def _sort_key(row: tuple):
    key = []
    for v in row:
        rank = _TYPE_ORDER.get(type(v), 5)
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


def results_match(
    pred: ResultTable,
    gold: ResultTable,
    order_sensitive: bool,
    rel_tol: float = EXEC_REL_TOL,
) -> bool:
    """Positional multiset comparison; column names are ignored."""
    if len(pred.columns) != len(gold.columns):
        return False
    if len(pred.rows) != len(gold.rows):
        return False
    pred_rows, gold_rows = pred.rows, gold.rows
    if not order_sensitive:
        pred_rows = sorted(pred_rows, key=_sort_key)
        gold_rows = sorted(gold_rows, key=_sort_key)
    for p_row, g_row in zip(pred_rows, gold_rows):
        if not all(_values_match(p, g, rel_tol) for p, g in zip(p_row, g_row)):
            return False
    return True


def execution_accuracy(
    pred_sql: str,
    gold_sql: str,
    db: Database,
    timeout: float = PRED_TIMEOUT,
    rel_tol: float = EXEC_REL_TOL,
) -> bool:
    """True iff both queries run and their results match.

    A prediction the store rejects (StoreError: parse error, unknown
    identifier, type mismatch, timeout) counts as incorrect; any other
    exception is an engine fault and propagates.  A gold-side failure
    raises GoldExecutionError.
    """
    try:
        gold_parsed = _sql.parse(gold_sql)
        gold_result = db.execute(gold_sql, timeout=timeout)
    except Exception as exc:
        raise GoldExecutionError(f"gold SQL failed: {exc}") from exc
    try:
        pred_result = db.execute(pred_sql, timeout=timeout)
    except StoreError:
        return False
    order_sensitive = bool(gold_parsed.order_by)
    return results_match(pred_result, gold_result, order_sensitive, rel_tol=rel_tol)


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


def score_sql_corpus(
    examples: list[SqlExample],
    predictions: list[PredictionRecord],
    db: Database,
    timeout: float = PRED_TIMEOUT,
) -> SqlEvalReport:
    """Score a prediction file against emitted examples on one database."""
    by_id = {}
    for rec in predictions:
        by_id[rec.id] = rec
    known = {ex.id for ex in examples}
    for rec in predictions:
        if rec.id not in known:
            raise UnknownId(f"prediction for unknown id {rec.id!r}")
    exec_correct = 0
    logical_correct = 0
    per_table: dict[str, TableBucket] = {}
    failures: list[tuple[str, str]] = []
    for ex in examples:
        if ex.id not in by_id:
            raise MissingPrediction(f"no prediction for example {ex.id!r}")
        pred_sql = by_id[ex.id].payload
        logical = logical_accuracy(pred_sql, ex.gold_sql)
        execution = execution_accuracy(pred_sql, ex.gold_sql, db, timeout=timeout)
        exec_correct += execution
        logical_correct += logical
        tables = _gold_tables(ex.gold_sql, db)
        for name in tables:
            bucket = per_table.setdefault(name, TableBucket())
            bucket.n += 1
            bucket.execution_correct += execution
            bucket.logical_correct += logical
        if not execution or not logical:
            reason = []
            if not execution:
                reason.append("execution mismatch")
            if not logical:
                reason.append("logical mismatch")
            failures.append((ex.id, ", ".join(reason)))
    n = len(examples)
    return SqlEvalReport(
        n=n,
        execution_acc=exec_correct / n if n else 0.0,
        logical_acc=logical_correct / n if n else 0.0,
        per_table=per_table,
        failures=failures,
    )


def _gold_tables(gold_sql: str, db: Database) -> set[str]:
    try:
        raw = _sql.referenced_tables(gold_sql)
    except StoreError:
        return set()
    out = set()
    for name in raw:
        t = db.schema.table(name)
        out.add(t.name if t is not None else name)
    return out


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
