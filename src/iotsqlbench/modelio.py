"""Model input serialization and prediction file exchange.

Text-to-SQL inputs are the question, a separator, then the linearized
schema tokens.  Detection inputs are a fixed instruction followed by the
space-joined connection-log row (identifier columns ts and uid excluded,
matching the 19-feature row; unset values render as ``-``).  The rows are
rendered a column at a time, from the columns ``records.conn_columns``
gives, by ``zeek._render_column``, the renderer the TSV writer uses, and
``detection_row`` renders one record the same way, so rendering has one
semantics.  Examples and predictions travel as UTF-8 JSON lines keyed by
id, one per ``"\n"``-ended line, and a file of them is read one line at a
time; detection examples are built a column at a time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import Iterable

from .ingest.records import CONN_FIELDS, ConnRecord, conn_columns
from .ingest.zeek import _render_column
from .lines import read_lines
from .store.schema import DatabaseSchema, LinearizedSchema, linearize_schema

DEFAULT_INSTRUCTION = "Is the following network information Malicious?"
DEFAULT_SEPARATOR = " | "
SCHEMA_TOKEN_JOINER = ", "

DETECTION_FIELDS = [spec for spec in CONN_FIELDS if spec.name not in ("ts", "uid")]


class ModelIOError(Exception):
    pass


class EmptyQuestion(ModelIOError):
    pass


class DuplicateId(ModelIOError):
    pass


class MissingId(ModelIOError):
    pass


class ParseError(ModelIOError):
    pass


@dataclass(frozen=True)
class SqlExample:
    id: str
    input: str
    gold_sql: str


@dataclass(frozen=True)
class DetectionExample:
    id: str
    instruction: str
    row: str
    gold: bool

    @property
    def input(self) -> str:
        return f"{self.instruction} {self.row}"


@dataclass(frozen=True)
class PredictionRecord:
    id: str
    payload: str


def build_sql_input(
    question: str,
    schema: LinearizedSchema,
    separator: str = DEFAULT_SEPARATOR,
) -> str:
    """Question plus the full linearized schema, e.g. ``Q | *, t, c, number``."""
    if not question or not question.strip():
        raise EmptyQuestion("question must be nonempty")
    return f"{question}{separator}{schema.joined(SCHEMA_TOKEN_JOINER)}"


def _detection_rows(columns: dict) -> list[str]:
    """``detection_row`` of each row of conn ``columns``, rendered a column
    at a time."""
    rendered = [_render_column(columns[spec.name], spec) for spec in DETECTION_FIELDS]
    return list(map(" ".join, zip(*rendered)))


def detection_row(record: ConnRecord) -> str:
    """Space-joined column values in connection-log order (ts/uid dropped)."""
    return _detection_rows(conn_columns([record]))[0]


def build_detection_input(record: ConnRecord, instruction: str = DEFAULT_INSTRUCTION) -> DetectionExample:
    return _detection_examples([record], instruction)[0]


def _detection_examples(records: Iterable[ConnRecord], instruction: str) -> list[DetectionExample]:
    """The examples of ``records``, built from their uid, row and label
    columns."""
    columns = conn_columns(records)
    return list(map(DetectionExample, columns["uid"], repeat(instruction),
                    _detection_rows(columns), map(attrgetter("is_malicious"), columns["label"])))


def bool_to_label(value: bool) -> str:
    return "Malicious" if value else "Benign"


def label_to_bool(payload: str) -> bool:
    """Case-insensitive label-string normalization (inverse of bool_to_label)."""
    folded = payload.strip().casefold()
    if folded == "malicious":
        return True
    if folded == "benign":
        return False
    raise ParseError(f"unknown detection label {payload!r}")


# ---------------------------------------------------------------------------
# example / prediction files (JSONL)


def write_sql_examples(pairs, schema: DatabaseSchema, path, separator: str = DEFAULT_SEPARATOR) -> list[SqlExample]:
    """Emit text-to-SQL model inputs; ids are zero-padded positions."""
    linearized = linearize_schema(schema)
    examples = [
        SqlExample(
            id=f"sql-{i:06d}",
            input=build_sql_input(pair.question, linearized, separator=separator),
            gold_sql=pair.sql,
        )
        for i, pair in enumerate(pairs)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(
                {"id": ex.id, "input": ex.input, "gold_sql": ex.gold_sql},
                ensure_ascii=False, sort_keys=True,
            ) + "\n")
    return examples


def write_detection_examples(records: Iterable[ConnRecord], path, instruction: str = DEFAULT_INSTRUCTION) -> list[DetectionExample]:
    examples = _detection_examples(records, instruction)
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            encode({"id": ex.id, "input": ex.input, "gold": bool_to_label(ex.gold)}) + "\n"
            for ex in examples
        )
    return examples


def read_sql_examples(path: str | os.PathLike) -> list[SqlExample]:
    out = []
    for line_no, obj in read_jsonl(path):
        try:
            instruction_free = obj["input"]
            out.append(SqlExample(id=obj["id"], input=instruction_free, gold_sql=obj["gold_sql"]))
        except KeyError as exc:
            raise ParseError(f"line {line_no}: missing key {exc}") from exc
    _check_unique_ids(ex.id for ex in out)
    return out


def read_detection_examples(path: str | os.PathLike) -> list[DetectionExample]:
    out = []
    for line_no, obj in read_jsonl(path):
        try:
            text = obj["input"]
            gold = label_to_bool(obj["gold"])
        except KeyError as exc:
            raise ParseError(f"line {line_no}: missing key {exc}") from exc
        instruction, _, row = text.partition("? ")
        if _:
            instruction = instruction + "?"
        out.append(DetectionExample(id=obj["id"], instruction=instruction, row=row, gold=gold))
    _check_unique_ids(ex.id for ex in out)
    return out


def read_predictions(path: str | os.PathLike, kind: str = "sql") -> list[PredictionRecord]:
    """Parse a prediction file; duplicate or missing ids are rejected.

    kind="detection" additionally validates that each payload normalizes
    to a label.
    """
    if kind not in ("sql", "detection"):
        raise ParseError(f"unknown prediction kind {kind!r}")
    out = []
    for line_no, obj in read_jsonl(path):
        if "id" not in obj:
            raise MissingId(f"line {line_no}: prediction record has no id")
        if "payload" not in obj:
            raise ParseError(f"line {line_no}: prediction record has no payload")
        payload = obj["payload"]
        if not isinstance(payload, str):
            raise ParseError(f"line {line_no}: payload must be a string")
        if kind == "detection":
            label_to_bool(payload)  # raises ParseError on junk
        out.append(PredictionRecord(id=str(obj["id"]), payload=payload))
    _check_unique_ids(rec.id for rec in out)
    return out


def read_jsonl(path: str | os.PathLike):
    """(line number, object) per record of the JSON-lines file at ``path``, a
    str or an os.PathLike, the toolkit's one JSON-lines reader. Lines are split
    by ``lines.split_lines``' rule, one at a time from the file's bytes
    (``lines.read_lines``), so that it costs its records plus one line. A line that
    is not a JSON object is a ParseError; one that is not UTF-8 is a
    ``lines.NotUtf8`` naming the file and line."""
    for line_no, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {line_no}: bad json ({exc})") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"line {line_no}: expected an object")
        yield line_no, obj


def _check_unique_ids(ids) -> None:
    seen = set()
    for item_id in ids:
        if item_id in seen:
            raise DuplicateId(f"duplicate id {item_id!r}")
        seen.add(item_id)


def echo_gold_sql(examples: list[SqlExample]) -> list[PredictionRecord]:
    """Round-trip helper: gold answers replayed as predictions."""
    return [PredictionRecord(id=ex.id, payload=ex.gold_sql) for ex in examples]


def echo_gold_detection(examples: list[DetectionExample]) -> list[PredictionRecord]:
    return [PredictionRecord(id=ex.id, payload=bool_to_label(ex.gold)) for ex in examples]
