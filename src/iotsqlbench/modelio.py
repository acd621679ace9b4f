"""Model input serialization and prediction file exchange.

Text-to-SQL inputs are the question, a separator, then the linearized
schema tokens.  Detection inputs are a fixed instruction followed by the
space-joined connection-log row (identifier columns ts and uid excluded,
matching the 19-feature row; unset values render as ``-``).  The rows are
rendered a column at a time, from a ``ConnTable``'s columns, by
``zeek._render_column``, the renderer the TSV writer uses, so
rendering has one semantics.  A detection example holds its input as it is
written; a text-to-SQL example holds its id and gold SQL alone, since scoring
reads no model input.  Examples and predictions travel as UTF-8 JSON lines
keyed by id, one per ``"\n"``-ended line, and a file of them is read one line
at a time; an example's id, input and gold (or gold_sql) must be strings, as
must a prediction's id and payload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from operator import attrgetter

from .ingest.records import CONN_FIELDS, ConnTable
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
    """A text-to-SQL example as scoring reads it.  Its file also holds the
    model input (the question and the linearized schema, about 3 KB), which
    the reader checks to be a string and then drops."""
    id: str
    gold_sql: str


@dataclass(frozen=True)
class DetectionExample:
    id: str
    input: str
    gold: bool


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


def _detection_examples(records: ConnTable, instruction: str) -> list[DetectionExample]:
    """The examples of ``records``, built from their uid, row and label
    columns.  An input is the instruction, a space and the row: its values
    in connection-log order (ts/uid dropped), rendered a column at a time
    and space-joined."""
    columns = records.columns
    rendered = [_render_column(columns[spec.name], spec) for spec in DETECTION_FIELDS]
    inputs = map(f"{instruction} ".__add__, map(" ".join, zip(*rendered)))
    return list(map(DetectionExample, columns["uid"], inputs,
                    map(attrgetter("is_malicious"), columns["label"])))


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
    """Emit text-to-SQL model inputs; ids are zero-padded positions.  Returns
    the examples as ``read_sql_examples`` reads them back."""
    linearized = linearize_schema(schema)
    examples = [SqlExample(id=f"sql-{i:06d}", gold_sql=pair.sql) for i, pair in enumerate(pairs)]
    lines = [json.dumps({"id": ex.id, "input": build_sql_input(pair.question, linearized, separator=separator),
                         "gold_sql": ex.gold_sql}, ensure_ascii=False, sort_keys=True) + "\n"
             for ex, pair in zip(examples, pairs)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return examples


def write_detection_examples(records: ConnTable, path, instruction: str = DEFAULT_INSTRUCTION) -> list[DetectionExample]:
    examples = _detection_examples(records, instruction)
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            encode({"id": ex.id, "input": ex.input, "gold": bool_to_label(ex.gold)}) + "\n"
            for ex in examples
        )
    return examples


def read_sql_examples(path: str | os.PathLike) -> list[SqlExample]:
    """Each line's id and gold SQL; its input is checked, then dropped."""
    out = []
    for line_no, obj in read_jsonl(path):
        item_id, _, gold_sql = _strings(obj, line_no, ("id", "input", "gold_sql"))
        out.append(SqlExample(id=item_id, gold_sql=gold_sql))
    _check_unique_ids(ex.id for ex in out)
    return out


def read_detection_examples(path: str | os.PathLike) -> list[DetectionExample]:
    out = []
    for line_no, obj in read_jsonl(path):
        item_id, text, gold = _strings(obj, line_no, ("id", "input", "gold"))
        out.append(DetectionExample(id=item_id, input=text, gold=_label_on_line(gold, line_no)))
    _check_unique_ids(ex.id for ex in out)
    return out


def _strings(obj: dict, line_no: int, names: tuple[str, ...]) -> list[str]:
    """The values of ``names`` in the record of line ``line_no``; a missing
    key, or a value that is not a string, is a ParseError naming the line."""
    for name in names:
        if name not in obj:
            raise ParseError(f"line {line_no}: missing key {name!r}")
        if not isinstance(obj[name], str):
            raise ParseError(f"line {line_no}: {name} must be a string")
    return [obj[name] for name in names]


def _label_on_line(payload: str, line_no: int) -> bool:
    """``label_to_bool`` of the label on line ``line_no``, whose ParseError
    names that line."""
    try:
        return label_to_bool(payload)
    except ParseError as exc:
        raise ParseError(f"line {line_no}: {exc}") from None


def read_predictions(path: str | os.PathLike, kind: str = "sql") -> list[PredictionRecord]:
    """Parse a prediction file; duplicate or missing ids, and an id or
    payload that is not a string, are rejected.

    kind="detection" additionally validates that each payload normalizes
    to a label.
    """
    if kind not in ("sql", "detection"):
        raise ParseError(f"unknown prediction kind {kind!r}")
    out = []
    for line_no, obj in read_jsonl(path):
        if "id" not in obj:
            raise MissingId(f"line {line_no}: prediction record has no id")
        item_id, payload = _strings(obj, line_no, ("id", "payload"))
        if kind == "detection":
            _label_on_line(payload, line_no)  # raises ParseError on junk
        out.append(PredictionRecord(id=item_id, payload=payload))
    _check_unique_ids(rec.id for rec in out)
    return out


def read_jsonl(path: str | os.PathLike):
    """(line number, object) per record of the JSON-lines file at ``path``, a
    str or an os.PathLike, the toolkit's one JSON-lines reader. Lines are split
    by ``lines.split_lines``' rule, one at a time from the file's bytes
    (``lines.read_lines``), so that it costs its records plus one line. A line that
    is not a JSON object, or holds an integer of more digits than ``int``
    reads from text, is a ParseError; one that is not UTF-8 is a
    ``lines.NotUtf8`` naming the file and line."""
    for line_no, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
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
