"""Schema model for the embedded store plus its flat token serialization.

A database schema is an ordered list of tables; each table an ordered list
of columns; each column carries one of four datatype attributes.  The
linearized form is the token sequence prepended to model inputs:
``[*, table1, col1, attr1, col2, attr2, table2, ...]``.

Names are looked up here and nowhere else: ``norm_ident`` folds an
identifier (case-insensitive, '.' and '_' alike), and each table and
schema folds its names once, when it is built, into the map that
``column_index`` and ``table`` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

ATTRIBUTES = ("text", "number", "time", "boolean")


class SchemaError(ValueError):
    """Base for schema construction and schema-file problems."""


class EmptySchema(SchemaError):
    pass


class DuplicateTable(SchemaError):
    pass


class DuplicateColumn(SchemaError):
    pass


def norm_ident(name: str) -> str:
    """Fold an identifier for lookup: case-insensitive, '.' and '_' equivalent."""
    return name.casefold().replace(".", "_")


@dataclass(frozen=True)
class ColumnDef:
    name: str
    attribute: str

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be nonempty")
        if self.attribute not in ATTRIBUTES:
            raise SchemaError(
                f"column {self.name!r}: attribute must be one of {ATTRIBUTES}, got {self.attribute!r}"
            )


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[ColumnDef, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be nonempty")
        cols = tuple(self.columns)
        object.__setattr__(self, "columns", cols)
        if not cols:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        index: dict[str, int] = {}
        for i, col in enumerate(cols):
            key = norm_ident(col.name)
            if key in index:
                raise DuplicateColumn(f"table {self.name!r}: duplicate column {col.name!r}")
            index[key] = i
        object.__setattr__(self, "_index", index)

    def column_index(self, name: str) -> int | None:
        return self._index.get(norm_ident(name))

    def column(self, name: str) -> ColumnDef | None:
        idx = self.column_index(name)
        return None if idx is None else self.columns[idx]


@dataclass(frozen=True)
class DatabaseSchema:
    tables: tuple[TableSchema, ...]
    _index: dict[str, TableSchema] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tables = tuple(self.tables)
        object.__setattr__(self, "tables", tables)
        # of two tables whose names fold alike, the first is found
        object.__setattr__(self, "_index", {norm_ident(t.name): t for t in reversed(tables)})

    def table(self, name: str) -> TableSchema | None:
        return self._index.get(norm_ident(name))


@dataclass(frozen=True)
class LinearizedSchema:
    tokens: tuple[str, ...]

    def joined(self, sep: str = ", ") -> str:
        return sep.join(self.tokens)


def define_schema(tables: Iterable[TableSchema]) -> DatabaseSchema:
    """Validate and assemble a database schema from table definitions."""
    tables = tuple(tables)
    if not tables:
        raise EmptySchema("schema must contain at least one table")
    seen: set[str] = set()
    for t in tables:
        key = norm_ident(t.name)
        if key in seen:
            raise DuplicateTable(f"duplicate table {t.name!r}")
        seen.add(key)
    return DatabaseSchema(tables=tables)


def linearize_schema(schema: DatabaseSchema) -> LinearizedSchema:
    """Flatten a schema to its model-input token sequence.

    Token layout: a leading ``*``, then per table the table name followed by
    (column name, attribute) for every column in declared order.  Token count
    is 1, plus 1 per table, plus 2 per column.
    """
    tokens: list[str] = ["*"]
    for table in schema.tables:
        tokens.append(table.name)
        for col in table.columns:
            tokens.append(col.name)
            tokens.append(col.attribute)
    return LinearizedSchema(tokens=tuple(tokens))


def dump_schema_text(schema: DatabaseSchema) -> str:
    """A database directory's ``schema.txt``: ``table <name>`` lines, each
    followed by indented ``column <name> <attribute>`` lines."""
    lines: list[str] = []
    for table in schema.tables:
        lines.append(f"table {table.name}")
        for col in table.columns:
            lines.append(f"    column {col.name} {col.attribute}")
    return "\n".join(lines) + "\n"
