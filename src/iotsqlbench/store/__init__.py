"""Embedded relational store: schema model, SQL dialect, query evaluation."""

from .engine import Database, ResultTable, Scope
from .errors import (
    ArityMismatch,
    ParseError,
    QueryTimeout,
    StoreError,
    TypeMismatch,
    UnknownIdentifier,
    UnknownTable,
)
from .schema import (
    ATTRIBUTES,
    ColumnDef,
    DatabaseSchema,
    DuplicateColumn,
    DuplicateTable,
    EmptySchema,
    SchemaError,
    TableSchema,
    define_schema,
    dump_schema_text,
    linearize_schema,
    norm_ident,
)
from .sql import canonical_tables, parse, referenced_tables

__all__ = [
    "ATTRIBUTES",
    "ArityMismatch",
    "ColumnDef",
    "Database",
    "DatabaseSchema",
    "DuplicateColumn",
    "DuplicateTable",
    "EmptySchema",
    "ParseError",
    "QueryTimeout",
    "ResultTable",
    "SchemaError",
    "Scope",
    "StoreError",
    "TableSchema",
    "TypeMismatch",
    "UnknownIdentifier",
    "UnknownTable",
    "canonical_tables",
    "define_schema",
    "dump_schema_text",
    "linearize_schema",
    "norm_ident",
    "parse",
    "referenced_tables",
]
