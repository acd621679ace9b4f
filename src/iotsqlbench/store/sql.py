"""Tokenizer, AST, and recursive-descent parser for the store's SQL dialect.

Supported: SELECT [DISTINCT] over one table or one inner JOIN, WHERE with
=, !=, <, <=, >, >=, BETWEEN, AND/OR and parentheses, GROUP BY, HAVING,
ORDER BY, LIMIT, aggregates AVG/MIN/MAX/SUM/COUNT, and a single level of
subquery nesting in WHERE (scalar comparison or IN).  Identifiers are
case-insensitive and may contain dots (``conn.log``, ``id.orig_h``);
string literals are case-sensitive.

A query is walked in one way for every analysis of it: ``queries`` yields
the query and its subqueries, ``leaves`` the comparisons of a WHERE or
HAVING tree, and ``operands`` what one comparison reads from its own row.
The tables a query references (``referenced_tables``, ``canonical_tables``),
the engine's placement of join filters, and the corpus's construct and
temporal counts are all built on these.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Union

from .errors import ParseError
from .schema import DatabaseSchema

AGG_OPS = ("AVG", "MIN", "MAX", "SUM", "COUNT")

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having",
    "order", "limit", "join", "on", "and", "or", "between", "in",
    "asc", "desc", "true", "false",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),;*\-])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str
    text: str
    pos: int

    @property
    def lowered(self) -> str:
        return self.text.casefold()


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(sql):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r} at position {m.start()}")
        tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("end", "", len(sql)))
    return tokens


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Star:
    pass


@dataclass(frozen=True)
class ColumnRef:
    name: str


@dataclass(frozen=True)
class Literal:
    value: object


@dataclass(frozen=True)
class AggCall:
    op: str  # one of AGG_OPS
    arg: Union[ColumnRef, Star]


Operand = Union[ColumnRef, Literal, AggCall]


@dataclass(frozen=True)
class Comparison:
    lhs: Operand
    op: str  # = != < <= > >=
    rhs: Operand


@dataclass(frozen=True)
class Between:
    operand: Operand
    lo: Literal
    hi: Literal


@dataclass(frozen=True)
class InSubquery:
    operand: Operand
    query: "Query"


@dataclass(frozen=True)
class SubqueryCmp:
    lhs: Operand
    op: str
    query: "Query"


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


Condition = Union[Comparison, Between, InSubquery, SubqueryCmp, And, Or]


@dataclass(frozen=True)
class Join:
    table: str
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class OrderItem:
    expr: Union[ColumnRef, AggCall]
    desc: bool = False


@dataclass(frozen=True)
class Query:
    select: tuple
    table: str | None  # None for constant queries (no FROM)
    distinct: bool = False
    join: Join | None = None
    where: Condition | None = None
    group_by: tuple = field(default_factory=tuple)
    having: Condition | None = None
    order_by: tuple = field(default_factory=tuple)
    limit: int | None = None


class _Parser:
    def __init__(self, tokens: list[Token], allow_subquery: bool = True):
        self.tokens = tokens
        self.i = 0
        self.allow_subquery = allow_subquery

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        # next() stops at the end token, and only a token before it looks ahead
        return self.tokens[self.i + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.lowered == word

    def take_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.next()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        tok = self.next()
        if tok.kind != "ident" or tok.lowered != word:
            raise ParseError(f"expected {word.upper()} at position {tok.pos}, got {tok.text!r}")

    def expect_punct(self, ch: str) -> None:
        tok = self.next()
        if tok.kind != "punct" or tok.text != ch:
            raise ParseError(f"expected {ch!r} at position {tok.pos}, got {tok.text!r}")

    def expect_ident(self) -> str:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected identifier at position {tok.pos}, got {tok.text!r}")
        if tok.lowered in _KEYWORDS:
            raise ParseError(f"keyword {tok.text!r} cannot be used as identifier (position {tok.pos})")
        return tok.text

    # -- grammar

    def parse_query(self) -> Query:
        self.expect_keyword("select")
        distinct = self.take_keyword("distinct")
        select = self.parse_select_list()
        if not self.at_keyword("from"):
            # constant query (SELECT 1): literals only, no clauses
            for item in select:
                if not isinstance(item, Literal):
                    raise ParseError("a query without FROM may select only literals")
            return Query(select=tuple(select), table=None, distinct=distinct)
        self.next()
        table = self.expect_ident()

        join = None
        if self.take_keyword("join"):
            join_table = self.expect_ident()
            self.expect_keyword("on")
            left = ColumnRef(self.expect_ident())
            tok = self.next()
            if not (tok.kind == "op" and tok.text == "="):
                raise ParseError(f"JOIN condition must use '=' (position {tok.pos})")
            right = ColumnRef(self.expect_ident())
            join = Join(table=join_table, left=left, right=right)

        where = None
        if self.take_keyword("where"):
            where = self.parse_condition()

        group_by: list[ColumnRef] = []
        if self.at_keyword("group"):
            self.next()
            self.expect_keyword("by")
            group_by.append(ColumnRef(self.expect_ident()))
            while self.peek().text == ",":
                self.next()
                group_by.append(ColumnRef(self.expect_ident()))

        having = None
        if self.take_keyword("having"):
            having = self.parse_condition()

        order_by: list[OrderItem] = []
        if self.at_keyword("order"):
            self.next()
            self.expect_keyword("by")
            order_by.append(self.parse_order_item())
            while self.peek().text == ",":
                self.next()
                order_by.append(self.parse_order_item())

        limit = None
        if self.take_keyword("limit"):
            tok = self.next()
            if tok.kind != "number" or not tok.text.isdigit():
                raise ParseError(f"LIMIT expects a nonnegative integer (position {tok.pos})")
            limit = _number_value(tok.text)

        return Query(
            select=tuple(select),
            table=table,
            distinct=distinct,
            join=join,
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
        )

    def parse_select_list(self) -> list:
        if self.peek().text == "*":
            self.next()
            return [Star()]
        items = [self.parse_select_item()]
        while self.peek().text == ",":
            self.next()
            items.append(self.parse_select_item())
        return items

    def parse_select_item(self):
        return self.parse_operand(allow_agg=True)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_operand(allow_agg=True)
        if isinstance(expr, Literal):
            raise ParseError("ORDER BY expects a column or aggregate")
        desc = False
        if self.take_keyword("desc"):
            desc = True
        else:
            self.take_keyword("asc")
        return OrderItem(expr=expr, desc=desc)

    def parse_condition(self) -> Condition:
        items = [self.parse_and_condition()]
        while self.take_keyword("or"):
            items.append(self.parse_and_condition())
        return items[0] if len(items) == 1 else Or(items=tuple(items))

    def parse_and_condition(self) -> Condition:
        items = [self.parse_condition_term()]
        while self.take_keyword("and"):
            items.append(self.parse_condition_term())
        return items[0] if len(items) == 1 else And(items=tuple(items))

    def parse_condition_term(self) -> Condition:
        if self.peek().text == "(" and not self._paren_opens_subquery():
            self.next()
            cond = self.parse_condition()
            self.expect_punct(")")
            return cond
        return self.parse_predicate()

    def _paren_opens_subquery(self) -> bool:
        nxt = self.peek(1)
        return nxt.kind == "ident" and nxt.lowered == "select"

    def parse_predicate(self) -> Condition:
        lhs = self.parse_operand(allow_agg=True)
        if self.take_keyword("between"):
            lo = self.parse_literal()
            self.expect_keyword("and")
            hi = self.parse_literal()
            return Between(operand=lhs, lo=lo, hi=hi)
        if self.take_keyword("in"):
            self.expect_punct("(")
            query = self.parse_subquery()
            self.expect_punct(")")
            return InSubquery(operand=lhs, query=query)
        tok = self.next()
        if tok.kind != "op":
            raise ParseError(f"expected comparison operator at position {tok.pos}, got {tok.text!r}")
        op = "!=" if tok.text == "<>" else tok.text
        if self.peek().text == "(" and self._paren_opens_subquery():
            self.next()
            query = self.parse_subquery()
            self.expect_punct(")")
            return SubqueryCmp(lhs=lhs, op=op, query=query)
        rhs = self.parse_operand(allow_agg=True)
        return Comparison(lhs=lhs, op=op, rhs=rhs)

    def parse_subquery(self) -> Query:
        if not self.allow_subquery:
            raise ParseError("subqueries may not be nested further")
        sub = _Parser(self.tokens, allow_subquery=False)
        sub.i = self.i
        query = sub.parse_query()
        self.i = sub.i
        return query

    def parse_operand(self, allow_agg: bool) -> Operand:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return Literal(_number_value(tok.text))
        if tok.kind == "string":
            self.next()
            return Literal(tok.text[1:-1])
        if tok.kind == "punct" and tok.text == "-":
            self.next()
            num = self.next()
            if num.kind != "number":
                raise ParseError(f"expected number after '-' at position {num.pos}")
            return Literal(-_number_value(num.text))
        if tok.kind == "ident":
            lowered = tok.lowered
            if lowered in ("true", "false"):
                self.next()
                return Literal(lowered == "true")
            if allow_agg and lowered.upper() in AGG_OPS and self.peek(1).text == "(":
                self.next()
                self.next()  # '('
                if self.peek().text == "*":
                    if lowered != "count":
                        raise ParseError("only COUNT may take '*'")
                    self.next()
                    arg: Union[ColumnRef, Star] = Star()
                else:
                    arg = ColumnRef(self.expect_ident())
                self.expect_punct(")")
                return AggCall(op=lowered.upper(), arg=arg)
            return ColumnRef(self.expect_ident())
        raise ParseError(f"unexpected token {tok.text!r} at position {tok.pos}")

    def parse_literal(self) -> Literal:
        operand = self.parse_operand(allow_agg=False)
        if not isinstance(operand, Literal):
            raise ParseError("expected a literal value")
        return operand


def _number_value(text: str) -> int | float:
    """A number literal's value; one beyond float range is refused, as the
    store holds only finite numbers."""
    try:
        value = int(text) if text.isdigit() else float(text)
        if math.isfinite(value):  # an int beyond float range raises here
            return value
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"integer literal of {len(text)} digits is too long") from None
    except OverflowError:
        pass
    shown = text if len(text) <= 24 else text[:21] + "..."
    raise ParseError(f"number literal {shown} is beyond float range")


def parse(sql: str) -> Query:
    """Parse one SELECT statement (optional trailing semicolon).

    Nothing is cached: each call parses its text.  A run parses once, in
    ``Database.execute``, which returns the ``Query`` with its result.
    """
    tokens = tokenize(sql)
    parser = _Parser(tokens)
    try:
        query = parser.parse_query()
    except RecursionError:
        raise ParseError("query is nested too deeply") from None
    if parser.peek().text == ";":
        parser.next()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input at position {tail.pos}: {tail.text!r}")
    return query


# ---------------------------------------------------------------------------
# Query walk


def leaves(cond: Condition | None) -> Iterator[Condition]:
    """The comparisons of an AND/OR tree, left to right; none for None."""
    if isinstance(cond, (And, Or)):
        for item in cond.items:
            yield from leaves(item)
    elif cond is not None:
        yield cond


def operands(leaf: Condition) -> tuple:
    """What a comparison reads from its own row: its columns, literals and
    aggregates.  A subquery's body reads its own table and is not included."""
    if isinstance(leaf, Comparison):
        return (leaf.lhs, leaf.rhs)
    if isinstance(leaf, Between):
        return (leaf.operand, leaf.lo, leaf.hi)
    if isinstance(leaf, SubqueryCmp):
        return (leaf.lhs,)
    return (leaf.operand,)  # InSubquery


def queries(query: Query) -> Iterator[Query]:
    """The query, then the subqueries of its WHERE and HAVING, depth first."""
    yield query
    for cond in (query.where, query.having):
        for leaf in leaves(cond):
            if isinstance(leaf, (InSubquery, SubqueryCmp)):
                yield from queries(leaf.query)


def referenced_tables(query: Query) -> set[str]:
    """Raw table names mentioned by a parsed query, including join and
    subquery tables."""
    names = set()
    for q in queries(query):
        if q.table is not None:
            names.add(q.table)
        if q.join is not None:
            names.add(q.join.table)
    return names


def canonical_tables(query: Query, schema: DatabaseSchema) -> frozenset:
    """The tables a query references, by their names in ``schema``; a name
    the schema lacks is kept as written."""
    names = set()
    for raw in referenced_tables(query):
        t = schema.table(raw)
        names.add(t.name if t is not None else raw)
    return frozenset(names)
