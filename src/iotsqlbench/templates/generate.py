"""Template instantiation and corpus generation.

Binding draws tables and columns that satisfy each slot's attribute
constraints and samples condition values from cells actually present in
the database, so every emitted query executes on the database it came
from.  Each template's slot rules are worked out once (``_SlotRules``), so
a bind only draws.  Corpus generation derives one RNG per candidate index from the
seed, de-duplicates on (question, sql), and keeps a floor of pairs with
datetime predicates when the database has populated time columns.

Each pair is classified once, as it is generated, from the one ``Query``
that ``Database.execute`` parses to run it, through the store's query walk
(``store.sql.queries``/``leaves``/``operands``): the tables it names
(``canonical_tables``, shared with scoring), whether it is temporal
(``has_datetime_predicate``, columns resolved by the engine's ``Scope``)
and the constructs it uses (``query_constructs``).  The pair keeps these
values, so the corpus counts (``construct_coverage``, the temporal floor,
``stats.json``) never parse its SQL again.  These functions take the
parsed ``Query`` or the classified pair, never SQL text.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field
from datetime import datetime
from operator import itemgetter

from ..modelio import read_jsonl
from ..store import Database, Scope, StoreError, canonical_tables
from ..store import sql as _sql
from ..store.schema import ATTRIBUTES, ColumnDef, DatabaseSchema, TableSchema
from ..workers import NOT_COMPUTED, Pool
from .bank import (
    PLACEHOLDER_RE,
    QueryTemplate,
    SlotKind,
    SlotSpec,
    TemplateError,
    UnboundPlaceholder,
    UnsatisfiableSlot,
    default_bank,
)


class ExhaustedResampling(TemplateError):
    pass


@dataclass(frozen=True)
class TextSqlPair:
    question: str
    sql: str
    template_id: str | None = None  # None: the corpus line held null, or no such key
    tables_referenced: frozenset = frozenset()
    category: str | None = None
    # classification made once from the parsed SQL when the pair is made
    # (None: not classified); derived, so never serialized or compared
    temporal: bool | None = field(default=None, compare=False)
    constructs: frozenset | None = field(default=None, compare=False)


_OP_WORDS = {
    "=": "equal to",
    "!=": "not equal to",
    "<": "less than",
    "<=": "at most",
    ">": "greater than",
    ">=": "at least",
}

_AGG_WORDS = {"AVG": "average", "SUM": "total", "MIN": "minimum", "MAX": "maximum", "COUNT": "count"}

_DEFAULT_AGG_OPS = ("AVG", "MIN", "MAX", "SUM")
_ALL_COND_OPS = ("=", "!=", "<", "<=", ">", ">=")

_OP_ATTRS = {
    "AVG": ("number",),
    "SUM": ("number",),
    "MIN": ("number", "time"),
    "MAX": ("number", "time"),
    "COUNT": ("text", "number", "time", "boolean"),
}


def _ops_for_attr(attr: str) -> tuple[str, ...]:
    if attr in ("text", "boolean"):
        return ("=", "!=")
    return _ALL_COND_OPS


def sql_table_name(name: str) -> str:
    """SQL-facing table identifier: dots folded to underscores, upper-case."""
    return name.replace(".", "_").upper()


def _pretty_table(name: str) -> str:
    return name.replace(".", " ").upper()


def _short_table(name: str) -> str:
    return name.split(".")[0].upper()


def render_sql_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime):
        return f'"{value.isoformat()}"'
    if isinstance(value, str):
        if '"' not in value:
            return f'"{value}"'
        return f"'{value}'"
    return repr(value)


def render_nl_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime):
        return value.isoformat(sep=" ")
    return str(value)


@dataclass(frozen=True)
class Bound:
    """One bound slot: the raw value plus its SQL and NL renderings."""

    kind: SlotKind
    value: object

    def sql_text(self) -> str:
        if self.kind in (SlotKind.TABLE, SlotKind.JOIN_TABLE):
            return sql_table_name(self.value.name)
        if self.kind in (SlotKind.AGG_COLUMN, SlotKind.COND_COLUMN, SlotKind.ORDER_COLUMN):
            return self.value.name
        if self.kind is SlotKind.JOIN_KEY:
            return self.value
        if self.kind in (SlotKind.AGG_OP, SlotKind.COND_OP):
            return self.value
        if self.kind is SlotKind.LIMIT_N:
            return str(self.value)
        return render_sql_value(self.value)

    def nl_text(self, mode: str | None) -> str:
        if self.kind in (SlotKind.TABLE, SlotKind.JOIN_TABLE):
            if mode == "pretty":
                return _pretty_table(self.value.name)
            if mode == "short":
                return _short_table(self.value.name)
            return self.value.name
        if self.kind is SlotKind.AGG_OP:
            return _AGG_WORDS[self.value] if mode == "words" else self.value
        if self.kind is SlotKind.COND_OP:
            return _OP_WORDS[self.value] if mode == "words" else self.value
        if self.kind in (SlotKind.AGG_COLUMN, SlotKind.COND_COLUMN, SlotKind.ORDER_COLUMN):
            return self.value.name
        if self.kind is SlotKind.JOIN_KEY:
            return self.value
        if self.kind is SlotKind.LIMIT_N:
            return str(self.value)
        return render_nl_value(self.value)


def substitute(pattern: str, bindings: dict, for_sql: bool) -> str:
    def repl(match: re.Match) -> str:
        name = match.group("braced") or match.group("bare")
        mode = match.group("mode")
        if name not in bindings:
            raise UnboundPlaceholder(f"no binding for placeholder {name}")
        bound = bindings[name]
        return bound.sql_text() if for_sql else bound.nl_text(mode)

    return PLACEHOLDER_RE.sub(repl, pattern)


def realize_question(template: QueryTemplate, bindings: dict, variant_index: int) -> str:
    if not 0 <= variant_index < len(template.nl_patterns):
        raise TemplateError(
            f"template {template.id}: variant {variant_index} out of range"
        )
    return substitute(template.nl_patterns[variant_index], bindings, for_sql=False)


def render_sql(template: QueryTemplate, bindings: dict) -> str:
    return substitute(template.sql_pattern, bindings, for_sql=True)


class _RetryBind(Exception):
    """Internal: this table assignment cannot satisfy the slots; try another."""


class ValueIndex:
    """Distinct non-null cell values per (table, column), sorted for determinism."""

    def __init__(self, db: Database):
        self._db = db
        self._snap = db.snapshot()
        self._cache: dict[tuple[str, str], list] = {}

    def distinct(self, table: TableSchema, column: ColumnDef) -> list:
        key = (table.name, column.name)
        if key not in self._cache:
            seen = set(map(itemgetter(table.column_index(column.name)), self._snap[table.name]))
            seen.discard(None)
            usable = [v for v in seen if not (isinstance(v, str) and '"' in v and "'" in v)]
            if len(set(map(type, usable))) <= 1:
                # one type: the same order as the mixed-type key below
                self._cache[key] = sorted(usable)
            else:
                self._cache[key] = sorted(usable, key=lambda v: (str(type(v)), v))
        return self._cache[key]


_COLUMN_KINDS = (SlotKind.AGG_COLUMN, SlotKind.COND_COLUMN, SlotKind.ORDER_COLUMN)


@dataclass(frozen=True)
class _SlotRules:
    """What each slot of one template allows, worked out once from its slots
    and SQL pattern.  A bind draws against the fields in this order."""

    join_keys: tuple  # JOIN_KEY slot names
    # (AGG_OP spec, its AGG_COLUMN spec or None, its ops; with a column,
    # {op: the attributes the column may have with that op})
    aggs: tuple
    columns: tuple   # (other column slot, its attributes, whether a value slot samples it)
    cond_ops: tuple  # (COND_OP spec, the column slot it compares or None: a number, {attribute: ops})
    values: tuple    # (COND_VALUE spec, the column slot it samples)
    windows: tuple   # (column slot sampled, its TIME_LO specs then its TIME_HI specs)
    limits: tuple    # LIMIT_N specs
    needs: tuple     # (table slot, attributes one of its columns must have), one per column slot

    @classmethod
    def of(cls, template: QueryTemplate) -> _SlotRules:
        slots = list(template.slots.values())

        def attrs(spec: SlotSpec, default=ATTRIBUTES) -> set:
            return set(default if spec.attrs is None else spec.attrs)

        aggs, paired = [], {}
        for spec in slots:
            if spec.kind is SlotKind.AGG_OP:
                ops = spec.ops or _DEFAULT_AGG_OPS
                col = template.slots.get(f"AGG_COLUMN{spec.suffix}")
                if col is not None:  # each op restricts its column's attributes
                    ops = {op: attrs(col) & set(_OP_ATTRS[op]) for op in ops}
                    paired[col.name] = (col.table_slot, set().union(*ops.values()))
                aggs.append((spec, col, ops))
        values = [(s, s.source or f"COND_COLUMN{s.suffix}") for s in slots if s.kind is SlotKind.COND_VALUE]
        windows: dict[str, list[SlotSpec]] = {}
        for spec in slots:
            if spec.kind in (SlotKind.TIME_LO, SlotKind.TIME_HI):
                windows.setdefault(spec.source or "", []).append(spec)
        sampled = {*(source for _, source in values), *windows}
        # an unpaired AGG_COLUMN with no attrs takes a number or time column
        columns = [
            (s, attrs(s, ("number", "time") if s.kind is SlotKind.AGG_COLUMN else ATTRIBUTES),
             s.name in sampled)
            for s in slots if s.kind in _COLUMN_KINDS and s.name not in paired
        ]
        column_names = {*paired, *(s.name for s, _, _ in columns)}
        # a COND_OP compares the column slot nearest on its left in the
        # pattern; a number after COUNT(*) or when there is none
        cond_ops = {s.name: s for s in slots if s.kind is SlotKind.COND_OP}
        compared, last = {}, None
        for match in PLACEHOLDER_RE.finditer(template.sql_pattern):
            name = match.group("braced") or match.group("bare")
            if name in column_names:
                last = name
            elif name in cond_ops and name not in compared:
                counted = template.sql_pattern[: match.start()].rstrip().endswith("COUNT(*)")
                compared[name] = None if counted else last
        return cls(
            join_keys=tuple(s.name for s in slots if s.kind is SlotKind.JOIN_KEY),
            aggs=tuple(aggs),
            columns=tuple(columns),
            cond_ops=tuple(
                (s, compared.get(s.name),
                 {a: [op for op in s.ops or _ALL_COND_OPS if op in _ops_for_attr(a)] for a in ATTRIBUTES})
                for s in cond_ops.values()
            ),
            values=tuple(values),
            windows=tuple((source, sorted(specs, key=lambda s: s.kind is SlotKind.TIME_HI))
                          for source, specs in windows.items()),
            limits=tuple(s for s in slots if s.kind is SlotKind.LIMIT_N),
            needs=(*paired.values(), *((s.table_slot, a) for s, a, _ in columns)),
        )


class TemplateBinder:
    """Binds template slots against one database snapshot."""

    def __init__(self, db: Database):
        self.db = db
        self.schema: DatabaseSchema = db.schema
        self.values = ValueIndex(db)
        self._join_options = self._enumerate_join_options()
        self._options: dict[str, tuple[QueryTemplate, list, bool, _SlotRules]] = {}

    def _enumerate_join_options(self) -> list[tuple[TableSchema, TableSchema, str]]:
        options = []
        for t1 in self.schema.tables:
            for t2 in self.schema.tables:
                if t1 is t2:
                    continue
                for c2 in t2.columns:
                    c1 = t1.column(c2.name)
                    if c1 is not None and c1.attribute == c2.attribute == "text":
                        options.append((t1, t2, c1.name))
        return options

    def _bind_options(self, template: QueryTemplate) -> tuple[list, bool, _SlotRules]:
        """(table, join table, join key) for each choice the slots allow (a
        table has a column of the attributes each of its column slots needs;
        value existence is retried), whether the template joins, and its slot
        rules: a pure function of the schema and the template, built on its
        first bind."""
        hit = self._options.get(template.id)
        if hit is None or hit[0] is not template:  # ids repeat across banks
            rules = _SlotRules.of(template)
            viable = {
                slot: {t.name for t in self.schema.tables
                       if all(any(c.attribute in attrs for c in t.columns)
                              for owner, attrs in rules.needs if owner == slot)}
                for slot in ("TABLE", "JOIN_TABLE")
            }
            has_join = any(s.kind is SlotKind.JOIN_TABLE for s in template.slots.values())
            if has_join:
                options = [(t1, t2, key) for t1, t2, key in self._join_options
                           if t1.name in viable["TABLE"] and t2.name in viable["JOIN_TABLE"]]
            else:
                options = [(t, None, None) for t in self.schema.tables if t.name in viable["TABLE"]]
            hit = self._options[template.id] = (template, options, has_join, rules)
        return hit[1:]

    def bind(self, template: QueryTemplate, rng: random.Random) -> dict:
        # tried in a random order until one option has sampleable values
        options, has_join, rules = self._bind_options(template)
        if has_join:
            no_options = "no joinable table pair satisfies the slots"
            no_values = "no join option has sampleable values"
        else:
            no_options = "no table satisfies the column constraints"
            no_values = "no table has sampleable values for the slots"
        if not options:
            raise UnsatisfiableSlot(f"template {template.id}: {no_options}")
        for t1, t2, key in rng.sample(options, len(options)):
            table_map = {"TABLE": t1} if t2 is None else {"TABLE": t1, "JOIN_TABLE": t2}
            try:
                return self._bind_with_tables(rules, rng, table_map, key)
            except _RetryBind:
                continue
        raise UnsatisfiableSlot(f"template {template.id}: {no_values}")

    def _bind_with_tables(
        self, rules: _SlotRules, rng: random.Random, table_map: dict[str, TableSchema], join_key: str | None
    ) -> dict:
        bindings = {name: Bound(kind=SlotKind(name), value=table) for name, table in table_map.items()}
        bindings.update((name, Bound(kind=SlotKind.JOIN_KEY, value=join_key)) for name in rules.join_keys)
        tables: dict[str, TableSchema] = {}  # each column slot's table
        for spec, col_spec, ops in rules.aggs:
            if col_spec is None:
                bindings[spec.name] = Bound(kind=SlotKind.AGG_OP, value=rng.choice(ops))
                continue
            table = tables[col_spec.name] = table_map[col_spec.table_slot]
            viable = {op: cols for op, attrs in ops.items()
                      if (cols := [c for c in table.columns if c.attribute in attrs])}
            if not viable:
                raise _RetryBind
            op = rng.choice(sorted(viable))
            bindings[spec.name] = Bound(kind=SlotKind.AGG_OP, value=op)
            bindings[col_spec.name] = Bound(kind=SlotKind.AGG_COLUMN, value=rng.choice(viable[op]))

        for spec, attrs, sampled in rules.columns:
            table = tables[spec.name] = table_map[spec.table_slot]
            cols = [c for c in table.columns
                    if c.attribute in attrs and (not sampled or self.values.distinct(table, c))]
            if not cols:
                raise _RetryBind
            bindings[spec.name] = Bound(kind=spec.kind, value=rng.choice(cols))

        for spec, compared, allowed in rules.cond_ops:
            ops = allowed[bindings[compared].value.attribute if compared else "number"]
            if not ops:
                raise _RetryBind
            bindings[spec.name] = Bound(kind=SlotKind.COND_OP, value=rng.choice(ops))

        def pool(source: str) -> list:
            """The values in the column bound to column slot ``source``."""
            found = self.values.distinct(tables[source], bindings[source].value) if source in tables else []
            if not found:
                raise _RetryBind
            return found

        for spec, source in rules.values:
            bindings[spec.name] = Bound(kind=SlotKind.COND_VALUE, value=rng.choice(pool(source)))
        for source, specs in rules.windows:
            values = pool(source)
            # the low value to TIME_LO, the high one to TIME_HI
            for spec, value in zip(specs, sorted(rng.choice(values) for _ in specs)):
                bindings[spec.name] = Bound(kind=spec.kind, value=value)
        for spec in rules.limits:
            bindings[spec.name] = Bound(kind=SlotKind.LIMIT_N, value=rng.randint(spec.lo, spec.hi))
        return bindings


def instantiate(
    template: QueryTemplate,
    db: Database,
    rng: random.Random,
    binder: TemplateBinder | None = None,
) -> TextSqlPair:
    """Bind all slots and emit one text-SQL pair; the SQL is run against the
    database to uphold the executability guarantee."""
    binder = binder or TemplateBinder(db)
    bindings = binder.bind(template, rng)
    sql_text = render_sql(template, bindings)
    query = db.execute(sql_text).query
    variant = rng.randrange(len(template.nl_patterns))
    question = realize_question(template, bindings, variant)
    return TextSqlPair(
        question=question,
        sql=sql_text,
        template_id=template.id,
        tables_referenced=canonical_tables(query, db.schema),
        category=template.category,
        temporal=has_datetime_predicate(query, db.schema),
        constructs=query_constructs(query),
    )


def has_datetime_predicate(query: _sql.Query, schema: DatabaseSchema) -> bool:
    """True when a WHERE/HAVING comparison of the parsed query or of a
    subquery reads a time-attribute column (a temporal pair).  Columns
    resolve as the engine resolves them, in the scope of their own query:
    one it cannot resolve (ambiguous, or from a table outside FROM) is no
    time column."""
    for q in _sql.queries(query):
        try:
            scope = Scope.of(q, schema)
        except StoreError:  # no FROM, an unknown table, a self-join
            continue
        for cond in (q.where, q.having):
            for leaf in _sql.leaves(cond):
                for node in _sql.operands(leaf):
                    if isinstance(node, _sql.ColumnRef) and _is_time_column(scope, node.name):
                        return True
    return False


def _is_time_column(scope: Scope, raw: str) -> bool:
    try:
        return scope.resolve(raw)[1].attribute == "time"
    except StoreError:
        return False


@dataclass
class CorpusConfig:
    n_pairs: int
    seed: int = 0
    temporal_floor: float = 0.10
    max_attempt_factor: int = 60


_TEMPORAL_STRIDE = 5  # every k-th candidate draws from temporal templates


def _candidate_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def generate_corpus(db: Database, config: CorpusConfig) -> list[TextSqlPair]:
    """Generate exactly n distinct pairs, deterministic in the seed.

    Candidates are computed a batch at a time, round robin over this process
    and one forked worker per further CPU it may run on (``workers.Pool``,
    no more processes than the first batch has candidates), then taken in
    index order as one process would take them.  Candidate k
    is a function of the seed, k and its template pool alone, so the pairs
    never depend on the number of processes: a candidate is computed again
    here when its pool was forced to the temporal templates after the batch
    was sent, or when computing it raised, which it then raises here, at
    the index where one process would have raised it.
    """
    if config.n_pairs == 0:
        return []
    bank = default_bank()
    binder = TemplateBinder(db)
    temporal = [t for t in bank if t.is_temporal and _temporal_possible(binder, t)]

    def candidate(k: int, force_temporal: bool = False) -> TextSqlPair | None:
        """Candidate k, or None when its template cannot be bound."""
        rng = _candidate_rng(config.seed, k)
        reserve_temporal = bool(temporal) and (k % _TEMPORAL_STRIDE == 0)
        pool = temporal if (force_temporal or reserve_temporal) else bank
        # choices draws floor(random() * len(pool)); choice would draw
        # through _randbelow and move every corpus
        template = rng.choices(pool)[0]
        try:
            return instantiate(template, db, rng, binder=binder)
        except UnsatisfiableSlot:
            return None

    pairs: list[TextSqlPair] = []
    seen: set[tuple[str, str]] = set()
    temporal_count = 0
    need_temporal = int(config.temporal_floor * config.n_pairs + 0.999999) if temporal else 0
    max_attempts = max(1000, config.max_attempt_factor * config.n_pairs)

    with Pool(candidate, min(config.n_pairs, max_attempts)) as candidates:
        start = 0
        while len(pairs) < config.n_pairs and start < max_attempts:
            # no more candidates than pairs still wanted, so none is wasted
            batch = range(start, min(start + config.n_pairs - len(pairs), max_attempts))
            start = batch.stop
            for k, pair in zip(batch, candidates.compute(batch)):
                remaining = config.n_pairs - len(pairs)
                force_temporal = bool(temporal) and (need_temporal - temporal_count) >= remaining
                if pair == NOT_COMPUTED or (force_temporal and k % _TEMPORAL_STRIDE):
                    pair = candidate(k, force_temporal)
                if pair is None:
                    continue
                key = (pair.question, pair.sql)
                if key in seen:
                    continue
                seen.add(key)
                pairs.append(pair)
                temporal_count += pair.temporal
    if len(pairs) < config.n_pairs:
        raise ExhaustedResampling(
            f"could only produce {len(pairs)} of {config.n_pairs} distinct pairs"
        )
    return pairs


def _temporal_possible(binder: TemplateBinder, template: QueryTemplate) -> bool:
    try:
        binder.bind(template, random.Random(0))
        return True
    except UnsatisfiableSlot:
        return False


# ---------------------------------------------------------------------------
# corpus file I/O and reporting


def pair_to_json(pair: TextSqlPair) -> str:
    return json.dumps(
        {
            "question": pair.question,
            "sql": pair.sql,
            "template_id": pair.template_id,
            "tables_referenced": sorted(pair.tables_referenced),
            "category": pair.category,
        },
        ensure_ascii=False,
        sort_keys=True,
    )


def read_corpus(path: str | os.PathLike) -> list[TextSqlPair]:
    """The pairs of the corpus file at ``path``, a str or an os.PathLike
    (``read_jsonl``): each record's question and sql are strings, and the SQL
    parses in the store dialect; tables_referenced, if present, is a list of
    strings, and template_id and category are each a string or null."""
    pairs = []
    for line_no, obj in read_jsonl(path):
        question, sql_text = obj.get("question"), obj.get("sql")
        if not (isinstance(question, str) and isinstance(sql_text, str)):
            raise TemplateError(f"corpus line {line_no}: question and sql must be strings")
        tables = obj.get("tables_referenced", [])
        if not (isinstance(tables, list) and all(isinstance(t, str) for t in tables)):
            raise TemplateError(f"corpus line {line_no}: tables_referenced must be a list of strings")
        template_id, category = obj.get("template_id"), obj.get("category")
        if not all(v is None or isinstance(v, str) for v in (template_id, category)):
            raise TemplateError(f"corpus line {line_no}: template_id and category must be strings or null")
        try:
            _sql.parse(sql_text)
        except Exception as exc:
            raise TemplateError(f"corpus line {line_no}: sql does not parse: {exc}") from exc
        pairs.append(
            TextSqlPair(
                question=question,
                sql=sql_text,
                template_id=template_id,
                tables_referenced=frozenset(tables),
                category=category,
            )
        )
    return pairs


def corpus_stats(pairs: list[TextSqlPair]) -> dict:
    """Whitespace-token length stats, reported for questions and SQL separately."""
    qlens = [len(p.question.split()) for p in pairs]
    slens = [len(p.sql.split()) for p in pairs]

    def block(lens: list[int]) -> dict:
        if not lens:
            return {"avg": 0.0, "min": 0, "max": 0}
        return {"avg": round(sum(lens) / len(lens), 2), "min": min(lens), "max": max(lens)}

    return {"n_pairs": len(pairs), "question_length": block(qlens), "sql_length": block(slens)}


CONSTRUCTS = ("join", "having", "nested", "distinct", "order_by", "limit",
              "group_by", "AVG", "MIN", "MAX", "SUM", "COUNT")


def construct_coverage(pairs: list[TextSqlPair]) -> dict:
    """How many pairs use each construct (``CONSTRUCTS``), counted from the
    constructs each pair recorded when ``generate_corpus`` classified it."""
    counts = dict.fromkeys(CONSTRUCTS, 0)
    for pair in pairs:
        for name in pair.constructs:
            counts[name] += 1
    return counts


def query_constructs(query: _sql.Query) -> frozenset:
    """The constructs a query uses.  An aggregate counts wherever the query
    or a subquery names it: SELECT, WHERE/HAVING comparisons or ORDER BY."""
    walk = list(_sql.queries(query))  # the query, then its subqueries
    flags = {
        "join": query.join is not None,
        "having": query.having is not None,
        "nested": len(walk) > 1,
        "distinct": query.distinct,
        "order_by": bool(query.order_by),
        "limit": query.limit is not None,
        "group_by": bool(query.group_by),
    }
    found = {name for name, used in flags.items() if used}
    for q in walk:
        nodes = [*q.select, *(item.expr for item in q.order_by)]
        for cond in (q.where, q.having):
            for leaf in _sql.leaves(cond):
                nodes.extend(_sql.operands(leaf))
        found.update(node.op for node in nodes if isinstance(node, _sql.AggCall))
    return frozenset(found)
