"""Seeded prediction files for the score-sql workload.

A prediction file holds one prediction per test example.  It is driven only
by the examples' gold SQL and the workload seed, and mixes five classes:

- ``echo``: the gold SQL verbatim;
- ``format``: a formatting-only variant (case, whitespace, quote style,
  trailing semicolon), which must still score exec = logical = 1;
- ``mutant``: a result-changing edit (perturbed literal, flipped operator,
  swapped aggregate, dropped WHERE clause), which must score logical = 0;
- ``broken``: a syntax error, an unknown table or an unknown column, which
  must score exec = logical = 0;
- ``adversarial``: a costly query unrelated to the gold (float
  ``IN (subquery)`` over conn.log, a wide low-cardinality join).

Echoes and formatting variants keep an "echo shortcut" (skip execution when
the prediction text equals the gold) from passing for an engine speed-up.
"""

from __future__ import annotations

import random
import re

# Shares of the non-adversarial predictions; ADVERSARIAL are placed on top.
CLASS_SHARES = (("echo", 0.35), ("format", 0.25), ("mutant", 0.30), ("broken", 0.10))
ADVERSARIAL = (
    "SELECT COUNT(*) FROM CONN_LOG WHERE duration IN "
    "(SELECT duration FROM CONN_LOG WHERE (orig_bytes < 100))",
    "SELECT COUNT(*) FROM CONN_LOG JOIN DNS_LOG ON CONN_LOG.proto = DNS_LOG.proto",
)

_LITERAL_RE = re.compile(r"'[^']*'|\"[^\"]*\"")
_NUMBER_RE = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?![\w.])")
_OP_RE = re.compile(r" (<=|>=|!=|<|>|=) ")
_AGG_RE = re.compile(r"\b(AVG|MIN|MAX|SUM)\(")
_TIME_RE = re.compile(r"\d{4}-\d\d-\d\dT")
_FLIP = {"<": ">=", ">=": "<", ">": "<=", "<=": ">", "=": "!=", "!=": "="}
_SWAP = {"MIN": "MAX", "MAX": "MIN", "AVG": "SUM", "SUM": "AVG"}
_CLAUSE_END_RE = re.compile(r" (GROUP BY|HAVING|ORDER BY|LIMIT) ")


def _split_literals(sql: str) -> list[tuple[bool, str]]:
    """(is_literal, text) pieces in order; literals keep their quotes."""
    pieces, pos = [], 0
    for m in _LITERAL_RE.finditer(sql):
        pieces.append((False, sql[pos : m.start()]))
        pieces.append((True, m.group()))
        pos = m.end()
    pieces.append((False, sql[pos:]))
    return pieces


def _code_matches(sql: str, pattern: re.Pattern) -> list[re.Match]:
    """Matches of ``pattern`` that lie outside string literals."""
    spans = [m.span() for m in _LITERAL_RE.finditer(sql)]
    return [
        m for m in pattern.finditer(sql)
        if not any(lo <= m.start() < hi for lo, hi in spans)
    ]


def _replace(sql: str, m: re.Match, text: str, group: int = 0) -> str:
    return sql[: m.start(group)] + text + sql[m.end(group) :]


# -- formatting-only variants -------------------------------------------------


def format_variant(sql: str, rng: random.Random) -> str:
    lower = rng.random() < 0.6
    single_quotes = rng.random() < 0.5
    out = []
    for is_literal, text in _split_literals(sql):
        if is_literal:
            body = text[1:-1]
            if single_quotes and "'" not in body:
                text = f"'{body}'"
            out.append(text)
            continue
        if lower:
            text = text.lower()
        text = re.sub(r"\(", lambda _: rng.choice(("(", "( ")), text)
        text = re.sub(r"\)", lambda _: rng.choice((")", " )")), text)
        text = re.sub(r",", lambda _: rng.choice((",", " ,", ",  ")), text)
        text = re.sub(r" ", lambda _: rng.choice((" ", "  ", "\n", "\t ")), text)
        out.append(text)
    return "".join(out) + rng.choice((" ;", ";", "\n"))


# -- result-changing mutants --------------------------------------------------


def _perturb_literal(sql: str, rng: random.Random) -> str | None:
    numbers = _code_matches(sql, _NUMBER_RE)
    strings = list(_LITERAL_RE.finditer(sql))
    choices = [("n", m) for m in numbers] + [("s", m) for m in strings]
    if not choices:
        return None
    kind, m = rng.choice(choices)
    if kind == "n":
        text = m.group()
        value = int(text) + 1 if "." not in text else round(float(text) * 1.5 + 1.0, 2)
        return _replace(sql, m, str(value))
    quote, body = m.group()[0], m.group()[1:-1]
    if _TIME_RE.match(body):
        body = f"{int(body[:4]) - 1}{body[4:]}"
    else:
        body = body + "x"
    return _replace(sql, m, f"{quote}{body}{quote}")


def _flip_operator(sql: str, rng: random.Random) -> str | None:
    start = sql.find(" WHERE ")
    if start < 0:
        start = sql.find(" HAVING ")
    if start < 0:
        return None
    ops = [m for m in _code_matches(sql, _OP_RE) if m.start() > start]
    if not ops:
        return None
    m = rng.choice(ops)
    return _replace(sql, m, _FLIP[m.group(1)], group=1)


def _swap_aggregate(sql: str, rng: random.Random) -> str | None:
    aggs = _code_matches(sql, _AGG_RE)
    if not aggs:
        return None
    m = rng.choice(aggs)
    return _replace(sql, m, _SWAP[m.group(1)], group=1)


def _drop_where(sql: str, rng: random.Random) -> str | None:
    # scan a copy with literal contents blanked, so quoted text never
    # counts as a parenthesis or a clause keyword
    masked = _LITERAL_RE.sub(lambda m: "x" * len(m.group()), sql)
    start = masked.find(" WHERE ")
    if start < 0:
        return None
    depth, end = 0, len(sql)
    for i in range(start + 1, len(masked)):
        ch = masked[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and _CLAUSE_END_RE.match(masked, i):
            end = i
            break
    return sql[:start] + sql[end:]


MUTATIONS = (_perturb_literal, _flip_operator, _swap_aggregate, _drop_where)


def mutant(sql: str, layout: random.Random, rng: random.Random) -> str | None:
    """One result-changing edit, or None when no mutation applies.  The kind
    of edit comes from ``layout``, its details from ``rng``."""
    options = [f for f in MUTATIONS if f(sql, random.Random(0)) is not None]
    if not options:
        return None
    return layout.choice(options)(sql, rng)


# -- broken predictions ---------------------------------------------------------


def broken(sql: str, rng: random.Random) -> str:
    kind = rng.choice(("syntax", "table", "column"))
    if kind == "syntax":
        return rng.choice(("SELEC" + sql[len("SELECT"):], sql[: sql.find(" FROM ") + 5]))
    if kind == "table":
        m = re.search(r" FROM (\w+)", sql)
        return _replace(sql, m, "NO_SUCH_TABLE", group=1)
    head = "SELECT DISTINCT " if sql.startswith("SELECT DISTINCT ") else "SELECT "
    return head + "no_such_column, " + sql[len(head):]


# -- files ------------------------------------------------------------------------


def make_predictions(gold_sqls: list[str], seed: int, file_index: int) -> tuple[list[str], list[str]]:
    """Payloads and classes, one per gold SQL, deterministic in (seed, file_index).

    Which example gets which class (and which kind of mutation) depends on
    the file only; the seed picks the edits themselves.  A few gold queries
    (wide joins) dominate scoring time and memory, and whether their
    prediction runs a second copy of the join depends on its class, so a
    seed-dependent layout would move ``wall_ref_s`` and ``peak_rss_mb`` from
    seed to seed.
    """
    layout = random.Random(f"perfbench-score-sql-layout:{file_index}")
    rng = random.Random(f"perfbench-score-sql:{seed}:{file_index}")
    n = len(gold_sqls)
    order = list(range(n))
    layout.shuffle(order)
    classes = [""] * n
    for pos in order[: len(ADVERSARIAL)]:
        classes[pos] = "adversarial"
    rest = order[len(ADVERSARIAL):]
    cursor = 0
    for k, (name, share) in enumerate(CLASS_SHARES):
        count = len(rest) - cursor if k == len(CLASS_SHARES) - 1 else round(share * len(rest))
        for pos in rest[cursor : cursor + count]:
            classes[pos] = name
        cursor += count

    payloads = []
    adversarial = iter(ADVERSARIAL)
    for i, gold in enumerate(gold_sqls):
        cls = classes[i]
        if cls == "echo":
            payload = gold
        elif cls == "format":
            payload = format_variant(gold, rng)
        elif cls == "mutant":
            payload = mutant(gold, layout, rng)
            if payload is None:
                cls = classes[i] = "broken"
                payload = broken(gold, rng)
        elif cls == "broken":
            payload = broken(gold, rng)
        else:
            payload = next(adversarial)
        payloads.append(payload)
    return payloads, classes


def detection_labels(examples: list[dict], seed: int) -> dict[str, str]:
    """Detection predictions: the gold label, flipped for a seeded 15%."""
    out = {}
    for ex in examples:
        flip = random.Random(f"perfbench-detect:{seed}:{ex['id']}").random() < 0.15
        malicious = (ex["gold"] == "Malicious") != flip
        out[ex["id"]] = "Malicious" if malicious else "Benign"
    return out
