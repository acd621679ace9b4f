"""The engine's chunked stages (WHERE passes over a column, GROUP BY keys
and aggregates read a column at a time, join keys taken a chunk at a time)
give the rows, the order and the errors of a row-at-a-time reference kept
here.  Tables hold 4,095, 4,096 or 4,097 rows, so chunks end just before,
at and just after the engine's chunk size, and nulls fall in some chunks
and not in others."""

import math
import random
from datetime import datetime, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from iotsqlbench.store import ColumnDef, Database, StoreError, TableSchema, TypeMismatch, define_schema
from iotsqlbench.store.engine import values_eq, values_lt

OPS = ("=", "!=", "<", ">", "<=", ">=")
SIZES = (4095, 4096, 4097)

T_COLUMNS = (("id", "number"), ("n", "number"), ("m", "number"), ("t", "time"),
             ("s", "text"), ("b", "boolean"), ("g", "text"), ("k", "number"))
R_COLUMNS = (("rid", "number"), ("k", "number"), ("y", "number"), ("u", "text"), ("tt", "time"))
SCHEMA = define_schema([
    TableSchema("t", tuple(ColumnDef(name, attr) for name, attr in T_COLUMNS)),
    TableSchema("r", tuple(ColumnDef(name, attr) for name, attr in R_COLUMNS)),
])
T_POS = {name: i for i, (name, _) in enumerate(T_COLUMNS)}
R_POS = {name: len(T_COLUMNS) + i for i, (name, _) in enumerate(R_COLUMNS)}


def written(op, a, b):
    """``a op b`` as values_eq/values_lt define it; a null is never true."""
    if op == "=":
        return values_eq(a, b) is True
    if op == "!=":
        return values_eq(a, b) is False
    if op in ("<", "<="):
        return values_lt(a, b) is True or (op == "<=" and values_eq(a, b) is True)
    return values_lt(b, a) is True or (op == ">=" and values_eq(a, b) is True)


# ---------------------------------------------------------------------------
# values: ints around 2^53 and past 2^70, floats within 1e-9 of the
# constants, floats up to the edge of float range, times, ISO-like text and
# booleans.  The store holds only finite numbers, so none is drawn.

SPECIAL_NUMBERS = (0, -0.0, 2**53, 2**53 + 1, float(2**53), 2**70 + 1, -(2**72), float(2**70), 1e-13)
numbers = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**75), 2**75),
    st.sampled_from(SPECIAL_NUMBERS),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)
BASE_TIME = datetime(2021, 1, 1)
times = st.builds(lambda s: BASE_TIME + timedelta(seconds=s), st.integers(-86400, 86400))
ISO_TEXT = ("2021-01-01", "2021-01-01T00:00:00", "2021-01-01 12:30:00", "2020-12-31T23:59:59.5",
            "2021-13-45", "abc", "", "Z")
texts = st.one_of(st.sampled_from(ISO_TEXT), st.text(alphabet="abz019-:T ", max_size=8))


def near(c) -> list:
    """``c`` and the finite numbers at or just beyond its 1e-9 tolerance."""
    out = [c]
    if isinstance(c, int):
        out += [c + 1, c - 1]
    f = float(c)
    out += [v for v in (f, f * (1 + 5e-10), f * (1 - 5e-10), f * (1 + 3e-9), f + 1e-13, f - 5e-13)
            if math.isfinite(v)]
    return out


def literal(value):
    """SQL text for a constant."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(abs(value))
        return f"-{text}" if math.copysign(1.0, value) < 0 else text
    if isinstance(value, datetime):
        return f'"{value.isoformat()}"'
    return f'"{value}"'


@st.composite
def pools(draw):
    """Per column: the values rows draw from, and the share of nulls."""
    constants = draw(st.lists(numbers, min_size=1, max_size=3))
    number_pool = [v for c in constants for v in near(c)] + draw(st.lists(numbers, max_size=4))
    time_pool = draw(st.lists(times, min_size=1, max_size=6))
    text_pool = draw(st.lists(texts, min_size=1, max_size=6))
    if draw(st.booleans()):  # a time compared with this text is a TypeMismatch
        text_pool.append("2021-01-01T00:00:00+01:00")
    null_shares = st.sampled_from((0.0, 0.0002, 0.3))
    return {
        "number": number_pool, "time": time_pool, "text": text_pool, "boolean": [True, False],
        "group": draw(st.lists(st.sampled_from(("x", "y", "z", "2021-01-01")), min_size=1, max_size=3)),
        "nulls": {name: draw(null_shares) for name in ("n", "m", "t", "s", "b", "g", "k", "y", "u", "tt")},
        "keys": draw(st.integers(2, 6000)),
    }


def make_rows(pool, n_t, n_r, seed):
    rng = random.Random(seed)
    nulls = pool["nulls"]

    def pick(name, values):
        return None if rng.random() < nulls[name] else rng.choice(values)

    def key():
        return pick("k", pool["number"]) if rng.random() < 0.01 else rng.randrange(pool["keys"])

    t_rows = [
        (i, pick("n", pool["number"]), pick("m", pool["number"]), pick("t", pool["time"]),
         pick("s", pool["text"]), pick("b", pool["boolean"]), pick("g", pool["group"]), key())
        for i in range(n_t)
    ]
    r_rows = [
        (i, key(), pick("y", pool["number"]), pick("u", pool["group"]), pick("tt", pool["time"]))
        for i in range(n_r)
    ]
    return t_rows, r_rows


def database(t_rows, r_rows):
    db = Database(SCHEMA)
    db.load_records("t", t_rows)
    db.load_records("r", r_rows)
    return db


# ---------------------------------------------------------------------------
# conditions, as trees: ("cmp", op, lhs, rhs) with operands ("col", name),
# ("const", value) or ("sub", name, id), the value of a column in the row
# of t with that id; ("between", name, lo, hi); ("in", name, column of r);
# ("and" | "or", parts)


def sql_of(cond, prefix="") -> str:
    kind = cond[0]
    if kind in ("and", "or"):
        return f" {kind.upper()} ".join(f"({sql_of(part, prefix)})" for part in cond[1])
    if kind == "between":
        _, name, lo, hi = cond
        return f"{prefix}{name} BETWEEN {literal(lo)} AND {literal(hi)}"
    if kind == "in":
        return f"{prefix}{cond[1]} IN (SELECT {cond[2]} FROM r)"
    _, op, lhs, rhs = cond
    return f"{operand_sql(lhs, prefix)} {op} {operand_sql(rhs, prefix)}"


def operand_sql(side, prefix) -> str:
    if side[0] == "col":
        return prefix + side[1]
    if side[0] == "const":
        return literal(side[1])
    return f"(SELECT {side[1]} FROM t WHERE id = {side[2]})"


def holds(cond, row, pos, tables) -> bool:
    """The reference: ``cond`` on one row, parts left to right, stopping at
    the first that decides, as SQL's AND and OR may.  ``tables`` holds the
    rows of t and of r."""
    t_rows, r_rows = tables
    kind = cond[0]
    if kind == "and":
        return all(holds(part, row, pos, tables) for part in cond[1])
    if kind == "or":
        return any(holds(part, row, pos, tables) for part in cond[1])
    if kind == "between":
        _, name, lo, hi = cond
        return written(">=", row[pos[name]], lo) and written("<=", row[pos[name]], hi)
    if kind == "in":
        value, at = row[pos[cond[1]]], R_POS[cond[2]] - len(T_COLUMNS)
        return any(written("=", value, other[at]) for other in r_rows if other[at] is not None)
    _, op, lhs, rhs = cond

    def value(side):
        if side[0] == "col":
            return row[pos[side[1]]]
        if side[0] == "const":
            return side[1]
        return t_rows[side[2]][T_POS[side[1]]]

    return written(op, value(lhs), value(rhs))


@st.composite
def atoms(draw, pool, n_rows):
    """One comparison, BETWEEN or scalar-subquery comparison on table t."""
    kind = draw(st.sampled_from(("number", "number", "time", "time", "text", "boolean",
                                 "between", "subquery", "columns", "in")))
    op = draw(st.sampled_from(OPS))
    if kind == "in":  # text IN times reads the text as a time
        return ("in", *draw(st.sampled_from((("n", "y"), ("k", "k"), ("s", "u"), ("t", "tt"), ("s", "tt")))))
    if kind == "between":
        name, values = draw(st.sampled_from(
            (("n", pool["number"]), ("t", pool["time"]), ("s", pool["text"]))))
        lo, hi = draw(st.sampled_from(values)), draw(st.sampled_from(values))
        return ("between", name, lo, hi)
    if kind == "subquery":  # the constant is a stored value, or null
        name = draw(st.sampled_from(("n", "t", "s")))
        column, constant = ("col", name), ("sub", name, draw(st.integers(0, n_rows - 1)))
    elif kind == "columns":
        left, right = draw(st.sampled_from((("t", "s"), ("s", "t"), ("n", "m"), ("k", "n"))))
        return ("cmp", op, ("col", left), ("col", right))
    else:
        name = {"time": "t", "text": "s", "boolean": "b"}.get(kind) or draw(st.sampled_from(("n", "m", "k")))
        if kind == "time" and draw(st.booleans()):
            value = draw(st.sampled_from(ISO_TEXT[:5]))  # text read as a time
        elif kind == "number":
            value = draw(st.sampled_from(pool["number"]) | numbers)
        else:
            value = draw(st.sampled_from(pool[kind]))
        column, constant = ("col", name), ("const", value)
    if constant[0] == "sub" or draw(st.booleans()):  # the dialect has the subquery on the right only
        return ("cmp", op, column, constant)
    return ("cmp", op, constant, column)


@st.composite
def conditions(draw, pool, n_rows):
    def atom():
        return draw(atoms(pool, n_rows))

    shape = draw(st.sampled_from(("one", "and", "and3", "or", "or_and")))
    if shape == "one":
        return atom()
    if shape in ("and", "and3"):
        return ("and", [atom() for _ in range(2 if shape == "and" else 3)])
    if shape == "or":
        return ("or", [atom(), atom()])
    return ("and", [("or", [atom(), atom()]), atom()])


def outcome(run):
    """The rows (compared by repr, so 1 and 1.0, 0.0 and -0.0 differ) or the
    error class."""
    try:
        return [tuple(map(repr, row)) for row in run()]
    except StoreError as exc:
        return type(exc)


OFFSET_TEXT = "2021-01-01T00:00:00+01:00"  # a TypeMismatch against a time
NULLS_SOMETIMES = dict.fromkeys(("n", "m", "t", "s", "b", "g", "k", "y", "u", "tt"), 0.0002)
EDGE_POOL = {
    "number": [2**53, 2**53 + 1, float(2**53), 2**70 + 1, 1.0, 1.0 + 5e-10, 1.0 + 3e-9],
    "time": [BASE_TIME, BASE_TIME + timedelta(hours=12)],
    "text": ["a", "2021-01-01", OFFSET_TEXT],
    "boolean": [True, False], "group": ["x", "y"], "nulls": NULLS_SOMETIMES, "keys": 10,
}


# ---------------------------------------------------------------------------
# WHERE


@settings(max_examples=60, deadline=None)
@given(pool=pools(), size=st.sampled_from(SIZES), seed=st.integers(0, 2**32), data=st.data())
def test_where_passes_match_a_row_at_a_time_filter(pool, size, seed, data):
    t_rows, r_rows = make_rows(pool, size, 3, seed)
    db = database(t_rows, r_rows)
    for _ in range(3):
        cond = data.draw(conditions(pool, size), label="where")
        check_where(db, (t_rows, r_rows), cond)


def check_where(db, tables, cond):
    where = sql_of(cond)
    expected = outcome(lambda: [(row[0],) for row in tables[0] if holds(cond, row, T_POS, tables)])
    assert outcome(lambda: db.execute(f"SELECT id FROM t WHERE {where}").rows) == expected, where


EDGE_CONDITIONS = [
    ("cmp", "!=", ("col", "n"), ("sub", "n", 0)),
    ("cmp", ">=", ("col", "n"), ("const", 2**53)),
    ("cmp", "<", ("const", 1.0), ("col", "m")),
    ("cmp", "=", ("col", "k"), ("const", 1.0 + 5e-10)),
    ("cmp", "<=", ("col", "n"), ("const", 2**1000)),
    ("and", [("between", "n", 1, 1.0000000001), ("cmp", "=", ("col", "b"), ("const", True))]),
    ("and", [("cmp", "!=", ("col", "s"), ("const", "a")),
             ("cmp", "<", ("col", "t"), ("const", "2021-01-01"))]),
    ("cmp", "<", ("col", "t"), ("col", "s")),  # a TypeMismatch once a row holds the offset text
    ("or", [("cmp", ">", ("col", "n"), ("sub", "n", 5)), ("cmp", "=", ("col", "g"), ("const", "x"))]),
    ("in", "n", "y"),
    ("in", "s", "tt"),  # a TypeMismatch once a row holds the offset text
    # a later OR part tests only the rows the earlier parts dropped, so it
    # never meets the offset text that an earlier part keeps; within a part,
    # a later AND item tests only the rows the earlier items keep
    ("or", [("cmp", "=", ("col", "s"), ("const", OFFSET_TEXT)), ("cmp", "<", ("col", "t"), ("col", "s"))]),
    ("or", [("cmp", "=", ("col", "s"), ("const", OFFSET_TEXT)), ("cmp", "=", ("col", "g"), ("const", "x")),
            ("cmp", ">=", ("col", "t"), ("col", "s"))]),
    ("or", [("and", [("cmp", "!=", ("col", "s"), ("const", "a")),
                     ("cmp", "!=", ("col", "s"), ("const", "2021-01-01"))]),
            ("in", "s", "tt")]),
    ("or", [("cmp", "=", ("col", "g"), ("const", "x")),
            ("and", [("cmp", "=", ("col", "s"), ("const", "a")), ("cmp", "<", ("col", "s"), ("col", "t"))])]),
]


def test_where_passes_on_edge_values_at_chunk_boundaries():
    for size in SIZES:
        for seed in range(3):
            t_rows, r_rows = make_rows(EDGE_POOL, size, 3, seed)
            db = database(t_rows, r_rows)
            for cond in EDGE_CONDITIONS:
                check_where(db, (t_rows, r_rows), cond)


# ---------------------------------------------------------------------------
# GROUP BY and HAVING

AGGREGATES = ("COUNT(*)", "COUNT(n)", "SUM(n)", "AVG(m)", "MIN(t)", "MAX(s)", "MIN(n)", "MAX(b)")


def aggregate(call, members, pos):
    op, arg = call[:-1].split("(")
    if arg == "*":
        return len(members)
    values = [row[pos[arg]] for row in members if row[pos[arg]] is not None]
    if op == "COUNT":
        return len(values)
    if not values:
        return None
    if op in ("MIN", "MAX"):
        return min(values) if op == "MIN" else max(values)
    result = sum(values) / len(values) if op == "AVG" else sum(values)
    if not math.isfinite(result):  # a store computes only finite numbers
        raise TypeMismatch(f"{call} is beyond float range")
    return result


def reference_groups(rows, keys, calls, having, pos):
    """GROUP BY one row at a time: groups in order of first appearance."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[pos[k]] for k in keys), []).append(row)
    out = []
    for key, members in groups.items():
        values = {call: aggregate(call, members, pos) for call in calls}
        if having is None or written(having[1], values[having[0]], having[2]):
            out.append(key + tuple(values[call] for call in calls))
    return out


@st.composite
def group_queries(draw, pool):
    # one group per row with ``id``: HAVING runs over 4,095-4,097 groups
    keys = draw(st.sampled_from((["g"], ["n"], ["b"], ["t"], ["g", "b"], ["b", "k"], ["id"])))
    calls = draw(st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=4, unique=True))
    having = None
    if draw(st.booleans()):
        call = draw(st.sampled_from(calls))
        op = draw(st.sampled_from(OPS))
        bound = {"COUNT": draw(st.integers(0, 2500)), "MIN(t)": BASE_TIME, "MAX(s)": "b", "MAX(b)": True}
        value = bound.get(call, bound.get(call.split("(")[0], draw(st.sampled_from(pool["number"]))))
        having = (call, op, value)
    return keys, calls, having


@settings(max_examples=40, deadline=None)
@given(pool=pools(), size=st.sampled_from(SIZES), seed=st.integers(0, 2**32), data=st.data())
def test_grouping_matches_a_row_at_a_time_reference(pool, size, seed, data):
    t_rows, r_rows = make_rows(pool, size, 3, seed)
    db = database(t_rows, r_rows)
    keys, calls, having = data.draw(group_queries(pool), label="query")
    cond = data.draw(st.none() | conditions(pool, size), label="where")
    sql = f"SELECT {', '.join(keys + calls)} FROM t"
    sql += "" if cond is None else f" WHERE {sql_of(cond)}"
    sql += f" GROUP BY {', '.join(keys)}"
    if having is not None:
        sql += f" HAVING {having[0]} {having[1]} {literal(having[2])}"

    def expected():
        rows = [row for row in t_rows if cond is None or holds(cond, row, T_POS, (t_rows, r_rows))]
        return reference_groups(rows, keys, calls, having, T_POS)

    assert outcome(lambda: db.execute(sql).rows) == outcome(expected), sql


# ---------------------------------------------------------------------------
# JOIN


def reference_join(t_rows, r_rows):
    """A nested loop: each t row's matches in r order, under values_eq."""
    k, rk = T_POS["k"], R_POS["k"] - len(T_COLUMNS)
    return [lrow + rrow for lrow in t_rows for rrow in r_rows if values_eq(lrow[k], rrow[rk]) is True]


JOIN_CONDITIONS = [
    None,
    ("cmp", "<", ("col", "t.n"), ("const", 1.0)),
    ("and", [("cmp", ">=", ("col", "r.y"), ("const", 2**53)), ("cmp", "!=", ("col", "u"), ("const", "x"))]),
    ("and", [("between", "tt", BASE_TIME, BASE_TIME + timedelta(hours=12)),
             ("cmp", "<", ("col", "t.n"), ("col", "r.y"))]),
    ("or", [("cmp", "=", ("col", "t.g"), ("const", "y")), ("cmp", ">", ("col", "r.y"), ("const", 0))]),
]
JOIN_POS = {**{f"t.{name}": i for name, i in T_POS.items()}, **{f"r.{name}": i for name, i in R_POS.items()},
            "b": T_POS["b"], "u": R_POS["u"], "tt": R_POS["tt"]}


@settings(max_examples=6, deadline=None)
@given(pool=pools(), big=st.sampled_from(("t", "r")), size=st.sampled_from(SIZES), seed=st.integers(0, 2**32))
def test_join_matches_a_nested_loop(pool, big, size, seed):
    """Build and probe sides of 4,095-4,097 rows, against 60 on the other."""
    t_rows, r_rows = make_rows(pool, *((size, 60) if big == "t" else (60, size)), seed)
    db = database(t_rows, r_rows)
    joined = reference_join(t_rows, r_rows)
    for cond in JOIN_CONDITIONS:
        rows = [row for row in joined if cond is None or holds(cond, row, JOIN_POS, (t_rows, r_rows))]
        where = "" if cond is None else f" WHERE {sql_of(cond)}"
        # joined rows that keep columns of both sides, of one side, of none
        for select in (["t.id", "r.rid", "t.n"], ["t.id"], ["r.rid", "r.y"]):
            sql = f"SELECT {', '.join(select)} FROM t JOIN r ON t.k = r.k{where}"
            assert outcome(lambda: db.execute(sql).rows) == outcome(
                lambda: [tuple(row[JOIN_POS[name]] for name in select) for row in rows]), sql
        sql = f"SELECT COUNT(*) FROM t JOIN r ON t.k = r.k{where}"
        assert db.execute(sql).rows == [(len(rows),)], sql
        sql = f"SELECT u, b, COUNT(*), SUM(t.n), MAX(tt) FROM t JOIN r ON t.k = r.k{where} GROUP BY u, b"
        expected = reference_groups(rows, ["u", "b"], ["COUNT(*)", "SUM(t.n)", "MAX(tt)"], None, JOIN_POS)
        assert outcome(lambda: db.execute(sql).rows) == outcome(lambda: expected), sql
