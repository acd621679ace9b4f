"""The tokenizer's single ``finditer`` pass against the ``match`` loop it
replaced: the same (kind, text, position) tokens, or the same ParseError.
Numbers are ASCII digits only, as identifiers are ASCII letters."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iotsqlbench.store import ParseError
from iotsqlbench.store.sql import parse, tokenize

_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),;*\-])
    """,
    re.VERBOSE,
)


def reference_tokenize(sql: str):
    """The earlier tokenizer, kept as the reference: (kind, text, pos)
    triples ending with the end token, or the ParseError message."""
    tokens = []
    pos = 0
    while pos < len(sql):
        m = _REFERENCE_RE.match(sql, pos)
        if m is None:
            return f"unexpected character {sql[pos]!r} at position {pos}"
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(sql)))
    return tokens


def tokenized(sql: str):
    try:
        return [(t.kind, t.text, t.pos) for t in tokenize(sql)]
    except ParseError as exc:
        return str(exc)


FRAGMENTS = [
    "SELECT", "DISTINCT", "COUNT(*)", "AVG(", "FROM", "conn.log", "id.orig_h", "x.", "_a1",
    "WHERE", "BETWEEN", "AND", "OR", "IN", "(", ")", ",", ";", "*", "-", "=", "!=", "<>",
    "<=", ">=", "<", ">", "!", "42", "1.5e3", "1e", ".5", "2.", "'abc'", '"Ab c"', "''",
    "'unterminated", '"open', "#", "@", "$", "%", "é", "٣", " ", "  ", "\t", "\n",
    "\r\n", "\u00a0", "\x00",
]

dialect_with_junk = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join),
    st.text(alphabet=st.sampled_from("SELECTfromwhre0123456789._'\" \t\n#@$(),;*-=<>!é"), max_size=40),
    st.text(max_size=30),
)


@settings(max_examples=800, deadline=None)
@given(dialect_with_junk)
@example("")
@example("SELECT uid FROM conn.log WHERE ts > '2021-01-01T10:00:00' LIMIT 5;")
@example("SELECT 'open FROM t")
@example("SELECT a FROM t WHERE b = 1 # comment")
@example("\tSELECT @x\n")
@example("SELECT $1")
def test_tokenize_matches_the_match_loop(sql):
    assert tokenized(sql) == reference_tokenize(sql)


def test_a_non_ascii_digit_is_no_number():
    with pytest.raises(ParseError, match="unexpected character '١'"):
        parse("SELECT uid FROM conn_log WHERE orig_p = ١٢")
    assert tokenized("12٣") == "unexpected character '٣' at position 2"
