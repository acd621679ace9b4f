import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import iotsqlbench
from iotsqlbench.modelio import ParseError
from iotsqlbench.store import ColumnDef, Database, TableSchema, define_schema
from iotsqlbench.store import sql as _sql
from iotsqlbench.templates import (
    CorpusConfig,
    ExhaustedResampling,
    TemplateBinder,
    TemplateError,
    TextSqlPair,
    UnsatisfiableSlot,
    construct_coverage,
    corpus_stats,
    default_bank,
    generate_corpus,
    has_datetime_predicate,
    instantiate,
    pair_to_json,
    read_corpus,
)
from iotsqlbench.templates.bank import parse_bank_text
from tests.conftest import text_file

BY_ID = {t.id: t for t in default_bank()}


def test_bank_has_27_templates_with_variants():
    bank = default_bank()
    assert len(bank) == 27
    for t in bank:
        assert len(t.nl_patterns) >= 3
        assert t.category in ("retrieval", "reasoning")
    categories = {t.category for t in bank}
    assert categories == {"retrieval", "reasoning"}


def test_instantiate_agg_template_shape(synth_db):
    rng = random.Random(5)
    pair = instantiate(BY_ID["agg_filter"], synth_db, rng)
    assert pair.sql.startswith("SELECT ")
    assert "WHERE (" in pair.sql
    assert pair.template_id == "agg_filter"
    assert pair.category == "reasoning"
    assert pair.tables_referenced


def test_instantiate_unsatisfiable_slot():
    schema = define_schema([
        TableSchema(name="strings_only", columns=(
            ColumnDef("a", "text"), ColumnDef("b", "text"),
        )),
    ])
    db = Database(schema)
    db.load_records("strings_only", [("x", "y"), ("z", "w")])
    with pytest.raises(UnsatisfiableSlot):
        instantiate(BY_ID["agg_filter"], db, random.Random(0))


def test_binder_options_follow_the_template_not_its_id():
    db = Database(define_schema([
        TableSchema(name="strings_only", columns=(ColumnDef("a", "text"), ColumnDef("b", "text"))),
    ]))
    db.load_records("strings_only", [("x", "y"), ("z", "w")])
    binder = TemplateBinder(db)
    unsatisfiable = BY_ID["agg_filter"]
    # ids repeat across banks: another template under the same id
    satisfiable = dataclasses.replace(BY_ID["select_all_filter"], id=unsatisfiable.id)
    for template in (satisfiable, unsatisfiable, satisfiable, unsatisfiable):
        if template is satisfiable:
            assert binder.bind(template, random.Random(0))["TABLE"].value.name == "strings_only"
        else:
            with pytest.raises(UnsatisfiableSlot, match="no table satisfies the column constraints"):
                binder.bind(template, random.Random(0))


def _template(sql: str, *slots: str):
    """A retrieval template of ``sql`` and slot lines, with three NL patterns."""
    nl = "".join(f"nl rows of $TABLE, variant {i}\n" for i in range(3))
    text = f"template t\ncategory retrieval\nsql {sql}\n{nl}" + "".join(f"slot {s}\n" for s in slots)
    return parse_bank_text(text + "end\n")[0]


def _strings_db(rows):
    db = Database(define_schema([
        TableSchema(name="strings_only", columns=(ColumnDef("a", "text"), ColumnDef("b", "text"))),
    ]))
    db.load_records("strings_only", rows)
    return db


def test_cond_op_compares_the_nearest_column_slot_on_its_left(synth_db):
    # the value placeholder between the column and the operator is passed
    # over: the operator compares a text column, so only = and != are drawn
    template = _template(
        "SELECT * FROM $TABLE WHERE ($COND_COLUMN = $COND_VALUE OR $COND_VALUE $COND_OP2 $COND_COLUMN)",
        "COND_COLUMN attrs=text")
    binder = TemplateBinder(synth_db)
    drawn = {binder.bind(template, random.Random(seed))["COND_OP2"].value for seed in range(40)}
    assert drawn == {"=", "!="}


_MANY_SLOTS_SQL = ("SELECT $AGG_OP($AGG_COLUMN) FROM $TABLE WHERE $COND_COLUMN2 $COND_OP2 $COND_VALUE2"
                   " AND $COND_COLUMN $COND_OP $COND_VALUE ORDER BY $ORDER_COLUMN LIMIT $LIMIT_N")


def test_inferred_slots_follow_pattern_order_under_any_hash_seed():
    want = ["AGG_OP", "AGG_COLUMN", "TABLE", "COND_COLUMN2", "COND_OP2", "COND_VALUE2",
            "COND_COLUMN", "COND_OP", "COND_VALUE", "ORDER_COLUMN", "LIMIT_N"]
    assert list(_template(_MANY_SLOTS_SQL).slots) == want
    # each draw follows slot order, so it must not move with string hashing
    code = ("from iotsqlbench.templates.bank import parse_bank_text\n"
            f"nl = ''.join(f'nl rows of $TABLE, variant {{i}}\\n' for i in range(3))\n"
            f"text = 'template t\\ncategory retrieval\\nsql ' + {_MANY_SLOTS_SQL!r} + '\\n' + nl + 'end\\n'\n"
            "print(list(parse_bank_text(text)[0].slots))\n")
    src = str(Path(iotsqlbench.__file__).resolve().parents[1])
    for hashseed in ("1", "999"):
        env = {**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == f"{want}\n", hashseed


def test_a_column_a_value_slot_samples_has_values():
    db = _strings_db([(None, "y"), (None, "w")])
    template = BY_ID["select_all_filter"]
    binder = TemplateBinder(db)
    for seed in range(20):
        bindings = binder.bind(template, random.Random(seed))
        assert bindings["COND_COLUMN"].value.name == "b" and bindings["COND_VALUE"].value in ("y", "w")


def test_an_unpaired_agg_column_needs_a_number_or_time_column():
    template = _template("SELECT $AGG_COLUMN FROM $TABLE")
    with pytest.raises(UnsatisfiableSlot, match="no table satisfies the column constraints"):
        TemplateBinder(_strings_db([("x", "y")])).bind(template, random.Random(0))


def test_instantiations_all_execute(synth_db):
    binder = TemplateBinder(synth_db)
    bank = default_bank()
    for i in range(200):
        rng = random.Random(i)
        template = bank[i % len(bank)]
        pair = instantiate(template, synth_db, rng, binder=binder)
        synth_db.execute(pair.sql)  # must not raise


def test_generate_corpus_counts_and_dedup(synth_db):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=500, seed=13))
    assert len(pairs) == 500
    assert len({(p.question, p.sql) for p in pairs}) == 500


def test_generate_corpus_deterministic(synth_db):
    a = generate_corpus(synth_db, CorpusConfig(n_pairs=120, seed=13))
    b = generate_corpus(synth_db, CorpusConfig(n_pairs=120, seed=13))
    assert a == b
    c = generate_corpus(synth_db, CorpusConfig(n_pairs=120, seed=14))
    assert a != c


# sha256 of each pair's JSON line, temporal flag and constructs, recorded
# before the binder's slot rules were worked out once per template: any
# change to a draw, its order or a retry moves it
@pytest.mark.parametrize("floor, digest", [
    (None, "b6026314dde316d91f4c201da4f40a58335afa689772640408e9c0194e8f5ae6"),
    (0.9, "51b23478fb3353eb3052c844d401e91da163c6420f9d24b76b0cab454ca945c9"),
], ids=["default-floor", "floor-0.9"])
def test_generated_corpus_is_byte_identical(synth_db, floor, digest):
    floors = {} if floor is None else {"temporal_floor": floor}
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=1000, seed=7, **floors))
    lines = "".join(f"{pair_to_json(p)}\t{p.temporal}\t{sorted(p.constructs)}\n" for p in pairs)
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


def test_generate_corpus_empty():
    schema = define_schema([
        TableSchema(name="t", columns=(ColumnDef("a", "text"),)),
    ])
    db = Database(schema)
    assert generate_corpus(db, CorpusConfig(n_pairs=0, seed=1)) == []


def test_generate_corpus_exhausted_resampling():
    schema = define_schema([
        TableSchema(name="t", columns=(ColumnDef("a", "text"),)),
    ])
    db = Database(schema)
    db.load_records("t", [("only",)])
    with pytest.raises(ExhaustedResampling):
        generate_corpus(db, CorpusConfig(n_pairs=5000, seed=1, max_attempt_factor=2))


def test_temporal_floor(synth_db):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=400, seed=3))
    temporal = sum(has_datetime_predicate(_sql.parse(p.sql), synth_db.schema) for p in pairs)
    assert temporal / len(pairs) >= 0.10


def test_coverage_at_270_uniform(synth_db):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=270, seed=27))
    coverage = construct_coverage(pairs)
    for construct in ("join", "having", "nested", "AVG", "MIN", "MAX", "COUNT"):
        assert coverage[construct] >= 1, construct


def test_category_partition_exhaustive(synth_db):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=150, seed=9))
    assert all(p.category in ("retrieval", "reasoning") for p in pairs)


def test_has_datetime_predicate(synth_db):
    def temporal(sql):
        return has_datetime_predicate(_sql.parse(sql), synth_db.schema)

    assert temporal('SELECT COUNT(*) FROM conn.log WHERE (ts > "2021-03-02")')
    assert temporal('SELECT uid FROM conn.log WHERE (ts BETWEEN "2021-03-01" AND "2021-03-02")')
    assert not temporal('SELECT COUNT(*) FROM conn.log WHERE (proto = "tcp")')
    assert not temporal("SELECT ts FROM conn.log")


def test_corpus_io_round_trip(synth_db, tmp_path):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=40, seed=21))
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(pair_to_json(p) + "\n" for p in pairs), encoding="utf-8")
    again = read_corpus(path)
    assert again == pairs


def test_read_corpus_rejects_unparseable_sql(tmp_path):
    from iotsqlbench.templates import TemplateError

    bad = '{"question": "broken question here", "sql": "SELEC nothing FROM"}'
    with pytest.raises(TemplateError) as exc:
        read_corpus(text_file(tmp_path, bad + "\n"))
    assert "line 1" in str(exc.value)
    with pytest.raises(TemplateError, match="^corpus line 2: question and sql must be strings"):
        read_corpus(text_file(tmp_path, '{"question": "q", "sql": "SELECT 1"}\n{"question": 5, "sql": "SELECT 1"}\n'))
    with pytest.raises(ParseError, match="^line 1: expected an object"):
        read_corpus(text_file(tmp_path, "[1, 2]\n"))


@pytest.mark.parametrize("field,value,message", [
    ("tables_referenced", 5, "tables_referenced must be a list of strings"),
    ("tables_referenced", "abc", "tables_referenced must be a list of strings"),
    ("tables_referenced", ["conn.log", 1], "tables_referenced must be a list of strings"),
    ("template_id", 3, "template_id and category must be strings or null"),
    ("category", [1], "template_id and category must be strings or null"),
])
def test_read_corpus_rejects_mistyped_fields(field, value, message, tmp_path):
    good = {"question": "q", "sql": "SELECT 1", "template_id": None, "tables_referenced": [], "category": "x"}
    text = json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n"
    with pytest.raises(TemplateError, match=f"^corpus line 2: {message}$"):
        read_corpus(text_file(tmp_path, text))
    assert read_corpus(text_file(tmp_path, json.dumps(good) + "\n"))[0].category == "x"


def test_read_corpus_takes_a_pair_with_no_template(tmp_path):
    bare = {"question": "How many sessions are there in total?", "sql": "SELECT COUNT(*) FROM conn.log"}
    nulls = {**bare, "template_id": None, "category": None}
    for obj in (bare, nulls):
        [pair] = read_corpus(text_file(tmp_path, json.dumps(obj) + "\n"))
        assert (pair.template_id, pair.category, pair.tables_referenced) == (None, None, frozenset())
        assert read_corpus(text_file(tmp_path, pair_to_json(pair) + "\n")) == [pair]


# every pair pair_to_json writes, minus the exclusion README lists: the SQL
# parses in the store dialect, here any literal that holds no "'" between
# any whitespace the tokenizer skips
_SQL = st.builds("SELECT{0}uid FROM conn.log WHERE{0}history = '{1}'".format,
                 st.sampled_from([" ", "\n", "\r\n", "\t", "\u2028", "\x85"]),
                 st.text().filter(lambda text: "'" not in text))
_PAIRS = st.builds(TextSqlPair, question=st.text(), sql=_SQL,
                   template_id=st.none() | st.text(), tables_referenced=st.frozensets(st.text()),
                   category=st.none() | st.text())


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_PAIRS, max_size=5))
def test_corpus_reads_back_from_its_file(tmp_path, pairs):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes("".join(pair_to_json(p) + "\n" for p in pairs).encode("utf-8"))
    assert read_corpus(path) == pairs


def test_corpus_stats_reports_both_lengths(synth_db):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=60, seed=5))
    stats = corpus_stats(pairs)
    assert stats["n_pairs"] == 60
    assert stats["question_length"]["min"] >= 5
    assert stats["sql_length"]["avg"] > 0


def test_corpus_readers_split_records_at_newlines_only(tmp_path):
    question = "How many sessions\u2028are there in\x85total?"
    line = json.dumps({"question": question, "sql": "SELECT COUNT(*) FROM conn.log"},
                      ensure_ascii=False)
    text = "\n" + line + "\r\n"
    assert [pair.question for pair in read_corpus(text_file(tmp_path, text))] == [question]
    with pytest.raises(TemplateError) as exc:
        read_corpus(text_file(tmp_path, text + '{"question": "x"}\n'))
    assert "line 3" in str(exc.value)
