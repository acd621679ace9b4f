import dataclasses
import json
import random

import pytest

from iotsqlbench.modelio import ParseError
from iotsqlbench.store import ColumnDef, Database, TableSchema, define_schema
from iotsqlbench.templates import (
    CorpusConfig,
    ExhaustedResampling,
    ManualPairError,
    TemplateBinder,
    TemplateError,
    UnsatisfiableSlot,
    construct_coverage,
    corpus_stats,
    default_bank,
    dump_bank_text,
    generate_corpus,
    has_datetime_predicate,
    instantiate,
    pair_to_json,
    parse_bank_text,
    read_corpus,
    read_manual_pairs,
)

BY_ID = {t.id: t for t in default_bank()}


def test_bank_has_27_templates_with_variants():
    bank = default_bank()
    assert len(bank) == 27
    for t in bank:
        assert len(t.nl_patterns) >= 3
        assert t.category in ("retrieval", "reasoning")
    categories = {t.category for t in bank}
    assert categories == {"retrieval", "reasoning"}


def test_bank_round_trips_through_text_format():
    bank = default_bank()
    again = parse_bank_text(dump_bank_text(bank))
    assert [t.id for t in again] == [t.id for t in bank]
    assert [t.sql_pattern for t in again] == [t.sql_pattern for t in bank]
    assert [t.nl_patterns for t in again] == [t.nl_patterns for t in bank]


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
    temporal = sum(has_datetime_predicate(p.sql, synth_db.schema) for p in pairs)
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
    schema = synth_db.schema
    assert has_datetime_predicate(
        'SELECT COUNT(*) FROM conn.log WHERE (ts > "2021-03-02")', schema)
    assert has_datetime_predicate(
        'SELECT uid FROM conn.log WHERE (ts BETWEEN "2021-03-01" AND "2021-03-02")', schema)
    assert not has_datetime_predicate(
        'SELECT COUNT(*) FROM conn.log WHERE (proto = "tcp")', schema)
    assert not has_datetime_predicate("SELECT ts FROM conn.log", schema)


def test_corpus_io_round_trip(synth_db, tmp_path):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=40, seed=21))
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(pair_to_json(p) + "\n" for p in pairs), encoding="utf-8")
    again = read_corpus(path.read_text(encoding="utf-8"))
    assert again == pairs


def test_read_corpus_rejects_unparseable_sql():
    from iotsqlbench.templates import TemplateError

    bad = '{"question": "broken question here", "sql": "SELEC nothing FROM"}'
    with pytest.raises(TemplateError) as exc:
        read_corpus(bad + "\n")
    assert "line 1" in str(exc.value)
    with pytest.raises(TemplateError, match="^corpus line 2: question and sql must be strings"):
        read_corpus('{"question": "q", "sql": "SELECT 1"}\n{"question": 5, "sql": "SELECT 1"}\n')
    with pytest.raises(ParseError, match="^line 1: expected an object"):
        read_corpus("[1, 2]\n")


@pytest.mark.parametrize("field,value,message", [
    ("tables_referenced", 5, "tables_referenced must be a list of strings"),
    ("tables_referenced", "abc", "tables_referenced must be a list of strings"),
    ("tables_referenced", ["conn.log", 1], "tables_referenced must be a list of strings"),
    ("template_id", 3, "template_id and category must be strings or null"),
    ("category", [1], "template_id and category must be strings or null"),
])
def test_read_corpus_rejects_mistyped_fields(field, value, message):
    good = {"question": "q", "sql": "SELECT 1", "template_id": None, "tables_referenced": [], "category": "x"}
    text = json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n"
    with pytest.raises(TemplateError, match=f"^corpus line 2: {message}$"):
        read_corpus(text)
    assert read_corpus(json.dumps(good) + "\n")[0].category == "x"


def test_manual_pairs_validated(synth_db, tmp_path):
    good = '{"question": "How many sessions are there in total?", "sql": "SELECT COUNT(*) FROM conn.log"}'
    pairs = read_manual_pairs(good + "\n", synth_db)
    assert pairs[0].template_id is None
    assert pairs[0].tables_referenced == frozenset({"conn.log"})
    bad = '{"question": "broken", "sql": "SELECT nope FROM conn.log"}'
    with pytest.raises(ManualPairError):
        read_manual_pairs(bad + "\n", synth_db)
    for bad in ('{"question": "no sql"}', '{"question": 5, "sql": "SELECT 1"}',
                '{"question": "q", "sql": ["SELECT 1"]}'):
        with pytest.raises(ManualPairError, match="^line 1: question and sql must be strings"):
            read_manual_pairs(bad + "\n", synth_db)
    with pytest.raises(ParseError, match="^line 1: expected an object"):
        read_manual_pairs("[1, 2]\n", synth_db)


def test_corpus_stats_reports_both_lengths(synth_db):
    pairs = generate_corpus(synth_db, CorpusConfig(n_pairs=60, seed=5))
    stats = corpus_stats(pairs)
    assert stats["n_pairs"] == 60
    assert stats["question_length"]["min"] >= 5
    assert stats["sql_length"]["avg"] > 0


def test_corpus_readers_split_records_at_newlines_only(synth_db):
    question = "How many sessions\u2028are there in\x85total?"
    line = json.dumps({"question": question, "sql": "SELECT COUNT(*) FROM conn.log"},
                      ensure_ascii=False)
    text = "\n" + line + "\r\n"
    assert [pair.question for pair in read_corpus(text)] == [question]
    assert [pair.question for pair in read_manual_pairs(text, synth_db)] == [question]
    with pytest.raises(TemplateError) as exc:
        read_corpus(text + '{"question": "x"}\n')
    assert "line 3" in str(exc.value)
