import json
import tracemalloc
from datetime import datetime

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from iotsqlbench.ingest import AttackLabel, ConnTable, default_schema
from iotsqlbench.lines import split_lines
from iotsqlbench.modelio import (
    DEFAULT_INSTRUCTION,
    DuplicateId,
    EmptyQuestion,
    MissingId,
    ParseError,
    PredictionRecord,
    _detection_examples,
    bool_to_label,
    build_sql_input,
    label_to_bool,
    read_detection_examples,
    read_jsonl,
    read_predictions,
    read_sql_examples,
    write_detection_examples,
    write_sql_examples,
)
from iotsqlbench.store import linearize_schema
from iotsqlbench.templates import TextSqlPair, pair_to_json, read_corpus
from tests.conftest import ConnRow, text_file

REFERENCE_RECORD = ConnRow(
    ts=datetime(2021, 3, 1, 12, 0, 0),
    uid="CRef01",
    orig_h="192.168.1.1",
    orig_p=80,
    resp_h="192.161.2.2",
    resp_p=8080,
    proto="tcp",
    service="http",
    duration=1.5,
    orig_bytes=100,
    resp_bytes=230,
    conn_state="SF",
    local_orig=True,
    local_resp=False,
    missed_bytes=0,
    history="ShADadFf",
    orig_pkts=4,
    orig_ip_bytes=260,
    resp_pkts=5,
    resp_ip_bytes=430,
    tunnel_parents=None,
    label=AttackLabel.PartOfAHorizontalPortScan,
)


def test_build_sql_input_toy_schema(toy_schema):
    out = build_sql_input("How many sessions?", linearize_schema(toy_schema))
    assert out == "How many sessions? | *, T, c, number"


def test_build_sql_input_contains_all_tokens():
    linearized = linearize_schema(default_schema())
    out = build_sql_input("List everything.", linearized)
    question, _, rest = out.partition(" | ")
    assert question == "List everything."
    tokens = rest.split(", ")
    assert len(tokens) == 359
    assert tokens == list(linearized.tokens)


def test_build_sql_input_empty_question(toy_schema):
    with pytest.raises(EmptyQuestion):
        build_sql_input("", linearize_schema(toy_schema))
    with pytest.raises(EmptyQuestion):
        build_sql_input("   ", linearize_schema(toy_schema))


def _row(record) -> str:
    """The row of ``record``'s detection input, after its instruction."""
    (example,) = _detection_examples(ConnTable.of([record]), "?")
    assert example.input.startswith("? ")
    return example.input[2:]


def test_detection_input_begins_with_instruction_and_ips():
    (example,) = _detection_examples(ConnTable.of([REFERENCE_RECORD]), DEFAULT_INSTRUCTION)
    assert example.input.startswith(
        "Is the following network information Malicious? 192.168.1.1 80 192.161.2.2 8080"
    )
    assert example.gold is True
    assert "\t" not in example.input


def test_detection_row_unset_renders_dashes_fixed_arity():
    record = ConnRow(
        ts=datetime(2021, 3, 1), uid="CDash", orig_h="10.0.0.1", orig_p=1, resp_h="10.0.0.2",
        resp_p=2, proto="udp", service=None, duration=None, orig_bytes=None, resp_bytes=None,
        conn_state="S0", local_orig=None, local_resp=None, missed_bytes=0, history="D",
        orig_pkts=1, orig_ip_bytes=40, resp_pkts=0, resp_ip_bytes=0, tunnel_parents=None,
    )
    fields = _row(record).split(" ")
    assert len(fields) == 19
    assert fields[4:9] == ["udp", "-", "-", "-", "-"]  # service..resp_bytes unset
    assert fields[-1] == "-"


def test_detection_input_differs_iff_values_differ():
    same = REFERENCE_RECORD._replace()
    assert _row(same) == _row(REFERENCE_RECORD)
    changed = REFERENCE_RECORD._replace(resp_bytes=231)
    assert _row(changed) != _row(REFERENCE_RECORD)
    # ts and uid are not part of the row
    shifted = REFERENCE_RECORD._replace(uid="COther", ts=datetime(2022, 1, 1))
    assert _row(shifted) == _row(REFERENCE_RECORD)


def test_detection_row_stable_across_calls():
    assert _row(REFERENCE_RECORD) == _row(REFERENCE_RECORD)


def test_label_normalization_both_directions():
    assert label_to_bool("Malicious") is True
    assert label_to_bool("malicious") is True
    assert label_to_bool(" BENIGN ") is False
    assert bool_to_label(True) == "Malicious"
    assert bool_to_label(False) == "Benign"
    assert label_to_bool(bool_to_label(True)) is True
    assert label_to_bool(bool_to_label(False)) is False
    with pytest.raises(ParseError):
        label_to_bool("maybe")


def test_read_predictions_well_formed(tmp_path):
    text = "\n".join(
        '{"id": "p%d", "payload": "SELECT 1"}' % i for i in range(3)
    )
    records = read_predictions(text_file(tmp_path, text + "\n"), kind="sql")
    assert len(records) == 3
    assert records[0].id == "p0"


def test_read_predictions_duplicate_id(tmp_path):
    text = '{"id": "a", "payload": "x"}\n{"id": "a", "payload": "y"}\n'
    with pytest.raises(DuplicateId):
        read_predictions(text_file(tmp_path, text), kind="sql")


def test_read_predictions_missing_id(tmp_path):
    with pytest.raises(MissingId):
        read_predictions(text_file(tmp_path, '{"payload": "x"}\n'), kind="sql")


def test_read_predictions_bad_json_and_label(tmp_path):
    with pytest.raises(ParseError):
        read_predictions(text_file(tmp_path, "not json\n"), kind="sql")
    with pytest.raises(ParseError):
        read_predictions(text_file(tmp_path, '{"id": "a", "payload": "Sus"}\n'), kind="detection")
    ok = read_predictions(text_file(tmp_path, '{"id": "a", "payload": "benign"}\n'), kind="detection")
    assert label_to_bool(ok[0].payload) is False


@pytest.mark.parametrize("read", [read_sql_examples, read_detection_examples, read_predictions, read_corpus])
def test_an_integer_of_too_many_digits_is_bad_json_naming_its_line(tmp_path, read):
    # json.loads raises ValueError, not JSONDecodeError, past int's digit limit
    text = '\n{"id": %s, "payload": "x"}\n' % ("9" * 5000)
    with pytest.raises(ParseError, match=r"^line 2: bad json \(Exceeds the limit"):
        read(text_file(tmp_path, text))


def _written_inputs(path) -> list[str]:
    """Each line's input as the examples file at ``path`` holds it."""
    return [obj["input"] for _, obj in read_jsonl(path)]


def test_examples_round_trip(tmp_path, synth_data):
    pairs = [
        TextSqlPair(question="How many rows are in the table?", sql="SELECT COUNT(*) FROM conn.log"),
        TextSqlPair(question="Show every protocol value.", sql="SELECT proto FROM conn.log"),
    ]
    sql_path = tmp_path / "sql.jsonl"
    schema = default_schema()
    written = write_sql_examples(pairs, schema, sql_path)
    again = read_sql_examples(sql_path)
    assert again == written
    assert [(ex.id, ex.gold_sql) for ex in again] == [("sql-000000", pairs[0].sql), ("sql-000001", pairs[1].sql)]
    assert _written_inputs(sql_path) == [build_sql_input(p.question, linearize_schema(schema)) for p in pairs]

    det_path = tmp_path / "det.jsonl"
    records = synth_data["conn"].take(list(range(20)))
    examples = write_detection_examples(records, det_path)
    back = read_detection_examples(det_path)
    assert [e.id for e in back] == [e.id for e in examples]
    assert [e.gold for e in back] == [e.gold for e in examples]
    assert [e.input for e in back] == [e.input for e in examples]


def test_readers_take_a_str_as_the_path_of_a_file(tmp_path):
    pairs = [TextSqlPair(question="How many rows?", sql="SELECT COUNT(*) FROM conn.log")]
    sql_path = tmp_path / "sql.jsonl"
    written = write_sql_examples(pairs, default_schema(), sql_path)
    assert read_sql_examples(str(sql_path)) == written
    assert _written_inputs(str(sql_path)) == [build_sql_input("How many rows?", linearize_schema(default_schema()))]
    corpus_path = text_file(tmp_path, "".join(pair_to_json(p) + "\n" for p in pairs))
    assert read_corpus(str(corpus_path)) == pairs
    preds_path = text_file(tmp_path, '{"id": "a", "payload": "SELECT 1"}\n')
    assert read_predictions(str(preds_path), kind="sql") == [PredictionRecord("a", "SELECT 1")]
    # a str is never read as the records themselves
    with pytest.raises(FileNotFoundError):
        read_predictions('{"id": "a", "payload": "SELECT 1"}', kind="sql")


# ---------------------------------------------------------------------------
# detection examples against a per-value reference renderer

_DETECTION_NAMES = (
    "orig_h", "orig_p", "resp_h", "resp_p", "proto", "service", "duration", "orig_bytes",
    "resp_bytes", "conn_state", "local_orig", "local_resp", "missed_bytes", "history",
    "orig_pkts", "orig_ip_bytes", "resp_pkts", "resp_ip_bytes", "tunnel_parents",
)


def _reference_value(value) -> str:
    if value is None:
        return "-"
    if value == "" and isinstance(value, str):
        return "(empty)"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _reference_line(record, instruction) -> str:
    row = " ".join(_reference_value(getattr(record, name)) for name in _DETECTION_NAMES)
    return json.dumps(
        {"id": record.uid, "input": f"{instruction} {row}",
         "gold": "Malicious" if record.label.is_malicious else "Benign"},
        ensure_ascii=False, sort_keys=True,
    ) + "\n"


def _detection_records():
    base = REFERENCE_RECORD
    return [
        base,
        base._replace(uid="CRef02", service=None, duration=None, orig_bytes=None,
                      resp_bytes=None, local_orig=None, local_resp=None,
                      label=AttackLabel.Benign),
        base._replace(uid="CRef03", service="", history="", tunnel_parents="",
                      local_orig=False, local_resp=True, duration=0.0),
        base._replace(uid="CRef04", history="Séü", tunnel_parents="CTun1,CTun2",
                      duration=12345.6789, orig_p=0, resp_p=65535),
    ]


@pytest.mark.parametrize("pick", [slice(None), slice(0, 1), slice(1, 2), slice(2, 3),
                                  slice(3, 4), slice(0, 0), slice(1, None)])
def test_write_detection_examples_matches_per_value_reference(tmp_path, pick):
    records = _detection_records()[pick]
    instruction = "Is this one Malicious?"
    path = tmp_path / "det.jsonl"
    examples = write_detection_examples(ConnTable.of(records), path, instruction=instruction)
    expected = "".join(_reference_line(record, instruction) for record in records)
    assert path.read_bytes() == expected.encode("utf-8")
    assert [ex.id for ex in examples] == [record.uid for record in records]
    assert [ex.gold for ex in examples] == [record.label.is_malicious for record in records]
    for record, example in zip(records, examples):
        assert [example] == _detection_examples(ConnTable.of([record]), instruction)
        assert json.loads(_reference_line(record, instruction))["input"] == example.input


def test_write_detection_examples_default_instruction_matches_reference(tmp_path):
    records = _detection_records()
    path = tmp_path / "det.jsonl"
    examples = write_detection_examples(ConnTable.of(records), path)
    assert len(examples) == len(records)
    assert path.read_text(encoding="utf-8") == "".join(
        _reference_line(record, "Is the following network information Malicious?")
        for record in records)


def test_write_detection_examples_bytes_match_the_json_encoder(tmp_path):
    # quotes, backslashes, control characters and non-ASCII text in every
    # string the writer escapes: id, instruction and row
    odd = 'q"b\\s\x00\x1f\t\n\u2028é✓'
    records = [REFERENCE_RECORD._replace(uid=f"C{odd}{i}", history=odd,
                                         service=odd[:i], label=label)
               for i, label in enumerate([AttackLabel.Benign, AttackLabel.Okiru, AttackLabel.CandC])]
    instruction = f"Is {odd} Malicious?"
    path = tmp_path / "det.jsonl"
    examples = write_detection_examples(ConnTable.of(records), path, instruction=instruction)
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    expected = "".join(encode({"id": ex.id, "input": ex.input, "gold": bool_to_label(ex.gold)}) + "\n"
                       for ex in examples)
    assert path.read_bytes() == expected.encode("utf-8")
    # split at "\n" only: the encoder leaves U+2028 unescaped
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    assert [json.loads(line)["id"] for line in lines] == [record.uid for record in records]


def test_detection_examples_round_trip_a_row_holding_line_separators(tmp_path):
    # json leaves U+2028, U+2029 and U+0085 unescaped; each record still
    # ends at its "\n"
    records = [REFERENCE_RECORD._replace(uid=f"CSep{i}", history=f"Sh{sep}Ad")
               for i, sep in enumerate(["\u2028", "\u2029", "\x85"])]
    path = tmp_path / "det.jsonl"
    examples = write_detection_examples(ConnTable.of(records), path)
    assert read_detection_examples(path) == examples
    crlf = path.read_text(encoding="utf-8").replace("\n", "\r\n")
    assert read_detection_examples(text_file(tmp_path, "\n" + crlf)) == examples


# ---------------------------------------------------------------------------
# a file is read one line at a time from its bytes, by the rule of its text

_IN_TMP = settings(max_examples=60, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])

# JSON whitespace between tokens: none, spaces, or a lone "\r"
_SEPARATORS = [(",", ":"), (", ", ": "), (",\r", ":\r"), ("\r,", "\r:\r ")]


@st.composite
def _jsonl_files(draw) -> str:
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 3)) == 0:
            line = draw(st.sampled_from(["", " ", "\t", " \r ", "\u3000"]))
        else:
            obj = draw(st.dictionaries(st.text(max_size=4), st.one_of(
                st.none(), st.booleans(), st.integers(), st.text()), max_size=3))
            line = json.dumps(obj, ensure_ascii=False, separators=draw(st.sampled_from(_SEPARATORS)))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    text = "".join(lines)
    return text.removesuffix(draw(st.sampled_from(["", "\n"])))


@_IN_TMP
@given(_jsonl_files())
def test_read_jsonl_of_a_file_equals_read_jsonl_of_its_text(tmp_path, text):
    path = tmp_path / "any.jsonl"
    path.write_bytes(text.encode("utf-8"))
    lines = enumerate(split_lines(path.read_bytes().decode("utf-8")), start=1)
    assert list(read_jsonl(path)) == [(n, json.loads(line)) for n, line in lines if line.strip()]


def test_reading_examples_holds_one_line_of_the_file_at_a_time(tmp_path):
    path = tmp_path / "sql.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(2000):
            fh.write(json.dumps({"id": f"sql-{i:06d}", "input": f"{i} " + "é" * 1500,
                                 "gold_sql": "SELECT 1"}, ensure_ascii=False) + "\n")
    assert path.stat().st_size > 2000 * 3000
    tracemalloc.start()
    try:
        examples = read_sql_examples(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(examples) == 2000
    # the whole text, or a list of its lines, would each add about 6 MB
    assert peak - kept < 1 << 20
    # and so would the inputs: an example keeps its id and gold SQL alone
    assert kept < 1 << 20


# model inputs read back from their file as written, over every value the
# writers accept (README): any instruction, and a nonempty question
_QUESTIONS = st.text(min_size=1).filter(str.strip)


@_IN_TMP
@given(st.lists(st.tuples(_QUESTIONS, st.text()), max_size=5), st.text())
def test_sql_examples_read_back_from_their_file(tmp_path, drawn, separator):
    pairs = [TextSqlPair(question=question, sql=sql) for question, sql in drawn]
    path = tmp_path / "sql.jsonl"
    written = write_sql_examples(pairs, default_schema(), path, separator=separator)
    assert read_sql_examples(path) == written
    assert [ex.gold_sql for ex in written] == [sql for _, sql in drawn]
    linearized = linearize_schema(default_schema())
    assert _written_inputs(path) == [build_sql_input(q, linearized, separator=separator) for q, _ in drawn]


@_IN_TMP
@given(st.lists(st.tuples(st.text(), st.text(), st.booleans()), max_size=5), st.text())
@example(drawn=[("C1", "Sh", True), ("C2", "", False)], instruction="Is it? Or is it?")
@example(drawn=[("C1", "Sh", True)], instruction="No question here")
def test_detection_examples_read_back_from_their_file(tmp_path, drawn, instruction):
    records = [REFERENCE_RECORD._replace(uid=uid, history=history,
                                         label=AttackLabel.Okiru if malicious else AttackLabel.Benign)
               for uid, history, malicious in drawn]
    path = tmp_path / "det.jsonl"
    written = write_detection_examples(ConnTable.of(records), path, instruction=instruction)
    if len({record.uid for record in records}) < len(records):
        with pytest.raises(DuplicateId):
            read_detection_examples(path)
    else:
        assert read_detection_examples(path) == written


@_IN_TMP
@given(st.dictionaries(st.text(), st.text(), max_size=5))
def test_predictions_read_back_from_their_file(tmp_path, payloads):
    records = [PredictionRecord(id=item_id, payload=payload) for item_id, payload in payloads.items()]
    path = tmp_path / "preds.jsonl"
    path.write_text("".join(json.dumps({"id": rec.id, "payload": rec.payload}, ensure_ascii=False) + "\n"
                            for rec in records), encoding="utf-8")
    assert read_predictions(path, kind="sql") == records
