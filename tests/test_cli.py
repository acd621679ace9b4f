import hashlib
import json
from pathlib import Path

from iotsqlbench.cli import main

SMALL = [
    "--set", "synth.conn=250", "--set", "synth.dns=60", "--set", "synth.http=40",
    "--set", "synth.files=30", "--set", "synth.ntp=25", "--set", "synth.weird=20",
    "--set", "synth.sensors=40", "--set", "synth.devices=8",
    "--set", "corpus.n_pairs=120",
]


def run(args):
    return main([str(a) for a in args])


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def run_pipeline(out: Path, seed: int = 7):
    base = ["--seed", seed, "--out", out, *SMALL]
    assert run(base + ["synth"]) == 0
    assert run(base + ["gen-pairs", "--db", out / "synth"]) == 0
    assert run(base + ["split", "--corpus", out / "corpus/corpus.jsonl", "--db", out / "synth"]) == 0
    assert run(base + [
        "emit",
        "--corpus", out / "corpus/corpus.jsonl",
        "--pairs-manifest", out / "splits/pairs_manifest.txt",
        "--anonymized", out / "splits/conn.anonymized.tsv",
        "--network-manifest", out / "splits/network_manifest.txt",
    ]) == 0


def test_full_pipeline_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_pipeline(a)
    run_pipeline(b)
    assert tree_digest(a) == tree_digest(b)


def test_eval_sql_round_trip_and_exit_codes(tmp_path):
    out = tmp_path / "run"
    run_pipeline(out)
    examples = out / "model_io/sql_test.jsonl"
    preds = tmp_path / "preds.jsonl"
    lines = []
    for line in examples.read_text().splitlines():
        obj = json.loads(line)
        lines.append(json.dumps({"id": obj["id"], "payload": obj["gold_sql"]}))
    preds.write_text("\n".join(lines) + "\n")
    assert run(["--out", out, "eval-sql", "--db", out / "synth",
                "--examples", examples, "--predictions", preds]) == 0
    report = json.loads((out / "eval/sql_report.json").read_text())
    assert report["execution_acc"] == 1.0 and report["logical_acc"] == 1.0

    # a missing id is a data error: exit 1
    preds.write_text("\n".join(lines[:-1]) + "\n")
    assert run(["--out", out, "eval-sql", "--db", out / "synth",
                "--examples", examples, "--predictions", preds]) == 1


def test_eval_sql_gold_execution_error_exits_nonzero(tmp_path):
    out = tmp_path / "run"
    run_pipeline(out)
    examples = tmp_path / "broken.jsonl"
    examples.write_text(
        '{"id": "g0", "input": "q", "gold_sql": "SELECT nothing FROM nowhere"}\n'
    )
    preds = tmp_path / "p.jsonl"
    preds.write_text('{"id": "g0", "payload": "SELECT 1"}\n')
    assert run(["--out", out, "eval-sql", "--db", out / "synth",
                "--examples", examples, "--predictions", preds]) == 1


def test_eval_sql_timeout_must_be_finite_and_positive(tmp_path):
    out = tmp_path / "run"
    run_pipeline(out)
    examples = out / "model_io/sql_test.jsonl"
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(
        json.dumps({"id": json.loads(line)["id"], "payload": "SELECT 1"}) + "\n"
        for line in examples.read_text().splitlines()
    ))
    args = ["eval-sql", "--db", out / "synth", "--examples", examples, "--predictions", preds]
    # a NaN deadline never passes and one at or before the start fails every
    # gold query: both are configuration errors, as is an unbounded budget
    for bad in ("nan", "inf", "-inf", "0", "-1"):
        assert run(["--out", out, "--set", f"eval.timeout={bad}", *args]) == 2, bad
        assert not (out / "eval/sql_report.json").exists()
    assert run(["--out", out, "--set", "eval.timeout=2.5", *args]) == 0
    report = json.loads((out / "eval/sql_report.json").read_text())
    assert report["policy"]["prediction_timeout_seconds"] == 2.5


def test_eval_detect_round_trip(tmp_path):
    out = tmp_path / "run"
    run_pipeline(out)
    examples = out / "model_io/detect_dev.jsonl"
    preds = tmp_path / "dpreds.jsonl"
    lines = []
    for line in examples.read_text().splitlines():
        obj = json.loads(line)
        lines.append(json.dumps({"id": obj["id"], "payload": obj["gold"]}))
    preds.write_text("\n".join(lines) + "\n")
    assert run(["--out", out, "eval-detect", "--examples", examples, "--predictions", preds]) == 0
    report = json.loads((out / "eval/detect_report.json").read_text())
    assert report["macro_f1"] == 1.0


def test_baseline_command(tmp_path):
    out = tmp_path / "run"
    run_pipeline(out)
    assert run(["--seed", 7, "--out", out, "--set", "baseline.n_trees=10", "baseline",
                "--anonymized", out / "splits/conn.anonymized.tsv",
                "--network-manifest", out / "splits/network_manifest.txt"]) == 0
    assert (out / "baseline/model.json").exists()
    assert (out / "baseline/report_test.json").exists()


def test_baseline_svm_writes_training_log(tmp_path):
    out = tmp_path / "run"
    run_pipeline(out)
    assert run(["--seed", 7, "--out", out,
                "--set", "baseline.kind=linear_svm", "--set", "baseline.svm_epochs=4",
                "baseline",
                "--anonymized", out / "splits/conn.anonymized.tsv",
                "--network-manifest", out / "splits/network_manifest.txt"]) == 0
    log = (out / "baseline/svm_training.log").read_text().splitlines()
    assert len(log) == 4
    assert log[0].startswith("epoch 1: loss ")


def test_config_error_exit_code(tmp_path):
    assert run(["--out", tmp_path / "x", "--set", "no.such.key=1", "synth"]) == 2
    assert run(["--out", tmp_path / "x", "--set", "synth.conn=notanumber", "synth"]) == 2


def test_data_error_exit_code(tmp_path):
    out = tmp_path / "run"
    (tmp_path / "empty").mkdir()
    assert run(["--out", out, "ingest", "--logs", tmp_path / "empty"]) == 1


def test_lock_file(tmp_path):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").touch()
    assert run(["--out", out, *SMALL, "synth"]) == 2
    (out / ".lock").unlink()
    assert run(["--out", out, *SMALL, "synth"]) == 0
    assert not (out / ".lock").exists()


def test_run_manifest_written(tmp_path):
    out = tmp_path / "run"
    base = ["--seed", 3, "--out", out, *SMALL]
    assert run(base + ["synth"]) == 0
    manifest = json.loads((out / "run-synth.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 3
    assert len(manifest["config_hash"]) == 64
    for rel, digest in manifest["artifacts"].items():
        actual = hashlib.sha256((out / rel).read_bytes()).hexdigest()
        assert actual == digest


def test_ingest_normalizes_logs(tmp_path):
    out = tmp_path / "run"
    base = ["--seed", 5, "--out", out, *SMALL]
    assert run(base + ["synth"]) == 0
    out2 = tmp_path / "run2"
    assert run(["--seed", 5, "--out", out2, "ingest", "--logs", out / "synth"]) == 0
    # normalized copy parses to the same records
    a = (out / "synth/conn.log.tsv").read_bytes()
    b = (out2 / "db/conn.log.tsv").read_bytes()
    assert a == b


def test_config_command_prints_documentation(capsys):
    assert run(["config"]) == 0
    captured = capsys.readouterr()
    assert "corpus.n_pairs" in captured.out
    assert "split.train_attacks" in captured.out


def test_gen_pairs_parses_no_sql_after_generation(tmp_path, monkeypatch):
    from iotsqlbench import templates
    from iotsqlbench.store import sql as _sql

    out = tmp_path / "run"
    base = ["--out", out, *SMALL]
    assert run(base + ["synth"]) == 0
    real_generate, real_parse = templates.generate_corpus, _sql.parse
    generated, late = [], []

    def generate_corpus(*args, **kwargs):
        generated.extend(real_generate(*args, **kwargs))
        return generated

    def parse(sql):
        if generated:
            late.append(sql)
        return real_parse(sql)

    monkeypatch.setattr(templates, "generate_corpus", generate_corpus)
    monkeypatch.setattr(_sql, "parse", parse)
    assert run(base + ["gen-pairs", "--db", out / "synth"]) == 0
    assert len(generated) == 120
    assert late == []  # stats.json comes from the pairs' recorded classification
    stats = json.loads((out / "corpus/stats.json").read_text())
    assert stats["temporal_pairs"] == sum(p.temporal for p in generated) > 0


def _network_split(out: Path) -> list[str]:
    """synth then split --db; the emit arguments for the network split."""
    base = ["--seed", 7, "--out", out, *SMALL]
    assert run(base + ["synth"]) == 0
    assert run(base + ["split", "--db", out / "synth"]) == 0
    return ["--anonymized", out / "splits/conn.anonymized.tsv",
            "--network-manifest", out / "splits/network_manifest.txt"]


def test_emit_and_baseline_reject_malformed_anonymized_lines(tmp_path, capsys):
    out = tmp_path / "run"
    network = _network_split(out)
    anonymized = out / "splits/conn.anonymized.tsv"
    lines = anonymized.read_text(encoding="utf-8").splitlines(keepends=True)
    first_data = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    first_bad, second_bad = first_data + 3, first_data + 7  # 0-based
    for i in (first_bad, second_bad):
        parts = lines[i].split("\t")
        parts[3] = "70000"  # orig_p out of range
        lines[i] = "\t".join(parts)
    anonymized.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run(["--out", tmp_path / "emit", "emit", *network]) == 1
    err = capsys.readouterr().err
    assert f"conn.anonymized.tsv:{first_bad + 1}:" in err and "orig_p out of range" in err
    assert not (tmp_path / "emit/model_io").exists()
    assert run(["--out", tmp_path / "base", "--set", "baseline.n_trees=2", "baseline", *network]) == 1
    assert f"conn.anonymized.tsv:{first_bad + 1}:" in capsys.readouterr().err


def test_gen_pairs_and_eval_sql_reject_malformed_db_lines(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["--out", out, *SMALL, "synth"]) == 0
    conn = out / "synth/conn.log.tsv"
    lines = conn.read_text(encoding="utf-8").splitlines(keepends=True)
    bad = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 2  # 0-based
    parts = lines[bad].split("\t")
    parts[3] = "70000"  # orig_p out of range
    lines[bad] = "\t".join(parts)
    conn.write_text("".join(lines), encoding="utf-8")
    examples = tmp_path / "examples.jsonl"
    examples.write_text('{"id": "g0", "input": "q", "gold_sql": "SELECT 1"}\n')
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"id": "g0", "payload": "SELECT 1"}\n')
    capsys.readouterr()
    assert run(["--out", tmp_path / "gen", *SMALL, "gen-pairs", "--db", out / "synth"]) == 1
    err = capsys.readouterr().err
    assert f"conn.log.tsv:{bad + 1}:" in err and "orig_p out of range" in err
    assert not (tmp_path / "gen/corpus").exists()
    assert run(["--out", tmp_path / "eval", "eval-sql", "--db", out / "synth",
                "--examples", examples, "--predictions", preds]) == 1
    assert f"conn.log.tsv:{bad + 1}:" in capsys.readouterr().err
    assert not (tmp_path / "eval/eval").exists()


def test_emit_and_baseline_reject_manifest_uid_missing_from_anonymized(tmp_path, capsys):
    out = tmp_path / "run"
    network = _network_split(out)
    anonymized = out / "splits/conn.anonymized.tsv"
    manifest = (out / "splits/network_manifest.txt").read_text(encoding="utf-8").splitlines()
    first_uid = manifest[1].split("\t")[0]
    later_uid = manifest[5].split("\t")[0]
    kept = [line for line in anonymized.read_text(encoding="utf-8").splitlines(keepends=True)
            if line.split("\t")[1:2] not in ([first_uid], [later_uid])]
    anonymized.write_text("".join(kept), encoding="utf-8")
    capsys.readouterr()
    assert run(["--out", tmp_path / "emit", "emit", *network]) == 1
    err = capsys.readouterr().err
    assert repr(first_uid) in err and repr(later_uid) not in err
    assert run(["--out", tmp_path / "base", "--set", "baseline.n_trees=2", "baseline", *network]) == 1
    assert repr(first_uid) in capsys.readouterr().err


def test_emit_writes_every_manifest_record(tmp_path):
    out = tmp_path / "run"
    network = _network_split(out)
    assert run(["--out", out, "emit", *network]) == 0
    manifest = (out / "splits/network_manifest.txt").read_text(encoding="utf-8").splitlines()[1:]
    emitted = sum(len((out / f"model_io/detect_{split}.jsonl").read_text().splitlines())
                  for split in ("train", "dev", "test"))
    assert emitted == len(manifest) > 0


def test_split_db_reads_only_the_conn_log(tmp_path):
    clean, other = tmp_path / "clean", tmp_path / "other"
    _network_split(clean)
    base = ["--seed", 7, "--out", other, *SMALL]
    assert run(base + ["synth"]) == 0
    (other / "synth/dns.log.tsv").write_text("not a zeek log\n", encoding="utf-8")
    (other / "synth/schema.txt").unlink()
    assert run(base + ["split", "--db", other / "synth"]) == 0
    for name in ("network_manifest.txt", "conn.anonymized.tsv", "private_anonymization_maps.json"):
        assert (other / "splits" / name).read_bytes() == (clean / "splits" / name).read_bytes()
    (other / "synth/conn.log.tsv").unlink()
    assert run(["--out", tmp_path / "none", "split", "--db", other / "synth"]) == 1


def test_split_db_rejects_malformed_conn_lines(tmp_path, capsys):
    out = tmp_path / "run"
    base = ["--seed", 7, "--out", out, *SMALL, "--set", "synth.conn=200"]
    assert run(base + ["synth"]) == 0
    conn_log = out / "synth/conn.log.tsv"
    lines = conn_log.read_text(encoding="utf-8").splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    assert len(data) == 200
    bad = data[120]  # 0-based
    parts = lines[bad].split("\t")
    parts[3] = "70000"  # orig_p out of range
    lines[bad] = "\t".join(parts)
    conn_log.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run(base + ["split", "--db", out / "synth"]) == 1
    err = capsys.readouterr().err
    assert f"conn.log.tsv:{bad + 1}:" in err and "orig_p out of range" in err
    assert not (out / "splits").exists()


def test_split_db_stops_with_a_data_error_on_a_value_the_zeek_writer_refuses(tmp_path, capsys):
    # under "#unset_field NULL" a "-" history is read as the string "-", which
    # the anonymized log written as Zeek TSV would read back as unset
    out = tmp_path / "run"
    base = ["--seed", 7, "--out", out, *SMALL, "--set", "synth.conn=200"]
    assert run(base + ["synth"]) == 0
    conn_log = out / "synth/conn.log.tsv"
    lines = conn_log.read_text(encoding="utf-8").splitlines()
    names = next(line for line in lines if line.startswith("#fields")).split("\t")[1:]
    for i, line in enumerate(lines):
        if line.startswith("#unset_field"):
            lines[i] = "#unset_field\tNULL"
        elif not line.startswith("#"):
            lines[i] = "\t".join("NULL" if value == "-" else value for value in line.split("\t"))
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    parts = lines[data[5]].split("\t")
    parts[names.index("history")] = "-"
    lines[data[5]] = "\t".join(parts)
    conn_log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(base + ["split", "--db", out / "synth"]) == 1
    err = capsys.readouterr().err
    assert "history: the Zeek reader would misread '-'" in err


def test_eval_sql_scores_several_files_on_one_database_load(tmp_path, count_executes):
    out = tmp_path / "run"
    run_pipeline(out)
    examples = out / "model_io/sql_test.jsonl"
    objs = [json.loads(line) for line in examples.read_text().splitlines()]
    golds = {obj["gold_sql"] for obj in objs}
    files = []
    for name, payload in (("echo", lambda o: o["gold_sql"]), ("lower", lambda o: o["gold_sql"].lower())):
        path = tmp_path / name / f"{name}.jsonl"
        path.parent.mkdir()
        path.write_text("".join(json.dumps({"id": o["id"], "payload": payload(o)}) + "\n" for o in objs))
        files.append(path)
    for path in files:
        alone = tmp_path / f"alone_{path.stem}"
        assert run(["--out", alone, "eval-sql", "--db", out / "synth",
                    "--examples", examples, "--predictions", path]) == 0

    calls = count_executes()
    both = tmp_path / "both"
    assert run(["--out", both, "eval-sql", "--db", out / "synth",
                "--examples", examples, "--predictions", *files]) == 0
    # each distinct gold text runs once for both files
    assert sorted(sql for sql in calls if sql in golds) == sorted(golds)
    for path in files:
        for ext in ("json", "txt"):
            got = (both / f"eval/{path.stem}/sql_report.{ext}").read_bytes()
            assert got == (tmp_path / f"alone_{path.stem}/eval/sql_report.{ext}").read_bytes()
    manifest = json.loads((both / "run-eval-sql.json").read_text())
    assert manifest["inputs"]["predictions"] == [str(p) for p in files]
    assert sorted(manifest["artifacts"]) == [
        f"eval/{p.stem}/sql_report.{ext}" for p in files for ext in ("json", "txt")
    ]

    # two files with one name would write one report directory: exit 2
    twin = tmp_path / "twin" / "echo.jsonl"
    twin.parent.mkdir()
    twin.write_bytes(files[0].read_bytes())
    assert run(["--out", tmp_path / "twins", "eval-sql", "--db", out / "synth",
                "--examples", examples, "--predictions", files[0], twin]) == 2
    assert not (tmp_path / "twins" / "eval").exists()


def test_malformed_device_manifest_and_corpus_lines_exit_1(tmp_path, capsys):
    out = tmp_path / "run"
    network = _network_split(out)
    devices = out / "synth/devices.csv"
    lines = devices.read_text(encoding="utf-8").split("\n")
    lines[2] = "D0099,two-values"
    devices.write_text("\n".join(lines), encoding="utf-8")
    examples = tmp_path / "examples.jsonl"
    examples.write_text('{"id": "g0", "input": "q", "gold_sql": "SELECT 1"}\n')
    capsys.readouterr()
    for stage in (["ingest", "--logs"], ["gen-pairs", "--db"],
                  ["eval-sql", "--examples", examples, "--predictions", examples, "--db"]):
        assert run(["--out", tmp_path / stage[0], *SMALL, *stage, out / "synth"]) == 1
        assert "devices line 3: expected 16 values, got 2" in capsys.readouterr().err
    manifest = out / "splits/network_manifest.txt"
    good = manifest.read_text(encoding="utf-8").split("\n")
    for line_no, bad in ((1, "# {not json"), (4, "C-no-tab"), (5, "C1\ttrain\textra")):
        lines = list(good)
        lines[line_no - 1] = bad
        manifest.write_text("\n".join(lines), encoding="utf-8")
        for stage in ("emit", "baseline"):
            assert run(["--out", tmp_path / stage, stage, *network]) == 1
            assert f"manifest line {line_no}:" in capsys.readouterr().err
    corpus = tmp_path / "corpus.jsonl"
    for bad, message in (('{"question": 5, "sql": "SELECT 1"}',
                          "corpus line 2: question and sql must be strings"),
                         ('{"question": "q", "sql": "SELECT 1", "tables_referenced": 5}',
                          "corpus line 2: tables_referenced must be a list of strings"),
                         ('{"question": "q", "sql": "SELECT 1", "category": [1]}',
                          "corpus line 2: template_id and category must be strings or null"),
                         ("[1, 2]", "line 2: expected an object")):
        corpus.write_text('{"question": "q", "sql": "SELECT 1"}\n' + bad + "\n", encoding="utf-8")
        assert run(["--out", tmp_path / "split", "split", "--corpus", corpus]) == 1
        assert message in capsys.readouterr().err
