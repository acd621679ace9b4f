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
