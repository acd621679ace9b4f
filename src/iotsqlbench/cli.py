"""Command-line pipeline: synth | ingest | gen-pairs | split | emit |
eval-sql | eval-detect | baseline.

Every stage writes its artifacts under the output directory plus a run
manifest (config hash, inputs, artifact digests).  Stages are pure
functions of (config, seed, inputs): reruns produce byte-identical trees.
Exit codes: 0 success, 1 data error, 2 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from itertools import zip_longest
from pathlib import Path

from . import baselines, evaluation, modelio, splitter, templates
from .config import ConfigError, RunConfig, default_config_text
from .ingest import (
    SENSOR_TYPES,
    TABLE_FOR_KIND,
    ZEEK_KINDS,
    BadDirective,
    IngestError,
    SynthSpec,
    default_schema,
    ingest_sensors,
    parse_devices,
    parse_zeek,
    rows_for_table,
    serialize_devices,
    serialize_sensors,
    serialize_zeek,
    synthesize_logs,
)
from .lines import NotUtf8, read_text, split_lines
from .store import Database, SchemaError, StoreError, dump_schema_text

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2

DATA_ERRORS = (
    IngestError,
    StoreError,
    SchemaError,
    templates.TemplateError,
    splitter.SplitError,
    modelio.ModelIOError,
    evaluation.EvalError,
    baselines.BaselineError,
    baselines.FeatureError,
    baselines.ModelFileError,
    NotUtf8,
)


class OutputLock:
    """One run owns an output directory at a time."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"output dir is locked by another run (remove {self.path} if stale)"
            ) from None
        os.close(fd)
        return self

    def __exit__(self, *exc):
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        return False


class ArtifactWriter:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.artifacts: dict[str, str] = {}

    def write(self, rel: str, text: str) -> Path:
        path = self.out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        data = text.encode("utf-8")
        path.write_bytes(data)
        self.artifacts[rel] = hashlib.sha256(data).hexdigest()
        return path

    def write_with(self, rel: str, write) -> None:
        """Let ``write(path)`` write the artifact ``rel``; record its digest."""
        path = self.out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
        self.artifacts[rel] = hashlib.sha256(path.read_bytes()).hexdigest()

    def _portable(self, value) -> str:
        # inputs inside the output dir are recorded relative to it, so a
        # rerun rooted elsewhere produces the same manifest bytes
        try:
            rel = Path(value).resolve().relative_to(self.out_dir.resolve())
            return f"out:{rel}"
        except (ValueError, OSError):
            return str(value)

    def manifest(self, command: str, cfg: RunConfig, inputs: dict) -> None:
        payload = {
            "command": command,
            "config_hash": cfg.config_hash(),
            "seed": cfg.get_int("seed"),
            "inputs": {
                k: [self._portable(x) for x in v] if isinstance(v, list) else self._portable(v)
                for k, v in sorted(inputs.items())
            },
            "artifacts": dict(sorted(self.artifacts.items())),
        }
        rel = f"run-{command}.json"
        path = self.out_dir / rel
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# database directory: schema.txt + normalized per-table logs


def write_db_dir(writer: ArtifactWriter, rel_dir: str, schema, data: dict) -> None:
    writer.write(f"{rel_dir}/schema.txt", dump_schema_text(schema))
    for kind in ZEEK_KINDS:
        if data.get(kind):
            writer.write(f"{rel_dir}/{kind}.log.tsv", serialize_zeek(data[kind], kind))
    for sensor in SENSOR_TYPES:
        if data.get(sensor):
            writer.write(f"{rel_dir}/{sensor}.csv", serialize_sensors(data[sensor]))
    if data.get("devices"):
        writer.write(f"{rel_dir}/devices.csv", serialize_devices(data["devices"]))


def _zeek_log(path: Path, kind: str) -> Path | None:
    """The log of ``kind`` in a directory: the first of ``<kind>.log.tsv``,
    ``<kind>.log`` and ``<kind>.log.labeled`` that exists, else None."""
    for name in (f"{kind}.log.tsv", f"{kind}.log", f"{kind}.log.labeled"):
        candidate = path / name
        if candidate.exists():
            return candidate
    return None


def _parse_zeek_file(path: Path, kind: str):
    """``parse_zeek`` of a log file; a bad directive, a missing ``#fields``
    or a byte that is not UTF-8 is an error naming ``<file>:<line>`` as a
    malformed line is (``<file>`` alone when the log has no ``#fields`` at
    all)."""
    try:
        return parse_zeek(read_text(path), kind)
    except BadDirective as exc:
        where = path if exc.line_no is None else f"{path}:{exc.line_no}"
        raise IngestError(f"{where}: {exc.message}") from exc


def read_logs_dir(path: Path) -> tuple[dict, list]:
    """Parse every recognized log file in a directory: (records per kind,
    ``(<file>:<line>, message)`` for each malformed Zeek line)."""
    data: dict = {}
    issues = []
    for kind in ZEEK_KINDS:
        candidate = _zeek_log(path, kind)
        if candidate is not None:
            result = _parse_zeek_file(candidate, kind)
            data[kind] = result.records
            issues.extend((f"{candidate.name}:{i.line_no}", i.message) for i in result.issues)
    for sensor in SENSOR_TYPES:
        candidate = path / f"{sensor}.csv"
        if candidate.exists():
            data[sensor] = ingest_sensors(read_text(candidate), sensor)
    candidate = path / "devices.csv"
    if candidate.exists():
        data["devices"] = parse_devices(read_text(candidate))
    if not data:
        raise IngestError(f"no recognizable log files under {path}")
    return data, issues


def build_database(schema, data: dict) -> Database:
    """A database of ``data``: each kind's rows in its table
    (``TABLE_FOR_KIND``); a conn log's rows are zipped from its columns
    (``rows_for_table``)."""
    db = Database(schema)
    for kind, rows in data.items():
        if rows:
            db.load_records(TABLE_FOR_KIND[kind], rows_for_table(rows, kind))
    return db


def load_db_dir(path: Path):
    """The schema, database and records of a db dir.  Rows are loaded by
    position, so a ``schema.txt`` in the dir must be the readers' schema as
    ``write_db_dir`` writes it; one that differs is a SchemaError naming the
    file and its first line that differs.  A malformed log line is a data
    error naming ``<file>:<line>``: its row would silently go missing from
    the database."""
    schema = default_schema()
    schema_file = path / "schema.txt"
    if schema_file.exists():
        pairs = zip_longest(split_lines(read_text(schema_file)), split_lines(dump_schema_text(schema)))
        line = next((i for i, (got, want) in enumerate(pairs, 1) if got != want), None)
        if line is not None:
            raise SchemaError(f"{schema_file}: line {line} differs from the readers' schema")
    data, issues = read_logs_dir(path)
    if issues:
        loc, message = issues[0]
        raise IngestError(f"{path / loc}: {message}")
    return schema, build_database(schema, data), data


def _conn_table(path):
    """The ``ConnTable`` of a conn log.  A malformed line is a data error
    naming ``<file>:<line>``: the records would otherwise silently go
    missing."""
    result = _parse_zeek_file(Path(path), "conn")
    if result.issues:
        issue = result.issues[0]
        raise IngestError(f"{path}:{issue.line_no}: {issue.message}")
    return result.records


def network_splits(anonymized: str, network_manifest: str) -> dict:
    """The anonymized conn table of each split (``splitter.take_splits``).

    A malformed line in the anonymized log, or a manifest uid it does not
    hold, is a data error: the splits would silently lose records.
    """
    table = _conn_table(anonymized)
    manifest = splitter.load_manifest(read_text(network_manifest))
    try:
        return splitter.take_splits(table, manifest)
    except splitter.SplitError as exc:
        raise splitter.SplitError(f"{anonymized}: {exc}") from None


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: RunConfig, out: Path, args) -> int:
    counts = {kind: cfg.get_int(f"synth.{kind}") for kind in ZEEK_KINDS}
    for sensor in SENSOR_TYPES:
        counts[sensor] = cfg.get_int("synth.sensors")
    counts["devices"] = cfg.get_int("synth.devices")
    spec = SynthSpec(
        counts=counts,
        label_mix=cfg.get_label_mix("synth.mix"),
        window=cfg.get_window("synth.window"),
        address_pool_size=cfg.get_int("synth.pool"),
        seed=cfg.get_int("seed"),
    )
    data = synthesize_logs(spec)
    writer = ArtifactWriter(out)
    write_db_dir(writer, "synth", default_schema(), data)
    writer.manifest("synth", cfg, inputs={})
    print(f"synth: wrote {len(writer.artifacts)} files under {out / 'synth'}")
    return EXIT_OK


def cmd_ingest(cfg: RunConfig, out: Path, args) -> int:
    logs_dir = Path(args.logs)
    if not logs_dir.is_dir():
        raise ConfigError(f"--logs {logs_dir} is not a directory")
    data, issues = read_logs_dir(logs_dir)
    schema = default_schema()
    build_database(schema, data)  # validates types/arity before writing
    writer = ArtifactWriter(out)
    write_db_dir(writer, "db", schema, data)
    if issues:
        writer.write("db/ingest_issues.txt", "".join(f"{loc}\t{msg}\n" for loc, msg in issues))
        print(f"ingest: {len(issues)} malformed lines reported", file=sys.stderr)
    writer.manifest("ingest", cfg, inputs={"logs": logs_dir})
    counts = {k: len(v) for k, v in data.items()}
    print(f"ingest: {counts}")
    return EXIT_OK


def cmd_gen_pairs(cfg: RunConfig, out: Path, args) -> int:
    _, db, _ = load_db_dir(Path(args.db))
    corpus_cfg = templates.CorpusConfig(
        n_pairs=cfg.get_int("corpus.n_pairs"),
        seed=cfg.get_int("seed"),
        temporal_floor=cfg.get_float("corpus.temporal_floor"),
    )
    pairs = templates.generate_corpus(db, corpus_cfg)
    writer = ArtifactWriter(out)
    writer.write("corpus/corpus.jsonl", "".join(templates.pair_to_json(p) + "\n" for p in pairs))
    stats = templates.corpus_stats(pairs)
    stats["construct_coverage"] = templates.construct_coverage(pairs)
    stats["temporal_pairs"] = sum(p.temporal for p in pairs)
    writer.write("corpus/stats.json", json.dumps(stats, indent=2, sort_keys=True) + "\n")
    writer.manifest("gen-pairs", cfg, inputs={"db": args.db})
    print(f"gen-pairs: {len(pairs)} pairs; stats: {json.dumps(stats['question_length'])}")
    return EXIT_OK


def cmd_split(cfg: RunConfig, out: Path, args) -> int:
    writer = ArtifactWriter(out)
    inputs: dict = {}
    seed = cfg.get_int("seed")
    if args.corpus:
        pairs = templates.read_corpus(Path(args.corpus))
        manifest = splitter.split_pairs(pairs, ratios=cfg.get_floats("split.ratios"), seed=seed)
        writer.write("splits/pairs_manifest.txt", splitter.dump_manifest(manifest))
        inputs["corpus"] = args.corpus
        print(f"split: pairs {manifest.counts()}")
    if args.db:
        # only the conn log: the rest of the database dir plays no part
        conn_log = _zeek_log(Path(args.db), "conn")
        records = [] if conn_log is None else _conn_table(conn_log)
        if not records:
            raise IngestError("network split requested but no conn records found")
        anonymized, maps = splitter.anonymize(
            records, seed=seed, max_offset_days=cfg.get_int("split.max_offset_days")
        )
        totals = cfg.get_ints("split.totals") or None
        mal_totals = cfg.get_ints("split.malicious_totals") or None
        net_cfg = splitter.NetworkSplitConfig(
            benign_fracs=cfg.get_floats("split.benign_fracs"),
            totals=totals,
            malicious_totals=mal_totals,
        )
        manifest = splitter.split_network(
            anonymized,
            train_attacks=cfg.get_labels("split.train_attacks"),
            seed=seed,
            config=net_cfg,
        )
        assigned = manifest.assignment
        kept = [i for i, uid in enumerate(anonymized.columns["uid"]) if uid in assigned]
        writer.write("splits/network_manifest.txt", splitter.dump_manifest(manifest))
        writer.write("splits/conn.anonymized.tsv", serialize_zeek(anonymized.take(kept), "conn"))
        # maps stay out of released splits; kept beside them for audit only
        writer.write(
            "splits/private_anonymization_maps.json",
            splitter.dump_anonymization_maps(maps) + "\n",
        )
        inputs["db"] = args.db
        print(f"split: network {manifest.counts()}")
    if not inputs:
        raise ConfigError("split needs --corpus and/or --db")
    writer.manifest("split", cfg, inputs=inputs)
    return EXIT_OK


def cmd_emit(cfg: RunConfig, out: Path, args) -> int:
    writer = ArtifactWriter(out)
    inputs: dict = {}
    schema = default_schema()
    if args.corpus and args.pairs_manifest:
        pairs = templates.read_corpus(Path(args.corpus))
        manifest = splitter.load_manifest(read_text(args.pairs_manifest))
        separator = cfg.raw("emit.separator")
        for split in splitter.SPLITS:
            subset = [pairs[int(i)] for i in manifest.ids_for(split)]
            writer.write_with(
                f"model_io/sql_{split}.jsonl",
                lambda path: modelio.write_sql_examples(subset, schema, path, separator=separator),
            )
        inputs.update({"corpus": args.corpus, "pairs_manifest": args.pairs_manifest})
    if args.anonymized and args.network_manifest:
        instruction = cfg.raw("emit.instruction")
        for split, subset in network_splits(args.anonymized, args.network_manifest).items():
            writer.write_with(
                f"model_io/detect_{split}.jsonl",
                lambda path: modelio.write_detection_examples(subset, path, instruction=instruction),
            )
        inputs.update({"anonymized": args.anonymized, "network_manifest": args.network_manifest})
    if not inputs:
        raise ConfigError("emit needs (--corpus, --pairs-manifest) and/or (--anonymized, --network-manifest)")
    writer.manifest("emit", cfg, inputs=inputs)
    print(f"emit: wrote {len(writer.artifacts)} model input files")
    return EXIT_OK


def cmd_eval_sql(cfg: RunConfig, out: Path, args) -> int:
    timeout = cfg.get_float("eval.timeout")
    # a NaN deadline never passes, and one at or before now fails every query
    if not (math.isfinite(timeout) and timeout > 0):
        raise ConfigError(f"eval.timeout must be a finite number > 0, got {cfg.raw('eval.timeout')!r}")
    paths = [Path(p) for p in args.predictions]
    # one file reports into eval/, several into eval/<file stem>/
    dirs = ["eval"] if len(paths) == 1 else [f"eval/{p.stem}" for p in paths]
    if len(set(dirs)) < len(dirs):
        raise ConfigError(f"eval-sql: prediction files need distinct names, got {args.predictions}")
    _, db, _ = load_db_dir(Path(args.db))
    examples = modelio.read_sql_examples(Path(args.examples))
    files = [modelio.read_predictions(p, kind="sql") for p in paths]
    # one database and one timeout: each gold query runs once for all files
    reports = [evaluation.score_sql_corpus(examples, preds, db, timeout=timeout) for preds in files]
    writer = ArtifactWriter(out)
    for rel, report in zip(dirs, reports):
        writer.write(f"{rel}/sql_report.json", report.to_json() + "\n")
        writer.write(f"{rel}/sql_report.txt", report.to_text() + "\n")
    writer.manifest("eval-sql", cfg, inputs={
        "db": args.db, "examples": args.examples,
        "predictions": args.predictions[0] if len(paths) == 1 else args.predictions,
    })
    for rel, report in zip(dirs, reports):
        if len(reports) > 1:
            print(f"== {rel}")
        print(report.to_text())
    return EXIT_OK


def cmd_eval_detect(cfg: RunConfig, out: Path, args) -> int:
    examples = modelio.read_detection_examples(Path(args.examples))
    predictions = modelio.read_predictions(Path(args.predictions), kind="detection")
    pairs = evaluation.join_predictions(examples, predictions)
    golds = [ex.gold for ex, _ in pairs]
    preds = [modelio.label_to_bool(rec.payload) for _, rec in pairs]
    report = evaluation.detection_metrics(golds, preds)
    writer = ArtifactWriter(out)
    writer.write("eval/detect_report.json", report.to_json() + "\n")
    writer.write("eval/detect_report.txt", report.to_text() + "\n")
    writer.manifest("eval-detect", cfg, inputs={
        "examples": args.examples, "predictions": args.predictions,
    })
    print(report.to_text())
    return EXIT_OK


def cmd_baseline(cfg: RunConfig, out: Path, args) -> int:
    subsets = network_splits(args.anonymized, args.network_manifest)
    if not subsets["train"]:
        raise baselines.Empty("no training records in the manifest")
    seed = cfg.get_int("seed")
    kind = cfg.raw("baseline.kind")
    if kind not in baselines.KINDS:
        raise ConfigError(f"baseline.kind must be one of {baselines.KINDS}")
    hp = baselines.Hyperparams(
        n_trees=cfg.get_int("baseline.n_trees"),
        max_depth=cfg.get_int("baseline.max_depth"),
        svm_epochs=cfg.get_int("baseline.svm_epochs"),
        svm_lr=cfg.get_float("baseline.svm_lr"),
        svm_l2=cfg.get_float("baseline.svm_l2"),
    )
    featurizer = baselines.fit_featurizer(subsets["train"])
    X_train = featurizer.transform(subsets["train"])
    y_train = splitter.malicious(subsets["train"])
    model = baselines.train(kind, X_train, y_train, hyperparams=hp, seed=seed, featurizer=featurizer)

    writer = ArtifactWriter(out)
    writer.write_with("baseline/model.json", lambda path: baselines.save_model(model, path))
    if kind == "linear_svm":
        log_lines = [f"epoch {i + 1}: loss {loss:.6f}" for i, loss in enumerate(model.model.epoch_losses)]
        writer.write("baseline/svm_training.log", "\n".join(log_lines) + "\n")
    # dev and test are scored by the model read back from model.json, so
    # every run checks the artifact it wrote
    saved = baselines.load_model(out / "baseline/model.json")
    for split in ("dev", "test"):
        records = subsets[split]
        if not records:
            continue
        X = saved.featurizer.transform(records)
        golds = splitter.malicious(records)
        # a random baseline draws each split's labels from (seed, split) alone
        split_seed = int.from_bytes(hashlib.sha256(f"{seed}/{split}".encode()).digest()[:8], "big")
        preds = baselines.predict(saved, X, seed=split_seed)
        report = evaluation.detection_metrics(golds, list(preds))
        writer.write(f"baseline/report_{split}.json", report.to_json() + "\n")
        writer.write(f"baseline/report_{split}.txt", report.to_text() + "\n")
        print(f"[{split}] {kind}: macro-F1 {report.macro_f1:.3f}")
    writer.manifest("baseline", cfg, inputs={
        "anonymized": args.anonymized, "network_manifest": args.network_manifest,
    })
    return EXIT_OK


def cmd_config(cfg: RunConfig, out: Path, args) -> int:
    print(default_config_text())
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotsqlbench",
        description="IoT text-to-SQL benchmark builder and model scorer",
    )
    parser.add_argument("--config", help="config file (key = value lines)")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="generate synthetic logs, sensors, devices")

    p = sub.add_parser("ingest", help="parse logs into a normalized database dir")
    p.add_argument("--logs", required=True, help="directory of Zeek/sensor/device files")

    p = sub.add_parser("gen-pairs", help="generate the text-SQL corpus from a database dir")
    p.add_argument("--db", default="out/db", help="database dir (from ingest or synth)")

    p = sub.add_parser("split", help="split pairs and/or network records")
    p.add_argument("--corpus", help="corpus.jsonl to split by ratio")
    p.add_argument("--db", help="database dir holding labeled conn records")

    p = sub.add_parser("emit", help="write model input files from manifests")
    p.add_argument("--corpus", help="corpus.jsonl")
    p.add_argument("--pairs-manifest", help="pairs manifest file")
    p.add_argument("--anonymized", help="anonymized conn TSV")
    p.add_argument("--network-manifest", help="network manifest file")

    p = sub.add_parser("eval-sql", help="score SQL predictions")
    p.add_argument("--db", required=True, help="database dir to execute against")
    p.add_argument("--examples", required=True, help="emitted sql examples jsonl")
    p.add_argument("--predictions", required=True, nargs="+",
                   help="prediction jsonl (id, payload); several files share one database load")

    p = sub.add_parser("eval-detect", help="score detection predictions")
    p.add_argument("--examples", required=True, help="emitted detection examples jsonl")
    p.add_argument("--predictions", required=True, help="prediction jsonl (id, payload)")

    p = sub.add_parser("baseline", help="train and evaluate a traffic baseline")
    p.add_argument("--anonymized", required=True, help="anonymized conn TSV")
    p.add_argument("--network-manifest", required=True, help="network manifest file")

    sub.add_parser("config", help="print the documented default config")
    return parser


_HANDLERS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "gen-pairs": cmd_gen_pairs,
    "split": cmd_split,
    "emit": cmd_emit,
    "eval-sql": cmd_eval_sql,
    "eval-detect": cmd_eval_detect,
    "baseline": cmd_baseline,
    "config": cmd_config,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, overrides=args.set)
        if args.seed is not None:
            cfg.values["seed"] = str(args.seed)
        out = Path(args.out)
        handler = _HANDLERS[args.command]
        if args.command == "config":
            return handler(cfg, out, args)
        with OutputLock(out):
            return handler(cfg, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
