"""The three workloads: inputs, set-up, one unit of timed work, output check.

Each workload's ``rep`` runs one unit of work inside ``timer.timed()`` and
returns ``(ops, observed)``; ``check`` compares ``observed`` with what the
seed commit produced for the same input variant (expected.json) and returns
how many of the unit's operations failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from inputs import DETECT_CONN_ROWS, PREDICTION_FILES, REFERENCE_SEED, SCORE_STRIDE, reference_dir
from predictions import detection_labels
from speed import SpeedProbe


class Timer:
    """Times the measured part of a unit; with a tracer, also opens the root
    span there and a ``cli.<stage>`` span around each CLI stage."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.root = None
        self.wall = None
        self.reference = None

    @contextmanager
    def timed(self):
        """Untraced: ``wall`` is the phase's wall time without the speed
        probes, ``reference`` the same at the reference speed.  Traced: no
        probes, only ``wall``."""
        if self.tracer is not None:
            self.root = self.tracer.begin("unit")
            start = time.perf_counter()
            try:
                yield
            finally:
                self.wall = time.perf_counter() - start
                self.tracer.finish(self.root)
            return
        with SpeedProbe() as probe:
            start = time.perf_counter()
            yield
            elapsed = time.perf_counter() - start
        self.wall = elapsed - probe.own_s
        self.reference = probe.reference_s(self.wall)

    def stage(self, name: str, argv: list[str]) -> int:
        from iotsqlbench import cli

        span = self.tracer.span(f"cli.{name}") if self.tracer is not None else nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])


def _timed_setup(fn) -> float:
    """Seconds ``fn()`` takes at the reference speed."""
    with SpeedProbe() as probe:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
    return probe.reference_s(elapsed - probe.own_s)


def _manifest_artifacts(out: Path, command: str):
    path = out / f"run-{command}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["artifacts"]


class GenCorpus:
    """gen-pairs with the reference generation seed on a default-size synthetic
    database whose synth seed is the variant.

    The variant picks the database, not the generation seed: candidate k then
    draws the same template and tables on every variant, so the few costly
    candidates (wide joins) recur and a unit's cost stays comparable across
    seeds, while the bound values and query results differ.
    """

    name = "gen-corpus"
    N_PAIRS = 200

    def __init__(self, variant: int, run_dir: Path):
        self.synth = run_dir / "synth"
        self.unit_ops = self.N_PAIRS

    def setup(self) -> float:
        from iotsqlbench import cli

        return _timed_setup(lambda: cli.load_db_dir(self.synth))

    def rep(self, timer: Timer, out: Path):
        argv = ["--seed", REFERENCE_SEED, "--out", out, "--set", f"corpus.n_pairs={self.N_PAIRS}",
                "gen-pairs", "--db", self.synth]
        with timer.timed():
            rc = timer.stage("gen-pairs", argv)
        return self.N_PAIRS, {"rc": rc, "artifacts": _manifest_artifacts(out, "gen-pairs")}

    def check(self, observed: dict, expected: dict) -> int:
        ok = observed["rc"] == 0 and observed["artifacts"] == expected["artifacts"]
        return 0 if ok else self.N_PAIRS


def _verdicts(report, examples) -> str:
    """One digit per example: 2 * execution correct + logical correct."""
    reasons = dict(report.failures)
    out = []
    for ex in examples:
        reason = reasons.get(ex.id, "")
        out.append(str(2 * ("execution" not in reason) + ("logical" not in reason)))
    return "".join(out)


# verdict digits each prediction class must score, whatever the engine does
_CLASS_VERDICTS = {"echo": "3", "format": "3", "broken": "0", "mutant": "02", "adversarial": "02"}


class ScoreSql:
    """Two seeded prediction files scored in one process, as a leaderboard
    refresh does; gold SQL repeats across files.

    The files cover every SCORE_STRIDE-th example of the seed-7 test split, a
    sixth of it: the whole split takes 20-35 s to score, too long to repeat
    within a run.
    """

    name = "score-sql"

    def __init__(self, variant: int, run_dir: Path):
        from iotsqlbench.config import RunConfig

        self.ref = reference_dir()
        self.run_dir = run_dir
        self.classes = json.loads((run_dir / "classes.json").read_text())
        self.unit_ops = sum(len(self.classes[name]) for name in PREDICTION_FILES)
        self.timeout = RunConfig.load(None).get_float("eval.timeout")

    def setup(self) -> float:
        from iotsqlbench import cli, modelio

        def load():
            _, self.db, _ = cli.load_db_dir(self.ref / "synth")
            self.examples = modelio.read_sql_examples(
                self.ref / "model_io" / "sql_test.jsonl")[::SCORE_STRIDE]
            self.predictions = [
                modelio.read_predictions(self.run_dir / f"pred_{name}.jsonl")
                for name in PREDICTION_FILES
            ]

        return _timed_setup(load)

    def rep(self, timer: Timer, out: Path):
        from iotsqlbench import evaluation

        texts = []
        with timer.timed():
            for preds in self.predictions:
                report = evaluation.score_sql_corpus(self.examples, preds, self.db, timeout=self.timeout)
                texts.append((report, report.to_json() + "\n" + report.to_text() + "\n"))
        observed = {
            name: {"verdicts": _verdicts(report, self.examples),
                   "report_sha256": _sha(text)}
            for name, (report, text) in zip(PREDICTION_FILES, texts)
        }
        observed["corpus_ok"] = json.loads((self.ref / "reference.json").read_text())["corpus_ok"]
        return self.unit_ops, observed

    def check(self, observed: dict, expected: dict) -> int:
        n = len(self.examples)
        if not observed["corpus_ok"]:
            return self.unit_ops
        failed = 0
        for name in PREDICTION_FILES:
            got, want = observed[name], expected[name]
            bad = {
                i for i, (g, w, cls) in enumerate(zip(got["verdicts"], want["verdicts"], self.classes[name]))
                if g != w or g not in _CLASS_VERDICTS[cls]
            }
            if not bad and got["report_sha256"] != want["report_sha256"]:
                bad = set(range(n))
            failed += len(bad)
        return failed

    def class_shares(self) -> dict:
        labels = [c for name in PREDICTION_FILES for c in self.classes[name]]
        return {cls: round(labels.count(cls) / len(labels), 4) for cls in sorted(set(labels))}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DetectPipeline:
    """ingest -> split --db -> emit -> eval-detect -> baseline (random forest)
    on a seeded labeled conn.log; the variant seeds the log and every stage."""

    name = "detect-pipeline"
    COMMANDS = ("ingest", "split", "emit", "eval-detect", "baseline")

    def __init__(self, variant: int, run_dir: Path):
        self.variant = variant
        self.logs = run_dir / "logs"
        self.unit_ops = DETECT_CONN_ROWS

    def setup(self) -> float:
        from iotsqlbench import cli

        return _timed_setup(lambda: cli.load_db_dir(self.logs))

    def rep(self, timer: Timer, out: Path):
        base = ["--seed", self.variant, "--out", out]
        anonymized = ["--anonymized", out / "splits" / "conn.anonymized.tsv",
                      "--network-manifest", out / "splits" / "network_manifest.txt"]
        test = out / "model_io" / "detect_test.jsonl"
        predictions = out / "detect_predictions.jsonl"
        codes = []
        with timer.timed():
            codes.append(timer.stage("ingest", base + ["ingest", "--logs", self.logs]))
            if codes[-1] == 0:
                codes.append(timer.stage("split", base + ["split", "--db", out / "db"]))
            if codes[-1] == 0:
                codes.append(timer.stage("emit", base + ["emit"] + anonymized))
            if codes[-1] == 0:
                # the "model" under evaluation: gold labels with a seeded share flipped
                examples = [json.loads(line) for line in test.read_text(encoding="utf-8").splitlines()]
                labels = detection_labels(examples, self.variant)
                predictions.write_text("".join(
                    json.dumps({"id": i, "payload": p}) + "\n" for i, p in labels.items()))
                codes.append(timer.stage("eval-detect", base + [
                    "eval-detect", "--examples", test, "--predictions", predictions]))
            if codes[-1] == 0:
                codes.append(timer.stage("baseline", base + ["baseline"] + anonymized))
        records = sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in (out / "model_io").glob("detect_*.jsonl")
        )
        observed = {
            "codes": codes,
            "records": records,
            "artifacts": {cmd: _manifest_artifacts(out, cmd) for cmd in self.COMMANDS},
        }
        return max(records, 1), observed

    def check(self, observed: dict, expected: dict) -> int:
        ok = (
            observed["codes"] == [0] * len(self.COMMANDS)
            and observed["records"] == expected["records"]
            and observed["artifacts"] == expected["artifacts"]
        )
        return 0 if ok else expected["records"]


WORKLOAD_CLASSES = {cls.name: cls for cls in (GenCorpus, ScoreSql, DetectPipeline)}


def make(name: str, variant: int, run_dir: Path):
    return WORKLOAD_CLASSES[name](variant, run_dir)

