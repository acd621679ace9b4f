"""Outside-in tracing: wrappers the benchmark installs around the package's
public functions, spans held in memory, and the per-layer metrics.

Nothing under ``src/`` knows about this module.  ``Patcher`` swaps a
function for a wrapper in every ``iotsqlbench`` module that holds a
reference to it (or on its class, for methods) and puts the originals back
afterwards.  A span records name, start, end, parent and operation id; a
layer's self time is its spans' durations minus the time their child spans
cover.  Spans nest strictly because the load runs on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "ingest", "store", "templates", "splitter", "modelio", "evaluation", "baselines")

# CLI stages the workloads run; each gets a cli.<stage>.s metric.
CLI_STAGES = ("gen-pairs", "ingest", "split", "emit", "eval-detect", "baseline")


class Span:
    __slots__ = ("id", "name", "tag", "start", "end", "parent", "op", "child", "n_execute")

    def __init__(self, id, name, parent, op):
        self.id = id
        self.name = name
        self.tag = None
        self.parent = parent
        self.op = op
        self.child = 0.0
        self.n_execute = 0
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Spans and counters of one traced run, in memory until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[Span] = []
        self._op = 0

    def begin(self, name: str, new_op: bool = False) -> Span:
        if new_op:
            self._op += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child += span.duration

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.finish(s)

    def wrap(self, fn, name: str, new_op=False, before=None, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = tracer.begin(name, new_op)
            if before is not None:
                before(tracer, s)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(tracer, s, exc)
                raise
            finally:
                tracer.finish(s)
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        return wrapper

    # -- aggregation

    def by_name(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            row = out[s.name]
            row[0] += 1
            row[1] += s.duration
            row[2] += s.self_time
        return out

    def dump(self, path: Path, root: Span) -> None:
        """One JSON line per span: id, name, tag, start and end relative to
        the root span, parent id, operation id, self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = root.start
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([
                    s.id, s.name, s.tag, round(s.start - t0, 7), round(s.end - t0, 7),
                    None if s.parent is None else s.parent.id, s.op, round(s.self_time, 7),
                ]) + "\n")


class Patcher:
    """Replaces package functions and methods; ``restore`` undoes every swap."""

    def __init__(self):
        self._undo: list[tuple] = []

    def function(self, module: str, attr: str, make_wrapper) -> None:
        original = getattr(sys.modules[module], attr)
        wrapped = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("iotsqlbench") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make_wrapper(original))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# what the traced run wraps


def _count(key, value_of):
    def hook(tracer, result, args):
        tracer.counters[key] += value_of(result, args)
    return hook


def _execute_role(tracer, span):
    parent = span.parent
    if parent is not None and parent.name == "evaluation.execution":
        span.tag = "gold" if parent.n_execute == 0 else "pred"
        parent.n_execute += 1


def _execute_error(tracer, span, exc):
    from iotsqlbench.store import QueryTimeout

    tracer.counters["store.execute.timeouts" if isinstance(exc, QueryTimeout) else "store.execute.errors"] += 1
    if span.tag == "pred":
        tracer.counters["evaluation.pred_failed"] += 1


def _unsatisfiable(tracer, span, exc):
    from iotsqlbench.templates import UnsatisfiableSlot

    if isinstance(exc, UnsatisfiableSlot):
        tracer.counters["templates.unsatisfiable"] += 1


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the public functions of every layer."""
    from iotsqlbench import baselines, cli
    from iotsqlbench.store import Database
    from iotsqlbench.templates import TemplateBinder

    def fn(module, attr, name, **hooks):
        patcher.function(module, attr, lambda f: tracer.wrap(f, name, **hooks))

    def meth(cls, attr, name, **hooks):
        patcher.method(cls, attr, lambda f: tracer.wrap(f, name, **hooks))

    fn("iotsqlbench.store.sql", "parse", "store.parse")
    meth(Database, "execute", "store.execute", before=_execute_role, on_error=_execute_error,
         on_result=_count("store.execute.rows_out", lambda r, a: len(r.rows)))
    meth(Database, "snapshot", "store.snapshot")
    meth(Database, "load_records", "store.load", on_result=_count("store.load.rows", lambda r, a: r))

    gen = "iotsqlbench.templates.generate"
    fn(gen, "generate_corpus", "templates.generate",
       on_result=_count("templates.accepted", lambda r, a: len(r)))
    fn(gen, "instantiate", "templates.instantiate", new_op=True, on_error=_unsatisfiable)
    meth(TemplateBinder, "bind", "templates.bind")
    fn(gen, "canonical_tables", "templates.classify")
    fn(gen, "has_datetime_predicate", "templates.classify")

    ev = "iotsqlbench.evaluation"
    fn(ev, "score_sql_corpus", "evaluation.score")
    fn(ev, "logical_accuracy", "evaluation.logical", new_op=True)
    fn(ev, "execution_accuracy", "evaluation.execution")
    fn(ev, "results_match", "evaluation.compare",
       on_result=_count("evaluation.compare.rows", lambda r, a: len(a[0].rows) + len(a[1].rows)))
    fn(ev, "detection_metrics", "evaluation.detect")

    fn("iotsqlbench.ingest.zeek", "parse_zeek", "ingest.parse_zeek",
       on_result=lambda t, r, a: t.counters.update({
           "ingest.parse_zeek.records": len(r.records), "ingest.parse_zeek.issues": len(r.issues)}))

    fn("iotsqlbench.splitter", "anonymize", "splitter.anonymize")
    fn("iotsqlbench.splitter", "split_network", "splitter.split_network")

    for reader in ("read_sql_examples", "read_detection_examples", "read_predictions"):
        fn("iotsqlbench.modelio", reader, "modelio.read")
    for writer in ("write_sql_examples", "write_detection_examples"):
        fn("iotsqlbench.modelio", writer, "modelio.write")

    fn("iotsqlbench.baselines.features", "fit_featurizer", "baselines.featurize")
    meth(baselines.Featurizer, "transform", "baselines.featurize")
    fn("iotsqlbench.baselines.classifiers", "train", "baselines.train")
    fn("iotsqlbench.baselines.classifiers", "predict", "baselines.predict")

    fn("iotsqlbench.cli", "load_db_dir", "cli.load_db_dir")
    meth(cli.ArtifactWriter, "write", "cli.artifact_write",
         on_result=_count("cli.artifact_bytes", lambda r, a: len(a[2].encode("utf-8"))))


# ---------------------------------------------------------------------------
# per-layer metrics

CASES = ("store.case.filter_ms", "store.case.float_in_ms", "store.case.join_ms")

PER_LAYER = (
    [
        ("store.parse.calls", "count"), ("store.parse.s", "s"),
        ("store.execute.calls", "count"), ("store.execute.self_s", "s"),
        ("store.execute.rows_out", "count"), ("store.execute.errors", "count"),
        ("store.execute.timeouts", "count"), ("store.snapshot.s", "s"),
        ("store.load.rows", "count"), ("store.load.s", "s"),
    ]
    + [(name, "ms") for name in CASES]
    + [
        ("templates.candidates", "count"), ("templates.accepted", "count"),
        ("templates.unsatisfiable", "count"), ("templates.duplicates", "count"),
        ("templates.yield", "ratio"), ("templates.bind.s", "s"),
        ("templates.instantiate.self_s", "s"), ("templates.classify.s", "s"),
        ("evaluation.logical.s", "s"), ("evaluation.gold_execute.s", "s"),
        ("evaluation.pred_execute.s", "s"), ("evaluation.compare.calls", "count"),
        ("evaluation.compare.rows", "count"), ("evaluation.compare.s", "s"),
        ("evaluation.pred_failed", "count"), ("evaluation.detect.s", "s"),
        ("ingest.parse_zeek.s", "s"), ("ingest.parse_zeek.records", "count"),
        ("ingest.parse_zeek.issues", "count"),
        ("splitter.anonymize.s", "s"), ("splitter.split_network.s", "s"),
        ("modelio.read.s", "s"), ("modelio.write.s", "s"),
        ("baselines.featurize.s", "s"), ("baselines.train.s", "s"), ("baselines.predict.s", "s"),
        ("cli.artifact_write.s", "s"), ("cli.artifact_bytes", "bytes"),
    ]
    + [(f"cli.{stage}.s", "s") for stage in CLI_STAGES]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
        ("trace.uncovered_s", "s"), ("trace.spans", "count"),
    ]
)


def layer_metrics(tracer: Tracer, root: Span, cases: dict) -> dict:
    """Every PER_LAYER value from one traced unit of work under ``root``,
    except ``trace.untraced_wall_s`` and ``trace.overhead_s``, which need the
    untraced units too."""
    names = tracer.by_name()
    c = tracer.counters

    def total(name):
        return names[name][1] if name in names else 0.0

    def calls(name):
        return names[name][0] if name in names else 0

    def self_s(name):
        return names[name][2] if name in names else 0.0

    def tagged(tag):
        return sum(s.duration for s in tracer.spans if s.name == "store.execute" and s.tag == tag)

    candidates = calls("templates.instantiate")
    values = {
        "store.parse.calls": calls("store.parse"), "store.parse.s": total("store.parse"),
        "store.execute.calls": calls("store.execute"), "store.execute.self_s": self_s("store.execute"),
        "store.execute.rows_out": c["store.execute.rows_out"],
        "store.execute.errors": c["store.execute.errors"],
        "store.execute.timeouts": c["store.execute.timeouts"],
        "store.snapshot.s": total("store.snapshot"),
        "store.load.rows": c["store.load.rows"], "store.load.s": total("store.load"),
        "templates.candidates": candidates, "templates.accepted": c["templates.accepted"],
        "templates.unsatisfiable": c["templates.unsatisfiable"],
        "templates.duplicates": candidates - c["templates.accepted"] - c["templates.unsatisfiable"],
        "templates.yield": c["templates.accepted"] / candidates if candidates else 0.0,
        "templates.bind.s": total("templates.bind"),
        "templates.instantiate.self_s": self_s("templates.instantiate"),
        "templates.classify.s": total("templates.classify"),
        "evaluation.logical.s": total("evaluation.logical"),
        "evaluation.gold_execute.s": tagged("gold"), "evaluation.pred_execute.s": tagged("pred"),
        "evaluation.compare.calls": calls("evaluation.compare"),
        "evaluation.compare.rows": c["evaluation.compare.rows"],
        "evaluation.compare.s": total("evaluation.compare"),
        "evaluation.pred_failed": c["evaluation.pred_failed"],
        "evaluation.detect.s": total("evaluation.detect"),
        "ingest.parse_zeek.s": total("ingest.parse_zeek"),
        "ingest.parse_zeek.records": c["ingest.parse_zeek.records"],
        "ingest.parse_zeek.issues": c["ingest.parse_zeek.issues"],
        "splitter.anonymize.s": total("splitter.anonymize"),
        "splitter.split_network.s": total("splitter.split_network"),
        "modelio.read.s": total("modelio.read"), "modelio.write.s": total("modelio.write"),
        "baselines.featurize.s": total("baselines.featurize"),
        "baselines.train.s": total("baselines.train"), "baselines.predict.s": total("baselines.predict"),
        "cli.artifact_write.s": total("cli.artifact_write"), "cli.artifact_bytes": c["cli.artifact_bytes"],
    }
    for stage in CLI_STAGES:
        values[f"cli.{stage}.s"] = total(f"cli.{stage}")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(row[2] for n, row in names.items() if n.split(".")[0] == layer)
    values.update(cases)
    values.update({
        "trace.wall_s": root.duration,
        "trace.uncovered_s": root.self_time,
        "trace.spans": len(tracer.spans),
    })
    return values
