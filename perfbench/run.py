"""Benchmark entry point.

    python3 perfbench/run.py --workload gen-corpus|score-sql|detect-pipeline \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures the package under
``src/``, unmodified, on one thread.  Inputs are generated in a child
process before timing starts (see inputs.py).  Then a fixed number of units
of work run one after another, each in a fresh process forked from this
one, so that no cache of the package carries over from one unit to the
next, as none does from one CLI call to the next.  A unit sets up, runs and
checks its output against the outputs recorded at the seed commit.  Its
set-up and its timed phase are timed while probes measure the host's speed,
and their times are stated at a fixed reference speed (speed.py); the
medians over the units give ``setup_s``, ``wall_ref_s`` and
``throughput_ref_per_s``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` it carries the per-layer metrics of one traced unit,
measured from outside by wrappers around the package's public functions,
between two untraced units that give the tracing overhead; spans are
written to ``.perfbench_traces/<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, TRACES, VARIANTS, WORK, WORKLOADS, CheckoutError, require_package  # noqa: E402

EXPECTED = Path(__file__).resolve().parent / "expected.json"

# A run does --seconds / UNIT_SECONDS units, at least MIN_UNITS: the count
# depends on the window, never on how fast the code under test is, so a
# faster change gets no more samples than its parent.  At the seed commit a
# unit (fork, set-up, work, check) takes about UNIT_SECONDS on the reference
# host, except on score-sql: its units take 4.7-6.5 s, but its median needs
# six of them to be steady, so a score-sql run takes up to twice its window.
UNIT_SECONDS = {"gen-corpus": 1.0, "score-sql": 3.3, "detect-pipeline": 1.5}
MIN_UNITS = 3
# Units stop early, and the unit running then fails, when they take this
# long in all, so that a run ends within the time the benchmark is allowed.
UNITS_LIMIT_S = 140.0


def unit_count(workload: str, seconds: float) -> int:
    return max(MIN_UNITS, int(seconds / UNIT_SECONDS[workload]))


def in_child(fn, timeout: float):
    """fn() in a forked child process: what it returns (JSON-able), or None
    if it raised, died or outlived ``timeout`` (then it is killed).  The
    child has ended when this returns."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            payload = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            code = 0
        except BaseException:
            traceback.print_exc(file=sys.stderr)
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    chunks, timed_out = [], False
    deadline = time.perf_counter() + timeout
    with os.fdopen(read_fd, "rb") as fh:
        while True:
            ready, _, _ = select.select([fh], [], [], max(deadline - time.perf_counter(), 0.0))
            if not ready:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(fh.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    if timed_out or os.waitstatus_to_exitcode(status) != 0:
        return None
    return json.loads(b"".join(chunks))


def _unit(workload, expected, out: Path, trace_path: Path | None) -> dict:
    """Runs in the child: set up, one timed unit of work, its output check;
    traced when ``trace_path`` is given."""
    from workloads import Timer

    setup = workload.setup()
    traced = trace_path is not None
    tracer = None
    if traced:
        from tracing import Patcher, Tracer, install

        tracer, patcher = Tracer(), Patcher()
        install(tracer, patcher)
    timer = Timer(tracer)
    try:
        ops, observed = workload.rep(timer, out)
    finally:
        if traced:
            patcher.restore()
    failed = workload.check(observed, expected) if expected is not None else ops
    result = {
        "setup": setup, "wall": timer.wall, "reference": timer.reference, "ops": ops, "failed": failed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        from cases import run_cases
        from inputs import reference_dir
        from tracing import layer_metrics

        tracer.dump(trace_path, timer.root)
        result["layers"] = layer_metrics(tracer, timer.root, run_cases(reference_dir() / "synth"))
    return result


def run_units(workload, expected, run_dir: Path, plan: list) -> tuple[list[dict], int, int]:
    """One forked child per entry of ``plan``: a span dump path for a traced
    unit, None for an untraced one.  Returns the units' results, operations
    attempted and operations failed; stops at the first unit that does not
    finish."""
    results, ops, failed = [], 0, 0
    start = time.perf_counter()
    for index, trace_path in enumerate(plan):
        out = run_dir / f"unit{index}"
        left = UNITS_LIMIT_S - (time.perf_counter() - start)
        result = in_child(lambda: _unit(workload, expected, out, trace_path), max(left, 1.0))
        shutil.rmtree(out, ignore_errors=True)
        if result is None:
            return results, ops + workload.unit_ops, failed + workload.unit_ops
        results.append(result)
        ops, failed = ops + result["ops"], failed + result["failed"]
    return results, ops, failed


def measure(workload, seconds: float, run_dir: Path, expected: dict) -> dict:
    plan = [None] * unit_count(workload.name, seconds)
    results, ops, failed = run_units(workload, expected, run_dir, plan)
    if len(results) < len(plan):
        return _result(ops, max(failed, 1), {})
    # Times at the reference speed (speed.py), medians over the units.
    metrics = {
        "setup_s": (statistics.median(r["setup"] for r in results), "s"),
        "wall_ref_s": (statistics.median(r["reference"] for r in results), "s"),
        "throughput_ref_per_s": (statistics.median(r["ops"] / r["reference"] for r in results), "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
        "success_rate": (1 - failed / ops, "ratio"),
    }
    return _result(ops, failed, metrics)


def measure_traced(workload, run_dir: Path, expected: dict, trace_path: Path) -> dict:
    from tracing import PER_LAYER

    results, ops, failed = run_units(workload, expected, run_dir, [None, trace_path, None])
    if len(results) < 3:
        return _result(ops, max(failed, 1), {})
    values = results[1]["layers"]
    untraced_wall = min(results[0]["wall"], results[2]["wall"])
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
    return _result(ops, failed, {name: (values[name], unit) for name, unit in PER_LAYER})


def _result(ops: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="iotsqlbench benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        require_package()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # imported here, before any fork, so that no unit pays for imports
    import iotsqlbench.cli  # noqa: F401
    import workloads
    from inputs import prepare

    variant = args.seed % VARIANTS
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(args.workload, {}).get(str(variant))
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        prepare(args.workload, variant, run_dir)
        workload = workloads.make(args.workload, variant, run_dir)
        if args.trace:
            trace_path = TRACES / f"{args.workload}-seed{args.seed}.jsonl"
            result = measure_traced(workload, run_dir, expected, trace_path)
        else:
            result = measure(workload, args.seconds, run_dir, expected)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if result["metrics"] and {k: v["unit"] for k, v in result["metrics"].items()} != _declared(args.trace):
        print("perfbench: metrics do not match BENCHMARK.json", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
