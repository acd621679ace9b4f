"""Store operator micro-cases on the seed-7 reference database (2,000 conn
rows, 400 dns rows), timed with tracing off after the traced unit of work."""

from __future__ import annotations

import statistics
import time
from pathlib import Path

# (metric, query, repetitions): a conn.log filter; float IN (subquery) at
# 2,000 x 2,000 rows, which takes the engine's quadratic path; and a hash
# join on proto, whose two values make it wide (198,000 joined rows).
CASES = (
    ("store.case.filter_ms", "SELECT uid FROM CONN_LOG WHERE (orig_bytes > 1000)", 21),
    ("store.case.float_in_ms",
     "SELECT COUNT(*) FROM CONN_LOG WHERE duration IN (SELECT duration FROM CONN_LOG)", 1),
    ("store.case.join_ms",
     "SELECT COUNT(*) FROM CONN_LOG JOIN DNS_LOG ON CONN_LOG.proto = DNS_LOG.proto", 3),
)


def run_cases(synth_dir: Path) -> dict:
    """Median milliseconds per case."""
    from iotsqlbench import cli

    _, db, _ = cli.load_db_dir(synth_dir)
    out = {}
    for name, sql, reps in CASES:
        times = []
        for _ in range(reps):
            t = time.perf_counter()
            db.execute(sql, timeout=600.0)
            times.append((time.perf_counter() - t) * 1000)
        out[name] = statistics.median(times)
    return out
