"""Paths and checkout validation shared by the benchmark.

Everything the benchmark reads or writes lives inside the checkout it runs
from: the package source under ``src/``, the input cache under
``.perfbench_cache/``, scratch output under ``.perfbench_work/`` and span
dumps under ``.perfbench_traces/``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"

WORKLOADS = ("gen-corpus", "score-sql", "detect-pipeline")

# The workload seed selects one of this many input variants, so every input
# a run can ask for has outputs recorded in expected.json.
VARIANTS = 16


class CheckoutError(Exception):
    """The benchmark is not running from a checkout holding the package source."""


def require_package() -> None:
    """Put the checkout's own ``src/`` first on the import path and check that
    ``iotsqlbench`` then resolves there, never to some other installed copy."""
    if not (SRC / "iotsqlbench" / "__init__.py").is_file():
        raise CheckoutError(f"no package source at {SRC / 'iotsqlbench'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import iotsqlbench

    origin = Path(iotsqlbench.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise CheckoutError(f"iotsqlbench imported from {origin}, not from {SRC}")


def src_digest() -> str:
    """sha256 over every file under src/: keys the input cache to the code."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
