"""CPU-speed probes taken while a phase runs, to state its time at a fixed
reference speed.

The shared host the benchmark was written on runs the same pure-Python work
at two speeds about 1.7x apart, and switches between them from one second to
the next as well as for stretches of minutes, so the raw wall time of a run
says as much about the host as about the code.  While a ``SpeedProbe`` is
active, SIGALRM interrupts the program every ``INTERVAL_S`` seconds of wall
time and times a fixed pure-Python loop.  The caller takes the probes' own
time (``own_s``) out of the phase's wall time, and ``reference_s`` scales the
rest by the host's speed averaged over the phase (the mean of
``REFERENCE_PROBE_S / probe time``), so a phase that ran wholly at the
reference speed keeps its wall time.

The package installs no signal handler of its own, and Python runs the
handler between bytecodes of the main thread, so the probes never run inside
a call into the package's C code.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
# seconds one probe takes on the reference host (Intel Xeon, 2.0 GHz,
# Python 3.11) at its faster speed
REFERENCE_PROBE_S = 0.000088


def _probe() -> int:
    table: dict = {}
    total = 0
    for i in range(120):
        key = f"k{i & 15}"
        table[key] = table.get(key, 0) + i
        total += len([j for j in range(i & 7)])
    return total + len(sorted(table.values()))


class SpeedProbe:
    """Probes the host's speed while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.own_s = 0.0  # seconds the probes took inside the block

    @staticmethod
    def _measure() -> tuple[float, float]:
        """(seconds of two back-to-back probes, seconds of the second one).
        Only the second is a sample: the first finds caches the program has
        just filled with its own data and takes up to 1.7x as long for it,
        which would make the host's speed depend on the program's memory use."""
        start = time.perf_counter()
        _probe()
        middle = time.perf_counter()
        _probe()
        end = time.perf_counter()
        return end - start, end - middle

    def _take(self, *_) -> None:
        own, sample = self._measure()
        self.own_s += own
        self.samples.append(sample)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a phase shorter than one interval: probe after it
            self.samples.append(self._measure()[1])
        return False

    def reference_s(self, wall: float) -> float:
        """Seconds the phase, timed as ``wall`` without the probes, would have
        taken at the reference speed."""
        speed = sum(REFERENCE_PROBE_S / d for d in self.samples) / len(self.samples)
        return wall * speed
