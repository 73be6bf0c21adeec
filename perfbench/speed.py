"""Core-speed sampling, to state times in reference seconds.

On a shared host a core's speed can change by 1.5x within seconds (load
from other tenants), which moves wall times more than most code changes
do.  While a timed region runs, a timer signal runs a fixed
pure-Python reference loop every 0.1 s, plus once just before and once just
after the region; the mean time of the loop says how fast the core was.  A
time in reference seconds is the region's wall time, less the time spent in
the sampler, times REFERENCE_S / mean loop time: the time the region would
take on a core that runs the loop in REFERENCE_S.

Only the standard library is used, so a fresh process can sample while it
imports numpy and scipy.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 1e-3
INTERVAL_S = 0.1


def reference_loop() -> float:
    """About a millisecond of interpreter work: strings, dicts, a sort."""
    words = [str(i * 7919) for i in range(1500)]
    table = {w: len(w) * 0.5 + i for i, w in enumerate(words)}
    total = 0.0
    for w in sorted(table, key=table.get):
        total += table[w] ** 0.5
    return total


class Sampler:
    """Samples core speed around and inside one timed region at a time."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0

    def _sample(self) -> float:
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self.inside_s += time.perf_counter() - start

    def start(self) -> None:
        """Call right before the region starts its clock."""
        self.samples, self.inside_s = [], 0.0
        self._sample()
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Call right after the region stops its clock."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def reference_s(self, wall_s: float) -> float:
        """The region's wall time in reference seconds."""
        return ((wall_s - self.inside_s) * REFERENCE_S
                / statistics.fmean(self.samples))
