"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared, and their speed drifts by up
to a factor of two over tens of seconds, for the package and for any other
interpreter-bound loop alike.  So a run times a fixed reference loop
(independent of the package) between operations, about every ``INTERVAL_S``
seconds, and scales all its timings by one factor: ``NOMINAL_S`` over the
median reference time of the run.  A scaled time is the time on a machine
where the reference loop takes ``NOMINAL_S``.  One factor per run leaves the
order of the run's latencies as measured; raw wall-clock times are printed
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.010
INTERVAL_S = 0.2


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop (about 10 ms)."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(60_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - start


class SpeedLog:
    """Reference-loop samples taken between operations."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(reference_loop())
        self._last = time.perf_counter()

    def sample_if_stale(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Scale from wall-clock seconds to reference-speed seconds."""
        return NOMINAL_S / statistics.median(self.samples)
