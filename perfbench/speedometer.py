"""Same-core speed reference for an operation's wall time.

The benchmark host shares its cores: a fixed loop on one vCPU runs up to
1.4x slower in phases of seconds to minutes, each vCPU on its own, so the
wall time of one operation moves by more than a change worth detecting.

While the operation runs, a daemon thread of the same process, pinned with
it to one CPU, wakes every ``PERIOD_S`` and times a fixed pure-Python loop
with its own thread CPU clock.  That clock counts only the loop's own
execution, not the time the thread waits for the interpreter lock or the
CPU, so the median loop time is the speed of the core while the operation
ran.  ``wall_ref_s`` scales the operation's wall time to a core that runs
the loop in ``REFERENCE_S``.  The loop uses nothing from ``mdda``, so a
change to the package moves ``wall_ref_s`` and not the reference.
"""
from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.05
REFERENCE_S = 100e-6


def _loop() -> int:
    total = 0
    for i in range(2000):
        total += i * i
    return total


class Speedometer:
    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            _loop()
            self.samples.append(time.thread_time() - start)

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def wall_ref_s(self, wall_s: float) -> float:
        if not self.samples:
            raise RuntimeError("the operation ended before the first speed sample")
        return wall_s * REFERENCE_S / statistics.median(self.samples)
