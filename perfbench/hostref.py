"""Host-speed probes: a fixed piece of reference work timed while a workload runs.

The benchmark shares a small host whose speed drifts by up to 1.5x over
seconds to minutes, for all code alike.  Raw pass times taken minutes
apart therefore differ by more than any bound worth setting.  A short
probe, fixed work that does not touch grassmoment (exact ``Fraction``
arithmetic and small numpy SVDs, the two kinds of work the program does),
runs every ``INTERVAL_S`` seconds from a timer signal in the worker's one
thread.  A pass's time, with the probes' own time taken out, is scaled by
``NOMINAL_S`` over the mean probe time during that pass: the result reads
as seconds on a host where one probe takes ``NOMINAL_S``.  The program
cannot move the probe, so a faster program still reads faster.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

#: Seconds between timer probes.
INTERVAL_S = 0.25
#: Probe seconds that normalized times are scaled to (about its median on
#: the 2-vCPU host where the benchmark was written).
NOMINAL_S = 0.013

_MATRIX = np.random.default_rng(0).standard_normal((6, 10))


def probe_work() -> None:
    """The reference work: fixed, deterministic, independent of grassmoment."""
    total = Fraction(0)
    for k in range(1, 1200):
        total += Fraction(1, k)
    for _ in range(300):
        np.linalg.svd(_MATRIX)


class HostSpeed:
    """Probe the host while code runs, and keep a clock that stops during probes."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.durations: list[float] = []
        self.paused_s = 0.0
        self._running = False
        self._busy = False

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in probes so far.

        A probe may fire between any two bytecodes, so the pair is read
        again until no probe fell between the two reads.
        """
        while True:
            paused = self.paused_s
            now = time.perf_counter()
            if paused == self.paused_s:
                return now - paused

    def sample(self, record: bool = True) -> None:
        """Run one probe now; ``record=False`` only warms it up."""
        self._busy = True
        started = time.perf_counter()
        probe_work()
        duration = time.perf_counter() - started
        self.paused_s += duration
        self._busy = False
        if record:
            self.durations.append(duration)

    def _fire(self, signum, frame) -> None:
        if not self._busy:  # the timer fell inside an explicit sample
            self.sample()
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def start(self) -> None:
        """Warm the probe, take one sample, then probe every ``interval_s``.

        The timer is re-armed only after each probe ends, so probes never
        nest.
        """
        self.sample(record=False)
        self.sample()
        self._running = True
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Index of the next probe, to scale what runs from here on."""
        return len(self.durations)

    def mean_probe_s(self, since: int = 0) -> float:
        """Mean probe seconds from probe ``since`` on (NOMINAL_S if none)."""
        recent = self.durations[since:]
        return statistics.fmean(recent) if recent else NOMINAL_S

    def scale(self, since: int = 0) -> float:
        """Factor from clock seconds to nominal-host seconds since ``since``."""
        return NOMINAL_S / self.mean_probe_s(since)
