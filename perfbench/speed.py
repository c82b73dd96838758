"""Host-speed probe: job wall time scaled to a reference host speed.

On a shared host the wall time of the same job swings by tens of percent
from one second to the next as the load of the host changes, which no
number of repeats within one run averages out.  So while a job runs, a
``SIGALRM`` timer interrupts it every ``PERIOD_S`` seconds of wall time and
runs a fixed probe: a chain of small numpy operations, about 0.5 ms.  How
long the probe takes says how fast the host runs at that moment.  Each
stretch of job time is scaled by ``REFERENCE_PROBE_S`` over the duration of
the probe that ends it, and one more probe ends the job.  The sum reads as
the job's wall time on a host where the probe takes ``REFERENCE_PROBE_S``.

A chain of small numpy operations tracks the jobs' slowdowns far better
than a pure-Python loop: on a shared 2-vCPU host the scaled time of a
repeated ``validate`` varied 2 to 4 % (coefficient of variation) where the
wall time varied 9 to 28 %.  The probes' own time is left out of both the
raw and the scaled job time; it adds about 1 % to the job's wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
REFERENCE_PROBE_S = 5e-4
_PROBE_OPS = 150
_PROBE_ARRAY = np.arange(64.0)


def probe() -> tuple[float, float]:
    """Run the fixed probe once; return its start and duration."""
    start = time.perf_counter()
    a = _PROBE_ARRAY
    for _ in range(_PROBE_OPS):
        a = np.sqrt(a * 1.0001 + 1.0)
    return start, time.perf_counter() - start


def scaled_seconds(begin: float, probes: list[tuple[float, float]]) -> tuple[float, float]:
    """Job time from ``begin`` less the probes, raw and scaled.

    ``probes`` are (start, duration) in time order; the last one starts when
    the job ends.  Each stretch of job time before a probe is scaled by
    ``REFERENCE_PROBE_S / duration`` of that probe.
    """
    raw = scaled = 0.0
    prev = begin
    for start, duration in probes:
        stretch = max(0.0, start - prev)
        raw += stretch
        scaled += stretch * REFERENCE_PROBE_S / duration
        prev = start + duration
    return raw, scaled


class SpeedClock:
    """Context manager timing one job: ``raw`` and ``scaled`` seconds."""

    def __init__(self):
        self.raw = self.scaled = 0.0
        self._probes: list[tuple[float, float]] = []
        self._on = False

    def _tick(self, signum, frame) -> None:
        if self._on:
            self._probes.append(probe())

    def __enter__(self) -> "SpeedClock":
        self._probes = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._on = True
        self._begin = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        _, duration = probe()
        self._probes.append((end, duration))
        self.raw, self.scaled = scaled_seconds(self._begin, self._probes)
