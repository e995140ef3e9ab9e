"""A probe of how fast this process runs, sampled while a timed call runs.

On a shared machine the speed of the processor this process runs on
changes by tens of percent within seconds, as other tenants come and go:
the same estimate takes 2.5 s in one minute and 4.2 s in the next.  A raw
wall time then measures the neighbours as much as the program.

``SpeedProbe`` runs a fixed piece of interpreter work from a SIGALRM timer
every ``PERIOD_S`` seconds, on the main thread, between the timed call's
own steps, and records how long each run of it took.  If the process runs
at speed v(t), the work a call does in wall time T is the integral of v
over T, and the probes sample v uniformly in time.  So

    normalized time = T * mean(PROBE_REF_S / probe duration)

is the time the call would take at the speed where one probe takes
``PROBE_REF_S``.  No thread or process is started.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
# duration of one probe at the reference speed (fast state of a 2-vCPU
# Xeon guest); a fixed constant, so it only sets the scale of the result
PROBE_REF_S = 0.25e-3


def _probe_work() -> int:
    # pure interpreter arithmetic: a signal handler may run in the middle
    # of an import or a library call, so the probe touches no module state
    acc = 0
    for i in range(5000):
        acc += i * i
    return acc


class SpeedProbe:
    """Context manager: samples the probe while the block runs.

    ``factor()`` is mean(PROBE_REF_S / duration) over the samples taken
    since its last call: the measured speed in units of the reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._used = 0

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Measured speed over reference speed for the samples since the
        last call; 1 when no probe ran."""
        fresh = self.samples[self._used :]
        self._used = len(self.samples)
        if not fresh:
            return 1.0
        return sum(PROBE_REF_S / s for s in fresh) / len(fresh)
