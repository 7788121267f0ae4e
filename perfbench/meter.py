"""Correct operation times for the host's contention.

On a shared host the CPU a run gets slows down by up to 2x in bursts that
last from a fraction of a second to the whole run.  A fixed reference
computation - the benchmark's own exact arithmetic, never the program's -
slows down with it: run on the same CPU between and during operations, its
time tracks theirs (correlation 0.99 over half-second windows).  The meter
runs the reference before every operation and, while a timer is armed,
every ``INTERVAL_S`` inside it.  An operation's corrected time is its time
minus the reference runs inside it, divided by the local slowdown: the mean
reference time around and inside it over ``REFERENCE_S``.

The reference runs with ``gc`` disabled, so that no collection the
program's allocations call for, and no full collection whose cost grows
with the program's heap, lands inside it: the divisor must follow the
host, not the program.  Collections that fall due stay in the program's
own code, where they belong to its time.

``REFERENCE_S`` is a constant, the reference's fastest time on the host
where the benchmark was defined (2 vCPUs of a 2.1 GHz Xeon, Python 3.11).
Corrected times therefore read as seconds on that host when uncontended.
A constant, rather than the fastest reference time of the run, keeps runs
that are slowed from start to end comparable with the others.
"""

from __future__ import annotations

import bisect
import gc
import signal
from array import array
from time import perf_counter

import inputs

INTERVAL_S = 0.02
REFERENCE_S = 0.0007


def reference() -> None:
    """About 0.7 ms of Fraction arithmetic on closed-form rotation sets."""
    for n in range(3, 7):
        for dep in inputs.deployments(3, n):
            inputs.is_rotation_set(inputs.closed_form_set(3, n, 1, dep), 3, 1)


class Meter:
    def __init__(self) -> None:
        self.starts = array("d")
        self.times = array("d")
        self._busy = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def sample(self) -> None:
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.times.append(end - start)
        self.starts.append(start)
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    @staticmethod
    def slowdown(times) -> float:
        return sum(times) / len(times) / REFERENCE_S

    def corrected(self, spans: list[tuple[float, float]]) -> list[float]:
        """Corrected seconds of each (start, end) operation span."""
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(self.starts, start)
            hi = bisect.bisect_left(self.starts, end)
            inside = self.times[lo:hi]
            around = list(inside) + [self.times[j] for j in (lo - 1, hi)
                                     if 0 <= j < len(self.times)]
            out.append((end - start - sum(inside)) / self.slowdown(around))
        return out
