"""A clock for a shared host: region times scaled to a reference host speed.

The benchmark shares its host with other tenants, and their load changes
this process's speed by up to a third, both from one second to the next
and over minutes.  :class:`HostClock` measures the host's speed *inside*
the region it times: an interval timer (``SIGALRM``) interrupts the
region every :data:`INTERVAL_S` and runs :func:`probe`, a fixed piece of
heap, dict and string work.  The probe is the benchmark's own code, so no
change to ``repro`` moves it.  The probes' time is taken out of the
region's time, and the rest is scaled by :data:`REFERENCE_PROBE_S` ÷ the
mean probe time, so it reads as on a host where the probe takes the
reference time.

Usage::

    with HostClock() as clock:
        work()
    clock.wall_s        # host wall time of the region, probes included
    clock.program_s     # wall_s minus the probes' time
    clock.reference_s   # program_s scaled to the reference host

One clock runs at a time; the handler stays installed between clocks and
does nothing while none runs.
"""

from __future__ import annotations

import heapq
import signal
import time

#: Seconds between probes; with a probe of about 0.5 ms the probes take
#: about 2.5% of a region's wall time.
INTERVAL_S = 0.02
#: Seconds :func:`probe` takes on the reference host (about its time on
#: the 2-vCPU box the benchmark was sized on).
REFERENCE_PROBE_S = 0.0005

_running: HostClock | None = None


def probe() -> None:
    """A fixed piece of pure-Python heap, dict and string work."""
    heap: list = []
    counts: dict[int, int] = {}
    for i in range(400):
        heapq.heappush(heap, (i * 7919 % 1000, i, str(i)))
        counts[i % 50] = counts.get(i % 50, 0) + 1
    while heap:
        heapq.heappop(heap)


def _on_alarm(signum, frame) -> None:
    clock = _running
    if clock is not None and not clock._probing:
        clock._probe()


class HostClock:
    """Wall time of one region, with the host's speed probed inside it."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.program_s = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self._probing = False
        self._started = 0.0

    def start(self) -> HostClock:
        global _running
        if _running is not None:
            raise RuntimeError("another HostClock is running")
        if signal.getsignal(signal.SIGALRM) is not _on_alarm:
            signal.signal(signal.SIGALRM, _on_alarm)
        _running = self
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> HostClock:
        """End the region; stopping a clock that is not running does nothing."""
        global _running
        if _running is not self:
            return self
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        _running = None
        self.wall_s = time.perf_counter() - self._started
        self.program_s = self.wall_s - self.probe_s
        if not self.probes:
            # A region shorter than one interval: probe right after it.
            self._probe()
        return self

    __enter__ = start

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def probe_mean_s(self) -> float:
        return self.probe_s / self.probes

    @property
    def reference_s(self) -> float:
        return self.program_s * REFERENCE_PROBE_S / self.probe_mean_s

    def _probe(self) -> None:
        self._probing = True
        started = time.perf_counter()
        probe()
        self.probe_s += time.perf_counter() - started
        self.probes += 1
        self._probing = False
