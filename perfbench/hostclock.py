"""Host-speed calibration: seconds on a reference-speed host.

On the shared 2-core box this benchmark was sized on, the same
pure-Python loop drifts by 60% over multi-second phases of one run, and
a quarter of the time it sits in 0.1-0.5 s episodes that slow everything
by ~40%.  Raw wall clock cannot tell a code change from either.  Every
time metric is therefore reported as

    measured * CAL_REF_S / mean(kernel samples taken while it ran)

The samples come from :class:`HostSampler`: an interval timer interrupts
the main thread every :data:`PERIOD_S` *during* the measured work, and
the signal handler runs one fixed ~0.7 ms kernel and records the
kernel's thread CPU time.  Work and samples thus share a thread, a core,
its clock and its caches, and see the same drift and the same episodes.

Three other forms were measured first and dropped.  One before/after
bracket per round, and kernels run between cells, sample the host
*around* the work and miss the episodes inside it (cv 11.5% against 3.1%
in-situ on one 0.6 s cell).  A sampler *thread* is in-situ too, but it
wakes on whichever core is idle: over a noisy minute of ``fluid_world``
rounds its kernel time rose only half as fast as the round time
(log-log slope 0.49, normalised cv 12.0% against 13.1% raw) where the
main-thread samples rose in step (slope 1.02, cv 7.7%).

The sampling costs the measured work about 2% of its wall time, the
same on both sides of any comparison.  Thread CPU time, not wall time,
is recorded for the kernel, so that a main thread that waits for a core
behind ``campaign_cold``'s two pool workers does not read as a slow host.

The kernel mixes the operations the simulator's hot path is made of
(small-int arithmetic, dict traffic, ``heapq`` churn, one
``numpy.searchsorted``) so that it slows down when the product does.
It is frozen: changing :func:`kernel`, :data:`PERIOD_S` or
:data:`CAL_REF_S` rescales every time metric and invalidates comparison
with earlier baselines.
"""

from __future__ import annotations

import heapq
import resource
import signal
import time
from bisect import bisect_left, bisect_right
from typing import List, Tuple

import numpy

#: Thread CPU seconds of one :func:`kernel` on the reference host (the
#: box the first baseline in README.md was measured on, when calm).
CAL_REF_S = 0.00066

#: Time between two samples.
PERIOD_S = 0.03

#: A timed region shorter than this borrows samples from this far on
#: either side (the host's slow episodes last 0.1-0.5 s, so a sample
#: that close still describes the region).
PAD_S = 0.25

_KERNEL_STEPS = 1_500
_EDGES = numpy.arange(0, 65_536, 16, dtype=numpy.int64)
_PROBES = numpy.arange(0, 65_536, 1_024, dtype=numpy.int64)


def kernel() -> int:
    """One fixed unit of interpreter work; returns a checksum."""
    acc = 0
    table = {}
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    for step in range(_KERNEL_STEPS):
        value = (step * 2_654_435_761) & 0xFFFF
        slot = value & 255
        table[slot] = table.get(slot, 0) + step
        push(heap, (value, step))
        if step & 3 == 3:
            acc += pop(heap)[0]
    acc += int(numpy.searchsorted(_EDGES, _PROBES).sum()) + len(table)
    return acc


class HostSampler:
    """Samples the host's speed on the main thread, from ``start`` to
    ``stop``, off ``SIGALRM`` (which the product never uses)."""

    def __init__(self) -> None:
        #: (``perf_counter`` at the sample, kernel thread-CPU seconds)
        self.samples: List[Tuple[float, float]] = []

    def start(self) -> None:
        # Pool workers forked later inherit the handler but no timer.
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, signum, frame) -> None:
        started = time.thread_time()
        kernel()
        self.samples.append(
            (time.perf_counter(), time.thread_time() - started))

    def factor(self, started: float, ended: float) -> float:
        """Multiplier turning raw seconds measured between the two
        ``perf_counter`` readings into reference-host seconds."""
        samples = self.samples
        low = bisect_left(samples, (started - PAD_S,))
        high = bisect_right(samples, (ended + PAD_S,))
        if low == high:
            raise RuntimeError(
                f"no host-speed sample within {PAD_S} s of a timed "
                f"region of {ended - started:.3f} s")
        window = samples[low:high]
        return CAL_REF_S * len(window) / sum(cpu for _, cpu in window)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    # process_time and rusage are microsecond clocks; os.times() ticks
    # at 10 ms, which is 3% of a short_flows round.
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime
