"""Lightweight performance instrumentation for measurement runs.

:class:`Instrumentation` accumulates named phase timers (wall-clock),
arbitrary counters, an engine snapshot (events processed and scheduled,
pool reuses, heap high-water mark), and -- opt-in, because it slows
execution considerably -- allocation statistics via :mod:`tracemalloc`.
A null implementation (:data:`NULL_INSTRUMENTATION`) makes the hooks
free when nobody is measuring.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional


class NullInstrumentation:
    """No-op stand-in so instrumented code needs no branching."""

    enabled = False

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        yield

    def add(self, name: str, value: float = 1) -> None:
        pass

    def observe_simulator(self, sim) -> None:
        pass

    def report(self) -> Dict[str, Any]:
        return {}


#: Shared no-op instance; the default for instrumented entry points.
NULL_INSTRUMENTATION = NullInstrumentation()


class Instrumentation(NullInstrumentation):
    """Collects per-phase timings and engine statistics for one or more
    measurement runs.

    Args:
        trace_allocations: start :mod:`tracemalloc` and report the peak
            traced allocation size.  Expensive (several times slower);
            off by default.
    """

    enabled = True

    def __init__(self, trace_allocations: bool = False) -> None:
        self.phases: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self._trace_allocations = trace_allocations
        self._tracemalloc_started = False
        if trace_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._tracemalloc_started = True

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named phase; repeated phases accumulate."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def add(self, name: str, value: float = 1) -> None:
        """Accumulate an arbitrary counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def observe_simulator(self, sim) -> None:
        """Fold one simulator's engine statistics into the counters."""
        self.add("events_processed", sim.events_processed)
        self.add("events_scheduled", sim.events_scheduled)
        self.add("events_posted", sim.events_posted)
        self.add("pool_reuses", sim.pool_reuses)
        self.add("heap_compactions", sim.heap_compactions)
        # Packet-core telemetry: batched link deliveries and the
        # sender scoreboard's occupancy high-water mark.
        self.add("batches_posted", sim.batches_posted)
        self.add("batch_entries", sim.batch_entries)
        self.add("batch_inline", sim.batch_inline)
        for name, value in (("peak_heap", sim.peak_heap),
                            ("arena_peak", sim.arena_peak)):
            if value > self.counters.get(name, 0):
                self.counters[name] = value

    def events_per_sec(self, phase: str = "simulate") -> Optional[float]:
        """Engine throughput: events processed over a phase's seconds."""
        elapsed = self.phases.get(phase)
        events = self.counters.get("events_processed")
        if not elapsed or not events:
            return None
        return events / elapsed

    def merge_report(self, report: Dict[str, Any]) -> None:
        """Fold another instrumentation's :meth:`report` into this one.

        Campaign workers run in separate processes, so their phase
        timers and counters never reach the parent's profiler; the
        executor ships each worker's report back and the parent merges
        them here (``--profile`` under ``--jobs N``).  Phase times and
        counters accumulate; ``peak_heap`` takes the maximum.
        """
        if not report:
            return
        for name, elapsed in report.get("phases_s", {}).items():
            self.phases[name] = self.phases.get(name, 0.0) + elapsed
        for name, value in report.get("counters", {}).items():
            if name in ("peak_heap", "arena_peak"):
                if value > self.counters.get(name, 0):
                    self.counters[name] = value
            else:
                self.add(name, value)

    def report(self) -> Dict[str, Any]:
        """A JSON-ready summary of everything collected so far."""
        report: Dict[str, Any] = {
            "phases_s": {name: round(elapsed, 6)
                         for name, elapsed in self.phases.items()},
            "counters": dict(self.counters),
        }
        events_per_sec = self.events_per_sec()
        if events_per_sec is not None:
            report["events_per_sec"] = round(events_per_sec)
        batches = self.counters.get("batches_posted", 0)
        if batches:
            report["mean_burst"] = round(
                self.counters.get("batch_entries", 0) / batches, 3)
        if self._trace_allocations and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            report["tracemalloc"] = {"current_bytes": current,
                                     "peak_bytes": peak}
        return report

    def stop(self) -> None:
        """Stop tracemalloc if this instance started it."""
        if self._tracemalloc_started and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._tracemalloc_started = False
