"""Spans, timing proxies and per-module self time for the traced run.

Everything here wraps the benchmark's *own* calls into the product
(``Measurement.run``, ``execute_plan``, the cache and journal objects
handed to it); nothing inside ``src/repro`` is patched.  The untraced
run uses :data:`NULL_TRACER`, whose spans cost one no-op call per cell.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

from repro.perf import Instrumentation

#: Modules whose self time is reported under their own name; every
#: other frame falls into one of the ``ext.*`` buckets.
PROFILED_MODULES = (
    "sim.engine", "sim.arena", "netsim.link", "netsim.host",
    "netsim.packet", "tcp.endpoint", "tcp.reassembly", "tcp.segment",
    "core.connection", "core.scheduler", "core.subflow", "core.coupling",
    "core.receive_buffer", "trace.capture", "trace.metrics",
    "world.fluid", "world.arrivals", "experiments.runner",
    "experiments.parallel", "experiments.storage", "cache.store",
)
PROFILE_BUCKETS = PROFILED_MODULES + (
    "ext.numpy", "ext.builtins", "ext.other")


class NullTracer:
    """Tracing off: spans and proxies vanish."""

    enabled = False
    #: ``Measurement(metrics=...)`` mode for cells run under this tracer.
    metrics_mode = "off"
    #: The current round's ``Instrumentation``; ``None`` leaves the
    #: product on its free null instrumentation.
    inst = None
    _no_span = nullcontext()

    def span(self, name: str, cell: Optional[str] = None):
        return self._no_span

    def timed(self, store, layer: str, methods: Tuple[str, ...]):
        return store

    def note(self, name: str, value: float) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """In-memory span recorder; one instance per traced workload run.

    A span is ``{id, name, start, end, parent, cell}``: ``parent`` is
    the id of the span that was open when this one started, ``cell`` the
    benchmark cell it belongs to (inherited from the parent), and times
    are ``time.perf_counter()`` seconds.
    """

    enabled = True
    metrics_mode = "on"

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []
        self.facts: Dict[str, float] = {}

    def begin_round(self) -> int:
        """Reset the per-round state; returns the first span id of the
        round for :meth:`totals`."""
        self.inst = SpanInstrumentation(self)
        self.facts = {}
        return len(self.spans)

    def note(self, name: str, value: float) -> None:
        """Accumulate a per-round fact a span cannot carry (byte and
        hit counts read off the stores)."""
        self.facts[name] = self.facts.get(name, 0) + value

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if cell is None and parent is not None:
            cell = self.spans[parent]["cell"]
        record = {"id": len(self.spans), "name": name, "start": 0.0,
                  "end": 0.0, "parent": parent, "cell": cell}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def timed(self, store, layer: str, methods: Tuple[str, ...]):
        return TimedStore(store, self, layer, methods)

    def totals(self, since: int = 0) -> Dict[str, Tuple[int, float]]:
        """``{span name: (count, summed seconds)}`` from span ``since``."""
        totals: Dict[str, Tuple[int, float]] = {}
        for record in self.spans[since:]:
            count, seconds = totals.get(record["name"], (0, 0.0))
            totals[record["name"]] = (
                count + 1, seconds + record["end"] - record["start"])
        return totals

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"clock": "time.perf_counter seconds",
                       "spans": self.spans}, handle)


class SpanInstrumentation(Instrumentation):
    """The public phase timers, with each phase also kept as a span."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        with self._tracer.span(f"experiments.runner.{name}"):
            with super().phase(name):
                yield


class TimedStore:
    """Stands in for a ``RunCache`` / ``ResultJournal`` handed to
    ``execute_plan`` and records a span around each listed method."""

    def __init__(self, store, tracer: Tracer, layer: str,
                 methods: Tuple[str, ...]) -> None:
        self._store = store
        for method in methods:
            setattr(self, method, self._wrap(
                getattr(store, method), tracer, f"{layer}.{method}"))

    @staticmethod
    def _wrap(call, tracer: Tracer, name: str):
        def timed(*args):
            with tracer.span(name):
                return call(*args)
        return timed

    def __getattr__(self, name: str):
        return getattr(self._store, name)


def _bucket(filename: str, function: str) -> str:
    if filename == "~":
        return "ext.numpy" if "numpy" in function else "ext.builtins"
    normalised = filename.replace("\\", "/")
    if "/numpy/" in normalised:
        return "ext.numpy"
    marker = normalised.rfind("/repro/")
    if marker >= 0:
        module = normalised[marker + len("/repro/"):-len(".py")]
        module = module.replace("/", ".")
        if module in PROFILED_MODULES:
            return module
    return "ext.other"


def profile_by_module(call):
    """Run ``call()`` under cProfile.

    Returns ``(call's result, {bucket: (self seconds, calls)})``.  Self
    time is ``tottime``, which already excludes callees, so the buckets
    partition the profiled wall time.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = call()
    finally:
        profiler.disable()
    buckets = {name: (0.0, 0) for name in PROFILE_BUCKETS}
    for (filename, _, function), (_, calls, tottime, _, _) in \
            pstats.Stats(profiler).stats.items():
        name = _bucket(filename, function)
        seconds, count = buckets[name]
        buckets[name] = (seconds + tottime, count + calls)
    return result, buckets
