"""repro.obs -- observability: event tracing, metrics, telemetry.

The layers (see docs/observability.md):

* :mod:`repro.obs.bus` -- the :class:`TraceBus` protocol-event bus and
  its sinks (flight-recorder ring, JSONL stream, in-memory), plus the
  slotted no-op :data:`NULL_TRACE_BUS` installed on every simulator by
  default.
* :mod:`repro.obs.metrics` -- the counters / gauges / histograms
  registry, with the same null-object discipline as the bus.
* :mod:`repro.obs.pathmetrics` -- per-path health EWMAs, a passive
  sink on the trace bus.
* :mod:`repro.obs.telemetry` -- live campaign telemetry: per-worker
  heartbeats, the per-campaign ``run_log.jsonl``, and the parent-side
  progress renderer.
* :mod:`repro.obs.analytics` -- the SQLite store behind
  ``repro report``.

``pathmetrics`` and ``telemetry`` are imported lazily so that the
simulation engine (which imports this package for the null bus) never
pulls the protocol stack back in.
"""

from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    make_metrics,
)
from repro.obs.bus import (
    NULL_TRACE_BUS,
    JsonlSink,
    MemorySink,
    NullTraceBus,
    RingSink,
    TraceBus,
    TraceEvent,
    make_trace_bus,
    read_jsonl,
    ring_of,
)

__all__ = [
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "make_metrics",
    "NULL_TRACE_BUS",
    "JsonlSink",
    "MemorySink",
    "NullTraceBus",
    "RingSink",
    "TraceBus",
    "TraceEvent",
    "make_trace_bus",
    "read_jsonl",
    "ring_of",
    "PathHealth",
    "PathMetricsTap",
    "ensure_path_metrics",
    "metrics_tap",
    "RunLog",
    "Heartbeat",
    "ProgressRenderer",
]

_LAZY = {
    "PathHealth": "repro.obs.pathmetrics",
    "PathMetricsTap": "repro.obs.pathmetrics",
    "ensure_path_metrics": "repro.obs.pathmetrics",
    "metrics_tap": "repro.obs.pathmetrics",
    "RunLog": "repro.obs.telemetry",
    "Heartbeat": "repro.obs.telemetry",
    "ProgressRenderer": "repro.obs.telemetry",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
