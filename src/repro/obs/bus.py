"""The trace bus: typed protocol-event tracing for the simulator.

The bus is the observability counterpart of
:mod:`repro.perf.instrumentation`: a single object hung off the
:class:`~repro.sim.engine.Simulator` (``sim.trace``) that probe points
throughout the protocol stack emit structured events into.  Exactly
like ``NULL_INSTRUMENTATION``, the default is a slotted no-op
(:data:`NULL_TRACE_BUS`) whose ``enabled`` flag is ``False`` -- probe
sites guard with ``if trace.enabled:`` so a disabled bus costs one
attribute test on the hot path and builds no payload dicts.

Tracing is strictly *passive*: a probe point never schedules events,
never draws random numbers, and never alters control flow.  Enabling
or disabling tracing therefore leaves simulation results bit-for-bit
identical (the determinism guard pins this).

Event kinds form a dotted hierarchy so queries can match by prefix::

    sched.select        scheduler decision: candidates, chosen, reason
    cc.cwnd             cwnd/ssthresh transition (reason: slow_start,
                        congestion_avoidance, fast_retransmit, rto, ...)
    tcp.fast_retransmit fast retransmit fired
    rto.arm             RTO timer armed (timeout seconds)
    rto.fire            RTO fired (backoff count after doubling)
    mptcp.capable       MP_CAPABLE seen/negotiated
    mptcp.join          MP_JOIN seen/accepted/rejected
    mptcp.add_addr      ADD_ADDR advertised/received
    mptcp.fail          MP_FAIL sent/received
    mptcp.fallback      connection fell back to plain TCP
    mptcp.reinject      DSS reinjection of unacked spans
    rbuf.blocked        receive buffer filled (sender now rwnd-limited)
    rbuf.unblocked      receive buffer drained (blocked_for seconds)
    rrc.state           RRC state transition (old, new)
    path.up / path.down interface/path availability change
    probe.sample        a TimeSeriesProbe sample (name, value)

This module is intentionally stdlib-only: the engine imports it, so it
must not import any other ``repro`` module.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Callable, Iterator, List, Optional


class TraceEvent:
    """One traced protocol event.

    ``t`` is simulated time in seconds, ``kind`` a dotted event kind,
    ``subflow`` the subflow index the event concerns (``None`` for
    connection- or host-level events), and ``data`` a small dict of
    kind-specific payload fields.
    """

    __slots__ = ("t", "kind", "subflow", "data")

    def __init__(self, t: float, kind: str,
                 subflow: Optional[int] = None,
                 data: Optional[dict] = None) -> None:
        self.t = t
        self.kind = kind
        self.subflow = subflow
        self.data = data if data is not None else {}

    def to_dict(self) -> dict:
        record: dict = {"t": self.t, "kind": self.kind}
        if self.subflow is not None:
            record["subflow"] = self.subflow
        if self.data:
            record["data"] = self.data
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "TraceEvent":
        return cls(record["t"], record["kind"],
                   record.get("subflow"), record.get("data"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sub = f" sf={self.subflow}" if self.subflow is not None else ""
        return f"<TraceEvent {self.kind}{sub} t={self.t:.6f} {self.data!r}>"


class NullTraceBus:
    """Tracing disabled: every operation is a no-op.

    Slotted and stateless, mirroring ``NullInstrumentation``.  Probe
    sites check :attr:`enabled` before building payloads, so with this
    bus installed the cost per probe point is one attribute load and
    one branch.
    """

    __slots__ = ()
    enabled = False

    def emit(self, t: float, kind: str,
             subflow: Optional[int] = None, **data: Any) -> None:
        """Discard the event."""

    def events(self, kind: Optional[str] = None,
               subflow: Optional[int] = None,
               t0: Optional[float] = None,
               t1: Optional[float] = None) -> List[TraceEvent]:
        return []

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared do-nothing bus; the default value of ``Simulator.trace``.
NULL_TRACE_BUS = NullTraceBus()


def _match(event: TraceEvent, kind: Optional[str], subflow: Optional[int],
           t0: Optional[float], t1: Optional[float]) -> bool:
    """Filter predicate shared by every sink's query path.

    ``kind`` matches exactly or as a dotted prefix (``"rto"`` matches
    ``"rto.arm"`` and ``"rto.fire"``); ``t0``/``t1`` bound event time
    inclusively.
    """
    if kind is not None:
        ek = event.kind
        if ek != kind and not ek.startswith(kind + "."):
            return False
    if subflow is not None and event.subflow != subflow:
        return False
    if t0 is not None and event.t < t0:
        return False
    if t1 is not None and event.t > t1:
        return False
    return True


class MemorySink:
    """Retains every event in an unbounded list (tests, small runs)."""

    retains = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.append = self.events.append

    def __call__(self, event: TraceEvent) -> None:
        self.append(event)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class RingSink:
    """Flight recorder: keeps only the most recent ``maxlen`` events.

    Bounded memory regardless of run length, so it can stay enabled for
    long campaigns; when a run raises, :meth:`dump` writes the window
    leading up to the failure as JSONL.
    """

    retains = True

    def __init__(self, maxlen: int = 4096) -> None:
        self.ring: deque = deque(maxlen=maxlen)
        self.append = self.ring.append

    def __call__(self, event: TraceEvent) -> None:
        self.append(event)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.ring)

    def __len__(self) -> int:
        return len(self.ring)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def dump(self, path: str) -> int:
        """Write the ring to ``path`` as JSONL; returns events written.

        Written atomically (temp file + ``os.replace``) so a dump that
        itself crashes cannot leave a truncated file behind.
        """
        tmp = f"{path}.tmp"
        count = 0
        with open(tmp, "w", encoding="utf-8") as handle:
            for event in self.ring:
                handle.write(json.dumps(event.to_dict(),
                                        separators=(",", ":")) + "\n")
                count += 1
        os.replace(tmp, path)
        return count


class JsonlSink:
    """Streams events to a JSONL file, buffered on a byte/line threshold.

    Serialized lines accumulate in memory and are written in one
    ``write`` call once either ``flush_bytes`` or ``flush_lines`` is
    reached — one syscall per batch instead of per event.  Owners must
    :meth:`close` the sink (run teardown does; see
    ``Measurement.run``'s ``finally``) so the tail buffer reaches disk;
    a process killed mid-write can still leave at most one torn
    trailing line, which every ingester tolerates, mirroring
    ``ResultJournal``.
    """

    retains = False

    def __init__(self, path: str, flush_bytes: int = 64 * 1024,
                 flush_lines: int = 256) -> None:
        self.path = path
        self.flush_bytes = flush_bytes
        self.flush_lines = flush_lines
        self._handle = open(path, "w", encoding="utf-8")
        self._buffer: List[str] = []
        self._buffered_bytes = 0

    def __call__(self, event: TraceEvent) -> None:
        line = json.dumps(event.to_dict(), separators=(",", ":")) + "\n"
        self._buffer.append(line)
        self._buffered_bytes += len(line)
        if (self._buffered_bytes >= self.flush_bytes
                or len(self._buffer) >= self.flush_lines):
            self.flush()

    def flush(self) -> None:
        if self._handle.closed:
            return
        if self._buffer:
            self._handle.write("".join(self._buffer))
            self._buffer.clear()
            self._buffered_bytes = 0
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self.flush()
            self._handle.close()


class TraceBus:
    """An enabled trace bus dispatching to one or more sinks.

    Sinks are callables taking a :class:`TraceEvent`.  Sinks with a
    truthy ``retains`` attribute (memory, ring) also serve the
    :meth:`events` query API; the first retaining sink wins.
    """

    __slots__ = ("enabled", "_sinks", "_single")

    def __init__(self, *sinks: Callable[[TraceEvent], None]) -> None:
        self.enabled = True
        self._sinks = list(sinks)
        # The overwhelmingly common case is one sink; dispatching to it
        # directly skips a loop per event.
        self._single = sinks[0] if len(sinks) == 1 else None

    def add_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        self._sinks.append(sink)
        self._single = self._sinks[0] if len(self._sinks) == 1 else None

    def emit(self, t: float, kind: str,
             subflow: Optional[int] = None, **data: Any) -> None:
        event = TraceEvent(t, kind, subflow, data)
        single = self._single
        if single is not None:
            single(event)
            return
        for sink in self._sinks:
            sink(event)

    def events(self, kind: Optional[str] = None,
               subflow: Optional[int] = None,
               t0: Optional[float] = None,
               t1: Optional[float] = None) -> List[TraceEvent]:
        """Query retained events, filtered by kind prefix / subflow /
        inclusive time window.  Returns ``[]`` when no sink retains."""
        for sink in self._sinks:
            if getattr(sink, "retains", False):
                return [e for e in sink
                        if _match(e, kind, subflow, t0, t1)]
        return []

    @property
    def sinks(self) -> List[Callable[[TraceEvent], None]]:
        return list(self._sinks)

    def flush(self) -> None:
        for sink in self._sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a JSONL trace (stream or flight-recorder dump) back into
    :class:`TraceEvent` objects.  Tolerates a truncated trailing line,
    mirroring the results-file scanner."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(TraceEvent.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError):
                break
    return events


def make_trace_bus(mode: str, path: Optional[str] = None):
    """Build a bus for a CLI/runner trace mode.

    ``"off"`` returns :data:`NULL_TRACE_BUS`; ``"ring"`` a bus with a
    flight-recorder :class:`RingSink`; ``"jsonl"`` a bus streaming to
    ``path`` (required).  Unknown modes raise ``ValueError``.
    """
    if mode == "off":
        return NULL_TRACE_BUS
    if mode == "ring":
        return TraceBus(RingSink())
    if mode == "jsonl":
        if not path:
            raise ValueError("trace mode 'jsonl' requires a path")
        return TraceBus(JsonlSink(path))
    raise ValueError(f"unknown trace mode {mode!r}")


def ring_of(bus) -> Optional[RingSink]:
    """The bus's flight-recorder sink, if it has one."""
    for sink in getattr(bus, "sinks", ()):
        if isinstance(sink, RingSink):
            return sink
    return None
