"""The shared MPTCP receive buffer with out-of-order delay accounting.

Section 3.3 of the paper defines the metric this module exists for:

    "Out-of-order delay is defined to be the time difference between
    when a packet arrives at the receive buffer to when its data
    sequence number is in-order."

In-order segments from one subflow may still wait here because their
*data* sequence numbers trail packets still in flight on the other
(slower) path.  The paper's testbed sizes this buffer (8 MB) so that it
never limits the transfer, making the measured delay purely a
reordering effect; we default to the same size and expose occupancy so
the advertised connection-level window is honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.bus import NULL_TRACE_BUS
from repro.tcp.reassembly import ReassemblyQueue


@dataclass
class OfoSample:
    """One delivered range: its reorder delay and provenance."""

    delay: float
    nbytes: int
    path: str


@dataclass
class ReceiveBufferMetrics:
    """Aggregates read by the measurement layer.

    Samples are stored column-wise (three parallel lists) instead of
    one object per delivered range: at millions of delivered ranges per
    campaign the per-sample dataclass allocation dominated the receive
    path, and the analysis layer only ever consumes whole columns
    (:meth:`delays`) anyway.  :attr:`samples` materializes the old
    object view for tests and ad-hoc inspection.
    """

    delay_col: List[float] = field(default_factory=list)
    nbytes_col: List[int] = field(default_factory=list)
    path_col: List[str] = field(default_factory=list)
    bytes_by_path: Dict[str, int] = field(default_factory=dict)
    delivered_bytes: int = 0
    peak_occupancy: int = 0

    def record(self, delay: float, nbytes: int, path: str) -> None:
        """Append one delivered range to the sample columns."""
        self.delay_col.append(delay)
        self.nbytes_col.append(nbytes)
        self.path_col.append(path)

    @property
    def samples(self) -> List[OfoSample]:
        """Row view over the sample columns (compatibility helper)."""
        return [OfoSample(delay, nbytes, path)
                for delay, nbytes, path
                in zip(self.delay_col, self.nbytes_col, self.path_col)]

    def delays(self) -> List[float]:
        """Per-range reorder delays in seconds (0.0 = arrived in order)."""
        return list(self.delay_col)

    def in_order_fraction(self) -> float:
        """Fraction of ranges delivered with no reorder wait."""
        if not self.delay_col:
            return 1.0
        in_order = sum(1 for delay in self.delay_col if delay <= 1e-9)
        return in_order / len(self.delay_col)


class ConnectionReceiveBuffer:
    """Data-sequence-space reordering for one MPTCP connection side."""

    def __init__(self, capacity: int = 8 * 1024 * 1024,
                 clock: Optional[Callable[[], float]] = None,
                 trace=NULL_TRACE_BUS) -> None:
        self.capacity = capacity
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._queue = ReassemblyQueue(rcv_nxt=0)
        self.metrics = ReceiveBufferMetrics()
        self.on_deliver: Optional[Callable[[int], None]] = None
        # Blocked-interval tracking (rbuf.blocked / rbuf.unblocked
        # trace events); only maintained while tracing is enabled.
        self._trace = trace
        self._blocked_since: Optional[float] = None

    @property
    def rcv_nxt(self) -> int:
        """The connection-level cumulative point (the DATA_ACK value)."""
        return self._queue.rcv_nxt

    def free_space(self) -> int:
        """Bytes of capacity left (drives the advertised window)."""
        free = self.capacity - self._queue.buffered_bytes
        return free if free > 0 else 0

    def offer(self, dsn_start: int, dsn_end: int, arrival_time: float,
              path: str) -> int:
        """Insert a received DSN range; returns newly accepted bytes.

        Reorder delay for each range is measured from ``arrival_time``
        (when the packet reached the host) to the moment the range's
        data sequence numbers become in-order.
        """
        accepted = self._queue.offer(
            dsn_start, dsn_end, meta=(arrival_time, path),
            on_in_order=self._in_order)
        if accepted:
            self.metrics.bytes_by_path[path] = (
                self.metrics.bytes_by_path.get(path, 0) + accepted)
            occupancy = self._queue.buffered_bytes
            if occupancy > self.metrics.peak_occupancy:
                self.metrics.peak_occupancy = occupancy
            if (self._trace.enabled and self._blocked_since is None
                    and occupancy >= self.capacity):
                self._blocked_since = self._clock()
                self._trace.emit(self._blocked_since, "rbuf.blocked",
                                 occupancy=occupancy, path=path)
        return accepted

    def _in_order(self, start: int, end: int,
                  meta: Tuple[float, str]) -> None:
        arrival_time, path = meta
        delay = max(self._clock() - arrival_time, 0.0)
        nbytes = end - start
        self.metrics.record(delay, nbytes, path)
        self.metrics.delivered_bytes += nbytes
        if (self._blocked_since is not None
                and self._queue.buffered_bytes < self.capacity):
            now = self._clock()
            self._trace.emit(now, "rbuf.unblocked",
                             blocked_for=now - self._blocked_since)
            self._blocked_since = None
        if self.on_deliver is not None:
            self.on_deliver(nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ConnectionReceiveBuffer rcv_nxt={self.rcv_nxt} "
                f"ooo={self._queue.buffered_bytes}B/{self.capacity}B>")
