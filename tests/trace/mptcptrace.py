"""MPTCP-level trace analysis (an mptcptrace equivalent).

tcptrace sees subflows; the MPTCP story lives in the *data sequence
numbers* that ride in the DSS options.  This analyzer reconstructs the
connection-level view purely from a client-side capture:

* per-packet **out-of-order delay**: a packet's wait between its
  arrival and the instant the connection-level cumulative point passes
  it -- computable from (arrival time, dsn, length) alone, and
  cross-validated against the receive buffer's exact accounting in the
  test suite;
* per-path byte shares and DSN progress over time (who carried which
  part of the stream when);
* connection-level goodput from first to last distinct DSN.

Campaigns read these numbers from the receive buffer's own accounting
(``connection.receive_buffer.metrics``); this capture-only
re-derivation is the independent reference ``test_mptcptrace.py``
holds that accounting against, the way the paper's mptcptrace worked
on pcaps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.connection import path_name_of
from repro.trace.capture import PacketCapture


@dataclass
class MptcpTraceAnalysis:
    """Connection-level metrics reconstructed from DSS options."""

    #: Per delivered range: reorder delay in seconds (0.0 = in order).
    ofo_delays: List[float] = field(default_factory=list)
    #: Unique stream bytes first carried by each client path.
    bytes_by_path: Dict[str, int] = field(default_factory=dict)
    #: Duplicate payload bytes (reinjection / redundant scheduling).
    duplicate_bytes: int = 0
    first_data_time: Optional[float] = None
    last_data_time: Optional[float] = None
    stream_bytes: int = 0

    def in_order_fraction(self) -> float:
        if not self.ofo_delays:
            return 1.0
        in_order = sum(1 for delay in self.ofo_delays if delay <= 1e-9)
        return in_order / len(self.ofo_delays)

    def cellular_fraction(self) -> float:
        total = sum(self.bytes_by_path.values())
        if total == 0:
            return 0.0
        return (total - self.bytes_by_path.get("wifi", 0)) / total

    def goodput_bps(self) -> float:
        if (self.first_data_time is None or self.last_data_time is None
                or self.last_data_time <= self.first_data_time):
            return 0.0
        duration = self.last_data_time - self.first_data_time
        return self.stream_bytes * 8.0 / duration


def analyze_mptcp(capture: PacketCapture) -> MptcpTraceAnalysis:
    """Reconstruct the connection-level view from a client capture.

    Only received data packets carrying DSS mappings participate; the
    cumulative point replays exactly the receive buffer's behaviour
    (duplicates trimmed, holes filled when their packet arrives).
    The capture must keep records (``keep_records=True``).
    """
    analysis = MptcpTraceAnalysis()
    # (arrival_time, order, dsn_start, dsn_end, path)
    arrivals: List[Tuple[float, int, int, int, str]] = []
    for order, record in enumerate(capture.records):
        if (record.direction != "recv" or record.payload_len == 0
                or record.dsn is None):
            continue
        arrivals.append((record.time, order, record.dsn,
                         record.dsn + record.dss_len,
                         path_name_of(record.dst)))
    if not arrivals:
        return analysis
    arrivals.sort()
    analysis.first_data_time = arrivals[0][0]
    analysis.last_data_time = arrivals[-1][0]

    covered_end = 0  # connection-level cumulative point
    #: Held ranges: heap of (dsn_start, dsn_end, arrival_time, path).
    held: List[Tuple[int, int, float, str]] = []
    for time, _, start, end, path in arrivals:
        # Trim against what is already contiguous.
        new_start = max(start, covered_end)
        if new_start >= end:
            analysis.duplicate_bytes += end - start
            continue
        analysis.duplicate_bytes += new_start - start
        heapq.heappush(held, (new_start, end, time, path))
        # Drain everything that has become contiguous.
        while held and held[0][0] <= covered_end:
            range_start, range_end, arrival, range_path = \
                heapq.heappop(held)
            if range_end <= covered_end:
                analysis.duplicate_bytes += range_end - range_start
                continue
            delivered_start = max(range_start, covered_end)
            nbytes = range_end - delivered_start
            covered_end = range_end
            analysis.ofo_delays.append(max(time - arrival, 0.0))
            analysis.bytes_by_path[range_path] = (
                analysis.bytes_by_path.get(range_path, 0) + nbytes)
            analysis.stream_bytes += nbytes
    return analysis
