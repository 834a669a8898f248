"""Measurement layer: tcpdump and tcptrace, simulated.

The paper collects packet traces with tcpdump at *both* the server and
the client and analyzes them with tcptrace (Section 3.2).  We do the
same:

* :mod:`repro.trace.capture` -- :class:`PacketCapture` attaches to a
  host and streams every packet sent or received through per-flow
  analysis state; with ``keep_records=True`` it also stores a
  :class:`PacketRecord` per packet, including the MPTCP DSS fields.
* :mod:`repro.trace.analyzer` -- per-flow analysis implementing the
  Section 3.3 metric definitions: RTT samples (data packet to covering
  ACK, retransmissions excluded), loss rate (retransmitted / sent data
  packets), throughput and duration.  One algorithm, fed live by the
  capture or replayed from stored records.
* :mod:`repro.trace.metrics` -- connection-level roll-ups: download
  time from the client capture, per-path traffic shares, and joins of
  subflow analyses into the per-configuration rows the tables need.
"""

from repro.trace.capture import (
    CaptureSummary,
    PacketCapture,
    PacketRecord,
)
from repro.trace.analyzer import FlowAnalysis, analyze_flow, flows_in
from repro.trace.dump import dump, flow_summary, format_record
from repro.trace.metrics import (
    ConnectionMetrics,
    cellular_fraction,
    connection_metrics,
    download_time_from_capture,
)
from repro.trace.timeseries import Series, TimeSeriesProbe

__all__ = [
    "CaptureSummary",
    "PacketCapture",
    "PacketRecord",
    "FlowAnalysis",
    "analyze_flow",
    "flows_in",
    "ConnectionMetrics",
    "connection_metrics",
    "cellular_fraction",
    "download_time_from_capture",
    "dump",
    "flow_summary",
    "format_record",
    "Series",
    "TimeSeriesProbe",
]
