"""Connection-level metric roll-ups from captures.

Joins the per-flow tcptrace analyses into the quantities the paper's
tables and figures actually plot:

* download time (first SYN from the client to the last data packet it
  receives -- Section 3.3's definition, computed from the client-side
  capture);
* the fraction of traffic carried by the cellular path (Figures 3, 5,
  7, 10), computed from data bytes arriving on each client interface;
* per-path loss rates and RTT sample sets (Tables 2-6, Figure 12),
  computed from the server-side capture, since loss and RTT are
  sender-side observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.connection import path_name_of
from repro.trace.analyzer import FlowAnalysis
from repro.trace.capture import PacketCapture


def download_time_from_capture(capture: PacketCapture) -> Optional[float]:
    """First SYN sent to last data packet received, from a client capture."""
    summary = capture.summary
    if summary.first_syn_sent is None or summary.last_data_recv is None:
        return None
    return summary.last_data_recv - summary.first_syn_sent


def bytes_by_client_path(capture: PacketCapture) -> Dict[str, int]:
    """Data bytes received per client interface, keyed by path name."""
    shares: Dict[str, int] = {}
    for dst, nbytes in capture.summary.recv_bytes_by_dst.items():
        path = path_name_of(dst)
        shares[path] = shares.get(path, 0) + nbytes
    return shares


def cellular_fraction(capture: PacketCapture) -> float:
    """Fraction of received data bytes that arrived on cellular paths."""
    shares = bytes_by_client_path(capture)
    total = sum(shares.values())
    if total == 0:
        return 0.0
    return (total - shares.get("wifi", 0)) / total


@dataclass
class ConnectionMetrics:
    """Everything one measurement contributes to the paper's plots."""

    download_time: Optional[float] = None
    bytes_received: int = 0
    cellular_fraction: float = 0.0
    #: Per path name: server-side flow analysis (loss, RTT samples).
    per_path: Dict[str, FlowAnalysis] = field(default_factory=dict)
    #: Out-of-order delays in seconds (client receive buffer), if MPTCP.
    ofo_delays: List[float] = field(default_factory=list)
    #: RFC 6824 S3.6 fallback status of an MPTCP run: "none" (stayed
    #: multipath), "plain" or "infinite"; ``None`` for single-path runs.
    fallback: Optional[str] = None

    def rtt_samples(self, path: str) -> List[float]:
        analysis = self.per_path.get(path)
        return analysis.rtt_samples if analysis is not None else []

    def loss_rate(self, path: str) -> float:
        analysis = self.per_path.get(path)
        return analysis.loss_rate if analysis is not None else 0.0

    def mean_rtt(self, path: str) -> float:
        analysis = self.per_path.get(path)
        return analysis.mean_rtt if analysis is not None else 0.0


def connection_metrics(server_capture: PacketCapture,
                       client_capture: PacketCapture,
                       ofo_delays: Optional[List[float]] = None,
                       ) -> ConnectionMetrics:
    """Assemble a :class:`ConnectionMetrics` from both captures.

    The download direction is server -> client; per-path analyses merge
    all subflows that terminate on the same client interface (the
    4-path scenarios have two subflows per interface).
    """
    metrics = ConnectionMetrics(
        download_time=download_time_from_capture(client_capture),
        cellular_fraction=cellular_fraction(client_capture),
        ofo_delays=list(ofo_delays or []),
    )
    shares = bytes_by_client_path(client_capture)
    metrics.bytes_received = sum(shares.values())
    analyses = server_capture.flow_analyses(local_prefix="server.")
    for key, analysis in analyses.items():
        client_end = (key[0] if key[0][0].startswith("client.")
                      else key[1])
        path = path_name_of(client_end[0])
        existing = metrics.per_path.get(path)
        if existing is None:
            metrics.per_path[path] = analysis
        else:
            # Merge subflows sharing an interface (4-path runs).
            existing.data_packets_sent += analysis.data_packets_sent
            existing.retransmitted_packets += analysis.retransmitted_packets
            existing.payload_bytes += analysis.payload_bytes
            existing.rtt_samples.extend(analysis.rtt_samples)
            if analysis.last_packet_time is not None:
                if (existing.last_packet_time is None
                        or analysis.last_packet_time
                        > existing.last_packet_time):
                    existing.last_packet_time = analysis.last_packet_time
            if analysis.first_packet_time is not None:
                if (existing.first_packet_time is None
                        or analysis.first_packet_time
                        < existing.first_packet_time):
                    existing.first_packet_time = analysis.first_packet_time
    return metrics
