"""tcptrace, simulated: per-flow analysis of a packet capture.

Implements the Section 3.3 metric definitions on a *sender-side*
capture (the paper analyzes server traces for RTT and loss):

* **Loss rate**: "the total number of retransmitted data packets
  divided by the total number of data packets sent".  A data packet is
  a retransmission when its sequence range was already transmitted.
* **RTT**: for each data packet that is not a retransmission (and whose
  range is never retransmitted -- Karn's rule, as tcptrace applies it),
  the time from its transmission to the first ACK whose number exceeds
  the packet's last sequence number.

Both are computed per subflow (per TCP 4-tuple), matching the paper's
"per-subflow basis" statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.trace.capture import FlowKey, PacketCapture, PacketRecord, \
    _FlowStream


@dataclass
class FlowAnalysis:
    """tcptrace-style summary of one direction of one flow."""

    local: Tuple[str, int]
    remote: Tuple[str, int]
    data_packets_sent: int = 0
    retransmitted_packets: int = 0
    payload_bytes: int = 0
    rtt_samples: List[float] = field(default_factory=list)
    first_packet_time: Optional[float] = None
    last_packet_time: Optional[float] = None
    syn_time: Optional[float] = None
    handshake_rtt: Optional[float] = None

    @property
    def loss_rate(self) -> float:
        """Retransmitted / sent data packets (the paper's definition)."""
        if self.data_packets_sent == 0:
            return 0.0
        return self.retransmitted_packets / self.data_packets_sent

    @property
    def mean_rtt(self) -> float:
        if not self.rtt_samples:
            return 0.0
        return sum(self.rtt_samples) / len(self.rtt_samples)

    @property
    def duration(self) -> float:
        if self.first_packet_time is None or self.last_packet_time is None:
            return 0.0
        return self.last_packet_time - self.first_packet_time

    @property
    def throughput_bps(self) -> float:
        duration = self.duration
        if duration <= 0.0:
            return 0.0
        return self.payload_bytes * 8.0 / duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlowAnalysis {self.local}->{self.remote} "
                f"pkts={self.data_packets_sent} "
                f"loss={self.loss_rate:.3%} rtt={self.mean_rtt * 1e3:.1f}ms>")


def flows_in(capture: PacketCapture) -> Dict[FlowKey, List[PacketRecord]]:
    """Group a capture's records by canonical flow key."""
    flows: Dict[FlowKey, List[PacketRecord]] = {}
    for record in capture.records:
        flows.setdefault(record.flow_key, []).append(record)
    return flows


def analyze_flow(records: Iterable[PacketRecord], local_addr: str,
                 local_port: Optional[int] = None) -> FlowAnalysis:
    """Analyze the data direction sent *from* ``local_addr`` (one flow).

    ``records`` is the (time-ordered) capture slice for one flow, taken
    at the sending host: its outgoing data packets have
    ``direction == "send"`` and its incoming ACKs ``"recv"``.  The
    records are replayed through the same per-flow stream a live
    :class:`PacketCapture` feeds, so stored and live traffic share one
    implementation of the metric definitions above.
    """
    stream: Optional[_FlowStream] = None
    for record in records:
        if (record.direction == "send" and record.src == local_addr
                and (local_port is None
                     or record.src_port == local_port)):
            if stream is None:
                stream = _FlowStream((record.src, record.src_port),
                                     (record.dst, record.dst_port))
            stream.on_send(record.time, record.seq, record.payload_len,
                           record.syn, record.ack_flag, record.fin)
        elif (stream is not None and record.direction == "recv"
                and record.dst == local_addr
                and (local_port is None
                     or record.dst_port == local_port)):
            stream.on_recv(record.time, record.ack, record.syn,
                           record.ack_flag)
    if stream is None:
        return FlowAnalysis(local=(local_addr, local_port or 0),
                            remote=("", 0))
    return stream.finalize()


def analyze_sender(capture: PacketCapture, local_addr_prefix: str = ""
                   ) -> Dict[FlowKey, FlowAnalysis]:
    """Analyze every flow in a sender-side capture.

    ``local_addr_prefix`` filters which host addresses count as local
    senders (e.g. ``"server."``); empty means all.
    """
    analyses: Dict[FlowKey, FlowAnalysis] = {}
    for key, records in flows_in(capture).items():
        local_candidates = {record.src for record in records
                            if record.direction == "send"}
        for local_addr in sorted(local_candidates):
            if local_addr_prefix and not local_addr.startswith(
                    local_addr_prefix):
                continue
            analyses[key] = analyze_flow(records, local_addr)
            break
    return analyses
