"""tcpdump, simulated: per-host packet capture.

A :class:`PacketCapture` registers a hook on a host and streams every
packet it sends or receives through two pieces of analysis state: a
small host summary (first SYN sent, last data received, data bytes per
local address) and, per flow, a :class:`_FlowStream` -- the tcptrace
RTT / loss algorithm of :mod:`repro.trace.analyzer`, fed one packet at
a time.  A campaign run therefore materializes zero per-packet objects.

``keep_records=True`` adds a sink on top: one flat
:class:`PacketRecord` per packet, including the MPTCP DSS numbers,
for the tools that need the packets themselves
(:mod:`repro.trace.dump`, :mod:`repro.trace.analyzer`'s batch replay,
the test suite's DSN-level reference analyzer).  Records are
plain slotted objects -- a capture of a 32 MB transfer holds tens of
thousands.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.netsim.host import Host
from repro.netsim.packet import Packet

#: Canonical flow key: ((addr, port), (addr, port)) with the two
#: endpoints sorted, so both directions map to the same key.
FlowKey = Tuple[Tuple[str, int], Tuple[str, int]]


class PacketRecord:
    """One captured packet, flattened for analysis."""

    __slots__ = ("time", "direction", "src", "dst", "src_port", "dst_port",
                 "seq", "ack", "payload_len", "syn", "ack_flag", "fin",
                 "window", "dsn", "dss_len", "data_ack", "packet_id",
                 "mp_capable", "mp_join")

    def __init__(self, time: float, direction: str,
                 packet: Packet) -> None:
        segment = packet.segment
        self.time = time
        self.direction = direction  # "send" or "recv"
        self.src = packet.src
        self.dst = packet.dst
        self.src_port = segment.src_port
        self.dst_port = segment.dst_port
        self.seq = segment.seq
        self.ack = segment.ack
        self.payload_len = segment.payload_len
        self.syn = segment.flags.syn
        self.ack_flag = segment.flags.ack
        self.fin = segment.flags.fin
        self.window = segment.window
        self.packet_id = packet.packet_id
        options = segment.options
        if options is not None and options.dss is not None:
            self.dsn: Optional[int] = options.dss.dsn
            self.dss_len: int = options.dss.length
        else:
            self.dsn = None
            self.dss_len = 0
        self.data_ack = options.data_ack if options is not None else None
        self.mp_capable = options.mp_capable if options is not None \
            else False
        self.mp_join = options.mp_join if options is not None else False

    @property
    def end_seq(self) -> int:
        return self.seq + self.payload_len + int(self.syn) + int(self.fin)

    @property
    def flow_key(self) -> FlowKey:
        ends = sorted([(self.src, self.src_port), (self.dst, self.dst_port)])
        return (ends[0], ends[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PacketRecord {self.direction} t={self.time:.6f} "
                f"{self.src}:{self.src_port}->{self.dst}:{self.dst_port} "
                f"seq={self.seq} len={self.payload_len}>")


class CaptureSummary:
    """Host-level aggregates every capture streams: what
    :func:`repro.trace.metrics.download_time_from_capture` and
    :func:`~repro.trace.metrics.bytes_by_client_path` read from the
    client side."""

    __slots__ = ("first_syn_sent", "last_data_recv", "recv_bytes_by_dst")

    def __init__(self) -> None:
        self.first_syn_sent: Optional[float] = None
        self.last_data_recv: Optional[float] = None
        #: Data bytes received per destination (local) address.
        self.recv_bytes_by_dst: Dict[str, int] = {}


class _FlowStream:
    """tcptrace's per-flow sender analysis, one packet at a time.

    The one implementation of the Section 3.3 loss and RTT definitions
    (see :mod:`repro.trace.analyzer`): :class:`PacketCapture` feeds it
    live from the host hook, :func:`~repro.trace.analyzer.analyze_flow`
    replays stored records through it.  ``local`` is the analyzed
    (sending) endpoint; incoming packets that precede its first
    outgoing packet are ignored.
    """

    __slots__ = ("local", "remote", "data_packets_sent",
                 "retransmitted_packets", "payload_bytes",
                 "first_packet_time", "last_packet_time", "syn_time",
                 "handshake_rtt", "sent_starts", "rexmitted_seqs",
                 "pending", "samples_by_seq")

    def __init__(self, local: Tuple[str, int],
                 remote: Tuple[str, int]) -> None:
        self.local = local
        self.remote = remote
        self.data_packets_sent = 0
        self.retransmitted_packets = 0
        self.payload_bytes = 0
        self.first_packet_time: Optional[float] = None
        self.last_packet_time: Optional[float] = None
        self.syn_time: Optional[float] = None
        self.handshake_rtt: Optional[float] = None
        self.sent_starts: Set[int] = set()
        self.rexmitted_seqs: Set[int] = set()
        #: Unmatched first transmissions awaiting a covering ACK:
        #: seq -> (end_seq, send_time).
        self.pending: Dict[int, Tuple[int, float]] = {}
        self.samples_by_seq: Dict[int, float] = {}

    def on_send(self, time: float, seq: int, payload_len: int,
                syn: bool, ack_flag: bool, fin: bool) -> None:
        if self.first_packet_time is None:
            self.first_packet_time = time
        self.last_packet_time = time
        if syn and not ack_flag:
            self.syn_time = time
        if payload_len > 0:
            self.data_packets_sent += 1
            if seq in self.sent_starts:
                self.retransmitted_packets += 1
                self.rexmitted_seqs.add(seq)
                self.pending.pop(seq, None)
                self.samples_by_seq.pop(seq, None)
            else:
                self.sent_starts.add(seq)
                self.payload_bytes += payload_len
                end_seq = seq + payload_len + int(syn) + int(fin)
                self.pending[seq] = (end_seq, time)

    def on_recv(self, time: float, ack: int, syn: bool,
                ack_flag: bool) -> None:
        if self.first_packet_time is None:
            return
        self.last_packet_time = time
        if (syn and ack_flag and self.syn_time is not None
                and self.handshake_rtt is None):
            self.handshake_rtt = time - self.syn_time
        pending = self.pending
        if ack_flag and pending:
            # A TCP sender's first transmissions enter `pending` at
            # snd_nxt, so seq and end_seq both increase in insertion
            # order: the ACK-covered entries are a prefix, and the scan
            # stops at the first uncovered one.
            covered = []
            for seq, (end_seq, _) in pending.items():
                if ack < end_seq:
                    break
                covered.append(seq)
            samples = self.samples_by_seq
            for seq in covered:
                _, send_time = pending.pop(seq)
                samples[seq] = time - send_time

    def finalize(self):
        """A fresh :class:`FlowAnalysis` of the traffic streamed so far.

        Safe to call repeatedly (a new object each time, so downstream
        merging can mutate the result).
        """
        from repro.trace.analyzer import FlowAnalysis
        analysis = FlowAnalysis(local=self.local, remote=self.remote)
        analysis.data_packets_sent = self.data_packets_sent
        analysis.retransmitted_packets = self.retransmitted_packets
        analysis.payload_bytes = self.payload_bytes
        analysis.first_packet_time = self.first_packet_time
        analysis.last_packet_time = self.last_packet_time
        analysis.syn_time = self.syn_time
        analysis.handshake_rtt = self.handshake_rtt
        # Karn's rule as tcptrace applies it: discard samples for
        # sequence ranges that were (ever) retransmitted.
        rexmitted = self.rexmitted_seqs
        analysis.rtt_samples = [
            sample for seq, sample in sorted(self.samples_by_seq.items())
            if seq not in rexmitted]
        return analysis


class PacketCapture:
    """Attach to a host; observe every packet it sends or receives.

    ``keep_records`` additionally stores one :class:`PacketRecord` per
    packet (see the module docstring).  ``analyze_senders=False`` skips
    per-flow sender-side analysis and keeps only the host summary --
    the right setting for the client side of a measurement, where only
    download time and per-path byte shares are read.
    """

    def __init__(self, host: Host, keep_records: bool = False,
                 analyze_senders: bool = True) -> None:
        self.host = host
        self.packets_seen = 0
        self.summary = CaptureSummary()
        self._records: Optional[List[PacketRecord]] = \
            [] if keep_records else None
        self._flows: Dict[FlowKey, _FlowStream] = {}
        self._stream_by_tuple: Dict[Tuple[str, int, str, int],
                                    _FlowStream] = {}
        self._analyze_senders = analyze_senders
        host.add_capture_hook(self._hook)

    def _hook(self, direction: str, time: float, packet: Packet) -> None:
        self.packets_seen += 1
        if self._records is not None:
            self._records.append(PacketRecord(time, direction, packet))
        segment = packet.segment
        flags = segment.flags
        summary = self.summary
        if direction == "recv":
            if segment.payload_len > 0:
                summary.last_data_recv = time
                shares = summary.recv_bytes_by_dst
                dst = packet.dst
                shares[dst] = shares.get(dst, 0) + segment.payload_len
        elif (flags.syn and not flags.ack
                and summary.first_syn_sent is None):
            summary.first_syn_sent = time
        if not self._analyze_senders:
            return
        oriented = (packet.src, segment.src_port,
                    packet.dst, segment.dst_port)
        stream = self._stream_by_tuple.get(oriented)
        if stream is None:
            stream = self._new_stream(direction, oriented)
        if direction == "send":
            stream.on_send(time, segment.seq, segment.payload_len,
                           flags.syn, flags.ack, flags.fin)
        else:
            stream.on_recv(time, segment.ack, flags.syn, flags.ack)

    def _new_stream(self, direction: str,
                    oriented: Tuple[str, int, str, int]) -> _FlowStream:
        """The stream of a flow seen in a new orientation; a new flow's
        local endpoint is this host's end of its first packet."""
        ends = (oriented[:2], oriented[2:])
        key = (min(ends), max(ends))
        stream = self._flows.get(key)
        if stream is None:
            local, remote = ends if direction == "send" else ends[::-1]
            stream = self._flows[key] = _FlowStream(local, remote)
        self._stream_by_tuple[oriented] = stream
        return stream

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def records(self) -> List[PacketRecord]:
        if self._records is None:
            raise RuntimeError(
                "this capture keeps no per-packet records; construct it "
                "with keep_records=True for record-based analysis")
        return self._records

    def flow_analyses(self, local_prefix: str = ""):
        """Per-flow sender-side analyses of the traffic seen so far.

        Returns ``{flow_key: FlowAnalysis}`` for every flow in which the
        capturing host sent data, in first-packet order.
        ``local_prefix`` filters on the local (sending) address, e.g.
        ``"server."``.  Empty under ``analyze_senders=False``.
        """
        analyses = {}
        for key, stream in self._flows.items():
            if not stream.data_packets_sent:
                continue
            if local_prefix and not stream.local[0].startswith(local_prefix):
                continue
            analyses[key] = stream.finalize()
        return analyses

    def detach(self) -> None:
        """Stop capturing (leaves collected state intact)."""
        self.host.remove_capture_hook(self._hook)

    def __len__(self) -> int:
        return self.packets_seen

    def __iter__(self) -> Iterator[PacketRecord]:
        return iter(self.records)

    def sent(self) -> Iterator[PacketRecord]:
        return (record for record in self.records
                if record.direction == "send")

    def received(self) -> Iterator[PacketRecord]:
        return (record for record in self.records
                if record.direction == "recv")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PacketCapture {self.host.name} n={self.packets_seen}>"
