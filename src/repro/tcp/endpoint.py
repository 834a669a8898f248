"""The TCP endpoint state machine.

One class serves both roles the paper's testbed needs:

* a standalone single-path TCP connection (the SP-WiFi / SP-carrier
  baselines), where the application writes a byte count and reads
  in-order delivery callbacks; and
* an MPTCP *subflow*, where a :class:`TcpDelegate` (implemented by
  :class:`repro.core.subflow.Subflow`) injects MPTCP options into the
  handshake, supplies data-sequence mappings to transmit, and consumes
  received data into the connection-level reorder buffer.

The algorithms follow the configuration pinned in Section 3.1 of the
paper: initial window of 10 segments, initial ssthresh of 64 KB (no
metric caching), SACK enabled, New Reno fast recovery, RFC 6298 RTO
with the 200 ms Linux floor.  Congestion-avoidance *increase* is
delegated to a pluggable :class:`repro.core.coupling.CongestionController`
(reno / coupled / olia); the *decrease* on loss is the unmodified TCP
halving for every controller, as the paper specifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Tuple

from repro.netsim.host import Host
from repro.netsim.packet import Packet
from repro.sim.arena import FLIGHT, LOST, SACKED, SendScoreboard
from repro.sim.engine import Event, Simulator
from repro.tcp.reassembly import ReassemblyQueue
from repro.tcp.rto import RtoEstimator
from repro.tcp.segment import Flags, Segment

# Import only for typing; the dependency is one-way at runtime.
from typing import TYPE_CHECKING
if TYPE_CHECKING:  # pragma: no cover
    from repro.core.coupling import CongestionController
    from repro.core.options import MptcpOptions

# Flags is a frozen value object, so the two per-segment variants are
# shared instead of constructed per transmission.
_FLAGS_ACK = Flags(ack=True)
_FLAGS_ACK_FIN = Flags(ack=True, fin=True)


@dataclass(frozen=True)
class TcpConfig:
    """Tunables, defaulted to the paper's Section 3.1 settings."""

    mss: int = 1448
    initial_window_segments: int = 10
    initial_ssthresh: int = 64 * 1024
    rcv_buffer: int = 8 * 1024 * 1024
    dupack_threshold: int = 3
    use_sack: bool = True
    syn_timeout: float = 1.0
    syn_retries: int = 6
    min_rto: float = 0.2
    max_rto: float = 60.0
    initial_rto: float = 1.0
    #: Consecutive RTOs with no progress before the connection is
    #: declared failed (MPTCP then stops scheduling onto the subflow).
    max_data_retries: int = 8
    #: RFC 1122 delayed acknowledgements: ACK every second full-sized
    #: segment, or after ``delack_timeout``.  Off by default -- the
    #: Linux stack the paper measures effectively quick-ACKs bulk
    #: transfers, and the calibration assumes per-packet ACKs.
    delayed_ack: bool = False
    delack_timeout: float = 0.04


class TcpDelegate(Protocol):
    """MPTCP hooks a subflow's owner provides.  All optional for tests."""

    def syn_options(self, endpoint: "TcpEndpoint") -> Optional["MptcpOptions"]:
        ...

    def synack_options(self, endpoint: "TcpEndpoint"
                       ) -> Optional["MptcpOptions"]:
        ...

    def on_handshake_options(self, endpoint: "TcpEndpoint",
                             options: Optional["MptcpOptions"]) -> None:
        ...

    def on_established(self, endpoint: "TcpEndpoint") -> None:
        ...

    def pull_data(self, endpoint: "TcpEndpoint",
                  max_bytes: int) -> Optional[Tuple[int, int]]:
        """Allocate up to ``max_bytes`` of new connection data.

        Returns ``(dsn, length)`` or ``None`` when nothing may be sent
        on this subflow right now.
        """
        ...

    def data_options(self, endpoint: "TcpEndpoint", ssn: int, dsn: int,
                     length: int) -> Optional["MptcpOptions"]:
        ...

    def ack_options(self, endpoint: "TcpEndpoint") -> Optional["MptcpOptions"]:
        ...

    def receive_window(self, endpoint: "TcpEndpoint") -> int:
        ...

    def on_data(self, endpoint: "TcpEndpoint", ssn_start: int, ssn_end: int,
                meta: Tuple[float, Optional["MptcpOptions"]]) -> None:
        ...

    def on_segment(self, endpoint: "TcpEndpoint", segment: Segment) -> None:
        ...

    def on_peer_fin(self, endpoint: "TcpEndpoint") -> None:
        ...

    def on_rto(self, endpoint: "TcpEndpoint") -> None:
        """A retransmission timeout fired (MPTCP reinjection trigger)."""
        ...

    def on_failed(self, endpoint: "TcpEndpoint") -> None:
        """The subflow gave up after repeated timeouts."""
        ...

    def has_pending_data(self, endpoint: "TcpEndpoint") -> bool:
        """Might the connection still hand this subflow data?  While
        true, the subflow defers its FIN (half-close correctness)."""
        ...


# Scoreboard states (re-exported from the arena for call sites/tests).
_FLIGHT = FLIGHT  # transmitted, assumed in the network
_SACKED = SACKED  # selectively acknowledged
_LOST = LOST      # deemed lost (retransmitted or RTO-marked)


@dataclass
class EndpointStats:
    """Counters mirroring what tcptrace extracts from real captures."""

    data_packets_sent: int = 0
    retransmitted_packets: int = 0
    payload_bytes_sent: int = 0
    bytes_delivered: int = 0
    acks_sent: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    dupacks_received: int = 0
    established_at: Optional[float] = None
    connect_started_at: Optional[float] = None

    @property
    def loss_rate(self) -> float:
        """Retransmitted / sent data packets (the paper's definition)."""
        if self.data_packets_sent == 0:
            return 0.0
        return self.retransmitted_packets / self.data_packets_sent


class TcpEndpoint:
    """One TCP connection endpoint (or MPTCP subflow endpoint)."""

    def __init__(self, sim: Simulator, host: Host, local_addr: str,
                 local_port: int, remote_addr: str, remote_port: int,
                 config: TcpConfig,
                 controller: "CongestionController",
                 delegate: Optional[TcpDelegate] = None,
                 name: str = "tcp") -> None:
        self.sim = sim
        self.host = host
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.config = config
        self.controller = controller
        self.delegate = delegate
        self.name = name
        # Trace bus, cached: construct endpoints *after* installing a
        # real bus on the simulator.  ``trace_sf`` is the owning
        # subflow's index (None for plain single-path TCP).
        self._trace = sim.trace
        self.trace_sf: Optional[int] = None
        # Metrics registry, cached under the same contract as the bus.
        self._metrics = sim.metrics

        self.state = "closed"
        self.mss = config.mss
        self.cwnd: float = float(config.initial_window_segments * config.mss)
        self.ssthresh: float = float(config.initial_ssthresh)
        self.rto_estimator = RtoEstimator(
            initial_rto=config.initial_rto, min_rto=config.min_rto,
            max_rto=config.max_rto)

        # Sender state.  Sequence 0 is the SYN; payload starts at 1.
        self.snd_una = 0
        self.snd_nxt = 0
        self.peer_window = 64 * 1024
        self._sent = SendScoreboard(sim)  # the SACK scoreboard
        self._pipe = 0
        self._pending_bytes = 0      # app bytes not yet segmented (plain mode)
        self._dupacks = 0
        self._in_recovery = False
        self._recover = 0
        self._recovery_epoch = 0
        self._highest_sacked = 0
        self._lost_count = 0         # scoreboard ranges currently in _LOST
        self._rto_event: Optional[Event] = None
        self._syn_event: Optional[Event] = None
        self._syn_attempts = 0
        self._syn_sent_at = 0.0
        self._close_requested = False
        self._fin_sent = False
        self._consecutive_timeouts = 0
        self._in_try_send = False

        # Receiver state.
        self.reassembly = ReassemblyQueue(rcv_nxt=1)
        self._peer_fin_seq: Optional[int] = None
        self._peer_fin_delivered = False
        self._unacked_segments = 0
        self._delack_event: Optional[Event] = None

        self.stats = EndpointStats()

        # Application callbacks (plain mode; MPTCP uses the delegate).
        self.on_established: Optional[Callable[[], None]] = None
        self.on_receive: Optional[Callable[[int], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_failed: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def four_tuple(self) -> Tuple[str, int, str, int]:
        return (self.local_addr, self.local_port,
                self.remote_addr, self.remote_port)

    def smoothed_rtt(self, default: float = 0.5) -> float:
        """SRTT estimate used by controllers and the MPTCP scheduler."""
        srtt = self.rto_estimator.srtt
        return srtt if srtt is not None else default

    @property
    def flight_bytes(self) -> int:
        """Bytes believed to be in the network (the SACK 'pipe')."""
        return self._pipe

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Actively open: send a SYN and register with the host."""
        if self.state != "closed":
            raise RuntimeError(f"connect() in state {self.state}")
        self.host.register_endpoint(self.four_tuple, self)
        self.state = "syn_sent"
        self.stats.connect_started_at = self.sim.now
        self._send_syn()

    def accept(self, syn_packet: Packet) -> None:
        """Passively open in response to a received SYN."""
        if self.state != "closed":
            raise RuntimeError(f"accept() in state {self.state}")
        self.host.register_endpoint(self.four_tuple, self)
        self.state = "syn_rcvd"
        if self.delegate is not None:
            self.delegate.on_handshake_options(
                self, syn_packet.segment.options)
        self._send_synack()

    def _send_syn(self) -> None:
        # This runs as the syn-rto timer callback (or the initial
        # connect): the stored handle is spent, so drop it before any
        # return path -- a stale handle must never be cancelled after
        # the engine has recycled the event.
        self._syn_event = None
        if self._syn_attempts > self.config.syn_retries:
            self.state = "closed"
            return
        options = (self.delegate.syn_options(self)
                   if self.delegate is not None else None)
        segment = Segment(src_port=self.local_port, dst_port=self.remote_port,
                          seq=0, flags=Flags(syn=True),
                          window=self._advertised_window(), options=options)
        self._syn_sent_at = self.sim.now
        self._transmit(segment)
        timeout = self.config.syn_timeout * (2 ** self._syn_attempts)
        self._syn_attempts += 1
        self._syn_event = self.sim.schedule(timeout, self._send_syn,
                                            name=f"{self.name}.syn-rto")

    def _send_synack(self) -> None:
        self._syn_event = None  # spent handle; see _send_syn
        if self._syn_attempts > self.config.syn_retries:
            self.state = "closed"
            return
        options = (self.delegate.synack_options(self)
                   if self.delegate is not None else None)
        segment = Segment(src_port=self.local_port, dst_port=self.remote_port,
                          seq=0, ack=self.reassembly.rcv_nxt,
                          flags=Flags(syn=True, ack=True),
                          window=self._advertised_window(), options=options)
        self._syn_sent_at = self.sim.now
        self._transmit(segment)
        timeout = self.config.syn_timeout * (2 ** self._syn_attempts)
        self._syn_attempts += 1
        self._syn_event = self.sim.schedule(timeout, self._send_synack,
                                            name=f"{self.name}.synack-rto")

    def _establish(self) -> None:
        if self._syn_event is not None:
            self._syn_event.cancel()
            self._syn_event = None
        self.state = "established"
        self.snd_una = 1
        self.snd_nxt = 1
        self.stats.established_at = self.sim.now
        if self._syn_attempts == 1:
            self.rto_estimator.sample(self.sim.now - self._syn_sent_at)
        self.controller.attach(self)
        if self._trace.enabled:
            self._trace.emit(self.sim.now, "tcp.established",
                             subflow=self.trace_sf, name=self.name,
                             attempts=self._syn_attempts)
        if self.delegate is not None:
            self.delegate.on_established(self)
        elif self.on_established is not None:
            self.on_established()
        self._try_send()

    # ------------------------------------------------------------------
    # Application interface (plain mode)
    # ------------------------------------------------------------------

    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data for transmission."""
        if nbytes < 0:
            raise ValueError("cannot send a negative byte count")
        if self.delegate is not None:
            raise RuntimeError("MPTCP subflows receive data via the scheduler")
        self._pending_bytes += nbytes
        self._try_send()

    def close(self) -> None:
        """Half-close: send FIN once all queued data is delivered."""
        self._close_requested = True
        self._try_send()

    def pump(self) -> None:
        """Attempt transmission now (MPTCP scheduler push hook)."""
        self._try_send()

    def send_ack(self) -> None:
        """Emit a bare acknowledgement now (carries current MPTCP
        options -- used to push DATA_ACK / MP_FAIL signals on an
        otherwise idle subflow)."""
        if self.state in ("established", "close_wait"):
            self._send_ack()

    # ------------------------------------------------------------------
    # Packet reception
    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        segment = packet.segment
        if segment.flags.rst:
            self._teardown()
            return
        if self.state == "syn_sent":
            if segment.flags.syn and segment.flags.ack and segment.ack >= 1:
                self._establish()
                if self.delegate is not None:
                    self.delegate.on_handshake_options(self, segment.options)
                if self.state not in ("established", "close_wait"):
                    # The delegate vetoed the connection (e.g. an MPTCP
                    # join answered by a plain SYN-ACK): no third ACK,
                    # or the peer would consider it established.
                    return
                self.peer_window = segment.window
                self._send_ack()
            return
        if self.state == "syn_rcvd":
            if segment.flags.syn and not segment.flags.ack:
                self._send_synack()  # duplicate SYN: retransmit the reply
                return
            if segment.flags.ack and segment.ack >= 1:
                self._establish()
                # fall through: the packet may carry data or options
            else:
                return
        if self.state in ("closed", "failed"):
            return
        if segment.flags.ack:
            self._process_ack(segment)
        if segment.payload_len > 0 or segment.flags.fin:
            self._process_data(packet)
        if self.delegate is not None:
            self.delegate.on_segment(self, segment)
        self._try_send()

    # -- ACK processing --------------------------------------------------

    def _process_ack(self, segment: Segment) -> None:
        self.peer_window = segment.window
        if self.config.use_sack and segment.sack_blocks:
            self._process_sack(segment.sack_blocks)
        if segment.ack > self.snd_una:
            self._advance_una(segment.ack)
        elif (segment.ack == self.snd_una and self.snd_nxt > self.snd_una
              and segment.is_pure_ack):
            self._on_dupack()

    def _process_sack(self, blocks: Tuple[Tuple[int, int], ...]) -> None:
        for start, end in blocks:
            if end > self._highest_sacked:
                self._highest_sacked = end
            self._pipe -= self._sent.sack(start, end)
        if self._in_recovery:
            self._mark_sack_losses()

    def _mark_sack_losses(self) -> None:
        """RFC 6675-style loss inference: a still-unSACKed segment with
        at least DupThresh MSS of SACKed data above it is lost.

        Marking moves the segment out of the pipe; the (pipe < cwnd)
        send loop then paces its retransmission, instead of bursting
        every hole at once into an already-overflowing buffer.
        """
        threshold = self._highest_sacked - \
            self.config.dupack_threshold * self.mss
        count, freed = self._sent.mark_losses(threshold,
                                              self._recovery_epoch)
        self._lost_count += count
        self._pipe -= freed

    def _advance_una(self, ack: int) -> None:
        self._consecutive_timeouts = 0  # forward progress
        newly_acked, rtt_sent_at, flight_freed, lost_retired = \
            self._sent.advance_una(ack)
        self._pipe -= flight_freed
        self._lost_count -= lost_retired
        self.snd_una = ack
        if rtt_sent_at is not None:
            self.rto_estimator.sample(self.sim.now - rtt_sent_at)
        self._restart_rto_timer()

        if self._in_recovery:
            if ack >= self._recover:
                # Full ACK: leave recovery at ssthresh.
                self._in_recovery = False
                self._dupacks = 0
                self.cwnd = max(self.ssthresh, float(self.mss))
                if self._trace.enabled:
                    self._trace.emit(
                        self.sim.now, "cc.cwnd", subflow=self.trace_sf,
                        name=self.name, cwnd=self.cwnd,
                        ssthresh=self.ssthresh, reason="recovery_exit")
            elif self.config.use_sack:
                # Partial ACK with SACK: the scoreboard knows the holes;
                # retransmit the front-most one and let pipe pace the rest.
                self._retransmit_front()
            else:
                # Partial ACK (New Reno): retransmit the next hole,
                # deflate by the amount acked, stay in recovery.
                self.cwnd = max(self.cwnd - newly_acked + self.mss,
                                float(self.mss))
                self._retransmit_front()
        else:
            self._dupacks = 0
            self.controller.on_ack(self, newly_acked)

    def _on_dupack(self) -> None:
        self._dupacks += 1
        self.stats.dupacks_received += 1
        if self._in_recovery:
            if not self.config.use_sack:
                # Classic New Reno window inflation.  With SACK the
                # scoreboard already removes SACKed bytes from the
                # pipe, so inflating as well would double-count.
                self.cwnd += self.mss
        elif self._dupacks >= self.config.dupack_threshold:
            self._enter_recovery()

    def _flight_size(self) -> float:
        """RFC 5681 FlightSize: data outstanding, bounded by cwnd."""
        outstanding = self.snd_nxt - self.snd_una
        return max(min(float(outstanding), self.cwnd), float(self.mss))

    def _enter_recovery(self) -> None:
        self._in_recovery = True
        self._recovery_epoch += 1
        self._recover = self.snd_nxt
        self.ssthresh = max(self._flight_size() / 2.0, 2.0 * self.mss)
        self.controller.on_loss(self)
        self.stats.fast_retransmits += 1
        if self._metrics.enabled:
            self._metrics.counter("tcp.fast_retransmit").inc()
        if self._trace.enabled:
            self._trace.emit(self.sim.now, "tcp.fast_retransmit",
                             subflow=self.trace_sf, name=self.name,
                             dupacks=self._dupacks,
                             recover=self._recover)
        if self.config.use_sack:
            # RFC 6675-style: hold cwnd at ssthresh; transmission is
            # paced by the pipe, which SACK arrivals deflate.
            self.cwnd = self.ssthresh
            self._mark_sack_losses()
        else:
            self.cwnd = self.ssthresh + \
                self.config.dupack_threshold * self.mss
        if self._trace.enabled:
            self._trace.emit(self.sim.now, "cc.cwnd", subflow=self.trace_sf,
                             name=self.name, cwnd=self.cwnd,
                             ssthresh=self.ssthresh,
                             reason="fast_retransmit")
        self._retransmit_front()

    def _retransmit_front(self) -> None:
        """Deem lost and retransmit the first unacknowledged segment."""
        sent = self._sent.front_unsacked()
        if sent is None:
            return
        if sent.rexmit_epoch == self._recovery_epoch:
            return  # already retransmitted this episode
        self._retransmit(sent)

    def _retransmit(self, sent) -> None:
        if sent.state == _FLIGHT:
            self._pipe -= sent.seq_space
        elif sent.state == _LOST:
            self._lost_count -= 1
        sent.mark_retransmitted(self._recovery_epoch)
        self._pipe += sent.seq_space
        self.stats.retransmitted_packets += 1
        self._send_data_segment(sent, retransmission=True)
        self._arm_rto_timer()

    # -- Data reception ---------------------------------------------------

    def _process_data(self, packet: Packet) -> None:
        segment = packet.segment
        if segment.payload_len > 0:
            payload_start = segment.seq
            payload_end = segment.seq + segment.payload_len
            free = self.config.rcv_buffer - self.reassembly.buffered_bytes
            if payload_end - self.reassembly.rcv_nxt <= free:
                meta = (self.sim.now, segment.options)
                self.reassembly.offer(payload_start, payload_end, meta,
                                      on_in_order=self._deliver)
        if segment.flags.fin:
            self._peer_fin_seq = segment.seq + segment.payload_len
        if (self._peer_fin_seq is not None
                and self.reassembly.rcv_nxt == self._peer_fin_seq
                and not self._peer_fin_delivered):
            self._peer_fin_delivered = True
            self.reassembly.rcv_nxt += 1
            if self.state == "established":
                self.state = "close_wait"
            if self.delegate is not None:
                self.delegate.on_peer_fin(self)
            elif self.on_close is not None:
                self.on_close()
        self._ack_received_data(segment)

    def _ack_received_data(self, segment: Segment) -> None:
        """Acknowledge received data, coalescing if delayed ACKs are on.

        Per RFC 5681, an ACK goes out immediately for the second
        unacknowledged segment, for any out-of-order arrival (to feed
        fast retransmit), and for FINs; otherwise a short timer runs.
        """
        if not self.config.delayed_ack:
            self._send_ack()
            return
        out_of_order = (self.reassembly.buffered_bytes > 0
                        or segment.seq + segment.payload_len
                        <= self.reassembly.rcv_nxt - segment.payload_len)
        self._unacked_segments += 1
        if (self._unacked_segments >= 2 or out_of_order
                or segment.flags.fin):
            self._send_ack()
            return
        if self._delack_event is None:
            self._delack_event = self.sim.schedule(
                self.config.delack_timeout, self._on_delack_timer,
                name=f"{self.name}.delack")

    def _on_delack_timer(self) -> None:
        self._delack_event = None
        if self._unacked_segments > 0:
            self._send_ack()

    def _deliver(self, start: int, end: int, meta) -> None:
        self.stats.bytes_delivered += end - start
        if self.delegate is not None:
            self.delegate.on_data(self, start, end, meta)
        elif self.on_receive is not None:
            self.on_receive(end - start)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        if self.state not in ("established", "close_wait"):
            return
        # Every advancing DATA_ACK pumps every subflow, so most calls
        # find the window full: leave before the re-entrancy guard.
        # Only a requested FIN goes out regardless of the window.
        if self._pipe >= int(self.cwnd) and not self._close_requested:
            return
        if self._in_try_send:
            return  # re-entered via scheduler pump: outer loop continues
        self._in_try_send = True
        try:
            # Retransmit known-lost segments first, paced by the window:
            # SACK-inferred holes during recovery, and the post-timeout
            # go-back-N resend (paced by slow start) after an RTO.
            while self._lost_count and self._pipe < int(self.cwnd):
                lost = self._sent.find_lost(self._recovery_epoch)
                if lost is None:
                    break  # every marked loss was resent this epoch
                self._retransmit(lost)
            # Then new data while congestion window space remains.  Like
            # the kernel, a full MSS may be sent whenever pipe < cwnd
            # (the last segment may overshoot the window by a fraction
            # of an MSS).
            while self._pipe < int(self.cwnd):
                chunk = self._next_chunk(self.mss)
                if chunk is None:
                    break
                payload_len, dsn = chunk
                sent = self._sent.append(self.snd_nxt, payload_len,
                                         payload_len, fin=False, dsn=dsn,
                                         sent_at=self.sim.now)
                self.snd_nxt += payload_len
                self._pipe += payload_len
                self.controller.on_sent(self, payload_len)
                self._send_data_segment(sent, retransmission=False)
                self._arm_rto_timer()
            if self._close_requested:
                self._maybe_send_fin()
        finally:
            self._in_try_send = False

    def _next_chunk(self, max_bytes: int
                    ) -> Optional[Tuple[int, Optional[int]]]:
        """Pick the next new-data chunk: (payload_len, dsn or None)."""
        if max_bytes <= 0:
            return None
        if self.delegate is not None:
            pulled = self.delegate.pull_data(self, max_bytes)
            if pulled is None:
                return None
            dsn, length = pulled
            return length, dsn
        if self._pending_bytes <= 0:
            return None
        window_limit = self.snd_una + self.peer_window - self.snd_nxt
        if window_limit <= 0:
            return None
        length = min(max_bytes, self._pending_bytes, window_limit)
        self._pending_bytes -= length
        return length, None

    def _maybe_send_fin(self) -> None:
        """Send the FIN that :meth:`close` asked for, once due."""
        if self._fin_sent or self._pending_bytes > 0:
            return
        if (self.delegate is not None
                and self.delegate.has_pending_data(self)):
            return  # the connection may still schedule data our way
        self._fin_sent = True
        sent = self._sent.append(self.snd_nxt, 1, 0, fin=True, dsn=None,
                                 sent_at=self.sim.now)
        self.snd_nxt += 1
        self._pipe += 1
        self._send_data_segment(sent, retransmission=False)
        self._arm_rto_timer()

    def _send_data_segment(self, sent, retransmission: bool) -> None:
        options = None
        if self.delegate is not None and sent.dsn is not None:
            options = self.delegate.data_options(
                self, sent.seq, sent.dsn, sent.payload_len)
        # Positional up to ``window``, in header order: a keyword costs
        # the tuple constructor as much as the field itself.
        segment = Segment(
            self.local_port, self.remote_port, sent.seq,
            self.reassembly.rcv_nxt,
            _FLAGS_ACK_FIN if sent.fin else _FLAGS_ACK,
            sent.payload_len, self._advertised_window(), options=options)
        if sent.payload_len > 0:
            self.stats.data_packets_sent += 1
            if not retransmission:
                self.stats.payload_bytes_sent += sent.payload_len
        self._transmit(segment)

    def _send_ack(self) -> None:
        self._unacked_segments = 0
        if self._delack_event is not None:
            self._delack_event.cancel()
            self._delack_event = None
        options = (self.delegate.ack_options(self)
                   if self.delegate is not None else None)
        sack_blocks = (self.reassembly.sack_blocks()
                       if self.config.use_sack else ())
        segment = Segment(
            self.local_port, self.remote_port, self.snd_nxt,
            self.reassembly.rcv_nxt, _FLAGS_ACK, 0,
            self._advertised_window(), sack_blocks, options)
        self.stats.acks_sent += 1
        self._transmit(segment)

    def _advertised_window(self) -> int:
        if self.delegate is not None:
            return self.delegate.receive_window(self)
        return max(self.config.rcv_buffer - self.reassembly.buffered_bytes, 0)

    def _transmit(self, segment: Segment) -> None:
        packet = Packet(self.local_addr, self.remote_addr, segment)
        self.host.send(packet)

    # ------------------------------------------------------------------
    # Retransmission timer
    # ------------------------------------------------------------------

    def _arm_rto_timer(self) -> None:
        if self._rto_event is None and self.snd_una < self.snd_nxt:
            timeout = self.rto_estimator.rto
            self._rto_event = self.sim.schedule(
                timeout, self._on_rto,
                name=f"{self.name}.rto")
            if self._trace.enabled:
                self._trace.emit(self.sim.now, "rto.arm",
                                 subflow=self.trace_sf, name=self.name,
                                 timeout=timeout)

    def _restart_rto_timer(self) -> None:
        # Runs on every ACK that advances snd_una, so reuse the pending
        # timer in place instead of cancel+schedule: reschedule()
        # consumes one sequence number exactly like schedule() would, so
        # event ordering (and results) are unchanged, but the heap no
        # longer accumulates a cancelled tombstone per ACK.
        event = self._rto_event
        if self.snd_una < self.snd_nxt:
            if event is not None:
                self.sim.reschedule(event, self.rto_estimator.rto)
            else:
                self._arm_rto_timer()
        elif event is not None:
            event.cancel()
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.snd_una >= self.snd_nxt:
            return
        self.stats.timeouts += 1
        self._consecutive_timeouts += 1
        if self._consecutive_timeouts > self.config.max_data_retries:
            self._fail()
            return
        self.ssthresh = max(self._flight_size() / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)
        self._in_recovery = False
        self._recovery_epoch += 1
        self._dupacks = 0
        flight_freed, total = self._sent.mark_all_lost()
        self._pipe -= flight_freed
        self._lost_count = total
        self.controller.on_loss(self)
        if self._metrics.enabled:
            metrics = self._metrics
            metrics.counter("tcp.rto.fired").inc()
            # The expired timeout is how long the sender sat stalled
            # waiting for it: the per-run stall distribution.
            metrics.histogram("tcp.rto.stall_s").observe(
                self.rto_estimator.rto)
        self.rto_estimator.backoff()
        if self._trace.enabled:
            self._trace.emit(self.sim.now, "rto.fire",
                             subflow=self.trace_sf, name=self.name,
                             consecutive=self._consecutive_timeouts,
                             backoff=self.rto_estimator.backoff_count,
                             next_rto=self.rto_estimator.rto)
            self._trace.emit(self.sim.now, "cc.cwnd", subflow=self.trace_sf,
                             name=self.name, cwnd=self.cwnd,
                             ssthresh=self.ssthresh, reason="rto")
        self._retransmit_front()
        self._arm_rto_timer()
        if self.delegate is not None:
            # Let the MPTCP connection reinject this subflow's
            # outstanding data on the other paths.
            self.delegate.on_rto(self)

    def fail(self) -> None:
        """Declare the connection dead (link-down signal or repeated
        silent timeouts): stop timers and notify the owner."""
        if self.state in ("failed", "closed"):
            return
        self.state = "failed"
        if self._trace.enabled:
            self._trace.emit(self.sim.now, "tcp.failed",
                             subflow=self.trace_sf, name=self.name,
                             timeouts=self.stats.timeouts)
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        if self._syn_event is not None:
            self._syn_event.cancel()
            self._syn_event = None
        self.controller.detach(self)
        if self.delegate is not None:
            self.delegate.on_failed(self)
        elif self.on_failed is not None:
            self.on_failed()

    _fail = fail  # internal alias

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _teardown(self) -> None:
        self.state = "closed"
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        if self._syn_event is not None:
            self._syn_event.cancel()
            self._syn_event = None
        self.controller.detach(self)

    def deregister(self) -> None:
        """Remove this endpoint from its host's demultiplexer."""
        self._teardown()
        self.host.unregister_endpoint(self.four_tuple)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TcpEndpoint {self.name} {self.state} "
                f"cwnd={self.cwnd / self.mss:.1f}p pipe={self._pipe}B>")


class TcpListener:
    """A passive open: accepts SYNs on a port and builds endpoints.

    ``acceptor(packet, host)`` is called for each SYN that does not
    match an existing endpoint; it decides whether (and how) to create
    the server-side endpoint -- plain TCP for the HTTP baseline, or an
    MPTCP connection/subflow for multipath runs.
    """

    def __init__(self, acceptor: Callable[[Packet, Host], None]) -> None:
        self.acceptor = acceptor
        self.syns_received = 0

    def handle_syn(self, packet: Packet, host: Host) -> None:
        self.syns_received += 1
        self.acceptor(packet, host)
