"""One MPTCP subflow: a TCP endpoint bound into a connection.

The :class:`Subflow` implements the :class:`repro.tcp.endpoint.TcpDelegate`
protocol, wiring the generic TCP machinery to the MPTCP layer:

* handshakes carry MP_CAPABLE (initial subflow) or MP_JOIN (additional
  subflows) options, plus the server's ADD_ADDR advertisement;
* outgoing data is pulled from the connection's scheduler and stamped
  with a DSS mapping;
* incoming in-subflow-order data is pushed, mapping applied, into the
  connection-level reorder buffer where out-of-order delay is measured;
* every received segment's DATA_ACK and window update the connection's
  send-side flow control.
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from repro.core.options import DssMapping, MptcpOptions
from repro.obs.metrics import BYTES_EDGES
from repro.tcp.endpoint import TcpEndpoint
from repro.tcp.segment import Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.connection import MptcpConnection


class Subflow:
    """Delegate tying one :class:`TcpEndpoint` to an MPTCP connection."""

    def __init__(self, connection: "MptcpConnection", path_name: str,
                 is_initial: bool, backup: bool = False) -> None:
        self.connection = connection
        self.path_name = path_name
        self.is_initial = is_initial
        self.backup = backup
        #: Position in the connection's subflow list (set on append);
        #: the ``subflow=`` tag on trace events.
        self.index: Optional[int] = None
        self.endpoint: Optional[TcpEndpoint] = None
        #: Set when unmappable data arrived and the subflow must tell
        #: the peer (MP_FAIL) before being torn down.
        self.mp_fail_pending = False

    # ------------------------------------------------------------------
    # Scheduler-facing view
    # ------------------------------------------------------------------

    @property
    def established(self) -> bool:
        return (self.endpoint is not None
                and self.endpoint.state in ("established", "close_wait"))

    def srtt(self) -> float:
        return self.endpoint.smoothed_rtt()

    def can_send(self) -> bool:
        """True when established with congestion-window budget left."""
        return (self.established
                and self.endpoint.flight_bytes < int(self.endpoint.cwnd))

    def cwnd_bytes(self) -> int:
        """Current congestion window in bytes (0 when unbound)."""
        return 0 if self.endpoint is None else int(self.endpoint.cwnd)

    def pump(self) -> None:
        """Give the subflow a chance to transmit (scheduler push)."""
        if self.endpoint is not None:
            self.endpoint.pump()

    # ------------------------------------------------------------------
    # TcpDelegate: handshake options
    # ------------------------------------------------------------------

    def syn_options(self, endpoint: TcpEndpoint) -> Optional[MptcpOptions]:
        if self.connection.is_fallback:
            return None  # plain fallback: no MPTCP signalling at all
        if self.is_initial:
            return MptcpOptions(mp_capable=True, token=self.connection.token)
        return MptcpOptions(mp_join=True, token=self.connection.token,
                            backup=self.backup)

    def synack_options(self, endpoint: TcpEndpoint) -> Optional[MptcpOptions]:
        if self.connection.is_fallback:
            return None
        # The multi-homed server advertises its additional addresses on
        # the initial subflow (the client is NATed, so joins must be
        # client-initiated; see Section 2.2.1).
        add_addr: Tuple[str, ...] = ()
        if self.is_initial:
            add_addr = self.connection.addresses_to_advertise()
        if self.is_initial:
            return MptcpOptions(mp_capable=True, token=self.connection.token,
                                add_addr=add_addr)
        return MptcpOptions(mp_join=True, token=self.connection.token)

    def on_handshake_options(self, endpoint: TcpEndpoint,
                             options: Optional[MptcpOptions]) -> None:
        connection = self.connection
        if connection.is_fallback:
            return
        mptcp = (options is not None
                 and (options.mp_capable or options.mp_join))
        trace = connection.sim.trace
        if trace.enabled and mptcp:
            trace.emit(connection.sim.now,
                       "mptcp.capable" if options.mp_capable
                       else "mptcp.join",
                       subflow=self.index, path=self.path_name,
                       status="options-received", role=connection.role,
                       token=options.token, backup=options.backup)
        if not mptcp and connection.role == "client":
            # Our SYN carried MPTCP options; the answer has none: a
            # middlebox stripped them (or the peer is plain TCP).
            if self.is_initial:
                connection.fall_back("plain", "mp-capable-missing",
                                     survivor=self)
            else:
                connection.on_join_rejected(self)
            return
        if options is None:
            return
        if options.mp_join and options.backup:
            self.backup = True  # the peer flagged this path as backup
        if options.add_addr:
            connection.on_add_addr(options.add_addr)

    def on_established(self, endpoint: TcpEndpoint) -> None:
        self.connection.on_subflow_established(self)

    # ------------------------------------------------------------------
    # TcpDelegate: transmit path
    # ------------------------------------------------------------------

    def pull_data(self, endpoint: TcpEndpoint,
                  max_bytes: int) -> Optional[Tuple[int, int]]:
        allocation = self.connection.allocate(self, max_bytes)
        metrics = self.connection._metrics
        if allocation is not None and metrics.enabled:
            # Per-path contribution and path-state samples, taken at
            # each scheduler grant (passive: observation only).
            path = self.path_name
            metrics.counter(f"path.{path}.bytes").inc(allocation[1])
            metrics.histogram(f"path.{path}.srtt_s").observe(
                endpoint.smoothed_rtt())
            metrics.histogram(f"path.{path}.cwnd_bytes",
                              BYTES_EDGES).observe(float(endpoint.cwnd))
        return allocation

    def data_options(self, endpoint: TcpEndpoint, ssn: int, dsn: int,
                     length: int) -> Optional[MptcpOptions]:
        connection = self.connection
        if connection.fallback_mode is not None:
            # Plain fallback sends no options; the infinite mapping
            # makes an explicit per-segment mapping redundant.
            return None
        return connection.signal_options(DssMapping(dsn, ssn, length),
                                         self.mp_fail_pending)

    def ack_options(self, endpoint: TcpEndpoint) -> Optional[MptcpOptions]:
        connection = self.connection
        if connection.fallback_mode is not None:
            if (connection.fallback_mode == "infinite"
                    and self is connection._fallback_subflow):
                # Keep signalling MP_FAIL so the peer (which may still
                # believe in the DSS) converges onto the same fallback.
                return MptcpOptions(
                    mp_fail=True,
                    data_ack=connection.receive_buffer.rcv_nxt)
            return None
        return connection.signal_options(None, self.mp_fail_pending)

    def receive_window(self, endpoint: TcpEndpoint) -> int:
        return self.connection.receive_window()

    # ------------------------------------------------------------------
    # TcpDelegate: receive path
    # ------------------------------------------------------------------

    def on_data(self, endpoint: TcpEndpoint, ssn_start: int, ssn_end: int,
                meta: Tuple[float, Optional[MptcpOptions]]) -> None:
        arrival_time, options = meta
        connection = self.connection
        if connection.fallback_mode is not None:
            # Identity mapping: payload starts at subflow seq 1, the
            # DSN space at 0, so dsn = ssn - 1 on the sole subflow.
            if self is connection._fallback_subflow:
                connection.on_subflow_data(self, ssn_start - 1, ssn_end - 1,
                                           arrival_time)
            return
        if options is None or options.dss is None:
            # Mapped data lost its mapping in flight (stripped DSS,
            # or a re-segmenting proxy): Section 3.6 fallback.
            if connection.on_dss_violation(self, "missing-dss"):
                connection.on_subflow_data(self, ssn_start - 1, ssn_end - 1,
                                           arrival_time)
            return
        mapping = options.dss
        if not (mapping.ssn <= ssn_start and ssn_end <= mapping.ssn_end):
            # The mapping no longer describes this payload (sequence-
            # rewriting middlebox): the SSN anchor cannot be trusted.
            if connection.on_dss_violation(self, "mapping-mismatch"):
                connection.on_subflow_data(self, ssn_start - 1, ssn_end - 1,
                                           arrival_time)
            return
        dsn_start = mapping.dsn + (ssn_start - mapping.ssn)
        dsn_end = dsn_start + (ssn_end - ssn_start)
        connection.on_subflow_data(self, dsn_start, dsn_end, arrival_time)

    def on_segment(self, endpoint: TcpEndpoint, segment: Segment) -> None:
        self.connection.on_segment(self, segment)

    def on_peer_fin(self, endpoint: TcpEndpoint) -> None:
        self.connection.on_subflow_peer_fin(self)

    def on_rto(self, endpoint: TcpEndpoint) -> None:
        self.connection.on_subflow_rto(self)

    def has_pending_data(self, endpoint: TcpEndpoint) -> bool:
        return self.connection.has_pending_data()

    def on_failed(self, endpoint: TcpEndpoint) -> None:
        self.connection.on_subflow_failed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "initial" if self.is_initial else "join"
        state = self.endpoint.state if self.endpoint is not None else "unbound"
        return f"<Subflow {self.path_name} {kind} {state}>"
