"""The MPTCP connection: DSN space, subflows, flow control.

One :class:`MptcpConnection` object lives at each end of a multipath
connection (the roles are symmetric; "client" additionally runs the
path manager, because the NATed mobile host must initiate every
subflow).  Responsibilities:

* allocating connection-level (data) sequence numbers to subflows as
  the scheduler admits them;
* connection-level flow control against the peer's shared receive
  buffer (DATA_ACK plus the window advertised on subflow ACKs);
* reordering received data by DSN in the shared receive buffer, where
  out-of-order delay is measured;
* DATA_FIN stream termination;
* the RFC 6824 Section 3.6 *fallback* state machine: when a middlebox
  strips MP_CAPABLE from the handshake the connection continues as
  plain TCP; when the DSS mapping disappears (or stops matching) after
  establishment, a single-subflow connection falls back to the
  infinite mapping, while a multi-subflow connection signals MP_FAIL
  and tears down the offending subflow only;
* the optional *penalization* mechanism of Linux MPTCP v0.86 -- halving
  the window of the subflow responsible for receive-buffer blockage --
  which the paper explicitly removes (Section 3.1, "No subflow
  penalty"); it is therefore **off by default** here, and available for
  the ablation benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.coupling import make_controller
from repro.core.options import DssMapping, MptcpOptions
from repro.core.path_manager import PathManager
from repro.core.receive_buffer import ConnectionReceiveBuffer
from repro.core.scheduler import make_scheduler
from repro.core.subflow import Subflow
from repro.netsim.host import Host
from repro.netsim.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.endpoint import TcpConfig, TcpEndpoint, TcpListener
from repro.tcp.segment import Flags, Segment

_tokens = itertools.count(1)


def path_name_of(address: str) -> str:
    """Short path label from an interface address, e.g. client.att -> att."""
    return address.split(".", 1)[1] if "." in address else address


@dataclass(frozen=True)
class MptcpConfig:
    """Connection-level knobs, defaulted to the paper's setup."""

    controller: str = "coupled"
    scheduler: str = "minrtt"
    rcv_buffer: int = 8 * 1024 * 1024
    penalization: bool = False
    simultaneous_syn: bool = False
    max_subflows: Optional[int] = None
    #: Path names (e.g. ``("att",)``) to open in backup mode: they
    #: carry data only while no regular subflow is operational
    #: (Paasch et al.'s "backup mode" handover configuration).
    backup_paths: tuple = ()
    tcp: TcpConfig = field(default_factory=TcpConfig)


class MptcpConnection:
    """One side of a Multipath TCP connection."""

    def __init__(self, sim: Simulator, host: Host, role: str,
                 remote_port: int, config: MptcpConfig, token: int,
                 server_addrs: Optional[List[str]] = None,
                 name: str = "mptcp") -> None:
        if role not in ("client", "server"):
            raise ValueError(f"bad role {role!r}")
        self.sim = sim
        self.host = host
        self.role = role
        self.remote_port = remote_port
        self.config = config
        self.token = token
        self.name = name
        self.controller = make_controller(config.controller)
        self.scheduler = make_scheduler(config.scheduler)
        if self.scheduler.needs_path_metrics:
            # Metric-driven schedulers feed off the trace bus; install
            # the aggregating tap before anything caches ``sim.trace``.
            from repro.obs.pathmetrics import ensure_path_metrics
            ensure_path_metrics(sim)
        # Trace bus, cached at construction (hot-path probe sites);
        # install a real bus on the simulator before building
        # connections.
        self._trace = sim.trace
        # Metrics registry, cached under the same contract as the bus.
        self._metrics = sim.metrics
        #: Addresses this (server) side may advertise via ADD_ADDR.
        self.server_addrs = list(server_addrs or [])

        self.subflows: List[Subflow] = []
        self.path_manager = None  # set by client-side factory

        # Send-side state (connection level).
        self.total_queued = 0
        self.next_dsn = 0
        self.data_acked = 0
        self.peer_window = 64 * 1024
        self.bytes_allocated: Dict[str, int] = {}
        self.bytes_reinjected: Dict[str, int] = {}
        self._close_requested = False
        self._send_complete_handled = False
        #: Un-DATA_ACKed DSN ranges in flight per subflow:
        #: subflow.index -> list of [dsn_start, dsn_end, reinjected].
        #: Keyed by the persistent index, never ``id()`` -- ids are
        #: recycled by the allocator, so an id key can silently alias a
        #: dead subflow's state onto a later one.
        self._outstanding: Dict[int, List[List]] = {}
        #: DSN ranges reclaimed from a timed-out/failed subflow,
        #: awaiting retransmission on a healthy one:
        #: [start, end, origin_subflow_index].
        self._reinjection_queue: List[List[int]] = []
        #: Redundant-scheduler copies: [start, end, target_subflow_index].
        self._duplication_queue: List[List[int]] = []

        # Receive-side state.
        self.receive_buffer = ConnectionReceiveBuffer(
            capacity=config.rcv_buffer, clock=lambda: self.sim.now,
            trace=sim.trace)
        self.receive_buffer.on_deliver = self._deliver_to_app
        self._peer_data_fin: Optional[int] = None
        self._peer_fin_delivered = False

        # RFC 6824 Section 3.6 fallback state.  ``None`` means full
        # MPTCP; "plain" is the handshake fallback (the peer, or a
        # middlebox, removed MP_CAPABLE); "infinite" is the
        # infinite-mapping fallback after establishment (DSS lost or
        # inconsistent with a single subflow ever carrying data).
        self.fallback_mode: Optional[str] = None
        self.fallback_reason: Optional[str] = None
        self.fallback_at: Optional[float] = None
        #: The one subflow that carries the connection after fallback.
        self._fallback_subflow: Optional[Subflow] = None

        # Penalization bookkeeping (subflow.index -> last penalty time).
        self._last_penalty: Dict[int, float] = {}

        # Application callbacks.
        self.on_receive: Optional[Callable[[int], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None

        self.established_at: Optional[float] = None

        # Stateful schedulers bind to their connection (and, for
        # metric-driven ones, to the path-metrics tap) last, once the
        # trace plumbing above is settled.
        self.scheduler.attach(self)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def client(cls, sim: Simulator, host: Host, local_addrs: List[str],
               remote_addr: str, remote_port: int, config: MptcpConfig,
               name: str = "mptcp-client") -> "MptcpConnection":
        """Build a client-side connection with its path manager.

        ``local_addrs[0]`` is the default path (WiFi in the paper's
        testbed); the remaining addresses join once permitted by the
        subflow-establishment policy.
        """
        connection = cls(sim, host, "client", remote_port, config,
                         token=next(_tokens), name=name)
        connection.path_manager = PathManager(
            connection, local_addrs, remote_addr,
            simultaneous_syn=config.simultaneous_syn,
            max_subflows=config.max_subflows)
        return connection

    def connect(self) -> None:
        """Start the connection (client role): open the initial subflow."""
        if self.role != "client":
            raise RuntimeError("connect() is for the client role")
        assert self.path_manager is not None
        self.path_manager.start()

    def open_subflow(self, local_addr: str, remote_addr: str) -> Subflow:
        """Create and actively open one subflow (client side).

        A subflow carries MP_CAPABLE (initial) rather than MP_JOIN as
        long as the server cannot know this connection yet — nothing
        has ever established — and no other initial subflow is still
        mid-handshake.  Merely having *tried* before must not demote a
        reopened subflow to a join: if the first SYN died (interface
        outage during the handshake), a join would sit in the server's
        pending queue forever and the connection would never establish.

        A join over a path named in the config's ``backup_paths`` opens
        in backup mode; the initial subflow never does.
        """
        live_initial = any(
            subflow.is_initial and subflow.endpoint is not None
            and subflow.endpoint.state not in ("closed", "failed")
            for subflow in self.subflows)
        is_initial = self.established_at is None and not live_initial
        path_name = path_name_of(local_addr)
        subflow = Subflow(self, path_name, is_initial,
                          backup=(not is_initial
                                  and path_name in self.config.backup_paths))
        endpoint = TcpEndpoint(
            self.sim, self.host, local_addr, self.host.ephemeral_port(),
            remote_addr, self.remote_port, self.config.tcp,
            self.controller, delegate=subflow,
            name=f"{self.name}.{subflow.path_name}")
        subflow.endpoint = endpoint
        self.subflows.append(subflow)
        subflow.index = len(self.subflows) - 1
        endpoint.trace_sf = subflow.index
        if (self.fallback_mode is not None and is_initial
                and self._fallback_subflow is None):
            self._fallback_subflow = subflow
        endpoint.connect()
        return subflow

    def accept_subflow(self, packet: Packet, is_initial: bool) -> Subflow:
        """Create one subflow in response to a received SYN (server)."""
        segment = packet.segment
        subflow = Subflow(self, path_name_of(packet.src), is_initial)
        endpoint = TcpEndpoint(
            self.sim, self.host, packet.dst, segment.dst_port,
            packet.src, segment.src_port, self.config.tcp,
            self.controller, delegate=subflow,
            name=f"{self.name}.{subflow.path_name}")
        subflow.endpoint = endpoint
        self.subflows.append(subflow)
        subflow.index = len(self.subflows) - 1
        endpoint.trace_sf = subflow.index
        if (self.fallback_mode is not None and is_initial
                and self._fallback_subflow is None):
            self._fallback_subflow = subflow
        endpoint.accept(packet)
        return subflow

    def addresses_to_advertise(self) -> tuple:
        """Extra server addresses for the initial subflow's ADD_ADDR."""
        if self.role != "server" or not self.subflows:
            return ()
        initial = self.subflows[0]
        assert initial.endpoint is not None
        in_use = initial.endpoint.local_addr
        return tuple(addr for addr in self.server_addrs if addr != in_use)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` of connection-level data for transmission."""
        if nbytes < 0:
            raise ValueError("cannot send a negative byte count")
        self.total_queued += nbytes
        self.push()

    def close(self) -> None:
        """No more data: signal DATA_FIN once everything is delivered."""
        self._close_requested = True
        self.push()
        self._check_send_complete()

    def established_subflows(self) -> List[Subflow]:
        return [subflow for subflow in self.subflows if subflow.established]

    # ------------------------------------------------------------------
    # Fallback (RFC 6824 Section 3.6)
    # ------------------------------------------------------------------

    @property
    def is_fallback(self) -> bool:
        return self.fallback_mode is not None

    def fall_back(self, mode: str, reason: str,
                  survivor: Optional[Subflow] = None) -> None:
        """Drop to single-path operation on ``survivor``.

        ``mode`` is "plain" (handshake fallback: no MPTCP options at
        all from here on) or "infinite" (established, then lost the
        DSS: data continues under the implicit identity mapping).
        Idempotent -- the first fallback wins.  Every other live
        subflow is deregistered: an MPTCP host that has fallen back
        must not keep half-open joins around (RFC 6824 forbids new
        subflows after fallback).
        """
        if mode not in ("plain", "infinite"):
            raise ValueError(f"bad fallback mode {mode!r}")
        if self.fallback_mode is not None:
            return
        if survivor is None:
            survivor = next(
                (subflow for subflow in self.subflows
                 if subflow.is_initial and subflow.endpoint is not None
                 and subflow.endpoint.state not in ("closed", "failed")),
                None)
        self.fallback_mode = mode
        self.fallback_reason = reason
        self.fallback_at = self.sim.now
        self._fallback_subflow = survivor
        # Single-path from here on: pending redundant copies for the
        # deregistered siblings are unservable.
        self._duplication_queue.clear()
        if self._trace.enabled:
            self._trace.emit(
                self.sim.now, "mptcp.fallback",
                subflow=None if survivor is None else survivor.index,
                mode=mode, reason=reason, role=self.role,
                path=None if survivor is None else survivor.path_name)
        for subflow in self.subflows:
            if subflow is survivor or subflow.endpoint is None:
                continue
            if subflow.endpoint.state not in ("closed", "failed"):
                subflow.endpoint.deregister()
        self.push()

    def _identity_consistent(self, subflow: Subflow) -> bool:
        """May this subflow fall back to the infinite mapping?

        Only when the implicit ``dsn = ssn - 1`` identity provably
        holds: it is the initial subflow, no other subflow ever
        established, every byte sent or received travelled on it, and
        nothing was ever reinjected or duplicated (which would have
        reordered DSNs relative to subflow sequence numbers).
        """
        if not subflow.is_initial:
            return False
        endpoint = subflow.endpoint
        if endpoint is None or endpoint.state in ("closed", "failed"):
            return False
        for other in self.subflows:
            if other is subflow or other.endpoint is None:
                continue
            if other.endpoint.stats.established_at is not None:
                return False
        received_paths = self.receive_buffer.metrics.bytes_by_path
        if any(path != subflow.path_name for path in received_paths):
            return False
        if any(path != subflow.path_name for path in self.bytes_allocated):
            return False
        if (self.bytes_reinjected or self._reinjection_queue
                or self._duplication_queue):
            return False
        return True

    def on_dss_violation(self, subflow: Subflow, kind: str) -> bool:
        """Data arrived that the DSS machinery cannot place.

        Returns True when the caller should deliver the data under the
        identity mapping (the connection is, or just fell back to, the
        infinite mapping on this subflow); False when the data must be
        discarded because the subflow is being torn down via MP_FAIL.
        """
        if self.fallback_mode is not None:
            return subflow is self._fallback_subflow
        if self._identity_consistent(subflow):
            self.fall_back("infinite", f"dss-{kind}", survivor=subflow)
            return True
        if not subflow.mp_fail_pending:
            subflow.mp_fail_pending = True
            if self._trace.enabled:
                self._trace.emit(self.sim.now, "mptcp.fail",
                                 subflow=subflow.index,
                                 path=subflow.path_name,
                                 direction="sent", cause=kind)
            endpoint = subflow.endpoint
            if endpoint is not None:
                endpoint.send_ack()  # carries MP_FAIL to the peer
                # Tear down outside the receive path: the endpoint is
                # mid-delivery and must finish processing this packet.
                self.sim.schedule(0.0, endpoint.fail,
                                  name=f"{self.name}.mp-fail")
        return False

    def on_mp_fail(self, subflow: Subflow) -> None:
        """The peer signalled MP_FAIL on this subflow."""
        if self.fallback_mode is not None:
            return
        if self._trace.enabled:
            self._trace.emit(self.sim.now, "mptcp.fail",
                             subflow=subflow.index, path=subflow.path_name,
                             direction="received")
        if self._identity_consistent(subflow):
            self.fall_back("infinite", "peer-mp-fail", survivor=subflow)
        elif (subflow.endpoint is not None
                and subflow.endpoint.state not in ("closed", "failed")):
            subflow.endpoint.fail()

    def on_join_rejected(self, subflow: Subflow) -> None:
        """A join was answered without MP_JOIN (stripped or plain peer).

        The subflow is unusable for MPTCP; fail it and reclaim its DSN
        ranges even if no sibling is healthy right now -- the ranges
        wait in the reinjection queue for whatever establishes next,
        instead of wedging the connection forever.
        """
        if self._trace.enabled:
            self._trace.emit(self.sim.now, "mptcp.join",
                             subflow=subflow.index, path=subflow.path_name,
                             status="rejected", role=self.role)
        if subflow.endpoint is not None:
            subflow.endpoint.fail()
        self._reclaim_outstanding(subflow, force=True)

    # ------------------------------------------------------------------
    # Scheduler interaction
    # ------------------------------------------------------------------

    def push(self) -> None:
        """Offer transmission opportunities in scheduler preference order."""
        for subflow in self.scheduler.order(self.subflows):
            subflow.pump()

    def allocate(self, subflow: Subflow, max_bytes: int
                 ) -> Optional[tuple]:
        """Hand the next run of DSNs to ``subflow`` (or None).

        Enforces connection-level flow control: no data beyond the
        peer's DATA_ACK plus its advertised (shared-buffer) window.
        """
        if max_bytes <= 0:
            return None
        if subflow.backup and self._regular_path_available(subflow):
            return None  # backup paths carry data only as a last resort
        reinjection = self._serve_reinjection(subflow, max_bytes)
        if reinjection is not None:
            if self._trace.enabled:
                self._trace.emit(self.sim.now, "sched.select",
                                 subflow=subflow.index,
                                 path=subflow.path_name,
                                 dsn=reinjection[0], length=reinjection[1],
                                 reason="reinjection")
            self.scheduler.on_allocated(subflow, reinjection[1])
            return reinjection
        duplication = self._serve_duplication(subflow, max_bytes)
        if duplication is not None:
            if self._trace.enabled:
                self._trace.emit(self.sim.now, "sched.select",
                                 subflow=subflow.index,
                                 path=subflow.path_name,
                                 dsn=duplication[0], length=duplication[1],
                                 reason="duplicate")
            self.scheduler.on_allocated(subflow, duplication[1])
            return duplication
        if self.next_dsn >= self.total_queued:
            return None
        window_limit = self.data_acked + self.peer_window
        if self.next_dsn >= window_limit:
            if self._trace.enabled:
                self._trace.emit(self.sim.now, "sched.refuse",
                                 subflow=subflow.index,
                                 path=subflow.path_name,
                                 reason="rwnd-limited",
                                 next_dsn=self.next_dsn,
                                 window_limit=window_limit)
            self._maybe_penalize()
            return None
        if not self.scheduler.admits(self.subflows, subflow,
                                     window_limit - self.next_dsn):
            # A preferred (strictly faster) subflow still has window
            # budget: give it the data first; this subflow will be
            # offered the remainder on the next push or ACK event.
            # Pumping only strictly-faster subflows keeps the recursion
            # well-founded (each hop decreases SRTT).  Backups this
            # very method would refuse (a regular path is operational)
            # are skipped: pumping them goes nowhere, and counting them
            # preferred would stall the only eligible regular path.
            if self._trace.enabled:
                self._trace.emit(self.sim.now, "sched.refuse",
                                 subflow=subflow.index,
                                 path=subflow.path_name,
                                 reason="preferred-path-open",
                                 candidates=self._trace_candidates())
            for preferred in self.scheduler.order(self.subflows):
                if (preferred is not subflow
                        and preferred.srtt() < subflow.srtt()
                        and preferred.can_send()
                        and not (preferred.backup
                                 and self._regular_path_available(
                                     preferred))):
                    preferred.pump()
            return None
        length = min(max_bytes, self.total_queued - self.next_dsn,
                     window_limit - self.next_dsn)
        dsn = self.next_dsn
        self.next_dsn += length
        self.bytes_allocated[subflow.path_name] = (
            self.bytes_allocated.get(subflow.path_name, 0) + length)
        self._outstanding.setdefault(subflow.index, []).append(
            [dsn, dsn + length, False])
        if self._trace.enabled:
            self._trace.emit(self.sim.now, "sched.select",
                             subflow=subflow.index, path=subflow.path_name,
                             dsn=dsn, length=length, reason="fresh",
                             candidates=self._trace_candidates())
        self.scheduler.on_allocated(subflow, length)
        if self.scheduler.duplicates:
            self._queue_duplicates(subflow, dsn, dsn + length)
        return dsn, length

    def _trace_candidates(self) -> list:
        """Scheduler's-eye view of every established subflow; the
        considered-candidates payload of ``sched.*`` trace events."""
        return [{"subflow": sub.index, "path": sub.path_name,
                 "srtt": round(sub.srtt(), 6), "can_send": sub.can_send(),
                 "backup": sub.backup}
                for sub in self.subflows if sub.established]

    def _queue_duplicates(self, origin: Subflow, start: int,
                          end: int) -> None:
        """Redundant mode: copy the fresh range onto every other path."""
        queued = False
        for other in self.subflows:
            if other is origin or not other.established:
                continue
            self._duplication_queue.append([start, end, other.index])
            queued = True
        if queued:
            self.push()

    def _serve_duplication(self, subflow: Subflow, max_bytes: int
                           ) -> Optional[tuple]:
        """Hand this subflow its pending redundant copies, if any."""
        index = 0
        while index < len(self._duplication_queue):
            entry = self._duplication_queue[index]
            start = max(entry[0], self.data_acked)
            if start >= entry[1]:
                self._duplication_queue.pop(index)  # already delivered
                continue
            if entry[2] != subflow.index:
                index += 1
                continue
            length = min(max_bytes, entry[1] - start)
            if start + length >= entry[1]:
                self._duplication_queue.pop(index)
            else:
                entry[0] = start + length
            self.bytes_reinjected[subflow.path_name] = (
                self.bytes_reinjected.get(subflow.path_name, 0) + length)
            return start, length
        return None

    def _serve_reinjection(self, subflow: Subflow, max_bytes: int
                           ) -> Optional[tuple]:
        """Hand a reclaimed DSN range to a healthy subflow, if any."""
        index = 0
        while index < len(self._reinjection_queue):
            entry = self._reinjection_queue[index]
            start = max(entry[0], self.data_acked)
            if start >= entry[1]:
                self._reinjection_queue.pop(index)  # already acked
                continue
            if entry[2] == subflow.index:
                index += 1  # never back onto the path that timed out
                continue
            length = min(max_bytes, entry[1] - start)
            if start + length >= entry[1]:
                self._reinjection_queue.pop(index)
            else:
                entry[0] = start + length
            self.bytes_reinjected[subflow.path_name] = (
                self.bytes_reinjected.get(subflow.path_name, 0) + length)
            self._outstanding.setdefault(subflow.index, []).append(
                [start, start + length, True])
            return start, length
        return None

    def _reclaim_outstanding(self, subflow: Subflow,
                             force: bool = False) -> None:
        """Queue the subflow's un-acknowledged DSN ranges for
        retransmission on the other paths (MPTCP reinjection).

        ``force`` queues even with no healthy sibling (used when the
        subflow is dead for good, so its own RTO cannot carry on)."""
        ranges = self._outstanding.get(subflow.index, [])
        healthy = [other for other in self.established_subflows()
                   if other is not subflow]
        if not healthy and not force:
            return  # nowhere to reinject; subflow-level RTO carries on
        for entry in ranges:
            start = max(entry[0], self.data_acked)
            if start >= entry[1] or entry[2]:
                continue
            entry[2] = True
            self._reinjection_queue.append([start, entry[1], subflow.index])
            if self._metrics.enabled:
                self._metrics.counter("mptcp.reinject.spans").inc()
                self._metrics.counter("mptcp.reinject.bytes").inc(
                    entry[1] - start)
            if self._trace.enabled:
                self._trace.emit(self.sim.now, "mptcp.reinject",
                                 subflow=subflow.index,
                                 path=subflow.path_name,
                                 dsn_start=start, dsn_end=entry[1],
                                 forced=force)
        if self._reinjection_queue:
            self.push()

    def _fail_subflows_toward(self, dead_addrs: tuple) -> None:
        """The peer advertised unreachable addresses: fail our subflows
        pointed at them right away (the MP_FAIL fast path).

        Freshly established subflows are spared: a stale advertisement
        sent just before the interface recovered may arrive on a slow
        path after the re-join completed.
        """
        for subflow in self.subflows:
            endpoint = subflow.endpoint
            if (endpoint is not None
                    and endpoint.remote_addr in dead_addrs
                    and endpoint.state not in ("failed", "closed")):
                established_at = endpoint.stats.established_at
                if (established_at is not None
                        and self.sim.now - established_at < 1.0):
                    continue  # younger than any plausible stale signal
                endpoint.fail()

    def _regular_path_available(self, candidate: Subflow) -> bool:
        """Is any non-backup subflow still operational?"""
        return any(subflow.established and not subflow.backup
                   for subflow in self.subflows
                   if subflow is not candidate)

    def _prune_outstanding(self) -> None:
        for ranges in self._outstanding.values():
            while ranges and ranges[0][1] <= self.data_acked:
                ranges.pop(0)

    # ------------------------------------------------------------------
    # Options plumbing (called by subflows)
    # ------------------------------------------------------------------

    def signal_options(self, dss: Optional[DssMapping],
                       mp_fail: bool) -> MptcpOptions:
        """The option block of one segment of a live MPTCP subflow: the
        DATA_ACK, a data segment's mapping, and whatever connection
        signal is pending (DATA_FIN, dead addresses)."""
        return MptcpOptions(
            dss=dss,
            data_ack=self.receive_buffer.rcv_nxt,
            data_fin_dsn=(self.total_queued if self._close_requested
                          else None),
            dead_addrs=self.dead_addrs_to_signal(),
            mp_fail=mp_fail)

    def has_pending_data(self) -> bool:
        """True while this side's stream could still produce data for
        a subflow: unallocated bytes, queued reinjections/duplicates,
        or an application that has not closed yet."""
        if not self._close_requested:
            return True
        return (self.next_dsn < self.total_queued
                or bool(self._reinjection_queue)
                or bool(self._duplication_queue))

    def dead_addrs_to_signal(self) -> tuple:
        """Local addresses to advertise as unreachable (MP_FAIL-style)."""
        if self.path_manager is None or not self.path_manager.down_locals:
            return ()  # fast path: nothing down (the per-segment case)
        return tuple(sorted(self.path_manager.down_locals))

    def receive_window(self) -> int:
        """Shared receive buffer space, minus subflow-level stashes."""
        free = self.receive_buffer.free_space()
        for subflow in self.subflows:  # plain loop: per-segment path
            endpoint = subflow.endpoint
            if endpoint is not None:
                free -= endpoint.reassembly.buffered_bytes
        return free if free > 0 else 0

    def on_segment(self, subflow: Subflow, segment: Segment) -> None:
        """Process connection-level signalling on any received segment."""
        if self.fallback_mode is not None:
            self._on_segment_fallback(subflow, segment)
            return
        advanced = False
        if segment.flags.ack:
            if segment.window != self.peer_window:
                self.peer_window = segment.window
                advanced = True
        options = segment.options
        if options is not None:
            if (options.data_ack is not None
                    and options.data_ack > self.data_acked):
                self.data_acked = options.data_ack
                self._prune_outstanding()
                advanced = True
            if options.data_fin_dsn is not None:
                self._peer_data_fin = options.data_fin_dsn
            if options.add_addr:
                self.on_add_addr(options.add_addr)
            if options.dead_addrs:
                self._fail_subflows_toward(options.dead_addrs)
            if options.mp_fail:
                self.on_mp_fail(subflow)
                if self.fallback_mode is not None:
                    self._on_segment_fallback(subflow, segment)
                    return
        elif (segment.is_pure_ack and subflow.endpoint is not None
                and subflow.endpoint.stats.payload_bytes_sent > 0
                and subflow.endpoint.snd_una > 1):
            # A genuine MPTCP peer stamps every bare ACK with at least
            # a DATA_ACK.  An optionless pure ACK covering DSS-mapped
            # payload means the path (or the peer) dropped out of
            # MPTCP: the sender-side half of the Section 3.6 fallback.
            self.on_dss_violation(subflow, "ack-without-data-ack")
            if self.fallback_mode is not None:
                self._on_segment_fallback(subflow, segment)
                return
        self._check_peer_fin()
        self._check_send_complete()
        if advanced:
            self.push()

    def _on_segment_fallback(self, subflow: Subflow,
                             segment: Segment) -> None:
        """Connection-level accounting after fallback: the surviving
        subflow's cumulative ACK doubles as the DATA_ACK (the identity
        mapping makes ``dsn = seq - 1``), MPTCP options are ignored."""
        if subflow is not self._fallback_subflow:
            return
        advanced = False
        if segment.flags.ack:
            if segment.window != self.peer_window:
                self.peer_window = segment.window
                advanced = True
            endpoint = subflow.endpoint
            if endpoint is not None:
                acked = min(endpoint.snd_una - 1, self.next_dsn)
                if acked > self.data_acked:
                    self.data_acked = acked
                    self._prune_outstanding()
                    advanced = True
        self._check_peer_fin()
        self._check_send_complete()
        if advanced:
            self.push()

    # ------------------------------------------------------------------
    # Events from subflows
    # ------------------------------------------------------------------

    def on_subflow_established(self, subflow: Subflow) -> None:
        if self._trace.enabled:
            self._trace.emit(
                self.sim.now,
                "mptcp.capable" if subflow.is_initial else "mptcp.join",
                subflow=subflow.index, path=subflow.path_name,
                status="established", role=self.role, token=self.token)
        if self.established_at is None:
            self.established_at = self.sim.now
            if self.on_established is not None:
                self.on_established()
        if (subflow.is_initial and self.role == "client"
                and self.path_manager is not None
                and self.fallback_mode is None):
            self.path_manager.on_initial_established()
        self.push()

    def on_add_addr(self, addrs: tuple) -> None:
        if self._trace.enabled:
            self._trace.emit(self.sim.now, "mptcp.add_addr",
                             role=self.role, addrs=list(addrs))
        if self.fallback_mode is not None:
            return  # no new subflows after fallback (RFC 6824 S3.6)
        if self.role == "client" and self.path_manager is not None:
            self.path_manager.on_add_addr(addrs)

    def on_subflow_data(self, subflow: Subflow, dsn_start: int,
                        dsn_end: int, arrival_time: float) -> None:
        self.receive_buffer.offer(dsn_start, dsn_end, arrival_time,
                                  subflow.path_name)
        self._check_peer_fin()

    def on_subflow_peer_fin(self, subflow: Subflow) -> None:
        if (self.fallback_mode is not None
                and subflow is self._fallback_subflow):
            # No DATA_FIN will come: the subflow FIN *is* the end of
            # the stream (it only delivers once all payload has).
            if self._peer_data_fin is None:
                self._peer_data_fin = self.receive_buffer.rcv_nxt
            self._check_peer_fin()
        # The peer is done with this subflow; finish our half too.
        if subflow.endpoint is not None:
            subflow.endpoint.close()

    def on_subflow_rto(self, subflow: Subflow) -> None:
        """A subflow timed out: reinject its data on the other paths."""
        self._reclaim_outstanding(subflow)

    def on_subflow_failed(self, subflow: Subflow) -> None:
        """A subflow gave up entirely: reclaim and stop scheduling it."""
        self._reclaim_outstanding(subflow)
        # Redundant copies aimed at the dead subflow can never be
        # served; left queued they keep ``has_pending_data`` true
        # forever (and, pre-index-keying, could mis-target a later
        # subflow reusing the id).
        self._duplication_queue = [
            entry for entry in self._duplication_queue
            if entry[2] != subflow.index]
        if (self.role == "client" and self.path_manager is not None):
            self.path_manager.on_subflow_failed(subflow)
        # Tell the peer on the surviving subflows (dead-address option
        # rides on a bare ACK -- the only traffic an idle backup path
        # would otherwise see).
        if self.dead_addrs_to_signal():
            for survivor in self.established_subflows():
                if survivor.endpoint is not None:
                    survivor.endpoint.send_ack()

    def kill_subflow(self, subflow: Subflow) -> None:
        """Forcefully fail a subflow (OS link-down notification)."""
        if subflow.endpoint is not None:
            subflow.endpoint.fail()

    def _deliver_to_app(self, nbytes: int) -> None:
        if self.on_receive is not None:
            self.on_receive(nbytes)

    def _check_peer_fin(self) -> None:
        if (self._peer_data_fin is not None and not self._peer_fin_delivered
                and self.receive_buffer.rcv_nxt >= self._peer_data_fin):
            self._peer_fin_delivered = True
            if self.on_close is not None:
                self.on_close()

    def _check_send_complete(self) -> None:
        """Once our DATA_FIN is acknowledged, close the subflows."""
        if (self._close_requested and not self._send_complete_handled
                and self.next_dsn >= self.total_queued
                and self.data_acked >= self.total_queued):
            self._send_complete_handled = True
            for subflow in self.subflows:
                if subflow.endpoint is not None:
                    subflow.endpoint.close()

    # ------------------------------------------------------------------
    # Penalization (Linux v0.86 behaviour; off by default, see module doc)
    # ------------------------------------------------------------------

    def _maybe_penalize(self) -> None:
        if not self.config.penalization:
            return
        candidates = [subflow for subflow in self.established_subflows()
                      if subflow.endpoint is not None
                      and subflow.endpoint.flight_bytes > 0]
        if len(candidates) < 2:
            return
        # The subflow blocking the shared buffer is the slowest one
        # with data outstanding.
        slowest = max(candidates, key=lambda subflow: subflow.srtt())
        endpoint = slowest.endpoint
        assert endpoint is not None
        last = self._last_penalty.get(slowest.index, -1.0)
        if self.sim.now - last < slowest.srtt():
            return  # at most once per RTT
        self._last_penalty[slowest.index] = self.sim.now
        endpoint.ssthresh = max(endpoint.cwnd / 2.0, 2.0 * endpoint.mss)
        endpoint.cwnd = endpoint.ssthresh

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MptcpConnection {self.name} {self.role} "
                f"subflows={len(self.subflows)} "
                f"dsn={self.next_dsn}/{self.total_queued}>")


class MptcpListener:
    """Server-side acceptor: MP_CAPABLE opens, MP_JOIN associates.

    A SYN carrying no MPTCP signalling at all (a plain client, or a
    middlebox stripped MP_CAPABLE in flight) is accepted as a
    *fallback* connection that behaves as plain TCP end to end.

    Joins whose token is not (yet) known are parked briefly rather than
    dropped -- with the paper's simultaneous-SYN modification the
    cellular JOIN can overtake the WiFi MP_CAPABLE in flight.  Parked
    entries expire after ``join_wait`` and are answered with a RST, so
    a join orphaned by a stripped MP_CAPABLE can never sit in the
    pending queue forever.
    """

    def __init__(self, sim: Simulator, host: Host, port: int,
                 config: MptcpConfig,
                 server_addrs: Optional[List[str]] = None,
                 on_connection: Optional[
                     Callable[[MptcpConnection], None]] = None) -> None:
        self.sim = sim
        self.host = host
        self.port = port
        self.config = config
        self.server_addrs = list(server_addrs or [])
        self.on_connection = on_connection
        self.connections: Dict[int, MptcpConnection] = {}
        #: Connections accepted without MP_CAPABLE (plain fallback).
        self.fallback_connections: List[MptcpConnection] = []
        self._pending_joins: Dict[int, List[Packet]] = {}
        self._pending_first_at: Dict[int, float] = {}
        #: How long an orphan join may wait for its MP_CAPABLE before
        #: being refused with a RST.
        self.join_wait = 5.0
        self.joins_rejected = 0
        host.bind_listener(port, TcpListener(self._accept))

    def _accept(self, packet: Packet, host: Host) -> None:
        options = packet.segment.options
        if options is None or options.token is None:
            self._accept_plain(packet)
        elif options.mp_capable:
            self._accept_capable(packet, options)
        elif options.mp_join:
            self._accept_join(packet, options)
        else:
            self._accept_plain(packet)

    def _accept_plain(self, packet: Packet) -> None:
        """No MP_CAPABLE on the SYN: serve the client as plain TCP."""
        token = next(_tokens)
        connection = MptcpConnection(
            self.sim, self.host, "server", packet.segment.src_port,
            self.config, token=token, server_addrs=self.server_addrs,
            name=f"mptcp-server-plain-{token}")
        self.fallback_connections.append(connection)
        if self.on_connection is not None:
            self.on_connection(connection)
        # Fall back *before* the subflow exists so the SYN-ACK already
        # goes out without MPTCP options.
        connection.fall_back("plain", "syn-without-mp-capable")
        connection.accept_subflow(packet, is_initial=True)

    def _accept_capable(self, packet: Packet, options: MptcpOptions) -> None:
        connection = self.connections.get(options.token)
        if connection is not None:
            # A retransmitted SYN never gets here (the host demux hands
            # it to the half-open endpoint bound to its 4-tuple): this
            # is the client re-opening the initial subflow from a new
            # port after its first attempt died before our SYN-ACK got
            # through, so the new SYN supersedes the half-open one.
            # Once established the client only ever joins, and an
            # MP_CAPABLE can only be a stale duplicate.
            if connection.established_at is None:
                for subflow in connection.subflows:
                    if subflow.is_initial:
                        connection.kill_subflow(subflow)
                connection.accept_subflow(packet, is_initial=True)
            return
        connection = MptcpConnection(
            self.sim, self.host, "server", packet.segment.src_port,
            self.config, token=options.token,
            server_addrs=self.server_addrs,
            name=f"mptcp-server-{options.token}")
        self.connections[options.token] = connection
        if self.on_connection is not None:
            self.on_connection(connection)
        connection.accept_subflow(packet, is_initial=True)
        self._pending_first_at.pop(options.token, None)
        for pending in self._pending_joins.pop(options.token, []):
            connection.accept_subflow(pending, is_initial=False)

    def _accept_join(self, packet: Packet, options: MptcpOptions) -> None:
        self._purge_pending()
        connection = self.connections.get(options.token)
        if connection is None:
            pending = self._pending_joins.setdefault(options.token, [])
            if options.token not in self._pending_first_at:
                self._pending_first_at[options.token] = self.sim.now
                # Lazy purge plus this backstop: the queue drains even
                # if no further packet ever reaches the listener.
                self.sim.schedule(self.join_wait * 1.01,
                                  self._purge_pending,
                                  name="mptcp-listener.join-purge")
            key = _join_key(packet)
            if all(_join_key(parked) != key for parked in pending):
                pending.append(packet)  # dedupe retransmitted SYNs
            return
        if connection.is_fallback:
            # RFC 6824 S3.6: no new subflows after fallback.
            self.joins_rejected += 1
            self._send_rst(packet)
            return
        connection.accept_subflow(packet, is_initial=False)

    def _purge_pending(self) -> None:
        """Refuse joins that have waited longer than ``join_wait``."""
        if not self._pending_first_at:
            return
        cutoff = self.sim.now - self.join_wait
        stale = [token for token, first_at in self._pending_first_at.items()
                 if first_at <= cutoff]
        for token in stale:
            del self._pending_first_at[token]
            for parked in self._pending_joins.pop(token, []):
                self.joins_rejected += 1
                self._send_rst(parked)

    def _send_rst(self, packet: Packet) -> None:
        """Answer a refused SYN with a reset."""
        segment = packet.segment
        reply = Segment(src_port=segment.dst_port,
                        dst_port=segment.src_port,
                        seq=0, ack=segment.end_seq,
                        flags=Flags(rst=True, ack=True))
        self.host.send(Packet(packet.dst, packet.src, reply))


def _join_key(packet: Packet) -> tuple:
    """The 4-tuple identifying one parked join SYN."""
    return (packet.src, packet.segment.src_port,
            packet.dst, packet.segment.dst_port)
