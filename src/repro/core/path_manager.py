"""Subflow establishment policy (client side).

Section 2.2.1: the client opens the first subflow over its default
path (WiFi); once that subflow completes the MP_CAPABLE handshake, the
client opens an MP_JOIN subflow from each additional local interface
to the server address it already knows, and -- when the multi-homed
server advertises a second address with ADD_ADDR -- from every local
interface to the new address as well.  (The server never connects
inward: the client is behind a NAT.)

Section 4.1.2 evaluates a modification: *simultaneous SYNs*, where the
client, knowing a priori that the server is MPTCP-capable and holding
a pre-authorized key, fires the JOIN SYNs at connect time instead of
waiting one default-path RTT.  ``simultaneous_syn=True`` enables it.

The full mesh above is Linux MPTCP's default path manager, the one the
paper measures; backup-mode joins (Paasch et al.'s handover
configuration) come from
:attr:`~repro.core.connection.MptcpConfig.backup_paths`.
"""

from __future__ import annotations

from typing import List, Optional, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.connection import MptcpConnection


class PathManager:
    """Decides which (local, remote) address pairs become subflows:
    every local address toward every known server address."""

    def __init__(self, connection: "MptcpConnection",
                 local_addrs: List[str], remote_addr: str,
                 simultaneous_syn: bool = False,
                 max_subflows: Optional[int] = None) -> None:
        if not local_addrs:
            raise ValueError("at least one local address is required")
        self.connection = connection
        self.local_addrs = list(local_addrs)
        self.primary_remote = remote_addr
        self.simultaneous_syn = simultaneous_syn
        self.max_subflows = max_subflows
        self._known_remotes: List[str] = [remote_addr]
        #: The (local, remote) pairs opened so far.
        self._pairs_opened: Set[tuple] = set()
        self._subflow_by_pair: dict = {}
        #: Local addresses the OS currently reports as down; advertised
        #: to the peer (MP_FAIL-style) so it stops using them at once.
        self.down_locals: Set[str] = set()

    def start(self) -> None:
        """Open the initial subflow (and, if simultaneous, the joins)."""
        self._open(self.local_addrs[0], self.primary_remote)
        if self.simultaneous_syn:
            for local in self.local_addrs[1:]:
                self._open(local, self.primary_remote)

    def on_initial_established(self) -> None:
        """Default policy: join from the other interfaces now."""
        for local in self.local_addrs[1:]:
            self._open(local, self.primary_remote)

    def on_add_addr(self, addrs: tuple) -> None:
        """The server advertised more addresses: join toward each."""
        for remote in addrs:
            if remote not in self._known_remotes:
                self._known_remotes.append(remote)
            for local in self.local_addrs:
                self._open(local, remote)

    def _open(self, local: str, remote: str) -> None:
        if getattr(self.connection, "is_fallback", False):
            return  # no new subflows after fallback (RFC 6824 S3.6)
        pair = (local, remote)
        if pair in self._pairs_opened:
            return
        if (self.max_subflows is not None
                and len(self._pairs_opened) >= self.max_subflows):
            return
        self._pairs_opened.add(pair)
        subflow = self.connection.open_subflow(local, remote)
        self._subflow_by_pair[pair] = subflow
        sim = getattr(self.connection, "sim", None)  # None in test fakes
        if sim is not None and sim.trace.enabled:
            sim.trace.emit(sim.now, "path.open",
                           subflow=getattr(subflow, "index", None),
                           local=local, remote=remote,
                           initial=getattr(subflow, "is_initial", None))

    # ------------------------------------------------------------------
    # Failure and recovery (mobility support)
    # ------------------------------------------------------------------

    def on_subflow_failed(self, subflow) -> None:
        """Note a dead subflow so its pair may be reopened later."""
        for pair, existing in list(self._subflow_by_pair.items()):
            if existing is subflow:
                self._pairs_opened.discard(pair)
                del self._subflow_by_pair[pair]

    def on_interface_down(self, local: str) -> None:
        """The OS reported the interface lost connectivity: fail its
        subflows now so the connection reinjects their data at once
        instead of waiting out retransmission timeouts, and advertise
        the dead address to the peer on the surviving subflows."""
        self.down_locals.add(local)
        sim = getattr(self.connection, "sim", None)  # None in test fakes
        if sim is not None and sim.trace.enabled:
            sim.trace.emit(sim.now, "path.down", local=local)
        for pair, subflow in list(self._subflow_by_pair.items()):
            if pair[0] == local:
                self.connection.kill_subflow(subflow)
        self.connection.push()  # surviving subflows carry the signal

    def _reclaim_if_dead(self, pair: tuple) -> None:
        """Forget a pair whose subflow died (failed outright, or gave up
        mid-handshake: SYN retries exhausted leave the endpoint
        "closed" without ever having established) so it can reopen."""
        existing = self._subflow_by_pair.get(pair)
        if existing is not None and existing.endpoint is not None:
            endpoint = existing.endpoint
            dead = (endpoint.state == "failed"
                    or (endpoint.state == "closed"
                        and endpoint.stats.established_at is None))
            if dead:
                self._pairs_opened.discard(pair)
                del self._subflow_by_pair[pair]

    def on_interface_up(self, local: str) -> None:
        """An interface recovered (e.g. WiFi re-associated): reopen its
        subflows toward every known server address.

        A pair is reclaimed when its subflow failed outright, and also
        when its endpoint silently gave up mid-handshake — otherwise
        the dead pair blocks reopening and an unestablished connection
        can never recover.
        """
        self.down_locals.discard(local)
        sim = getattr(self.connection, "sim", None)  # None in test fakes
        if sim is not None and sim.trace.enabled:
            sim.trace.emit(sim.now, "path.up", local=local)
        for remote in self._known_remotes:
            self._reclaim_if_dead((local, remote))
            self._open(local, remote)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {len(self._pairs_opened)} pairs, "
                f"simultaneous={self.simultaneous_syn}>")

