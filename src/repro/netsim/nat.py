"""Client-side NAT behaviour.

Section 2.2.1 of the paper: mobile clients sit behind NATs that "filter
out unidentified packets", so a multi-homed *server* cannot open a
subflow toward the client -- it can only advertise its extra address
with ``ADD_ADDR`` and wait for the client to send the ``MP_JOIN`` SYN.

We model exactly that filtering: inbound packets are admitted only when
their reversed 4-tuple has been seen outbound (an established mapping).
Everything else -- in particular unsolicited inbound SYNs -- is dropped.

Mappings live in a :class:`repro.middlebox.state.FlowTable`, the same
state machinery the middlebox firewalls and CGN use, so an *idle
timeout* (real NATs expire quiet bindings; the paper's never get the
chance to) and a binding-table capacity can be configured.  The
defaults -- no timeout, no capacity -- preserve the original
keep-forever behaviour.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.middlebox.state import FlowTable
from repro.netsim.packet import Packet

Mapping = Tuple[str, int, str, int]


class Nat:
    """A stateful address filter attached to a client interface."""

    def __init__(self, idle_timeout: Optional[float] = None,
                 max_entries: Optional[int] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if idle_timeout is not None and clock is None:
            raise ValueError("an idle_timeout needs a clock to age against")
        self.table = FlowTable(idle_timeout=idle_timeout,
                               max_entries=max_entries)
        self.clock = clock
        #: Only an idle timeout ever reads a refresh time; without one
        #: the clock is not consulted per packet.
        self._timed = idle_timeout is not None
        self.dropped = 0

    def note_outbound(self, packet: Packet) -> None:
        """Record (or refresh) the mapping of an outbound packet."""
        segment = packet.segment
        self.table.touch(
            (packet.src, segment.src_port, packet.dst, segment.dst_port),
            self.clock() if self._timed else 0.0)

    def allows(self, packet: Packet) -> bool:
        """True if an inbound packet matches a live mapping (inbound
        traffic refreshes it, as on real NATs)."""
        segment = packet.segment
        mapping = (packet.dst, segment.dst_port, packet.src, segment.src_port)
        if self.table.active(mapping,
                             self.clock() if self._timed else 0.0):
            return True
        self.dropped += 1
        return False

    @property
    def expired(self) -> int:
        """Mappings lazily expired by the idle timeout."""
        return self.table.expired
