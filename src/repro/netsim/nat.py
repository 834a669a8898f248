"""Client-side NAT behaviour.

Section 2.2.1 of the paper: mobile clients sit behind NATs that "filter
out unidentified packets", so a multi-homed *server* cannot open a
subflow toward the client -- it can only advertise its extra address
with ``ADD_ADDR`` and wait for the client to send the ``MP_JOIN`` SYN.

We model exactly that filtering: inbound packets are admitted only when
their reversed 4-tuple has been seen outbound (an established mapping).
Everything else -- in particular unsolicited inbound SYNs -- is dropped.
Mappings never expire: the paper's transfers are far shorter than any
NAT idle timeout.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.netsim.packet import Packet

Mapping = Tuple[str, int, str, int]


class Nat:
    """A stateful address filter attached to a client interface."""

    def __init__(self) -> None:
        #: Outbound 4-tuples seen so far: (local addr, local port,
        #: remote addr, remote port).
        self.mappings: Set[Mapping] = set()
        self.dropped = 0

    def note_outbound(self, packet: Packet) -> None:
        """Record the mapping of an outbound packet."""
        segment = packet.segment
        self.mappings.add(
            (packet.src, segment.src_port, packet.dst, segment.dst_port))

    def allows(self, packet: Packet) -> bool:
        """True if an inbound packet matches a mapping."""
        segment = packet.segment
        if (packet.dst, segment.dst_port,
                packet.src, segment.src_port) in self.mappings:
            return True
        self.dropped += 1
        return False
