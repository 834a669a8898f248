"""The packet type exchanged between hosts.

A :class:`Packet` is an IP datagram carrying one TCP segment.  We do
not serialize to bytes; the segment object rides along and the wire
size is modeled as payload plus a constant header overhead, which is
what matters for serialization and queueing delay.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tcp.segment import Segment

#: Bytes of IP header charged to every packet; the TCP header is sized
#: per segment (base header + SACK + MPTCP options, see
#: :attr:`repro.tcp.segment.Segment.header_length`).
IP_HEADER = 20

#: Legacy constant: IP header plus a typical MPTCP-era TCP header.
#: Kept for tests and back-of-envelope math; the simulator itself now
#: sizes each packet from its actual segment.
HEADER_OVERHEAD = 52

_packet_ids = itertools.count(1)


class Packet:
    """An addressed datagram in flight.

    Attributes:
        src: source address (e.g. ``"client.wifi"``).
        dst: destination address (e.g. ``"server.eth0"``).
        segment: the TCP segment carried.
        packet_id: unique id, used by traces to correlate send/receive.
        sent_at: simulated time the packet left the sending host; set by
            the host on transmit, used by link-layer models and traces.
        wire_size: bytes occupied on the wire: payload + TCP header
            (sized from the segment's actual SACK/MPTCP options) + IP
            header.  Sized when the segment is set; every link on the
            path reads it several times.
    """

    __slots__ = ("src", "dst", "segment", "packet_id", "sent_at",
                 "wire_size")

    def __init__(self, src: str, dst: str, segment: "Segment") -> None:
        self.src = src
        self.dst = dst
        self.packet_id = next(_packet_ids)
        self.sent_at = 0.0
        self.segment = segment
        self.wire_size = (segment.payload_len + segment.header_length
                          + IP_HEADER)

    def carry(self, segment: "Segment") -> None:
        """Swap the carried segment (an on-path box rewrote it) and
        resize; assigning ``segment`` directly leaves ``wire_size``
        stale."""
        self.segment = segment
        self.wire_size = (segment.payload_len + segment.header_length
                          + IP_HEADER)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Packet #{self.packet_id} {self.src}->{self.dst} "
                f"{self.segment!r}>")
