"""Composable on-path middleboxes.

Measurement studies of MPTCP in the wild (Aschenbrenner et al., "From
Single Lane to Highways"; Shreedhar et al., "A Longitudinal View at the
Adoption of Multipath TCP") found that the protocol's biggest obstacle
is not radio conditions but *middleboxes*: option-stripping firewalls,
sequence-rewriting proxies, and carrier-grade NATs that mangle exactly
the TCP options MPTCP depends on.  This package models them as a
:class:`MiddleboxChain` attachable to any :class:`repro.netsim.link.Link`
via its ``middlebox`` hook, so every access-network pathology can be
combined with every wireless profile.

A :class:`Middlebox` transforms one packet into zero or more packets:

* returning ``[]`` drops the packet;
* returning one packet -- possibly with a rewritten segment -- models
  option stripping and sequence rewriting;
* returning several packets models a split-connection proxy that
  re-segments the byte stream.

Boxes observe the *link direction* they sit on (``"up"`` = from the
interface toward the network core, ``"down"`` = from the core to the
interface), matching how a real box near the client sees both halves
of every flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.netsim.packet import Packet


@dataclass
class MiddleboxStats:
    """Counters every box accumulates; read by tests and reports."""

    packets_seen: int = 0
    packets_dropped: int = 0
    packets_mangled: int = 0
    packets_created: int = 0


class Middlebox:
    """Base class: one on-path packet transformation."""

    #: Link directions this box acts on; boxes on both halves of an
    #: interface's access-link pair see the whole conversation.
    directions: Sequence[str] = ("up", "down")

    def __init__(self) -> None:
        self.stats = MiddleboxStats()

    def process(self, packet: Packet, direction: str,
                now: float) -> List[Packet]:
        """Transform ``packet``; return the packets to forward."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------

    @staticmethod
    def rewrite(packet: Packet, **segment_changes) -> Packet:
        """Return ``packet`` with its segment fields replaced in place.

        The packet object (and its id) is preserved -- a rewriting box
        does not originate a new datagram, it mangles the one in
        flight; per-host captures still see their own side's view, the
        way tcpdump at each end of a real path does.
        """
        packet.carry(packet.segment._replace(**segment_changes))
        return packet

    @staticmethod
    def flow_key(packet: Packet) -> tuple:
        """Canonical bidirectional flow key of a packet's 4-tuple."""
        segment = packet.segment
        ends = sorted([(packet.src, segment.src_port),
                       (packet.dst, segment.dst_port)])
        return (ends[0], ends[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} seen={self.stats.packets_seen} "
                f"dropped={self.stats.packets_dropped}>")


class MiddleboxChain:
    """A sequence of boxes applied in order (closest to the host first).

    Each box's output packets are fed to the next box; an empty output
    anywhere drops the packet for good, exactly like chained devices on
    a real path.
    """

    def __init__(self, boxes: Sequence[Middlebox] = ()) -> None:
        self.boxes: List[Middlebox] = list(boxes)

    def process(self, packet: Packet, direction: str,
                now: float) -> List[Packet]:
        packets = [packet]
        for box in self.boxes:
            if direction not in box.directions:
                continue
            survivors: List[Packet] = []
            for candidate in packets:
                box.stats.packets_seen += 1
                # Rewriting boxes mangle the packet *in place* (the
                # object and its id survive); only the segment value is
                # swapped, so mutation shows as a new segment object.
                segment_before = candidate.segment
                out = box.process(candidate, direction, now)
                if not out:
                    box.stats.packets_dropped += 1
                elif (out[0] is not candidate or len(out) > 1
                      or candidate.segment is not segment_before):
                    box.stats.packets_mangled += 1
                    box.stats.packets_created += len(out) - 1
                survivors.extend(out)
            packets = survivors
            if not packets:
                break
        return packets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(type(box).__name__ for box in self.boxes)
        return f"<MiddleboxChain [{names}]>"


class LinkTap:
    """Binds a chain to one link direction; set as ``Link.middlebox``.

    The link calls ``tap(packet, now)`` for every offered packet and
    forwards whatever comes back (nothing = middlebox drop, counted in
    ``LinkStats.drops_middlebox``).
    """

    def __init__(self, chain: MiddleboxChain, direction: str) -> None:
        if direction not in ("up", "down"):
            raise ValueError(f"bad link direction {direction!r}")
        self.chain = chain
        self.direction = direction

    def __call__(self, packet: Packet, now: float) -> List[Packet]:
        return self.chain.process(packet, self.direction, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LinkTap {self.direction} {self.chain!r}>"


def install_chain(network, address: str,
                  chain: MiddleboxChain) -> MiddleboxChain:
    """Attach ``chain`` to both access links of the interface at
    ``address`` (e.g. an ISP box just past the client's WiFi AP).

    ``network`` is a :class:`repro.netsim.network.Network` (or anything
    with ``links_for``).  Returns the chain for convenience.
    """
    up_link, down_link = network.links_for(address)
    up_link.middlebox = LinkTap(chain, "up")
    down_link.middlebox = LinkTap(chain, "down")
    return chain
