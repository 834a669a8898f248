"""The split-connection payload proxy.

Transparent performance-enhancing proxies (common in cellular cores)
terminate the TCP connection and relay the byte stream on a second
connection, re-segmenting it at their own MSS.  The *bytes* survive,
but the packet boundaries do not -- and MPTCP's DSS mapping describes a
specific run of subflow payload, forwarded opaquely as an unknown
option on whichever output packet carries the first byte.  Any payload
relayed in a packet without its mapping reaches the receiver unmappable,
which RFC 6824 Section 3.6 treats exactly like a stripped DSS: fall
back to the infinite mapping (single subflow) or close the subflow via
MP_FAIL (multiple subflows).

We model the stream-preserving essence without terminating the TCP
state machines: data packets are re-chunked at ``proxy_mss``; the
original option block (and SACK blocks) ride only on the first chunk,
the FIN only on the last.  Pure control packets pass untouched.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.middlebox.base import Middlebox
from repro.netsim.packet import Packet
from repro.tcp.segment import Flags


class PayloadProxy(Middlebox):
    """Re-segments payload at its own MSS, stranding DSS mappings."""

    def __init__(self, proxy_mss: int = 536,
                 directions: Sequence[str] = ("up", "down")) -> None:
        super().__init__()
        if proxy_mss < 1:
            raise ValueError("proxy_mss must be positive")
        self.proxy_mss = proxy_mss
        self.directions = tuple(directions)
        self.packets_split = 0

    def process(self, packet: Packet, direction: str,
                now: float) -> List[Packet]:
        segment = packet.segment
        if segment.payload_len <= self.proxy_mss:
            return [packet]
        self.packets_split += 1
        chunks: List[Packet] = []
        offset = 0
        while offset < segment.payload_len:
            length = min(self.proxy_mss, segment.payload_len - offset)
            first = offset == 0
            last = offset + length >= segment.payload_len
            chunk = segment._replace(
                seq=segment.seq + offset,
                payload_len=length,
                flags=Flags(syn=segment.flags.syn and first,
                            ack=segment.flags.ack,
                            fin=segment.flags.fin and last,
                            rst=segment.flags.rst and first),
                sack_blocks=segment.sack_blocks if first else (),
                options=segment.options if first else None)
            chunks.append(Packet(packet.src, packet.dst, chunk))
            offset += length
        return chunks
