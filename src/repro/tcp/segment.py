"""TCP segments.

Segments are value objects: the sender constructs one per transmission
(retransmissions construct fresh segments with the same sequence
numbers, which lets the trace layer detect them the way tcptrace does).
Sequence numbers are absolute byte offsets starting at 0 per direction;
SYN and FIN each consume one sequence number, as in real TCP.

MPTCP signalling (MP_CAPABLE, MP_JOIN, ADD_ADDR, DSS mappings and
DATA_ACKs) rides in :attr:`Segment.options`, typed in
:mod:`repro.core.options`; plain TCP leaves it ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.options import MptcpOptions


@dataclass(frozen=True, slots=True)
class Flags:
    """TCP header flags (the subset the simulator uses)."""

    syn: bool = False
    ack: bool = False
    fin: bool = False
    rst: bool = False

    def __str__(self) -> str:
        names = [name for name in ("syn", "ack", "fin", "rst")
                 if getattr(self, name)]
        return "|".join(names) or "none"


#: A half-open byte range ``[start, end)`` reported in a SACK option.
SackBlock = Tuple[int, int]

_NO_FLAGS = Flags()


class Segment(NamedTuple):
    """One TCP segment.

    A ``NamedTuple`` -- immutable, hashable, equal by value -- because
    one is built per transmission and a tuple is the cheapest such
    constructor Python offers.  ``_replace`` makes a modified copy.

    Attributes:
        src_port / dst_port: transport ports.
        seq: sequence number of the first payload byte (or of the
            SYN/FIN itself for bare control segments).
        ack: cumulative acknowledgement (valid when ``flags.ack``).
        flags: header flags.
        payload_len: bytes of application payload carried.
        window: advertised receive window in bytes.
        sack_blocks: up to three SACK ranges, most recent first.
        options: MPTCP option block, or ``None`` for plain TCP.
    """

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: Flags = _NO_FLAGS
    payload_len: int = 0
    window: int = 65535
    sack_blocks: Tuple[SackBlock, ...] = ()
    options: Optional["MptcpOptions"] = None

    @property
    def seq_space(self) -> int:
        """Sequence space consumed: payload plus one for SYN and FIN."""
        return self.payload_len + int(self.flags.syn) + int(self.flags.fin)

    @property
    def end_seq(self) -> int:
        """Sequence number just past this segment."""
        return self.seq + self.seq_space

    @property
    def header_length(self) -> int:
        """TCP header bytes: base 20, SACK blocks, MPTCP options,
        rounded up to a 4-byte boundary as on the wire."""
        length = 20
        if self.sack_blocks:
            length += 2 + 8 * len(self.sack_blocks)
        if self.options is not None:
            length += self.options.wire_length()
        return (length + 3) // 4 * 4

    @property
    def is_pure_ack(self) -> bool:
        """True for a data-less, control-less acknowledgement."""
        return (self.flags.ack and self.payload_len == 0
                and not self.flags.syn and not self.flags.fin
                and not self.flags.rst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Segment {self.src_port}->{self.dst_port} "
                f"[{self.flags}] seq={self.seq} ack={self.ack} "
                f"len={self.payload_len}>")
