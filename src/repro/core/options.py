"""MPTCP TCP-option payloads (RFC 6824 subset).

The simulator does not serialize options to bytes; a segment carries at
most one :class:`MptcpOptions` value object.  The fields mirror the
options the paper's Section 2.2.1 walks through:

* ``MP_CAPABLE`` on the first subflow's SYN/SYN-ACK, carrying the
  connection key.
* ``ADD_ADDR`` sent by the multi-homed server on an established subflow
  to advertise its second interface (the client is behind a NAT, so
  the server can never connect inward).
* ``MP_JOIN`` on additional subflows' SYNs, carrying the token that
  associates them with the existing connection.
* ``DSS`` -- the data-sequence mapping (DSN <-> subflow SSN) on data
  segments, and the cumulative ``DATA_ACK`` on acknowledgements.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple


class DssMapping(NamedTuple):
    """Maps a run of subflow payload onto connection sequence space.

    ``dsn`` is the data (connection-level) sequence number of the first
    byte; ``ssn`` the subflow sequence number of the same byte;
    ``length`` the run length in bytes.
    """

    dsn: int
    ssn: int
    length: int

    def dsn_for(self, ssn: int) -> int:
        """Translate a subflow sequence number inside this mapping.

        The acceptable range is inclusive at *both* ends:
        ``ssn == self.ssn + self.length`` maps to one past the last
        covered DSN.  Receivers rely on that boundary to translate the
        *end* of a delivered run (``[start, end)`` half-open ranges put
        ``end`` exactly one past the final mapped byte); anything
        further out raises ``ValueError``.
        """
        offset = ssn - self.ssn
        if not 0 <= offset <= self.length:
            raise ValueError(f"ssn {ssn} outside mapping {self!r}")
        return self.dsn + offset

    @property
    def dsn_end(self) -> int:
        return self.dsn + self.length

    @property
    def ssn_end(self) -> int:
        return self.ssn + self.length


class MptcpOptions(NamedTuple):
    """The MPTCP option block carried by one segment.

    Like :class:`repro.tcp.segment.Segment`, a ``NamedTuple`` value
    built once per packet; ``_replace`` makes a modified copy.
    """

    #: MP_CAPABLE: this SYN (or SYN-ACK) opens a new MPTCP connection.
    mp_capable: bool = False
    #: MP_JOIN: this SYN joins an existing connection via its token.
    mp_join: bool = False
    #: The B (backup) bit of MP_JOIN / MP_PRIO: this subflow should
    #: only carry data when no regular subflow is operational.
    backup: bool = False
    #: Key/token identifying the MPTCP connection (exchanged in the
    #: MP_CAPABLE handshake, echoed by MP_JOIN).
    token: Optional[int] = None
    #: ADD_ADDR: extra addresses the sender is reachable at.
    add_addr: Tuple[str, ...] = ()
    #: MP_FAIL/MP_PRIO-style signal: the sender's addresses currently
    #: unreachable (its OS saw the interfaces go down); the peer should
    #: stop using subflows toward them immediately.
    dead_addrs: Tuple[str, ...] = ()
    #: Data-sequence mapping for the payload of this segment.
    dss: Optional[DssMapping] = None
    #: Connection-level cumulative acknowledgement.
    data_ack: Optional[int] = None
    #: DATA_FIN: the connection-level stream ends at this DSN.
    data_fin_dsn: Optional[int] = None
    #: MP_FAIL (RFC 6824 Section 3.6): the sender received data it
    #: could not map into the DSN space; with a single subflow the
    #: connection falls back to the infinite mapping, otherwise the
    #: offending subflow must be torn down.
    mp_fail: bool = False

    def wire_length(self) -> int:
        """Bytes this option block occupies in the TCP header.

        Lengths follow RFC 6824: MP_CAPABLE 12, MP_JOIN SYN 12, a DSS
        carrying DATA_ACK + mapping 20 (8 with only the DATA_ACK),
        ADD_ADDR 8 per address, MP_FAIL 12 per dead address, DATA_FIN
        folds into the DSS.
        """
        length = 0
        if self.mp_capable:
            length += 12
        if self.mp_join:
            length += 12
        if self.dss is not None:
            length += 20
        elif self.data_ack is not None or self.data_fin_dsn is not None:
            length += 8
        length += 8 * len(self.add_addr)
        length += 12 * len(self.dead_addrs)
        if self.mp_fail:
            length += 12
        return length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.mp_capable:
            parts.append("MP_CAPABLE")
        if self.mp_join:
            parts.append("MP_JOIN")
        if self.add_addr:
            parts.append(f"ADD_ADDR{self.add_addr}")
        if self.dss is not None:
            parts.append(f"DSS(dsn={self.dss.dsn},len={self.dss.length})")
        if self.data_ack is not None:
            parts.append(f"DATA_ACK={self.data_ack}")
        if self.data_fin_dsn is not None:
            parts.append(f"DATA_FIN@{self.data_fin_dsn}")
        if self.mp_fail:
            parts.append("MP_FAIL")
        return f"<MptcpOptions {' '.join(parts) or 'empty'}>"
