"""Sender scoreboard: the endpoint's transmitted-but-unacked ranges.

The TCP endpoint tracks every transmitted-but-unacknowledged range in a
scoreboard (RFC 6675 terminology).  :class:`SendScoreboard` keeps one
slotted :class:`SentSegment` per range in a ``collections.deque``:
sequence numbers only ever append at the tail and retire at the head,
and nothing looks a range up by sequence number.

The mutating operations return exactly the aggregates the endpoint
needs to maintain its ``pipe`` / ``_lost_count`` accounting, so the
congestion-control math stays in :mod:`repro.tcp.endpoint`.  Every walk
starts at the head and stops at the first range past the SACK block,
loss threshold or cumulative ACK -- a cumulative ACK typically retires
one or two ranges out of a window of a hundred, which is why plain
objects beat a column store here (docs/performance.md has the
end-to-end numbers).
"""

from __future__ import annotations

import collections
from typing import Iterator, Optional, Tuple

# Scoreboard states, shared with repro.tcp.endpoint.
FLIGHT = 0   # transmitted, assumed in the network
SACKED = 1   # selectively acknowledged
LOST = 2     # deemed lost (retransmitted or RTO-marked)


class SentSegment:
    """Sender-side bookkeeping for one transmitted range."""

    __slots__ = ("seq", "seq_space", "payload_len", "fin", "dsn",
                 "sent_at", "retransmits", "state", "rexmit_epoch")

    def __init__(self, seq: int, seq_space: int, payload_len: int,
                 fin: bool, dsn: Optional[int], sent_at: float) -> None:
        self.seq = seq
        self.seq_space = seq_space
        self.payload_len = payload_len
        self.fin = fin
        self.dsn = dsn
        self.sent_at = sent_at
        self.retransmits = 0
        self.state = FLIGHT
        self.rexmit_epoch = -1  # recovery epoch this was retransmitted in

    @property
    def end_seq(self) -> int:
        return self.seq + self.seq_space

    def mark_retransmitted(self, epoch: int) -> None:
        self.state = FLIGHT
        self.retransmits += 1
        self.rexmit_epoch = epoch


class SendScoreboard:
    """The endpoint's ``_sent`` structure: in-flight ranges, oldest first."""

    __slots__ = ("_sent", "_sim")

    def __init__(self, sim=None) -> None:
        self._sent: "collections.deque[SentSegment]" = collections.deque()
        self._sim = sim

    def __len__(self) -> int:
        return len(self._sent)

    def __bool__(self) -> bool:
        return bool(self._sent)

    def values(self) -> Iterator[SentSegment]:
        return iter(self._sent)

    def append(self, seq: int, seq_space: int, payload_len: int,
               fin: bool, dsn: Optional[int],
               sent_at: float) -> SentSegment:
        sent = SentSegment(seq, seq_space, payload_len, fin, dsn,
                           sent_at)
        self._sent.append(sent)
        sim = self._sim
        if sim is not None and len(self._sent) > sim.arena_peak:
            sim.arena_peak = len(self._sent)
        return sent

    def sack(self, start: int, end: int) -> int:
        """Mark in-flight ranges fully inside ``[start, end)`` SACKed.

        Returns the byte count newly removed from the pipe.
        """
        freed = 0
        for sent in self._sent:
            seq = sent.seq
            if seq >= end:
                break
            if (sent.state == FLIGHT and seq >= start
                    and seq + sent.seq_space <= end):
                sent.state = SACKED
                freed += sent.seq_space
        return freed

    def mark_losses(self, threshold: int, epoch: int) -> Tuple[int, int]:
        """RFC 6675 loss inference below the SACK ``threshold``.

        Flags still-in-flight ranges ending at or below ``threshold``
        (unless already retransmitted in ``epoch``) as LOST; returns
        ``(count, freed_bytes)`` for the pipe bookkeeping.
        """
        count = freed = 0
        for sent in self._sent:
            if sent.seq + sent.seq_space > threshold:
                break
            if sent.state == FLIGHT and sent.rexmit_epoch != epoch:
                sent.state = LOST
                count += 1
                freed += sent.seq_space
        return count, freed

    def advance_una(self, ack: int
                    ) -> Tuple[int, Optional[float], int, int]:
        """Retire every range fully covered by the cumulative ``ack``.

        Returns ``(newly_acked_bytes, rtt_sent_at, flight_freed_bytes,
        lost_retired_count)`` where ``rtt_sent_at`` is the transmit
        timestamp of the *last* retired never-retransmitted range (the
        Karn-compliant RTT sample), or ``None``.
        """
        newly_acked = flight_freed = lost_retired = 0
        rtt_sent_at: Optional[float] = None
        queue = self._sent
        while queue:
            sent = queue[0]
            if sent.seq + sent.seq_space > ack:
                break
            queue.popleft()
            if sent.state == FLIGHT:
                flight_freed += sent.seq_space
            elif sent.state == LOST:
                lost_retired += 1
            newly_acked += sent.seq_space
            if sent.retransmits == 0:
                rtt_sent_at = sent.sent_at
        return newly_acked, rtt_sent_at, flight_freed, lost_retired

    def front_unsacked(self) -> Optional[SentSegment]:
        """First range not selectively acknowledged (retransmit front)."""
        for sent in self._sent:
            if sent.state != SACKED:
                return sent
        return None

    def find_lost(self, epoch: int) -> Optional[SentSegment]:
        """Next LOST range not yet resent in recovery ``epoch``."""
        for sent in self._sent:
            if sent.state == LOST and sent.rexmit_epoch != epoch:
                return sent
        return None

    def mark_all_lost(self) -> Tuple[int, int]:
        """RTO: every outstanding range becomes LOST.

        Returns ``(flight_freed_bytes, total_count)``.
        """
        flight_freed = 0
        for sent in self._sent:
            if sent.state == FLIGHT:
                flight_freed += sent.seq_space
            sent.state = LOST
        return flight_freed, len(self._sent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SendScoreboard live={len(self)}>"
