"""Receiver-side sequence-space reassembly.

A :class:`ReassemblyQueue` tracks which byte ranges past the cumulative
point have arrived, advances the cumulative point when holes fill,
generates SACK blocks, and reports its occupancy (needed to advertise
a receive window).  It stores *ranges with attached payload metadata*,
not actual bytes -- the simulator never materializes file contents.

The same structure serves plain TCP receivers (subflow sequence space)
and, in :mod:`repro.core.receive_buffer`, the MPTCP connection-level
data sequence space where out-of-order delay is measured.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, List, Optional, Tuple


class ReassemblyQueue:
    """Ordered set of disjoint ``[start, end)`` ranges above ``rcv_nxt``.

    ``on_in_order(start, end, meta)`` fires for every stored range the
    moment it becomes contiguous with the cumulative point, in sequence
    order.  ``meta`` is whatever object was attached at insertion (an
    MPTCP DSS mapping, an arrival timestamp, ...).
    """

    def __init__(self, rcv_nxt: int = 0) -> None:
        self.rcv_nxt = rcv_nxt
        # Parallel sorted lists: range starts, range ends, attached metadata.
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._metas: List[Any] = []
        #: Bytes held above the cumulative point (out-of-order data):
        #: stored ranges are disjoint, so a running sum maintained on
        #: insert/pop equals the sum of stored lengths.  A plain
        #: attribute -- every segment sent reads it once per subflow to
        #: advertise a window.
        self.buffered_bytes = 0
        self.duplicate_bytes = 0

    # ------------------------------------------------------------------
    # Insertion and in-order delivery
    # ------------------------------------------------------------------

    def offer(self, start: int, end: int, meta: Any = None,
              on_in_order: Optional[Callable[[int, int, Any], None]] = None,
              ) -> int:
        """Insert a received range; returns bytes newly accepted.

        Overlap with already-received data is trimmed (and counted in
        :attr:`duplicate_bytes`).  Delivery callbacks fire for every
        range that becomes in-order, including this one.
        """
        if end <= start:
            return 0
        accepted = 0
        if start < self.rcv_nxt:
            self.duplicate_bytes += min(end, self.rcv_nxt) - start
            start = self.rcv_nxt
            if start >= end:
                return 0
        if start == self.rcv_nxt and not self._starts:
            # In-order fast path (the common case on a healthy link):
            # the range would be inserted and immediately popped by
            # _advance, so deliver it directly.
            self.rcv_nxt = end
            if on_in_order is not None:
                on_in_order(start, end, meta)
            return end - start
        # Trim against stored ranges; split into the uncovered pieces.
        pieces = self._uncovered(start, end)
        self.duplicate_bytes += (end - start) - sum(e - s for s, e in pieces)
        for piece_start, piece_end in pieces:
            index = bisect.bisect_left(self._starts, piece_start)
            self._starts.insert(index, piece_start)
            self._ends.insert(index, piece_end)
            self._metas.insert(index, meta)
            accepted += piece_end - piece_start
            self.buffered_bytes += piece_end - piece_start
        if accepted:
            self._advance(on_in_order)
        return accepted

    def _uncovered(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-ranges of [start, end) not already stored."""
        pieces: List[Tuple[int, int]] = []
        cursor = start
        index = bisect.bisect_right(self._ends, start)
        while cursor < end and index < len(self._starts):
            range_start = self._starts[index]
            range_end = self._ends[index]
            if range_start >= end:
                break
            if range_start > cursor:
                pieces.append((cursor, min(range_start, end)))
            cursor = max(cursor, range_end)
            index += 1
        if cursor < end:
            pieces.append((cursor, end))
        return pieces

    def _advance(self,
                 on_in_order: Optional[Callable[[int, int, Any], None]],
                 ) -> None:
        while self._starts and self._starts[0] <= self.rcv_nxt:
            start = self._starts.pop(0)
            end = self._ends.pop(0)
            meta = self._metas.pop(0)
            self.buffered_bytes -= end - start
            if end <= self.rcv_nxt:
                continue  # fully duplicate range (possible after trims)
            delivered_start = max(start, self.rcv_nxt)
            self.rcv_nxt = end
            if on_in_order is not None:
                on_in_order(delivered_start, end, meta)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_ranges(self) -> List[Tuple[int, int]]:
        """The stored out-of-order ranges, ascending (for tests)."""
        return list(zip(self._starts, self._ends))

    def sack_blocks(self, limit: int = 3) -> Tuple[Tuple[int, int], ...]:
        """Coalesced SACK blocks, highest ranges first, at most ``limit``."""
        if not self._starts:
            return ()
        merged: List[Tuple[int, int]] = []
        for start, end in zip(self._starts, self._ends):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        merged.reverse()  # most recently useful (highest) first
        return tuple(merged[:limit])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ReassemblyQueue rcv_nxt={self.rcv_nxt} "
                f"ooo={self.buffered_bytes}B>")
