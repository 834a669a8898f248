"""The sequence-rewriting middlebox.

Some firewalls and proxies randomize TCP initial sequence numbers (an
old anti-prediction hardening), shifting every sequence number of a
flow by a per-flow constant.  Plain TCP never notices -- it is
ISN-relative by design, and so is this simulator, whose subflow
sequence space already starts at 0.  MPTCP's DSS option, however,
carries the *subflow* sequence number the mapping anchors to; a box
that shifts the TCP header's numbers without also fixing up the DSS
anchor (they never do -- that is the point) leaves a mapping that
disagrees with the segment carrying it.

We model exactly the observable damage: the DSS ``ssn`` anchor is
displaced by a per-flow random offset, so the receiver finds payload
outside its announced mapping -- the "SSN assumption broken" failure
mode that forces the RFC 6824 Section 3.6 fallback (single subflow) or
MP_FAIL subflow closure (multiple subflows).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.middlebox.base import Middlebox
from repro.netsim.packet import Packet


class SequenceRewriter(Middlebox):
    """Displaces the DSS subflow-sequence anchor by a per-flow offset."""

    def __init__(self, rng: Optional[random.Random] = None,
                 max_offset: int = 2 ** 20,
                 directions: Sequence[str] = ("up", "down")) -> None:
        super().__init__()
        if max_offset < 1:
            raise ValueError("max_offset must be at least 1")
        self.rng = rng
        self.max_offset = max_offset
        self.directions = tuple(directions)
        #: Flow key -> the ISN displacement applied to that flow.
        self.offsets: Dict[tuple, int] = {}
        self.mappings_rewritten = 0

    def _offset_for(self, packet: Packet) -> int:
        key = self.flow_key(packet)
        offset = self.offsets.get(key)
        if offset is None:
            offset = (self.rng.randint(1, self.max_offset)
                      if self.rng is not None else 1)
            self.offsets[key] = offset
        return offset

    def process(self, packet: Packet, direction: str,
                now: float) -> List[Packet]:
        options = packet.segment.options
        if options is None or options.dss is None:
            return [packet]
        offset = self._offset_for(packet)
        mapping = options.dss._replace(ssn=options.dss.ssn + offset)
        self.mappings_rewritten += 1
        return [self.rewrite(packet,
                             options=options._replace(dss=mapping))]
