"""The option-stripping firewall.

The single most common MPTCP-hostile middlebox: a firewall or load
balancer that removes TCP options it does not recognize.  Stripping
MP_CAPABLE from a SYN/SYN-ACK silently downgrades the connection to
plain TCP; stripping MP_JOIN makes additional subflows look like
ordinary connections the server never asked for; stripping DSS after
establishment removes the data-sequence mapping mid-stream, which RFC
6824 Section 3.6 handles with the infinite-mapping fallback.

Each MPTCP option class is strippable independently, per direction,
with a per-packet probability (some deployments mangle only some
packets -- e.g. only those crossing a particular load-balancer leg).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.core.options import MptcpOptions
from repro.middlebox.base import Middlebox
from repro.netsim.packet import Packet

_EMPTY = MptcpOptions()


class OptionStripper(Middlebox):
    """Removes selected MPTCP options from passing segments."""

    def __init__(self, strip_capable: bool = True, strip_join: bool = True,
                 strip_add_addr: bool = True, strip_dss: bool = True,
                 probability: float = 1.0,
                 rng: Optional[random.Random] = None,
                 directions: Sequence[str] = ("up", "down")) -> None:
        super().__init__()
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        self.strip_capable = strip_capable
        self.strip_join = strip_join
        self.strip_add_addr = strip_add_addr
        self.strip_dss = strip_dss
        self.probability = probability
        self.rng = rng
        self.directions = tuple(directions)
        self.options_stripped = 0

    def _roll(self) -> bool:
        if self.probability >= 1.0:
            return True
        if self.rng is None:
            return False
        return self.rng.random() < self.probability

    def process(self, packet: Packet, direction: str,
                now: float) -> List[Packet]:
        options = packet.segment.options
        if options is None:
            return [packet]
        changes = {}
        if self.strip_capable and options.mp_capable:
            changes["mp_capable"] = False
        if self.strip_join and options.mp_join:
            changes["mp_join"] = False
            changes["backup"] = False
        if self.strip_add_addr and (options.add_addr or options.dead_addrs):
            changes["add_addr"] = ()
            changes["dead_addrs"] = ()
        if self.strip_dss and (options.dss is not None
                               or options.data_ack is not None
                               or options.data_fin_dsn is not None
                               or options.mp_fail):
            changes["dss"] = None
            changes["data_ack"] = None
            changes["data_fin_dsn"] = None
            changes["mp_fail"] = False
        if not changes or not self._roll():
            return [packet]
        stripped = options._replace(**changes)
        # The token travels inside MP_CAPABLE / MP_JOIN: no carrying
        # option left means no token on the wire either.
        if not stripped.mp_capable and not stripped.mp_join:
            stripped = stripped._replace(token=None, backup=False)
        self.options_stripped += 1
        return [self.rewrite(packet,
                             options=None if stripped == _EMPTY
                             else stripped)]
