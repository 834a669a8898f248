"""Shared per-flow state for stateful boxes.

Real NATs, firewalls and CGNs keep one entry per flow, refresh it on
traffic, expire it after an idle period, and -- for carrier-grade
deployments -- evict the least-recently-used entry when the binding
table fills.  :class:`FlowTable` implements exactly that lifecycle;
the middlebox firewall and CGN (:mod:`repro.middlebox.firewall`) are
thin policies on top of it.  (The testbed's client NAT,
:class:`repro.netsim.nat.Nat`, never ages a binding and is a plain
set.)

Expiry is *lazy*: entries are judged against ``now`` when touched or
queried, never by scheduled timer events, so attaching a table to a
simulation adds no events and cannot perturb event ordering of runs
that never hit a timeout.
"""

from __future__ import annotations

import collections
from typing import Hashable, Optional


class FlowTable:
    """Per-flow state with optional idle expiry and LRU capacity."""

    def __init__(self, idle_timeout: Optional[float] = None,
                 max_entries: Optional[int] = None) -> None:
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive (or None)")
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.idle_timeout = idle_timeout
        self.max_entries = max_entries
        #: key -> time of last refresh, in LRU order (oldest first).
        self._entries: "collections.OrderedDict[Hashable, float]" = \
            collections.OrderedDict()
        self.expired = 0
        self.evicted = 0

    def touch(self, key: Hashable, now: float = 0.0) -> bool:
        """Create or refresh ``key``; returns True if it was created.

        Creating beyond ``max_entries`` evicts the least recently used
        entry (CGN port exhaustion: someone else's flow dies).
        """
        created = key not in self._entries
        self._entries[key] = now
        self._entries.move_to_end(key)
        if created and self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evicted += 1
        return created

    def active(self, key: Hashable, now: float = 0.0,
               refresh: bool = True) -> bool:
        """Is there a live entry for ``key``?  Expires it lazily if its
        idle time exceeded the timeout; refreshes it otherwise (traffic
        in either direction keeps a real mapping alive)."""
        last = self._entries.get(key)
        if last is None:
            return False
        if self.idle_timeout is not None and now - last > self.idle_timeout:
            del self._entries[key]
            self.expired += 1
            return False
        if refresh:
            self._entries[key] = now
            self._entries.move_to_end(key)
        return True

    def drop(self, key: Hashable) -> None:
        self._entries.pop(key, None)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlowTable n={len(self._entries)} "
                f"timeout={self.idle_timeout} expired={self.expired} "
                f"evicted={self.evicted}>")
