"""Miss status holding registers: merge and bound outstanding misses.

An MSHR file tracks cache lines whose fill is in flight.  A second miss to
an outstanding line *merges*: it completes when the original fill arrives
rather than starting a new memory access.  A full MSHR file is a structural
hazard — the requester must retry next cycle.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigError


class MshrFile:
    """Outstanding-miss registry for one cache level."""

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ConfigError("MSHR entries must be positive")
        self._capacity = entries
        self._outstanding: Dict[int, int] = {}  # line_addr -> ready_cycle
        self.merges = 0
        self.allocations = 0
        self.full_stalls = 0

    def lookup(self, line_addr: int, cycle: int) -> Optional[int]:
        """If ``line_addr`` is in flight, return its ready cycle (a merge)."""
        self._expire(cycle)
        ready = self._outstanding.get(line_addr)
        if ready is not None:
            self.merges += 1
        return ready

    def allocate(self, line_addr: int, ready_cycle: int, cycle: int) -> bool:
        """Track a new outstanding miss; False when the file is full."""
        self._expire(cycle)
        if len(self._outstanding) >= self._capacity:
            self.full_stalls += 1
            return False
        self._outstanding[line_addr] = ready_cycle
        self.allocations += 1
        return True

    def _expire(self, cycle: int) -> None:
        """Retire entries whose fills have arrived."""
        if not self._outstanding:
            return
        done = [la for la, ready in self._outstanding.items() if ready <= cycle]
        for la in done:
            del self._outstanding[la]

    def fork(self) -> "MshrFile":
        clone = MshrFile.__new__(MshrFile)
        clone.__dict__.update(self.__dict__)
        clone._outstanding = dict(self._outstanding)
        return clone

    def clear(self) -> None:
        """Drop all tracked misses (end of functional warmup)."""
        self._outstanding.clear()

    def outstanding_count(self, cycle: int) -> int:
        self._expire(cycle)
        return len(self._outstanding)

    @property
    def capacity(self) -> int:
        return self._capacity
