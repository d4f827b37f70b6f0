"""Set-associative TLB with LRU replacement and AVF observation hooks.

An entry is ACE from fill until its last use: a particle strike on a
translation that will be consulted again yields a wrong physical address
(and hence wrong data) — but a strike on an entry that is never used again
before eviction is harmless.  The observer receives evictions (and the
end-of-run drain) so :mod:`repro.avf` can integrate those intervals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol

from repro.config import TlbConfig


class TlbEntry:
    """One resident translation."""

    __slots__ = ("vpn", "thread_id", "fill_cycle", "last_use_cycle", "uses")

    def __init__(self, vpn: int, thread_id: int, fill_cycle: int) -> None:
        self.vpn = vpn
        self.thread_id = thread_id
        self.fill_cycle = fill_cycle
        self.last_use_cycle = fill_cycle
        self.uses = 0

    def clone(self) -> "TlbEntry":
        copy = TlbEntry(self.vpn, self.thread_id, self.fill_cycle)
        copy.last_use_cycle = self.last_use_cycle
        copy.uses = self.uses
        return copy


class TlbObserver(Protocol):
    def on_evict(self, entry: TlbEntry, cycle: int) -> None: ...


class Tlb:
    """A hardware TLB shared by all SMT contexts.

    Virtual page numbers already embed the per-thread address-space base
    (see :mod:`repro.workload.address_stream`), so threads contend for TLB
    capacity without aliasing, as in the paper's multiprogrammed setup.
    """

    def __init__(self, config: TlbConfig, observer: Optional[TlbObserver] = None) -> None:
        self.config = config
        self._page_shift = config.page_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._observer = observer
        self._sets: List[Dict[int, TlbEntry]] = [dict() for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0

    def vpn_of(self, addr: int) -> int:
        return addr >> self._page_shift

    def _set_index(self, vpn: int) -> int:
        # Fibonacci hash, for the same reason as Cache._set_index: dense
        # synthetic regions at 2^32-multiple bases must spread over all sets.
        h = (vpn * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return (h >> 40) % self._num_sets

    def access(self, addr: int, cycle: int, thread_id: int) -> bool:
        """Translate ``addr``; returns True on a TLB hit.

        On a miss the translation is installed (the page walk's latency is
        charged by the hierarchy, not here).
        """
        vpn = self.vpn_of(addr)
        entries = self._sets[self._set_index(vpn)]
        entry = entries.get(vpn)
        hit = entry is not None
        if hit:
            self.hits += 1
            del entries[vpn]
            entries[vpn] = entry
        else:
            self.misses += 1
            if len(entries) >= self._assoc:
                victim = entries.pop(next(iter(entries)))
                if self._observer is not None:
                    self._observer.on_evict(victim, cycle)
            entry = TlbEntry(vpn, thread_id, cycle)
            entries[vpn] = entry
        entry.last_use_cycle = cycle
        entry.uses += 1
        return hit

    def fork(self, observer: Optional[TlbObserver] = None) -> "Tlb":
        """An independent copy of contents and counters, reporting
        evictions to ``observer`` (as the constructor would)."""
        clone = Tlb.__new__(Tlb)
        clone.__dict__.update(self.__dict__)
        clone._observer = observer
        clone._sets = [{vpn: entry.clone() for vpn, entry in entries.items()}
                       for entries in self._sets]
        return clone

    def drain(self, cycle: int) -> None:
        """Evict all entries (end-of-simulation accounting)."""
        for entries in self._sets:
            if self._observer is not None:
                for entry in entries.values():
                    self._observer.on_evict(entry, cycle)
            entries.clear()

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
