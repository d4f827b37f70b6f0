"""Latency composition across IL1/DL1/L2/memory and the two TLBs.

The hierarchy installs missing lines immediately but returns the true fill
latency; an MSHR file remembers in-flight fills so later accesses to the
same line *merge* (they wait for the original fill instead of paying a new
memory round trip).  Line-fill timestamps passed to the content model use
the fill-completion cycle, so AVF residency starts when the data actually
arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import MachineConfig
from repro.memory.cache import Cache, CacheObserver
from repro.memory.mshr import MshrFile
from repro.memory.tlb import Tlb, TlbObserver


@dataclass(frozen=True)
class DataAccessResult:
    """Outcome of one load/store data access."""

    latency: int
    dl1_hit: bool
    l2_hit: bool      # only meaningful when the DL1 missed
    tlb_hit: bool

    @property
    def dl1_miss(self) -> bool:
        return not self.dl1_hit

    @property
    def l2_miss(self) -> bool:
        return self.dl1_miss and not self.l2_hit


@dataclass(frozen=True)
class FetchAccessResult:
    """Outcome of one instruction-fetch access."""

    latency: int
    il1_hit: bool
    l2_hit: bool
    tlb_hit: bool

    @property
    def blocks_fetch(self) -> bool:
        """True when the front end must stall this thread for ``latency`` cycles."""
        return self.latency > 1


class MemoryHierarchy:
    """The complete Table 1 memory system."""

    def __init__(self, config: MachineConfig,
                 dl1_observer: Optional[CacheObserver] = None,
                 dtlb_observer: Optional[TlbObserver] = None) -> None:
        self.config = config
        self.il1 = Cache(config.il1)
        self.dl1 = Cache(config.dl1, track_words=True, observer=dl1_observer)
        self.l2 = Cache(config.l2)
        self.itlb = Tlb(config.itlb)
        self.dtlb = Tlb(config.dtlb, observer=dtlb_observer)
        self._dl1_mshrs = MshrFile(config.dl1.mshrs)
        self._il1_mshrs = MshrFile(config.il1.mshrs)
        self._dl1_ports_used = 0
        self._cycle = 0

    # -- per-cycle plumbing ------------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        """Reset per-cycle port arbitration state."""
        self._cycle = cycle
        self._dl1_ports_used = 0

    def dl1_port_available(self) -> bool:
        return self._dl1_ports_used < self.config.dl1.ports

    def claim_dl1_port(self) -> bool:
        """Reserve one DL1 port for this cycle; False when all ports are busy."""
        if not self.dl1_port_available():
            return False
        self._dl1_ports_used += 1
        return True

    # -- data side ---------------------------------------------------------------

    def data_access(self, addr: int, cycle: int, thread_id: int,
                    is_write: bool) -> DataAccessResult:
        """Access the data side for a load (``is_write=False``) or store."""
        latency = 0
        tlb_hit = self.dtlb.access(addr, cycle, thread_id)
        if not tlb_hit:
            latency += self.config.dtlb.miss_latency

        line_addr = self.dl1.line_address(addr)
        merged_ready = self._dl1_mshrs.lookup(line_addr, cycle)
        if merged_ready is not None and merged_ready > cycle:
            # Secondary miss: wait for the in-flight fill, then hit.
            latency += (merged_ready - cycle) + self.config.dl1.hit_latency
            self.dl1.access(addr, merged_ready, thread_id, is_write)
            return DataAccessResult(latency, dl1_hit=False, l2_hit=True,
                                    tlb_hit=tlb_hit)

        if self.dl1.probe(addr):
            latency += self.config.dl1.hit_latency
            self.dl1.access(addr, cycle + latency, thread_id, is_write)
            return DataAccessResult(latency, dl1_hit=True, l2_hit=True, tlb_hit=tlb_hit)

        # Primary DL1 miss: go to the unified L2 (and memory beyond).
        l2_hit, fill_latency = self._l2_fill_latency(addr, cycle, thread_id)
        latency += self.config.dl1.hit_latency + fill_latency
        ready = cycle + latency
        self._dl1_mshrs.allocate(line_addr, ready, cycle)
        _, _, evicted = self.dl1.access(addr, ready, thread_id, is_write)
        if evicted is not None and evicted.dirty:
            # Writeback through a store buffer: charges no latency here.
            wb_addr = evicted.tag << (self.config.dl1.line_bytes.bit_length() - 1)
            self.l2.access(wb_addr, cycle, evicted.thread_id, is_write=True)
        return DataAccessResult(latency, dl1_hit=False, l2_hit=l2_hit, tlb_hit=tlb_hit)

    def _l2_fill_latency(self, addr: int, cycle: int, thread_id: int) -> tuple[bool, int]:
        """Latency beyond the L1 for a line fill; installs into the L2."""
        l2_hit = self.l2.probe(addr)
        self.l2.access(addr, cycle, thread_id, is_write=False)
        if l2_hit:
            return True, self.config.l2.hit_latency
        return False, self.config.l2.hit_latency + self.config.memory_latency

    # -- instruction side ----------------------------------------------------------

    def fetch_access(self, pc: int, cycle: int, thread_id: int) -> FetchAccessResult:
        """Access the instruction side for one fetch block at ``pc``."""
        latency = 0
        tlb_hit = self.itlb.access(pc, cycle, thread_id)
        if not tlb_hit:
            latency += self.config.itlb.miss_latency

        line_addr = self.il1.line_address(pc)
        merged_ready = self._il1_mshrs.lookup(line_addr, cycle)
        if merged_ready is not None and merged_ready > cycle:
            latency += (merged_ready - cycle) + self.config.il1.hit_latency
            self.il1.access(pc, merged_ready, thread_id, is_write=False)
            return FetchAccessResult(latency, il1_hit=False, l2_hit=True, tlb_hit=tlb_hit)

        if self.il1.probe(pc):
            latency += self.config.il1.hit_latency
            self.il1.access(pc, cycle + latency, thread_id, is_write=False)
            return FetchAccessResult(latency, il1_hit=True, l2_hit=True, tlb_hit=tlb_hit)

        l2_hit, fill_latency = self._l2_fill_latency(pc, cycle, thread_id)
        latency += self.config.il1.hit_latency + fill_latency
        ready = cycle + latency
        self._il1_mshrs.allocate(line_addr, ready, cycle)
        self.il1.access(pc, ready, thread_id, is_write=False)
        return FetchAccessResult(latency, il1_hit=False, l2_hit=l2_hit, tlb_hit=tlb_hit)

    # -- lifecycle -----------------------------------------------------------------

    def fork(self, dl1_observer: Optional[CacheObserver] = None,
             dtlb_observer: Optional[TlbObserver] = None) -> "MemoryHierarchy":
        """An independent copy wired to the given observers (as the
        constructor would wire them)."""
        clone = MemoryHierarchy.__new__(MemoryHierarchy)
        clone.__dict__.update(self.__dict__)
        clone.il1 = self.il1.fork()
        clone.dl1 = self.dl1.fork(dl1_observer)
        clone.l2 = self.l2.fork()
        clone.itlb = self.itlb.fork()
        clone.dtlb = self.dtlb.fork(dtlb_observer)
        clone._dl1_mshrs = self._dl1_mshrs.fork()
        clone._il1_mshrs = self._il1_mshrs.fork()
        return clone

    def reset_statistics(self) -> None:
        """Zero hit/miss counters and in-flight miss state (post-warmup)."""
        for cache in (self.il1, self.dl1, self.l2):
            cache.hits = cache.misses = cache.evictions = cache.writebacks = 0
        for tlb in (self.itlb, self.dtlb):
            tlb.hits = tlb.misses = 0
        self._dl1_mshrs.clear()
        self._il1_mshrs.clear()

    def drain(self, cycle: int) -> None:
        """Flush observed structures at end of run so AVF intervals close."""
        self.dl1.drain(cycle)
        self.dtlb.drain(cycle)
