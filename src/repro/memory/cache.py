"""Set-associative, write-back, write-allocate cache with LRU replacement.

The cache models *contents and timing inputs* (hit/miss, evictions); latency
composition across levels lives in :mod:`repro.memory.hierarchy`.  Lines keep
per-word access metadata when ``track_words`` is enabled so the AVF engine
can classify the data array at word granularity (paper Section 4.1: only the
accessed portion of a block is ACE, which is why the DL1 *tag* AVF exceeds
the *data* AVF).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

from repro.config import CacheConfig

WORD_BYTES = 8


class CacheLine:
    """One resident cache line plus the metadata the AVF engine consumes."""

    __slots__ = (
        "tag", "set_index", "thread_id", "fill_cycle", "last_access_cycle",
        "word_last_read", "word_last_write", "word_dirty", "accesses",
    )

    def __init__(self, tag: int, set_index: int, thread_id: int, fill_cycle: int,
                 words: int) -> None:
        self.tag = tag
        self.set_index = set_index
        self.thread_id = thread_id
        self.fill_cycle = fill_cycle
        self.last_access_cycle = fill_cycle
        # Per-word timestamps; -1 means "never since fill".
        self.word_last_read: List[int] = [-1] * words
        self.word_last_write: List[int] = [-1] * words
        self.word_dirty: List[bool] = [False] * words
        self.accesses = 0

    @property
    def dirty(self) -> bool:
        return any(self.word_dirty)

    def clone(self) -> "CacheLine":
        copy = CacheLine.__new__(CacheLine)
        copy.tag = self.tag
        copy.set_index = self.set_index
        copy.thread_id = self.thread_id
        copy.fill_cycle = self.fill_cycle
        copy.last_access_cycle = self.last_access_cycle
        copy.word_last_read = self.word_last_read[:]
        copy.word_last_write = self.word_last_write[:]
        copy.word_dirty = self.word_dirty[:]
        copy.accesses = self.accesses
        return copy


class CacheObserver(Protocol):
    """Receives content events from a cache for reliability accounting."""

    def on_evict(self, line: CacheLine, cycle: int) -> None:
        """Called when ``line`` leaves the cache (eviction or flush)."""


class NullObserver:
    """Observer that ignores all events."""

    def on_evict(self, line: CacheLine, cycle: int) -> None:
        pass


class Cache:
    """A single cache level."""

    def __init__(self, config: CacheConfig, track_words: bool = False,
                 observer: Optional[CacheObserver] = None) -> None:
        self.config = config
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._line_bytes = config.line_bytes
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._index_mask = self._num_sets - 1
        self._index_bits = max(self._num_sets.bit_length() - 1, 1)
        self._words = config.line_bytes // WORD_BYTES if track_words else 1
        self._track_words = track_words
        self._observer = observer or NullObserver()
        # Each set: {tag: CacheLine}, insertion order == LRU order.
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # -- address helpers -------------------------------------------------------

    def line_address(self, addr: int) -> int:
        return addr >> self._offset_bits

    def _set_index(self, line_addr: int) -> int:
        # Fibonacci-hash the line address into the index.  The synthetic
        # address space is a handful of dense regions at bases that are
        # multiples of 2^32; a plain low-bit index would alias every
        # thread's regions into the same few sets.  Multiplicative hashing
        # spreads dense ranges uniformly over all sets — the role the
        # virtual-to-physical mapping plays for a real cache — while staying
        # deterministic and conflict-free for sequential streams.
        h = (line_addr * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return (h >> (64 - self._index_bits)) & self._index_mask

    def _word_index(self, addr: int) -> int:
        if not self._track_words:
            return 0
        return (addr & (self._line_bytes - 1)) // WORD_BYTES

    # -- content operations ----------------------------------------------------

    def probe(self, addr: int) -> bool:
        """True when the line holding ``addr`` is resident (no side effects)."""
        line_addr = self.line_address(addr)
        return line_addr in self._sets[self._set_index(line_addr)]

    def access(self, addr: int, cycle: int, thread_id: int,
               is_write: bool) -> Tuple[bool, CacheLine, Optional[CacheLine]]:
        """Read or write the word at ``addr``.

        Returns ``(hit, line, evicted_line)``.  On a miss the line is
        installed (write-allocate) and the victim, if any, is returned so the
        caller can model its writeback.
        """
        line_addr = self.line_address(addr)
        entries = self._sets[self._set_index(line_addr)]
        line = entries.get(line_addr)
        evicted: Optional[CacheLine] = None
        hit = line is not None
        if hit:
            self.hits += 1
            del entries[line_addr]     # refresh LRU position
            entries[line_addr] = line
        else:
            self.misses += 1
            evicted = self._install(line_addr, entries, cycle, thread_id)
            line = entries[line_addr]
        self._touch(line, addr, cycle, is_write)
        return hit, line, evicted

    def _install(self, line_addr: int, entries: Dict[int, CacheLine], cycle: int,
                 thread_id: int) -> Optional[CacheLine]:
        evicted: Optional[CacheLine] = None
        if len(entries) >= self._assoc:
            victim_tag = next(iter(entries))
            evicted = entries.pop(victim_tag)
            self.evictions += 1
            if evicted.dirty:
                self.writebacks += 1
            self._observer.on_evict(evicted, cycle)
        entries[line_addr] = CacheLine(line_addr, self._set_index(line_addr),
                                       thread_id, cycle, self._words)
        return evicted

    def _touch(self, line: CacheLine, addr: int, cycle: int, is_write: bool) -> None:
        line.last_access_cycle = cycle
        line.accesses += 1
        w = self._word_index(addr)
        if is_write:
            line.word_last_write[w] = cycle
            line.word_dirty[w] = True
        else:
            line.word_last_read[w] = cycle

    def fork(self, observer: Optional[CacheObserver] = None) -> "Cache":
        """An independent copy of contents and counters, reporting
        evictions to ``observer`` (as the constructor would)."""
        clone = Cache.__new__(Cache)
        clone.__dict__.update(self.__dict__)
        clone._observer = observer or NullObserver()
        # Insertion order is LRU order, so the set dicts are rebuilt in it.
        clone._sets = [{tag: line.clone() for tag, line in entries.items()}
                       if entries else {} for entries in self._sets]
        return clone

    def drain(self, cycle: int) -> None:
        """Evict every resident line (end-of-simulation accounting)."""
        for entries in self._sets:
            for line in entries.values():
                self._observer.on_evict(line, cycle)
            entries.clear()

    # -- statistics --------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def resident_lines(self):
        """Iterate over all currently resident lines."""
        for entries in self._sets:
            yield from entries.values()
