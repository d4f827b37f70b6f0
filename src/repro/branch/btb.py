"""Branch target buffer: set-associative tag/target store with LRU."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigError


class BranchTargetBuffer:
    """A ``entries``-entry, ``assoc``-way BTB keyed by branch PC."""

    def __init__(self, entries: int = 2048, assoc: int = 4) -> None:
        if entries <= 0 or assoc <= 0 or entries % assoc:
            raise ConfigError("BTB entries must be a positive multiple of assoc")
        self._num_sets = entries // assoc
        if self._num_sets & (self._num_sets - 1):
            raise ConfigError("BTB set count must be a power of two")
        self._assoc = assoc
        # Each set is an ordered dict {tag: target}; insertion order is LRU order.
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, pc: int) -> tuple[Dict[int, int], int]:
        index = (pc >> 2) & (self._num_sets - 1)
        tag = pc >> 2
        return self._sets[index], tag

    def lookup(self, pc: int) -> Optional[int]:
        """Return the predicted target for ``pc`` or None on a BTB miss."""
        entries, tag = self._locate(pc)
        target = entries.get(tag)
        if target is None:
            self.misses += 1
            return None
        # Refresh LRU position.
        del entries[tag]
        entries[tag] = target
        self.hits += 1
        return target

    def fork(self) -> "BranchTargetBuffer":
        clone = BranchTargetBuffer.__new__(BranchTargetBuffer)
        clone.__dict__.update(self.__dict__)
        clone._sets = [dict(entries) for entries in self._sets]
        return clone

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target of a taken control instruction."""
        entries, tag = self._locate(pc)
        if tag in entries:
            del entries[tag]
        elif len(entries) >= self._assoc:
            oldest = next(iter(entries))
            del entries[oldest]
        entries[tag] = target
