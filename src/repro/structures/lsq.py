"""Per-thread load/store queue with exact store-to-load forwarding.

The trace generator knows every memory address up front, so disambiguation
is exact: a load forwards from the youngest older store to the same aligned
word, if any, and otherwise accesses the DL1.

AVF model: each entry has an address/tag half (ACE from dispatch until
deallocation — the address steers the access and a strike redirects it) and
a data half (ACE once the value is present: from completion for loads, from
data-ready for stores, until deallocation).  Wrong-path and squashed entries
are un-ACE throughout.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import StructureError
from repro.instrument import ResidencyProbe, Structure
from repro.isa.instruction import DynInstr, InstrRemap
from repro.structures.strike import (StrikeReceipt, burst_bits, cluster_token,
                                     locate_field)

_WORD_MASK = ~0x7  # forwarding granularity: aligned 8-byte words


class LoadStoreQueue:
    """One thread's in-order window of in-flight memory operations."""

    def __init__(self, thread_id: int, capacity: int,
                 probe: ResidencyProbe) -> None:
        if capacity <= 0:
            raise StructureError("LSQ capacity must be positive")
        self.thread_id = thread_id
        self.capacity = capacity
        self._entries: Deque[DynInstr] = deque()
        self._probe = probe
        self.forwards = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def add(self, instr: DynInstr, cycle: int) -> None:
        if self.full:
            raise StructureError(f"LSQ[t{self.thread_id}] overflow")
        self._entries.append(instr)
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)

    def forwarding_store(self, load: DynInstr) -> Optional[DynInstr]:
        """Youngest older store to the same aligned word, or None."""
        addr = load.mem_addr & _WORD_MASK
        for entry in reversed(self._entries):
            if entry.fetch_stamp >= load.fetch_stamp:
                continue
            if entry.is_store and (entry.mem_addr & _WORD_MASK) == addr:
                return entry
        return None

    def remove_committed(self, instr: DynInstr, cycle: int) -> None:
        """Entry leaves at commit (head of the queue in program order)."""
        if not self._entries or self._entries[0] is not instr:
            raise StructureError(f"LSQ[t{self.thread_id}] commit out of order")
        self._entries.popleft()
        self._accrue(instr, cycle)

    def squash_younger_than(self, boundary_stamp: int, cycle: int) -> List[DynInstr]:
        squashed: List[DynInstr] = []
        while self._entries and self._entries[-1].fetch_stamp > boundary_stamp:
            instr = self._entries.pop()
            instr.squashed = True
            self._accrue(instr, cycle)
            squashed.append(instr)
        return squashed

    def drain(self, cycle: int) -> None:
        while self._entries:
            self._accrue(self._entries.popleft(), cycle)

    def _accrue(self, instr: DynInstr, cycle: int) -> None:
        ace = instr.is_ace
        self._probe.occupy(Structure.LSQ_TAG, self.thread_id,
                           instr.renamed_at, cycle, ace)
        # The data half holds a valid value only once it has been produced.
        data_start = instr.completed_at if instr.completed_at >= 0 else cycle
        self._probe.occupy(Structure.LSQ_DATA, self.thread_id,
                           data_start, cycle, ace)
        if instr.completed_at >= 0:
            self._probe.occupy(Structure.LSQ_DATA, self.thread_id,
                               instr.renamed_at, instr.completed_at, False)

    def fork(self, remap: InstrRemap, probe: ResidencyProbe) -> "LoadStoreQueue":
        """An independent copy holding ``remap``'s instruction copies."""
        clone = LoadStoreQueue.__new__(LoadStoreQueue)
        clone.__dict__.update(self.__dict__)
        clone._entries = deque(map(remap, self._entries))
        clone._probe = probe
        return clone

    # -- live fault injection ----------------------------------------------------

    def inject_bit(self, index: int, bit: int,
                   structure: Structure, length: int = 1) -> StrikeReceipt:
        """Flip ``length`` adjacent bits of LSQ entry ``index`` (0 =
        oldest), clipped at the field boundary; see strike.py.

        The tag half's address bits really flip ``mem_addr`` (redirecting
        the access and store-to-load forwarding) *and* taint the value —
        an access to the wrong address is architecturally wrong data.  The
        data half holds a valid word only once the operation has produced
        it (``completed_at``), mirroring the ledger's un-ACE window; before
        that the flip lands in garbage and is left unapplied-in-effect.
        """
        if index >= len(self._entries):
            half = "TAG" if structure is Structure.LSQ_TAG else "DATA"
            return StrikeReceipt.idle(f"LSQ_{half}[t{self.thread_id}][{index}]")
        instr = self._entries[index]
        field, offset = locate_field(structure, bit)
        burst = burst_bits(structure, bit, length)
        receipt = StrikeReceipt(
            True, f"{structure.value}[t{self.thread_id}][{index}]=#{instr.seq}",
            field)
        if structure is Structure.LSQ_DATA and instr.completed_at < 0:
            receipt.field = "value (not yet valid)"
            return receipt
        if field == "addr":
            receipt.record(instr, "mem_addr")
            for i in range(len(burst)):
                instr.mem_addr ^= 1 << (offset + i)
        receipt.taint(instr, cluster_token(structure, burst))
        return receipt
