"""Per-thread reorder buffer.

Entries live from dispatch to commit (or squash); the occupancy interval is
reported to the AVF engine at removal, when the entry's final ACE status is
known.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional

from repro.errors import StructureError
from repro.instrument import ResidencyProbe, Structure
from repro.isa.instruction import DynInstr, InstrRemap
from repro.structures.strike import (StrikeReceipt, burst_bits, cluster_token,
                                     locate_field)


class ReorderBuffer:
    """In-order window of one thread's in-flight instructions."""

    def __init__(self, thread_id: int, capacity: int,
                 probe: ResidencyProbe) -> None:
        if capacity <= 0:
            raise StructureError("ROB capacity must be positive")
        self.thread_id = thread_id
        self.capacity = capacity
        self._entries: Deque[DynInstr] = deque()
        self._probe = probe
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynInstr]:
        """Entries from head (oldest) to tail."""
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def head(self) -> Optional[DynInstr]:
        return self._entries[0] if self._entries else None

    def push(self, instr: DynInstr, cycle: int) -> None:
        if self.full:
            raise StructureError(f"ROB[t{self.thread_id}] overflow")
        instr.rob_index = len(self._entries)
        self._entries.append(instr)
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)

    def pop_head(self, cycle: int) -> DynInstr:
        """Commit the oldest instruction and account its ROB residency."""
        if not self._entries:
            raise StructureError(f"ROB[t{self.thread_id}] underflow")
        instr = self._entries.popleft()
        self._accrue(instr, cycle)
        return instr

    def squash_younger_than(self, boundary_stamp: int, cycle: int) -> List[DynInstr]:
        """Remove entries fetched after ``boundary_stamp``, youngest first.

        Returns the squashed instructions in reverse program order — the
        order required for rename-map restoration.
        """
        squashed: List[DynInstr] = []
        while self._entries and self._entries[-1].fetch_stamp > boundary_stamp:
            instr = self._entries.pop()
            instr.squashed = True
            self._accrue(instr, cycle)
            squashed.append(instr)
        return squashed

    def drain(self, cycle: int) -> None:
        """Account all remaining entries at end of simulation."""
        while self._entries:
            self._accrue(self._entries.popleft(), cycle)

    def _accrue(self, instr: DynInstr, cycle: int) -> None:
        self._probe.occupy(Structure.ROB, self.thread_id,
                           instr.renamed_at, cycle, instr.is_ace)

    def fork(self, remap: InstrRemap, probe: ResidencyProbe) -> "ReorderBuffer":
        """An independent copy holding ``remap``'s instruction copies."""
        clone = ReorderBuffer.__new__(ReorderBuffer)
        clone.__dict__.update(self.__dict__)
        clone._entries = deque(map(remap, self._entries))
        clone._probe = probe
        return clone

    # -- live fault injection ----------------------------------------------------

    def inject_bit(self, index: int, bit: int, cycle: int,
                   length: int = 1) -> StrikeReceipt:
        """Flip ``length`` adjacent bits of ROB entry ``index`` (0 =
        head), clipped at the field boundary; see strike.py.

        Payload bits taint the entry's value/identity; the status bits
        toggle its completion flag — un-completing a finished entry strands
        the commit head (a hang), prematurely completing an unexecuted one
        lets it commit or collide with its own later writeback.  A status
        burst toggles the flag exactly once (the flag is one latch bit
        rendered as several encoded status bits; re-toggling would cancel
        the strike rather than widen it).
        """
        if index >= len(self._entries):
            return StrikeReceipt.idle(f"ROB[t{self.thread_id}][{index}]")
        instr = self._entries[index]
        field, _offset = locate_field(Structure.ROB, bit)
        receipt = StrikeReceipt(
            True, f"ROB[t{self.thread_id}][{index}]=#{instr.seq}", field)
        if field == "status":
            receipt.record(instr, "completed_at")
            instr.completed_at = -1 if instr.completed_at >= 0 else cycle
        else:
            receipt.taint(instr, cluster_token(
                Structure.ROB, burst_bits(Structure.ROB, bit, length)))
        return receipt
