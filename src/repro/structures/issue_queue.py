"""Shared out-of-order issue queue.

All SMT contexts dispatch into a single 96-entry window; per-thread entry
counts are maintained for the fetch policies (ICOUNT needs them) and for
per-thread AVF attribution.  The paper identifies the IQ as the single most
vulnerable structure under SMT precisely because multithreading keeps these
shared entries full of ACE bits.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

from repro.errors import StructureError
from repro.instrument import ResidencyProbe, Structure
from repro.isa.instruction import DynInstr, InstrRemap
from repro.structures.strike import (StrikeReceipt, burst_bits, cluster_token,
                                     locate_field)


class SharedIssueQueue:
    """Capacity-bounded shared instruction window."""

    def __init__(self, capacity: int, probe: ResidencyProbe) -> None:
        if capacity <= 0:
            raise StructureError("IQ capacity must be positive")
        self.capacity = capacity
        self._entries: List[DynInstr] = []
        self._per_thread: Dict[int, int] = {}
        self._probe = probe
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def thread_count(self, thread_id: int) -> int:
        return self._per_thread.get(thread_id, 0)

    def add(self, instr: DynInstr, cycle: int) -> None:
        if self.full:
            raise StructureError("IQ overflow")
        self._entries.append(instr)
        self._per_thread[instr.thread_id] = self._per_thread.get(instr.thread_id, 0) + 1
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)

    def select_ready(self, is_ready: Callable[[DynInstr], bool],
                     limit: int) -> List[DynInstr]:
        """Oldest-first selection of up to ``limit`` issue-ready entries.

        Entries are kept in dispatch order, so a front-to-back scan is
        oldest-first across all threads (M-Sim's global age-ordered select).
        """
        chosen: List[DynInstr] = []
        for instr in self._entries:
            if len(chosen) >= limit:
                break
            if is_ready(instr):
                chosen.append(instr)
        return chosen

    def remove_issued(self, instr: DynInstr, cycle: int) -> None:
        """Entry leaves the window at issue; account its residency."""
        self._remove(instr, cycle)

    def squash_thread(self, thread_id: int, boundary_stamp: int, cycle: int) -> int:
        """Drop this thread's entries fetched after ``boundary_stamp``."""
        doomed = [e for e in self._entries
                  if e.thread_id == thread_id and e.fetch_stamp > boundary_stamp]
        for instr in doomed:
            instr.squashed = True
            self._remove(instr, cycle)
        return len(doomed)

    def drain(self, cycle: int) -> None:
        for instr in list(self._entries):
            self._remove(instr, cycle)

    def _remove(self, instr: DynInstr, cycle: int) -> None:
        self._entries.remove(instr)
        self._per_thread[instr.thread_id] -= 1
        self._probe.occupy(Structure.IQ, instr.thread_id,
                           instr.renamed_at, cycle, instr.is_ace)

    def entries(self) -> Iterable[DynInstr]:
        return tuple(self._entries)

    def fork(self, remap: InstrRemap, probe: ResidencyProbe) -> "SharedIssueQueue":
        """An independent copy holding ``remap``'s instruction copies."""
        clone = SharedIssueQueue.__new__(SharedIssueQueue)
        clone.__dict__.update(self.__dict__)
        clone._entries = list(map(remap, self._entries))
        clone._per_thread = dict(self._per_thread)
        clone._probe = probe
        return clone

    # -- live fault injection ----------------------------------------------------

    def inject_bit(self, slot: int, bit: int, length: int = 1) -> StrikeReceipt:
        """Flip ``length`` adjacent bits of IQ entry ``slot`` (dispatch
        order), clipped at the field boundary; see strike.py.

        Payload bits taint the waiting instruction's value; the scheduler
        bits flip its wakeup state (``pending_srcs``), which can issue an
        operand-less instruction early or strand one forever — the live
        model's source of IQ-induced hangs.  A multi-bit burst stays
        within one field, so it either widens the taint or folds several
        wakeup flips together.
        """
        if slot >= len(self._entries):
            return StrikeReceipt.idle(f"IQ[{slot}]")
        instr = self._entries[slot]
        field, offset = locate_field(Structure.IQ, bit)
        burst = burst_bits(Structure.IQ, bit, length)
        receipt = StrikeReceipt(True, f"IQ[{slot}]=t{instr.thread_id}#{instr.seq}",
                                field)
        if field == "sched":
            receipt.record(instr, "pending_srcs")
            flips = 0
            for i in range(len(burst)):
                flips ^= 1 + ((offset + i) & 1)
            instr.pending_srcs ^= flips or 1 + (offset & 1)
        else:
            receipt.taint(instr, cluster_token(Structure.IQ, burst))
        return receipt
