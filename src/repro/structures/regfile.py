"""Merged physical register file with per-thread rename maps.

The shared rename pool (Table-1 machine: 160 INT + 160 FP) is the resource
whose contention throttles per-thread ROB occupancy under SMT — the paper's
Section 4.1 explanation for why ROB AVF *drops* in SMT mode.

Register AVF life cycle (paper Section 4.2): a register is un-ACE from
allocation until the producer's writeback (it holds no valid data), ACE from
writeback until its last read by an ACE consumer, and un-ACE again until it
is freed (when a younger writer of the same architectural register commits,
or on squash).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import StructureError
from repro.instrument import ResidencyProbe, Structure
from repro.isa.instruction import DynInstr
from repro.structures.strike import StrikeReceipt, burst_bits, cluster_token
from repro.workload.generator import FP_REG_BASE


class _PhysReg:
    """Lifetime metadata of one allocated physical register."""

    __slots__ = ("thread_id", "alloc_cycle", "written_cycle", "last_ace_read",
                 "ready", "tag")

    def __init__(self, thread_id: int, alloc_cycle: int) -> None:
        self.thread_id = thread_id
        self.alloc_cycle = alloc_cycle
        self.written_cycle = -1
        self.last_ace_read = -1
        self.ready = False
        self.tag = 0  # taint carried by the register's value (live injection)

    def clone(self) -> "_PhysReg":
        copy = _PhysReg.__new__(_PhysReg)
        copy.thread_id = self.thread_id
        copy.alloc_cycle = self.alloc_cycle
        copy.written_cycle = self.written_cycle
        copy.last_ace_read = self.last_ace_read
        copy.ready = self.ready
        copy.tag = self.tag
        return copy


class PhysicalRegisterFile:
    """Shared INT + FP physical register pool and per-thread rename maps.

    Physical registers are numbered 0..int_regs-1 (INT) and
    int_regs..int_regs+fp_regs-1 (FP).
    """

    def __init__(self, int_regs: int, fp_regs: int, num_threads: int,
                 probe: ResidencyProbe) -> None:
        if int_regs <= 0 or fp_regs <= 0:
            raise StructureError("register pool sizes must be positive")
        self._int_free: List[int] = list(range(int_regs - 1, -1, -1))
        self._fp_free: List[int] = list(range(int_regs + fp_regs - 1, int_regs - 1, -1))
        self._meta: Dict[int, _PhysReg] = {}
        self._rename: List[Dict[int, int]] = [dict() for _ in range(num_threads)]
        self._probe = probe
        self.int_regs = int_regs
        self.fp_regs = fp_regs

    # -- capacity ------------------------------------------------------------------

    def free_count(self, fp: bool) -> int:
        return len(self._fp_free if fp else self._int_free)

    def allocated_count(self) -> int:
        return len(self._meta)

    # -- rename --------------------------------------------------------------------

    def rename(self, instr: DynInstr, cycle: int) -> bool:
        """Rename ``instr``'s sources and destination; False on a stall.

        Sources that map to no in-flight producer read committed
        architectural state and are always ready (``None`` in ``phys_srcs``).
        """
        rmap = self._rename[instr.thread_id]
        needs_fp = instr.dest_reg is not None and instr.dest_reg >= FP_REG_BASE
        if instr.dest_reg is not None and self.free_count(needs_fp) == 0:
            return False
        instr.phys_srcs = tuple(rmap.get(src) for src in instr.src_regs)
        if instr.dest_reg is not None:
            phys = (self._fp_free if needs_fp else self._int_free).pop()
            self._meta[phys] = _PhysReg(instr.thread_id, cycle)
            instr.old_phys_dest = rmap.get(instr.dest_reg)
            instr.phys_dest = phys
            rmap[instr.dest_reg] = phys
        return True

    # -- dataflow ------------------------------------------------------------------

    def is_ready(self, phys: Optional[int]) -> bool:
        """True when a renamed source value is available for issue."""
        if phys is None:
            return True  # committed architectural state
        meta = self._meta.get(phys)
        return meta is None or meta.ready

    def sources_ready(self, instr: DynInstr) -> bool:
        return all(self.is_ready(p) for p in instr.phys_srcs)

    def mark_written(self, phys: int, cycle: int, tag: int = 0) -> None:
        """Producer writeback: the register now holds valid data.

        ``tag`` is the producer's taint (live injection); the write
        replaces the register's previous contents, so a pre-writeback
        strike on this register is masked exactly as in real hardware.
        """
        meta = self._meta.get(phys)
        if meta is None:
            raise StructureError(f"writeback to unallocated phys reg {phys}")
        meta.ready = True
        meta.tag = tag
        if meta.written_cycle < 0:
            meta.written_cycle = cycle

    def tag_of(self, phys: int) -> int:
        """The taint a consumer picks up by reading ``phys`` (0 = clean)."""
        meta = self._meta.get(phys)
        return meta.tag if meta is not None else 0

    def holds_taint(self) -> bool:
        """True when any allocated register carries taint (live injection)."""
        return any(meta.tag for meta in self._meta.values())

    def note_read(self, phys: Optional[int], cycle: int, ace_reader: bool) -> None:
        """A consumer issued and read this register."""
        if phys is None:
            return
        meta = self._meta.get(phys)
        if meta is not None and ace_reader and cycle > meta.last_ace_read:
            meta.last_ace_read = cycle

    # -- deallocation ----------------------------------------------------------------

    def free(self, phys: int, cycle: int) -> None:
        """Release a register and account its full lifetime to the AVF engine."""
        meta = self._meta.pop(phys, None)
        if meta is None:
            raise StructureError(f"double free of phys reg {phys}")
        ace = meta.last_ace_read > meta.written_cycle >= 0
        self._probe.reg_lifetime(meta.thread_id, meta.alloc_cycle,
                                 meta.written_cycle, meta.last_ace_read,
                                 cycle, ace)
        (self._fp_free if phys >= self.int_regs else self._int_free).append(phys)

    def on_commit(self, instr: DynInstr, cycle: int) -> None:
        """Free the previous mapping of the committed instruction's dest reg."""
        if instr.old_phys_dest is not None:
            self.free(instr.old_phys_dest, cycle)

    def on_squash(self, instr: DynInstr, cycle: int) -> None:
        """Undo ``instr``'s rename (must be called in reverse program order)."""
        if instr.phys_dest is None:
            return
        rmap = self._rename[instr.thread_id]
        if instr.old_phys_dest is None:
            rmap.pop(instr.dest_reg, None)
        else:
            rmap[instr.dest_reg] = instr.old_phys_dest
        self.free(instr.phys_dest, cycle)
        instr.phys_dest = None

    def drain(self, cycle: int) -> None:
        """Close all live register lifetimes at end of simulation."""
        for phys in list(self._meta):
            self.free(phys, cycle)
        for rmap in self._rename:
            rmap.clear()

    def fork(self, probe: ResidencyProbe) -> "PhysicalRegisterFile":
        """An independent copy (free lists, lifetimes, rename maps)."""
        clone = PhysicalRegisterFile.__new__(PhysicalRegisterFile)
        clone.__dict__.update(self.__dict__)
        clone._int_free = list(self._int_free)
        clone._fp_free = list(self._fp_free)
        clone._meta = {phys: meta.clone() for phys, meta in self._meta.items()}
        clone._rename = [dict(rmap) for rmap in self._rename]
        clone._probe = probe
        return clone

    # -- live fault injection ----------------------------------------------------

    def inject_bit(self, phys: int, bit: int, length: int = 1) -> StrikeReceipt:
        """Flip ``length`` adjacent data bits of physical register
        ``phys``, clipped at the word boundary; see strike.py.

        A free register is idle (nothing lives there); an allocated one is
        tainted in place — if the producer has not written back yet, the
        eventual write overwrites the taint (masked, matching the ledger's
        un-ACE allocation window), and after the last read the taint flows
        nowhere.
        """
        meta = self._meta.get(phys)
        if meta is None:
            return StrikeReceipt.idle(f"REG[p{phys}]")
        receipt = StrikeReceipt(True, f"REG[p{phys}]=t{meta.thread_id}", "value")
        receipt.record(meta, "tag")
        burst = burst_bits(Structure.REG, bit, length)
        meta.tag ^= cluster_token(Structure.REG, burst)
        return receipt
