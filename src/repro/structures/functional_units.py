"""Shared functional-unit pool (Table 1: 8 I-ALU, 4 I-MUL/DIV, 4 LD/ST AGUs,
8 FP-ALU, 4 FP-MUL/DIV/SQRT).

Single-cycle units are fully pipelined (busy one cycle per operation);
multi-cycle units are occupied for their whole latency.  Every busy
unit-cycle is reported to the AVF engine: a unit computing an ACE
instruction exposes ACE latch bits that cycle, an idle or wrong-path unit
does not — which is why FU AVF tracks utilisation in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig
from repro.instrument import ResidencyProbe, Structure
from repro.isa.instruction import DynInstr, InstrRemap
from repro.isa.opcodes import FUType, OpClass, execution_latency
from repro.structures.strike import StrikeReceipt, burst_bits, cluster_token


class FunctionalUnitPool:
    """Occupancy-tracked pool of all execution resources."""

    def __init__(self, config: MachineConfig, probe: ResidencyProbe) -> None:
        self._config = config
        self._probe = probe
        self._counts: Dict[FUType, int] = {
            FUType.INT_ALU: config.int_alus,
            FUType.INT_MULDIV: config.int_mult_div,
            FUType.LOAD_STORE: config.load_store_units,
            FUType.FP_ALU: config.fp_alus,
            FUType.FP_MULDIV: config.fp_mult_div,
        }
        # Busy reservations: (release_cycle, instr) per unit type.
        self._busy: Dict[FUType, List[Tuple[int, DynInstr]]] = {
            fu: [] for fu in FUType
        }
        # Execution latency per operation class, fixed by the config.
        self._latency: Dict[OpClass, int] = {
            op: execution_latency(op, config) for op in OpClass}
        self.issued_ops = 0
        self.busy_unit_cycles = 0

    def latency_of(self, op: OpClass) -> int:
        return self._latency[op]

    def available(self, fu: FUType) -> int:
        return self._counts[fu] - len(self._busy[fu])

    def can_issue(self, op: OpClass) -> bool:
        fu = op.fu
        return len(self._busy[fu]) < self._counts[fu]

    def issue(self, instr: DynInstr, cycle: int) -> int:
        """Reserve a unit for ``instr``; returns its execution latency."""
        op = instr.op
        latency = self._latency[op]
        self._busy[op.fu].append((cycle + latency, instr))
        self.issued_ops += 1
        return latency

    def tick(self, cycle: int) -> bool:
        """Account this cycle's busy units and release finished reservations.

        Called once per cycle after issue, so a unit granted this cycle also
        counts as busy this cycle.  True when a unit was released: it can
        issue again next cycle.
        """
        released = False
        for fu, reservations in self._busy.items():
            if not reservations:
                continue
            for release, instr in reservations:
                self._probe.fu_busy_cycle(instr.thread_id, instr.is_ace, cycle)
                self.busy_unit_cycles += 1
            kept = [r for r in reservations if r[0] > cycle + 1]
            released = released or len(kept) < len(reservations)
            self._busy[fu] = kept
        return released

    def tick_span(self, first: int, last: int) -> None:
        """:meth:`tick` for each cycle of ``[first, last]``, in order: the
        busy ticks of cycles the core skipped because nothing issued."""
        if any(self._busy.values()):
            for cycle in range(first, last + 1):
                self.tick(cycle)

    def next_release(self) -> Optional[int]:
        """The first cycle a busy unit is free to issue again, or None."""
        return min((release for reservations in self._busy.values()
                    for release, _ in reservations), default=None)

    def fork(self, remap: InstrRemap, probe: ResidencyProbe) -> "FunctionalUnitPool":
        """An independent copy holding ``remap``'s instruction copies."""
        clone = FunctionalUnitPool.__new__(FunctionalUnitPool)
        clone.__dict__.update(self.__dict__)
        clone._busy = {fu: [(release, remap(instr))
                            for release, instr in reservations]
                       for fu, reservations in self._busy.items()}
        clone._probe = probe
        return clone

    @property
    def busy_count(self) -> int:
        """Units currently holding a reservation (occupancy telemetry)."""
        return sum(len(r) for r in self._busy.values())

    @property
    def total_units(self) -> int:
        return sum(self._counts.values())

    # -- live fault injection ----------------------------------------------------

    def inject_bit(self, slot: int, bit: int, length: int = 1) -> StrikeReceipt:
        """Flip ``length`` adjacent latch bits of pool unit ``slot``,
        clipped at the latch-word boundary; see strike.py.

        Units are numbered across the pool in Table-1 order (I-ALUs first,
        FP-MUL/DIV last).  A unit holding a reservation has the in-flight
        operation's state in its latches, so the flip taints that
        instruction's result; an idle unit exposes nothing.
        """
        remaining = slot
        for fu, count in self._counts.items():
            if remaining >= count:
                remaining -= count
                continue
            reservations = self._busy[fu]
            if remaining >= len(reservations):
                return StrikeReceipt.idle(f"FU[{fu.name}#{remaining}]")
            instr = reservations[remaining][1]
            receipt = StrikeReceipt(
                True, f"FU[{fu.name}#{remaining}]=t{instr.thread_id}#{instr.seq}",
                "value")
            receipt.taint(instr, cluster_token(
                Structure.FU, burst_bits(Structure.FU, bit, length)))
            return receipt
        return StrikeReceipt.idle(f"FU[{slot}]")
