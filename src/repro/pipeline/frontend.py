"""Per-thread front-end and private-structure state."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.branch.unit import BranchUnit
from repro.config import MachineConfig
from repro.instrument import ResidencyProbe
from repro.isa.instruction import DynInstr, InstrRemap, clone_instr
from repro.structures.lsq import LoadStoreQueue
from repro.structures.rob import ReorderBuffer
from repro.workload.address_stream import THREAD_ADDRESS_SPACE
from repro.workload.generator import ThreadTrace, WrongPathSynthesizer

#: Front-end buffer depth: how many decoded instructions may queue between
#: fetch and rename (a few fetch blocks deep).
DECODE_BUFFER_ENTRIES = 32


class ThreadContext:
    """Everything one SMT context owns privately."""

    def __init__(self, thread_id: int, trace: ThreadTrace, config: MachineConfig,
                 probe: ResidencyProbe, seed: int) -> None:
        self.id = thread_id
        self.trace = trace
        self.config = config
        self.branch_unit = BranchUnit(config.branch)
        self.rob = ReorderBuffer(thread_id, config.rob_entries, probe)
        self.lsq = LoadStoreQueue(thread_id, config.lsq_entries, probe)
        self.synth = WrongPathSynthesizer(trace.profile, thread_id, seed)

        # (rename-ready cycle, instr) pairs in fetch order.
        self.decode_queue: Deque[Tuple[int, DynInstr]] = deque()

        self.fetch_index = 0             # next correct-path trace instruction
        self.next_fetch_stamp = 0        # monotonic per-thread fetch order
        self.fetch_blocked_until = 0     # I-cache/redirect stall
        # Fetch line buffer: the line whose fill this thread last waited on.
        # When the fill returns, the front end consumes it from this buffer
        # rather than re-probing the IL1 — without it, threads whose hot
        # lines alias into one set can livelock by evicting each other
        # between retry attempts.
        self.line_buffer = -1
        self.wrong_path = False
        self.wrong_pc = 0
        self.pending_branch: Optional[DynInstr] = None
        # Wrong-path PCs wrap within the program's code footprint: a real
        # wrong path executes real (warm) code, not unmapped address space.
        self._code_base = thread_id * THREAD_ADDRESS_SPACE
        self._code_bytes = max(trace.profile.code_bytes, 256)

        self.outstanding_l1d = 0         # executed loads waiting on a DL1 miss
        self.outstanding_l2 = 0          # executed loads waiting on an L2 miss

        self.committed = 0
        self.fetched = 0
        self.wrong_path_fetched = 0

    def fork(self, remap: InstrRemap,
             probe: ResidencyProbe) -> "ThreadContext":
        """An independent copy with ``remap``'s instruction copies in
        flight.  Both contexts share the read-only trace."""
        clone = ThreadContext.__new__(ThreadContext)
        clone.__dict__.update(self.__dict__)
        clone.branch_unit = self.branch_unit.fork()
        clone.rob = self.rob.fork(remap, probe)
        clone.lsq = self.lsq.fork(remap, probe)
        clone.synth = self.synth.fork()
        clone.decode_queue = deque((ready, remap(instr))
                                   for ready, instr in self.decode_queue)
        if self.pending_branch is not None:
            clone.pending_branch = remap(self.pending_branch)
        return clone

    # -- status ----------------------------------------------------------------------

    @property
    def fetch_exhausted(self) -> bool:
        """No more correct-path instructions left to fetch."""
        return self.fetch_index >= len(self.trace) and not self.wrong_path

    @property
    def finished(self) -> bool:
        """The thread has committed its whole trace."""
        return (self.fetch_exhausted and self.rob.empty
                and not self.decode_queue)

    def front_end_count(self) -> int:
        """Instructions between fetch and rename (ICOUNT's front-end term)."""
        return len(self.decode_queue)

    # -- fetch helpers ------------------------------------------------------------------

    def next_instruction(self) -> Optional[DynInstr]:
        """The instruction fetch would deliver next (not yet consumed): a
        fresh copy of the trace record, or a wrong-path instruction."""
        if self.wrong_path:
            instr = self.synth.synthesize(self.wrong_pc)
            self.wrong_pc = self.clamp_pc(self.wrong_pc + 4)
            self.wrong_path_fetched += 1
            return instr
        index = self.fetch_index
        if index >= len(self.trace):
            return None
        return clone_instr(self.trace.instrs[index])

    def clamp_pc(self, pc: int) -> int:
        """Fold a speculative PC back into the thread's code footprint."""
        return self._code_base + ((pc - self._code_base) % self._code_bytes)

    def stamp(self, instr: DynInstr) -> None:
        instr.fetch_stamp = self.next_fetch_stamp
        self.next_fetch_stamp += 1
        self.fetched += 1

    def drop_decoded_younger_than(self, boundary_stamp: int):
        """Squash front-end instructions fetched after ``boundary_stamp``.

        Returns the dropped instructions so squash observers (fetch-policy
        hooks) can release any per-instruction state.
        """
        kept = [(c, i) for c, i in self.decode_queue if i.fetch_stamp <= boundary_stamp]
        dropped = [i for _, i in self.decode_queue if i.fetch_stamp > boundary_stamp]
        for instr in dropped:
            instr.squashed = True
        self.decode_queue = deque(kept)
        return dropped
