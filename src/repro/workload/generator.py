"""Statistical trace generation: correct-path traces and wrong-path synthesis.

:func:`generate_trace` materialises a thread's full correct-path instruction
stream up front (deterministically from a seed).  Materialising the trace is
what makes squash-and-replay cheap: a pipeline squash — whether from a branch
misprediction or the FLUSH fetch policy — simply rewinds the thread's fetch
pointer.

Dynamic deadness is computed *exactly* by a backward liveness pass over the
generated dataflow: an instruction is dynamically dead when its destination
register is overwritten before any later instruction reads it (first-order
deadness, as in Mukherjee et al.).  Stores and control ops are never dead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.isa.instruction import AceClass, DynInstr, classify_generated
from repro.isa.opcodes import OpClass
from repro.workload.address_stream import AddressStream, CodeStream
from repro.workload.branches import BranchModel
from repro.workload.mem_sites import MemorySiteModel
from repro.workload.spec2000 import BenchmarkProfile

NUM_INT_REGS = 32
NUM_FP_REGS = 32
NUM_ARCH_REGS = NUM_INT_REGS + NUM_FP_REGS
FP_REG_BASE = NUM_INT_REGS

#: Long-lived "global" registers per file (stack/frame/base pointers and
#: loop invariants): written rarely, read throughout — the register-file
#: residency that dominates its AVF in real programs.
NUM_GLOBAL_REGS = 4

#: Per-destination-selection probability that a global register is rewritten.
_GLOBAL_REWRITE_PROB = 0.002

_MAX_CALL_DEPTH = 64


def _is_fp_reg(reg: int) -> bool:
    return reg >= FP_REG_BASE


@dataclass
class TraceStats:
    """Summary statistics of a generated correct-path trace."""

    total: int = 0
    by_op: Dict[OpClass, int] = field(default_factory=dict)
    by_ace: Dict[AceClass, int] = field(default_factory=dict)

    @property
    def dead_fraction(self) -> float:
        dead = self.by_ace.get(AceClass.DYN_DEAD, 0)
        return dead / self.total if self.total else 0.0

    @property
    def load_fraction(self) -> float:
        return self.by_op.get(OpClass.LOAD, 0) / self.total if self.total else 0.0


class ThreadTrace:
    """A thread's materialised correct-path instruction stream."""

    def __init__(self, profile: BenchmarkProfile, thread_id: int, seed: int,
                 instrs: List[DynInstr]) -> None:
        self.profile = profile
        self.thread_id = thread_id
        self.seed = seed
        self.instrs = instrs

    def __len__(self) -> int:
        return len(self.instrs)

    def __getitem__(self, i: int) -> DynInstr:
        return self.instrs[i]

    def stats(self) -> TraceStats:
        s = TraceStats(total=len(self.instrs))
        for ins in self.instrs:
            s.by_op[ins.op] = s.by_op.get(ins.op, 0) + 1
            s.by_ace[ins.ace] = s.by_ace.get(ins.ace, 0) + 1
        return s


class _RegisterChooser:
    """Source/destination register selection with dependency-distance control."""

    def __init__(self, profile: BenchmarkProfile, rng: np.random.Generator) -> None:
        self._rng = rng
        self._profile = profile
        # Most-recent-writer order per file (registers, most recent last).
        self._recent_int: List[int] = []
        self._recent_fp: List[int] = []
        self._rr_int = 0
        self._rr_fp = 0

    def fork(self, rng: np.random.Generator) -> "_RegisterChooser":
        """An independent copy drawing from ``rng``."""
        clone = _RegisterChooser.__new__(_RegisterChooser)
        clone.__dict__.update(self.__dict__)
        clone._rng = rng
        clone._recent_int = list(self._recent_int)
        clone._recent_fp = list(self._recent_fp)
        return clone

    def _recent(self, fp: bool) -> List[int]:
        return self._recent_fp if fp else self._recent_int

    def pick_source(self, fp: bool) -> int:
        """Pick a source at a geometric dependency distance from recent writers.

        With probability ``global_source_fraction`` the source is one of the
        long-lived global registers instead (base/stack-pointer reads).
        """
        base = FP_REG_BASE if fp else 0
        if self._rng.random() < self._profile.global_source_fraction:
            return base + int(self._rng.integers(0, NUM_GLOBAL_REGS))
        recent = self._recent(fp)
        count = NUM_FP_REGS if fp else NUM_INT_REGS
        if not recent:
            return base + int(self._rng.integers(0, count))
        mean = self._profile.dep_distance_mean
        dist = 1 + int(self._rng.geometric(1.0 / mean))
        dist = min(dist, len(recent))
        return recent[-dist]

    def pick_dest(self, fp: bool) -> int:
        """Pick a destination; ``reuse_bias`` controls how often values die young.

        Globals (registers 0..NUM_GLOBAL_REGS-1 of each file) are rewritten
        only rarely, so their values stay live across long instruction spans.
        """
        recent = self._recent(fp)
        base = FP_REG_BASE if fp else 0
        count = NUM_FP_REGS if fp else NUM_INT_REGS
        if self._rng.random() < _GLOBAL_REWRITE_PROB:
            reg = base + int(self._rng.integers(0, NUM_GLOBAL_REGS))
        elif recent and self._rng.random() < self._profile.reuse_bias:
            # Overwrite a recently written register: its previous producer
            # becomes dynamically dead unless somebody read it in between.
            dist = 1 + int(self._rng.integers(0, min(4, len(recent))))
            reg = recent[-dist]
        else:
            # Round-robin over the non-global registers: long, well-separated
            # lifetimes.
            span = count - NUM_GLOBAL_REGS
            if fp:
                reg = base + NUM_GLOBAL_REGS + self._rr_fp
                self._rr_fp = (self._rr_fp + 1) % span
            else:
                reg = base + NUM_GLOBAL_REGS + self._rr_int
                self._rr_int = (self._rr_int + 1) % span
        self._note_write(reg)
        return reg

    def _note_write(self, reg: int) -> None:
        recent = self._recent(_is_fp_reg(reg))
        if reg in recent:
            recent.remove(reg)
        recent.append(reg)
        if len(recent) > 64:
            del recent[0]


def _draw_op(profile: BenchmarkProfile, rng: np.random.Generator,
             call_depth: int) -> OpClass:
    """Draw an operation class from the profile's instruction mix."""
    r = rng.random()
    edge = profile.frac_load
    if r < edge:
        return OpClass.LOAD
    edge += profile.frac_store
    if r < edge:
        return OpClass.STORE
    edge += profile.frac_nop
    if r < edge:
        return OpClass.NOP
    edge += profile.frac_prefetch
    if r < edge:
        return OpClass.PREFETCH
    edge += profile.frac_branch
    if r < edge:
        cr = rng.random()
        if cr < profile.frac_call_ret:
            if call_depth > 0 and (rng.random() < 0.5 or call_depth >= _MAX_CALL_DEPTH):
                return OpClass.RET
            return OpClass.CALL
        return OpClass.BRANCH
    # Compute op: split between INT and FP files, then scalar vs mul/div.
    fp = rng.random() < profile.frac_fp
    heavy = rng.random() < profile.frac_mul_div
    if fp:
        if not heavy:
            return OpClass.FALU
        return OpClass.FMUL if rng.random() < 0.7 else OpClass.FDIV
    if not heavy:
        return OpClass.IALU
    return OpClass.IMUL if rng.random() < 0.7 else OpClass.IDIV


def generate_trace(profile: BenchmarkProfile, thread_id: int, length: int,
                   seed: int = 1) -> ThreadTrace:
    """Generate ``length`` correct-path instructions for one thread.

    The same (profile, thread_id, length, seed) tuple always yields an
    identical trace.
    """
    if length <= 0:
        raise WorkloadError("trace length must be positive")
    rng = np.random.Generator(np.random.PCG64((seed, thread_id, 0xACE)))
    code = CodeStream(profile, thread_id, rng)
    data = AddressStream(profile, thread_id, rng)
    sites = MemorySiteModel(profile, data, rng)
    branches = BranchModel(profile, code, rng)
    regs = _RegisterChooser(profile, rng)

    instrs: List[DynInstr] = []
    call_stack: List[int] = []
    recent_stores: List[int] = []  # spill addresses available for reload
    pc = code.pc

    # Prologue: establish the long-lived global registers (stack/base
    # pointers) so they are renamed, in-flight values from the start.  FP
    # globals exist only in programs that use the FP file at all.
    global_count = NUM_GLOBAL_REGS * (2 if profile.frac_fp > 0 else 1)
    for g in range(min(global_count, length)):
        fp = g >= NUM_GLOBAL_REGS
        reg = (FP_REG_BASE if fp else 0) + g % NUM_GLOBAL_REGS
        op = OpClass.FALU if fp else OpClass.IALU
        regs._note_write(reg)
        instrs.append(DynInstr(thread_id, g, pc, op, src_regs=(), dest_reg=reg))
        pc = code.advance()

    for seq in range(len(instrs), length):
        op = _draw_op(profile, rng, len(call_stack))
        src: Tuple[int, ...] = ()
        dest: Optional[int] = None
        mem_addr = 0
        mem_size = 8
        taken = False
        target = 0

        if op is OpClass.LOAD:
            fp_dest = rng.random() < profile.frac_fp
            src = (regs.pick_source(False),)          # address base register
            dest = regs.pick_dest(fp_dest)
            if recent_stores and rng.random() < profile.store_forward_fraction:
                # Reload of a recent spill: the classic store-to-load
                # forwarding idiom.
                mem_addr = recent_stores[int(rng.integers(0, len(recent_stores)))]
            else:
                mem_addr = sites.address_for(pc, mem_size)
        elif op is OpClass.STORE:
            fp_data = rng.random() < profile.frac_fp
            src = (regs.pick_source(False), regs.pick_source(fp_data))
            mem_addr = sites.address_for(pc, mem_size)
            recent_stores.append(mem_addr)
            if len(recent_stores) > 16:
                del recent_stores[0]
        elif op is OpClass.PREFETCH:
            src = (regs.pick_source(False),)
            mem_addr = sites.address_for(pc, mem_size)
        elif op is OpClass.BRANCH:
            site = branches.pick_site()
            src = (regs.pick_source(False),)
            taken = site.next_outcome(rng)
            target = site.target
            pc = site.pc  # branches live at their site's PC
        elif op is OpClass.CALL:
            target = code.random_block_start()
            taken = True
            call_stack.append(pc + CodeStream.INSTR_BYTES)
        elif op is OpClass.RET:
            taken = True
            target = call_stack.pop() if call_stack else code.random_block_start()
        elif op is OpClass.JUMP:
            taken = True
            target = code.random_block_start()
        elif op is OpClass.NOP:
            pass
        else:  # compute ops
            fp = op in (OpClass.FALU, OpClass.FMUL, OpClass.FDIV)
            src = (regs.pick_source(fp), regs.pick_source(fp))
            dest = regs.pick_dest(fp)

        ins = DynInstr(thread_id, seq, pc, op, src_regs=src, dest_reg=dest,
                       mem_addr=mem_addr, mem_size=mem_size, taken=taken,
                       target=target)
        instrs.append(ins)
        if op.is_control and taken:
            pc = code.jump_to(target)
        else:
            pc = code.advance()

    _mark_dynamically_dead(instrs)
    return ThreadTrace(profile, thread_id, seed, instrs)


def _mark_dynamically_dead(instrs: List[DynInstr]) -> None:
    """Backward liveness pass assigning final ACE classes.

    A destination value is dead when the register is written again before any
    read.  Values still live at the end of the trace are conservatively ACE
    (we cannot see their future consumers).
    """
    INF = len(instrs) + 1
    next_read = [INF] * NUM_ARCH_REGS
    next_write = [INF] * NUM_ARCH_REGS
    for ins in reversed(instrs):
        dead = False
        if ins.dest_reg is not None:
            r = ins.dest_reg
            dead = next_write[r] < next_read[r]
            next_write[r] = ins.seq
        for s in ins.src_regs:
            next_read[s] = ins.seq
        ins.ace = classify_generated(ins.op, dead)


class WrongPathSynthesizer:
    """Generates plausible wrong-path instructions after a misprediction.

    Wrong-path instructions occupy real pipeline resources and access the
    memory hierarchy (cache pollution is a real effect) but their state is
    un-ACE by construction: the paper's methodology classifies mis-speculated
    state as un-ACE.  Wrong paths are control-free so a nested misprediction
    cannot occur inside one.
    """

    def __init__(self, profile: BenchmarkProfile, thread_id: int, seed: int = 1) -> None:
        self._rng = np.random.Generator(np.random.PCG64((seed, thread_id, 0xBAD)))
        self._profile = profile
        self._thread_id = thread_id
        self._data = AddressStream(profile, thread_id, self._rng)
        self._regs = _RegisterChooser(profile, self._rng)
        self._seq = 0

    def fork(self) -> "WrongPathSynthesizer":
        """An independent copy that continues this one's random stream."""
        bit_generator = np.random.PCG64(0)
        bit_generator.state = self._rng.bit_generator.state
        rng = np.random.Generator(bit_generator)
        clone = WrongPathSynthesizer.__new__(WrongPathSynthesizer)
        clone.__dict__.update(self.__dict__)
        clone._rng = rng
        clone._data = self._data.fork(rng)
        clone._regs = self._regs.fork(rng)
        return clone

    def synthesize(self, pc: int) -> DynInstr:
        """Produce the next wrong-path instruction at ``pc``."""
        self._seq -= 1  # negative sequence numbers: never collide with trace
        op = _draw_op(self._profile, self._rng, call_depth=0)
        if op in (OpClass.BRANCH, OpClass.CALL, OpClass.RET, OpClass.JUMP):
            op = OpClass.IALU
        src: Tuple[int, ...] = ()
        dest: Optional[int] = None
        mem_addr = 0
        if op is OpClass.LOAD:
            src = (self._regs.pick_source(False),)
            dest = self._regs.pick_dest(False)
            mem_addr = self._data.next_address()
        elif op in (OpClass.STORE, OpClass.PREFETCH):
            src = (self._regs.pick_source(False),)
            mem_addr = self._data.next_address()
        elif op is not OpClass.NOP:
            fp = op in (OpClass.FALU, OpClass.FMUL, OpClass.FDIV)
            src = (self._regs.pick_source(fp), self._regs.pick_source(fp))
            dest = self._regs.pick_dest(fp)
        return DynInstr(self._thread_id, self._seq, pc, op, src_regs=src,
                        dest_reg=dest, mem_addr=mem_addr,
                        ace=AceClass.WRONG_PATH, wrong_path=True)
