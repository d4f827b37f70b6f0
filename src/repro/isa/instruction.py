"""Dynamic instruction record flowing through the pipeline.

A :class:`DynInstr` is produced by the trace generator (correct path) or the
wrong-path synthesiser (after a branch misprediction) and then annotated by
the pipeline as it moves through the machine.  The AVF engine reads the
``ace`` classification and the pipeline-stamped timestamps to compute ACE-bit
residency per structure.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.opcodes import OpClass


class AceClass(Enum):
    """Architecturally-correct-execution classification of an instruction.

    Mirrors the un-ACE categories of Mukherjee et al. (MICRO 2003): besides
    fully ACE instructions, state is un-ACE when it belongs to NOPs,
    performance-enhancing operations (prefetches), dynamically dead
    instructions, or wrong-path (mis-speculated) instructions.
    """

    ACE = auto()
    NOP = auto()
    PREFETCH = auto()
    DYN_DEAD = auto()   # result overwritten before any consumer reads it
    WRONG_PATH = auto()

    @property
    def is_ace(self) -> bool:
        return self is AceClass.ACE


_ACE = AceClass.ACE


class DynInstr:
    """One dynamic instruction instance.

    Trace-generator fields are immutable in spirit; the pipeline mutates only
    the bookkeeping fields below the ``--- pipeline state ---`` marker.
    """

    __slots__ = (
        # --- trace fields ---
        "thread_id", "seq", "pc", "op", "src_regs", "dest_reg",
        "mem_addr", "mem_size", "taken", "target", "ace",
        "wrong_path",
        # --- pipeline state ---
        "fetched_at", "renamed_at", "issued_at", "completed_at", "committed_at",
        "phys_dest", "old_phys_dest", "phys_srcs",
        "rob_index", "lsq_index",
        "squashed", "mispredicted", "dl1_missed", "l2_missed",
        "mem_ready_at", "fetch_stamp", "prediction", "pending_srcs",
        "value_tag",
    )

    def __init__(
        self,
        thread_id: int,
        seq: int,
        pc: int,
        op: OpClass,
        src_regs: Tuple[int, ...] = (),
        dest_reg: Optional[int] = None,
        mem_addr: int = 0,
        mem_size: int = 8,
        taken: bool = False,
        target: int = 0,
        ace: AceClass = AceClass.ACE,
        wrong_path: bool = False,
    ) -> None:
        self.thread_id = thread_id
        self.seq = seq
        self.pc = pc
        self.op = op
        self.src_regs = src_regs
        self.dest_reg = dest_reg
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.taken = taken
        self.target = target
        self.ace = ace
        self.wrong_path = wrong_path

        self.fetched_at = -1
        self.renamed_at = -1
        self.issued_at = -1
        self.completed_at = -1
        self.committed_at = -1
        self.phys_dest: Optional[int] = None
        self.old_phys_dest: Optional[int] = None
        self.phys_srcs: Tuple[int, ...] = ()
        self.rob_index = -1
        self.lsq_index = -1
        self.squashed = False
        self.mispredicted = False
        self.dl1_missed = False
        self.l2_missed = False
        self.mem_ready_at = -1
        self.fetch_stamp = -1    # per-thread monotonic fetch order (squash boundary)
        self.prediction = None   # BranchPrediction attached at fetch (control ops)
        self.pending_srcs = 0    # un-produced renamed sources (issue wakeup)
        self.value_tag = 0       # taint accumulator for live fault injection

    # -- classification helpers ------------------------------------------------

    @property
    def is_ace(self) -> bool:
        """True when soft-error strikes on this instruction's state matter.

        Squashed and wrong-path instructions are never ACE regardless of how
        they were classified at generation time.
        """
        return self.ace is _ACE and not self.squashed and not self.wrong_path

    # Static op facts, for callers off the hot path; the pipeline reads
    # them straight off the op class (``instr.op.is_memory``).

    @property
    def is_memory(self) -> bool:
        return self.op.is_memory

    @property
    def is_load(self) -> bool:
        return self.op.is_load

    @property
    def is_store(self) -> bool:
        return self.op.is_store

    @property
    def is_control(self) -> bool:
        return self.op.is_control

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            ch
            for ch, cond in (
                ("W", self.wrong_path),
                ("S", self.squashed),
                ("M", self.mispredicted),
            )
            if cond
        )
        return (
            f"DynInstr(t{self.thread_id}#{self.seq} {self.op.name} pc={self.pc:#x}"
            f" ace={self.ace.name}{' ' + flags if flags else ''})"
        )


def _compile_cloner():
    """Compile ``clone_instrs(instrs)``: independent copies, in order.

    Generated from ``__slots__`` so a new field can never be left out, and
    unrolled so a copy costs one attribute load and store per slot — an
    order of magnitude cheaper than ``copy.copy`` or pickling.
    """
    body = "".join(f"        c.{s} = i.{s}\n" for s in DynInstr.__slots__)
    src = ("def clone_instrs(instrs):\n    out = []\n"
           "    for i in instrs:\n        c = _new(_cls)\n"
           f"{body}        out.append(c)\n    return out\n")
    namespace = {"_new": object.__new__, "_cls": DynInstr}
    exec(src, namespace)  # noqa: S102 - source built from __slots__ only
    return namespace["clone_instrs"]


clone_instrs = _compile_cloner()


class InstrRemap:
    """Maps a core's instructions to their counterparts in a fork of it.

    Correct-path instructions resolve by (thread, seq) into the fork's
    trace lists — a trace's ``seq`` is its index — which hold a copy
    inside each thread's cloned ``window`` (``lo, hi``) and the very same
    object outside it.  Wrong-path instructions (negative ``seq``, never
    in a trace) are copied on first sight and memoized, so every
    structure holding one gets the same copy.
    """

    __slots__ = ("_old", "_new", "_windows", "_wrong", "_ids")

    def __init__(self, old: Sequence[List[DynInstr]],
                 new: Sequence[List[DynInstr]],
                 windows: Sequence[Tuple[int, int]]) -> None:
        self._old = old
        self._new = new
        self._windows = windows
        self._wrong: Dict[int, DynInstr] = {}
        self._ids: Optional[Dict[int, DynInstr]] = None

    def __call__(self, instr: DynInstr) -> DynInstr:
        if instr.seq >= 0:
            return self._new[instr.thread_id][instr.seq]
        copy = self._wrong.get(id(instr))
        if copy is None:
            copy = self._wrong[id(instr)] = clone_instrs((instr,))[0]
        return copy

    def id_of(self, old_id: int) -> int:
        """Remap an ``id()`` a policy keyed its state by.

        Call after every structure is copied, so wrong-path instructions
        the structures hold are already memoized.  An id that names no
        copied instruction (one both cores share, or none at all) is
        returned unchanged.
        """
        if self._ids is None:
            self._ids = {id(o): n
                         for old, new, (lo, hi) in zip(self._old, self._new,
                                                       self._windows)
                         for o, n in zip(old[lo:hi], new[lo:hi])}
        copy = self._wrong.get(old_id) or self._ids.get(old_id)
        return id(copy) if copy is not None else old_id


def classify_generated(op: OpClass, dynamically_dead: bool) -> AceClass:
    """ACE class assigned by the trace generator for a correct-path instruction."""
    if op is OpClass.NOP:
        return AceClass.NOP
    if op is OpClass.PREFETCH:
        return AceClass.PREFETCH
    if dynamically_dead:
        return AceClass.DYN_DEAD
    return AceClass.ACE
