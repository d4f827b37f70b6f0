"""Combined per-thread branch unit: gshare direction + BTB target + RAS.

The pipeline is trace-driven, so the *actual* outcome of every control
instruction is known from the trace; this unit provides the *prediction*,
and a misprediction (wrong direction, or taken with a wrong/unknown target)
triggers wrong-path fetch until the branch resolves in the execute stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import BranchConfig
from repro.isa.instruction import DynInstr
from repro.isa.opcodes import OpClass
from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.ras import ReturnAddressStack


@dataclass
class BranchPrediction:
    """Everything needed to detect and recover from a misprediction."""

    taken: bool
    target: Optional[int]           # None: taken predicted but target unknown
    history_checkpoint: int
    ras_snapshot: Optional[List[int]]

    def mispredicts(self, instr: DynInstr) -> bool:
        """True when this prediction disagrees with the trace outcome."""
        if self.taken != instr.taken:
            return True
        if instr.taken and self.target != instr.target:
            return True
        return False


class BranchUnit:
    """One thread's complete front-end prediction state."""

    def __init__(self, config: BranchConfig) -> None:
        self.gshare = GsharePredictor(config.gshare_entries, config.history_bits)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_assoc)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, instr: DynInstr) -> BranchPrediction:
        """Predict the control instruction at fetch time."""
        self.predictions += 1
        ras_snapshot: Optional[List[int]] = None
        if instr.op is OpClass.BRANCH:
            taken, checkpoint = self.gshare.predict(instr.pc)
            target = self.btb.lookup(instr.pc) if taken else None
            return BranchPrediction(taken, target, checkpoint, ras_snapshot)
        # Unconditional control: direction is always taken.
        checkpoint = self.gshare.history  # history untouched for non-conditionals
        if instr.op is OpClass.CALL:
            ras_snapshot = self.ras.snapshot()
            self.ras.push(instr.pc + 4)
            target = self.btb.lookup(instr.pc)
        elif instr.op is OpClass.RET:
            ras_snapshot = self.ras.snapshot()
            target = self.ras.pop()
        else:  # JUMP
            target = self.btb.lookup(instr.pc)
        return BranchPrediction(True, target, checkpoint, ras_snapshot)

    def resolve(self, instr: DynInstr, prediction: BranchPrediction) -> bool:
        """Train predictors at branch resolution; returns True on mispredict.

        On a misprediction the speculative gshare history is repaired and,
        for call/return instructions, the RAS is restored to its pre-fetch
        state and replayed with the correct outcome.
        """
        mispredicted = prediction.mispredicts(instr)
        if instr.op is OpClass.BRANCH:
            self.gshare.resolve(instr.pc, instr.taken, prediction.taken,
                                prediction.history_checkpoint)
        if instr.taken:
            self.btb.update(instr.pc, instr.target)
        if mispredicted:
            self.mispredictions += 1
            if prediction.ras_snapshot is not None:
                self.ras.restore(prediction.ras_snapshot)
                if instr.op is OpClass.CALL:
                    self.ras.push(instr.pc + 4)
                elif instr.op is OpClass.RET:
                    self.ras.pop()
        return mispredicted

    def fork(self) -> "BranchUnit":
        """An independent copy.  Predictions already handed out are shared:
        nothing mutates a :class:`BranchPrediction` after it is made."""
        clone = BranchUnit.__new__(BranchUnit)
        clone.__dict__.update(self.__dict__)
        clone.gshare = self.gshare.fork()
        clone.btb = self.btb.fork()
        clone.ras = self.ras.fork()
        return clone

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.predictions if self.predictions else 0.0
