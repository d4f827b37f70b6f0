"""FLUSHP: FLUSH enhanced with L2-miss prediction (paper Section 5).

The paper's closing analysis observes FLUSH's limitation: it reacts only
once the L2 miss is *detected*, hundreds of ACE bits after the offending
load entered the pipeline.  "If the L2 cache misses can be predicted when
the offending instruction enters the pipeline, fetch can be stalled
immediately to ensure that no ACE bits are brought into pipeline."

FLUSHP implements that proposal: a per-thread PC-indexed two-bit-counter
predictor is trained on each load's actual L2 outcome; when a fetched load
is predicted to miss the L2, the thread's fetch gates *at fetch time* —
before the dependent ACE bits exist — and reopens when the load resolves.
Confirmed L2 misses still trigger the normal FLUSH squash, covering the
predictor's misses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set

from repro.fetch.flush import FlushPolicy
from repro.isa.instruction import DynInstr, InstrRemap

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import SMTCore

_PREDICT_MISS_THRESHOLD = 2
_COUNTER_MAX = 3


class PredictiveFlushPolicy(FlushPolicy):
    name = "FLUSHP"

    def __init__(self, table_entries: int = 512) -> None:
        super().__init__()
        self._entries = table_entries
        self._tables: Dict[int, bytearray] = {}
        self._gating: Dict[int, Set[int]] = {}   # thread -> {id(load), ...}
        self.predicted_gates = 0

    def fork(self, remap: InstrRemap) -> "PredictiveFlushPolicy":
        clone = super().fork(remap)
        clone._tables = {tid: bytearray(t) for tid, t in self._tables.items()}
        clone._gating = {tid: {remap.id_of(i) for i in gated}
                         for tid, gated in self._gating.items()}
        return clone

    def _table(self, tid: int) -> bytearray:
        table = self._tables.get(tid)
        if table is None:
            table = bytearray(self._entries)
            self._tables[tid] = table
        return table

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self._entries

    def priorities(self, core: "SMTCore"):
        candidates = [
            tid for tid in core.fetchable_threads()
            if tid not in self._pending and not self._gating.get(tid)
        ]
        if candidates:
            return self.icount_order(core, candidates)
        return self.icount_order(core, core.fetchable_threads())[:1]

    def on_fetch(self, core: "SMTCore", instr: DynInstr) -> None:
        if not instr.is_load or instr.wrong_path:
            return
        table = self._table(instr.thread_id)
        if table[self._index(instr.pc)] >= _PREDICT_MISS_THRESHOLD:
            self._gating.setdefault(instr.thread_id, set()).add(id(instr))
            self.predicted_gates += 1

    def on_load_resolved(self, core: "SMTCore", load: DynInstr) -> None:
        super().on_load_resolved(core, load)
        table = self._table(load.thread_id)
        idx = self._index(load.pc)
        if load.l2_missed:
            table[idx] = min(table[idx] + 1, _COUNTER_MAX)
        elif table[idx] > 0:
            table[idx] -= 1
        self._ungate(load)

    def on_squash(self, core: "SMTCore", instr: DynInstr) -> None:
        super().on_squash(core, instr)
        self._ungate(instr)

    def _ungate(self, instr: DynInstr) -> None:
        gated = self._gating.get(instr.thread_id)
        if gated is not None:
            gated.discard(id(instr))
