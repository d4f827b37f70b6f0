"""PDG (predictive data gating): gate on *predicted* L1-data misses.

El-Moursy & Albonesi (HPCA 2003).  DG only reacts once a load has executed
and missed — several cycles after fetch.  PDG predicts, at fetch time, which
loads will miss (a per-thread table of two-bit saturating counters indexed
by load PC, trained on actual outcomes) and counts a predicted-missing load
as an outstanding miss from the moment it is fetched, closing DG's
detection-delay window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set

from repro.fetch.base import FetchPolicy
from repro.isa.instruction import DynInstr, InstrRemap

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import SMTCore

_PREDICT_MISS_THRESHOLD = 2
_COUNTER_MAX = 3


class PredictiveDataGatingPolicy(FetchPolicy):
    name = "PDG"

    def __init__(self, threshold: int = 2, table_entries: int = 512) -> None:
        self.threshold = threshold
        self._entries = table_entries
        self._tables: Dict[int, bytearray] = {}   # thread -> counter table
        self._predicted: Dict[int, int] = {}      # thread -> predicted-miss count
        self._flagged: Set[int] = set()           # id(instr) of counted loads

    def fork(self, remap: InstrRemap) -> "PredictiveDataGatingPolicy":
        clone = super().fork(remap)
        clone._tables = {tid: bytearray(t) for tid, t in self._tables.items()}
        clone._predicted = dict(self._predicted)
        clone._flagged = {remap.id_of(i) for i in self._flagged}
        return clone

    def _table(self, tid: int) -> bytearray:
        table = self._tables.get(tid)
        if table is None:
            table = bytearray(self._entries)
            self._tables[tid] = table
        return table

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self._entries

    def priorities(self, core: "SMTCore") -> List[int]:
        clear = [tid for tid in core.fetchable_threads()
                 if self._predicted.get(tid, 0) < self.threshold]
        return self.icount_order(core, clear)

    def on_fetch(self, core: "SMTCore", instr: DynInstr) -> None:
        if not instr.op.is_load or id(instr) in self._flagged:
            return
        table = self._table(instr.thread_id)
        if table[self._index(instr.pc)] >= _PREDICT_MISS_THRESHOLD:
            self._predicted[instr.thread_id] = self._predicted.get(instr.thread_id, 0) + 1
            self._flagged.add(id(instr))

    def on_load_resolved(self, core: "SMTCore", load: DynInstr) -> None:
        table = self._table(load.thread_id)
        idx = self._index(load.pc)
        if load.dl1_missed:
            table[idx] = min(table[idx] + 1, _COUNTER_MAX)
        elif table[idx] > 0:
            table[idx] -= 1
        self._unflag(load)

    def on_squash(self, core: "SMTCore", instr: DynInstr) -> None:
        # A flagged load that dies before executing will never resolve; the
        # gate count must be released here or the thread stays gated forever.
        self._unflag(instr)

    def _unflag(self, instr: DynInstr) -> None:
        if id(instr) in self._flagged:
            self._flagged.discard(id(instr))
            self._predicted[instr.thread_id] -= 1
