"""FLUSH: squash past an L2-missing load and gate the thread's fetch.

Tullsen & Brown (MICRO 2001).  On detecting an L2 miss, every instruction
the offending thread fetched *after* the missing load is squashed (we flush
from the first instruction following the load, the variant the paper
implements) and the thread's fetch is gated until the miss returns.  The
freed IQ/ROB/LSQ entries and rename registers go to other threads — and,
centrally for this paper, hundreds of cycles of ACE-bit residency are
eliminated, which is why FLUSH slashes IQ/ROB/LSQ AVF in Figure 6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.fetch.base import FetchPolicy
from repro.isa.instruction import DynInstr, InstrRemap

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import SMTCore


class FlushPolicy(FetchPolicy):
    name = "FLUSH"

    def __init__(self) -> None:
        self._pending: Dict[int, DynInstr] = {}  # thread -> gating load
        self.flushes = 0

    def priorities(self, core: "SMTCore") -> List[int]:
        candidates = [tid for tid in core.fetchable_threads() if tid not in self._pending]
        if candidates:
            return self.icount_order(core, candidates)
        all_threads = core.fetchable_threads()
        return self.icount_order(core, all_threads)[:1]

    def fork(self, remap: InstrRemap) -> "FlushPolicy":
        clone = super().fork(remap)
        clone._pending = {tid: remap(load) for tid, load in self._pending.items()}
        return clone

    def on_l2_miss(self, core: "SMTCore", load: DynInstr) -> None:
        tid = load.thread_id
        if tid in self._pending or load.wrong_path or load.squashed:
            return
        core.squash_after(load)
        self._pending[tid] = load
        self.flushes += 1

    def on_load_resolved(self, core: "SMTCore", load: DynInstr) -> None:
        tid = load.thread_id
        if self._pending.get(tid) is load:
            del self._pending[tid]
