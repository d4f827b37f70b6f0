"""RAFT: reliability-aware fetch throttling (paper Section 5).

The paper's Section 5 sketches "reliability-aware fetch throttling, which
is built on top of existing fetch schemes and extended with reliability
awareness of individual threads ... to maintain a low AVF while achieving a
high throughput", and "reliability-aware resource allocation [that] avoids
resource abuse by threads with a high fraction of ACE bits within the
pipeline".

RAFT implements the sketch: each thread's *vulnerability pressure* is the
number of pipeline entries (IQ + ROB + LSQ) it currently holds — a direct
proxy for its resident ACE bits.  A thread whose pressure exceeds its fair
share of those resources by ``slack`` is throttled (loses fetch
eligibility) until it drains; the remaining threads are ordered by ICOUNT.
Unlike FLUSH, nothing is squashed: work already done is never discarded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.fetch.base import FetchPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import SMTCore


class ReliabilityAwareThrottlePolicy(FetchPolicy):
    name = "RAFT"

    def __init__(self, slack: float = 1.25) -> None:
        if slack <= 0:
            raise ValueError("slack must be positive")
        self.slack = slack

    def _pressure(self, core: "SMTCore", tid: int) -> int:
        t = core.thread(tid)
        return len(t.rob) + len(t.lsq) + core.issue_queue.thread_count(tid)

    def _fair_share(self, core: "SMTCore") -> float:
        cfg = core.config
        per_thread_pool = (cfg.iq_entries / core.num_threads
                           + cfg.rob_entries + cfg.lsq_entries)
        return self.slack * per_thread_pool / 2.0

    def priorities(self, core: "SMTCore") -> List[int]:
        limit = self._fair_share(core)
        clear = [tid for tid in core.fetchable_threads()
                 if self._pressure(core, tid) <= limit]
        if clear:
            return self.icount_order(core, clear)
        return self.icount_order(core, core.fetchable_threads())[:1]
