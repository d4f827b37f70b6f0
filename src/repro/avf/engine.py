"""AVF engine: owns every structure's ledger and builds the final report.

Shared structures (IQ, FU, register file, DL1, DTLB) have a single account;
per-thread structures (ROB, LSQ) have one account per context, and their
reported structure AVF is the mean over contexts (each context owns a
private copy of the hardware).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.avf.account import VulnerabilityAccount
from repro.avf.bits import structure_capacity
from repro.avf.cache_avf import Dl1AvfObserver, DtlbAvfObserver
from repro.avf.report import AvfReport
from repro.avf.structures import PRIVATE_STRUCTURES, SHARED_STRUCTURES, Structure
from repro.config import MachineConfig
from repro.errors import StructureError
from repro.instrument.recorder import reg_lifetime_segments


class AvfEngine:
    """Central ACE-bit accounting for one simulation."""

    def __init__(self, config: MachineConfig, num_threads: int,
                 record_intervals: bool = False) -> None:
        self.config = config
        self.num_threads = num_threads
        self.record_intervals = record_intervals
        self._shared: Dict[Structure, VulnerabilityAccount] = {}
        self._private: Dict[Structure, Dict[int, VulnerabilityAccount]] = {}
        for structure in Structure:
            capacity = structure_capacity(structure, config, num_threads)
            if structure in SHARED_STRUCTURES:
                self._shared[structure] = VulnerabilityAccount(
                    structure.value, capacity, record_intervals)
            else:
                self._private[structure] = {
                    tid: VulnerabilityAccount(f"{structure.value}[t{tid}]",
                                              capacity, record_intervals)
                    for tid in range(num_threads)
                }
        self.dl1_observer = Dl1AvfObserver(
            self._shared[Structure.DL1_DATA], self._shared[Structure.DL1_TAG]
        )
        self.dtlb_observer = DtlbAvfObserver(self._shared[Structure.DTLB])

    # -- account access ------------------------------------------------------------

    def account(self, structure: Structure,
                thread_id: Optional[int] = None) -> VulnerabilityAccount:
        """The ledger for ``structure`` (``thread_id`` required if private)."""
        if structure in SHARED_STRUCTURES:
            return self._shared[structure]
        if thread_id is None:
            raise StructureError(f"{structure} is per-thread; thread_id required")
        return self._private[structure][thread_id]

    # -- accrual shortcuts used by the pipeline -------------------------------------

    def occupy(self, structure: Structure, thread_id: int, start: int, end: int,
               ace: bool) -> None:
        """Record one entry of ``structure`` occupied over ``[start, end)``."""
        # Hot path (every structure deallocation): resolve the account with
        # two dict probes instead of a frozenset test plus a method call.
        account = self._shared.get(structure)
        if account is None:
            account = self._private[structure][thread_id]
        account.add_interval(thread_id, start, end, ace)

    def fu_busy_cycle(self, thread_id: int, ace: bool, cycle: int = -1) -> None:
        """Record one functional unit busy for one cycle."""
        account = self._shared[Structure.FU]
        if account.intervals is not None and cycle >= 0:
            account.add_interval(thread_id, cycle, cycle + 1, ace)
        else:
            account.add(thread_id, 1.0, ace)

    def reg_lifetime(self, thread_id: int, alloc: int, written: int,
                     last_read: int, freed: int, ace: bool) -> None:
        """Record one physical register's full allocation lifetime.

        [alloc, written) holds no valid data (un-ACE, per the paper's register
        life-cycle analysis); [written, last_read) is ACE when the value has
        ACE consumers; the remainder until ``freed`` is un-ACE.
        """
        account = self._shared[Structure.REG]
        for start, end, seg_ace in reg_lifetime_segments(
                alloc, written, last_read, freed, ace):
            account.add_interval(thread_id, start, end, seg_ace)

    def reset(self, cycle: int) -> None:
        """Zero all ledgers (end-of-warmup)."""
        for account in self._shared.values():
            account.reset(cycle)
        for per_thread in self._private.values():
            for account in per_thread.values():
                account.reset(cycle)

    def on_reset(self, cycle: int) -> None:
        """Probe-bus lifecycle hook: the measurement window restarted."""
        self.reset(cycle)

    def fork(self) -> "AvfEngine":
        """An independent copy of every ledger, with cache/TLB observers
        feeding the copies (for :meth:`SMTCore.fork`)."""
        clone = AvfEngine.__new__(AvfEngine)
        clone.__dict__.update(self.__dict__)
        clone._shared = {s: a.fork() for s, a in self._shared.items()}
        clone._private = {s: {tid: a.fork() for tid, a in per_thread.items()}
                          for s, per_thread in self._private.items()}
        clone.dl1_observer = Dl1AvfObserver(
            clone._shared[Structure.DL1_DATA], clone._shared[Structure.DL1_TAG])
        clone.dtlb_observer = DtlbAvfObserver(clone._shared[Structure.DTLB])
        return clone

    # -- reduction -------------------------------------------------------------------

    def report(self, cycles: int) -> AvfReport:
        """Reduce all ledgers into an :class:`AvfReport` over ``cycles``."""
        return AvfReport.from_engine(self, cycles)

    def iter_accounts(self):
        """Yield ``(structure, thread_id, account)`` for every ledger.

        ``thread_id`` is ``None`` for shared structures.  The audit layer
        walks this to apply conservation checks uniformly.
        """
        for structure, account in self._shared.items():
            yield structure, None, account
        for structure, per_thread in self._private.items():
            for tid, account in per_thread.items():
                yield structure, tid, account

    @property
    def shared_accounts(self) -> Dict[Structure, VulnerabilityAccount]:
        return dict(self._shared)

    @property
    def private_accounts(self) -> Dict[Structure, Dict[int, VulnerabilityAccount]]:
        return {s: dict(a) for s, a in self._private.items()}
