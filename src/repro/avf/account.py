"""ACE / un-ACE entry-cycle ledger for one structure.

The pipeline reports *intervals* (an IQ entry occupied cycles 100–130 by an
ACE instruction of thread 2) or *per-cycle samples* (FU 3 busy this cycle on
a wrong-path instruction).  The account reduces everything to three numbers
per thread — ACE entry-cycles, un-ACE entry-cycles — plus idle time implied
by capacity, from which AVF, per-thread AVF contributions and utilisation
all derive.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.errors import StructureError

#: Thread id used for residency not attributable to any context.
NO_THREAD = -1


class VulnerabilityAccount:
    """Entry-cycle ledger for one structure (one copy if shared).

    With ``record_intervals`` enabled, every interval is additionally kept
    verbatim in ``intervals`` as ``(thread, start, end, ace)`` tuples — the
    raw material the auditor's interval replay re-sums to cross-validate
    the summed ledgers (see :func:`repro.audit.check_interval_replay`).
    """

    __slots__ = ("name", "capacity", "ace_cycles", "unace_cycles",
                 "window_start", "intervals", "has_direct_adds",
                 "_threads_cache")

    def __init__(self, name: str, capacity: int,
                 record_intervals: bool = False) -> None:
        if capacity <= 0:
            raise StructureError(f"{name}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.ace_cycles: Dict[int, float] = {}
        self.unace_cycles: Dict[int, float] = {}
        self.window_start = 0
        self.intervals: list | None = [] if record_intervals else None
        #: True once residency has been recorded outside ``add_interval``;
        #: the recorded intervals then no longer cover the whole ledger and
        #: replay-based audits must skip this account.
        self.has_direct_adds = False
        self._threads_cache: "tuple[int, ...] | None" = ()

    # -- recording ---------------------------------------------------------------

    def add(self, thread_id: int, entry_cycles: float, ace: bool) -> None:
        """Record ``entry_cycles`` of residency for ``thread_id``."""
        if entry_cycles < 0:
            raise StructureError(
                f"{self.name}: negative residency sample "
                f"({entry_cycles} entry-cycles for thread {thread_id})")
        self.has_direct_adds = True
        self._accrue(thread_id, entry_cycles, ace)

    def _accrue(self, thread_id: int, entry_cycles: float, ace: bool) -> None:
        if entry_cycles == 0:
            return
        ledger = self.ace_cycles if ace else self.unace_cycles
        if thread_id not in ledger:
            self._threads_cache = None
        ledger[thread_id] = ledger.get(thread_id, 0.0) + entry_cycles

    def add_interval(self, thread_id: int, start: int, end: int, ace: bool,
                     fraction: float = 1.0) -> None:
        """Record residency over ``[start, end)``, clipped to the window."""
        if end < start:
            raise StructureError(
                f"{self.name}: reversed residency interval "
                f"[{start}, {end}) for thread {thread_id}")
        if not 0.0 <= fraction <= 1.0:
            raise StructureError(
                f"{self.name}: residency fraction {fraction} outside [0, 1] "
                f"for thread {thread_id} over [{start}, {end})")
        lo = max(start, self.window_start)
        if end <= lo:
            return
        self._accrue(thread_id, (end - lo) * fraction, ace)
        if self.intervals is not None and fraction > 0:
            self.intervals.append((thread_id, lo, end, ace))
            if fraction != 1.0:
                # Fractional residency is not representable in the verbatim
                # interval log, so replay can no longer reproduce the sums.
                self.has_direct_adds = True

    def reset(self, cycle: int) -> None:
        """Discard accumulated residency; future intervals clip at ``cycle``."""
        self.ace_cycles.clear()
        self.unace_cycles.clear()
        if self.intervals is not None:
            self.intervals.clear()
        self.window_start = cycle
        self.has_direct_adds = False
        self._threads_cache = ()

    def fork(self) -> "VulnerabilityAccount":
        """An independent copy of the ledger."""
        clone = VulnerabilityAccount.__new__(VulnerabilityAccount)
        clone.name = self.name
        clone.capacity = self.capacity
        clone.ace_cycles = dict(self.ace_cycles)
        clone.unace_cycles = dict(self.unace_cycles)
        clone.window_start = self.window_start
        clone.intervals = (list(self.intervals) if self.intervals is not None
                           else None)
        clone.has_direct_adds = self.has_direct_adds
        clone._threads_cache = self._threads_cache
        return clone

    # -- reduction ---------------------------------------------------------------

    def total_ace(self) -> float:
        return sum(self.ace_cycles.values())

    def total_unace(self) -> float:
        return sum(self.unace_cycles.values())

    def occupied_cycles(self) -> float:
        """Total occupied (ACE + un-ACE) entry-cycles in the ledger."""
        return self.total_ace() + self.total_unace()

    def idle_cycles(self, cycles: int) -> float:
        """Idle entry-cycles implied by capacity: the conservation remainder.

        ``ACE + un-ACE + idle == capacity * cycles`` is the ledger's
        conservation law; a negative result means the ledger over-counts
        (the audit layer turns that into an :class:`InvariantViolation`).
        """
        return self.capacity * cycles - self.occupied_cycles()

    def replay_totals(self) -> "tuple[Dict[int, float], Dict[int, float]] | None":
        """Per-thread (ACE, un-ACE) entry-cycles re-derived from the log.

        Returns ``None`` when the log cannot reproduce the ledger: interval
        recording is off, or residency was recorded outside ``add_interval``
        (direct samples, fractional intervals).  Used by the audit layer to
        cross-validate the summed ledgers against an independent replay.
        """
        if self.intervals is None or self.has_direct_adds:
            return None
        ace_sums: Dict[int, float] = {}
        unace_sums: Dict[int, float] = {}
        for thread_id, lo, end, ace in self.intervals:
            ledger = ace_sums if ace else unace_sums
            ledger[thread_id] = ledger.get(thread_id, 0.0) + (end - lo)
        return ace_sums, unace_sums

    def avf(self, cycles: int) -> float:
        """ACE entry-cycles over capacity entry-cycles; always in [0, 1]."""
        if cycles <= 0:
            return 0.0
        return min(self.total_ace() / (self.capacity * cycles), 1.0)

    def thread_avf(self, thread_id: int, cycles: int) -> float:
        """This thread's contribution to the structure's AVF."""
        if cycles <= 0:
            return 0.0
        return min(self.ace_cycles.get(thread_id, 0.0) / (self.capacity * cycles), 1.0)

    def utilization(self, cycles: int) -> float:
        """Occupied (ACE + un-ACE) fraction of capacity entry-cycles."""
        if cycles <= 0:
            return 0.0
        occupied = self.total_ace() + self.total_unace()
        return min(occupied / (self.capacity * cycles), 1.0)

    def threads(self) -> Iterable[int]:
        """Sorted thread ids with recorded residency (cached between writes).

        The sort result is memoised and invalidated only when a ledger gains
        a new thread key — re-sorting on every call was pure waste, since
        the thread population stabilises within the first few cycles.
        """
        if self._threads_cache is None:
            seen = set(self.ace_cycles) | set(self.unace_cycles)
            seen.discard(NO_THREAD)
            self._threads_cache = tuple(sorted(seen))
        return self._threads_cache
