"""Verbatim residency log: the raw material of the ledgers' interval replay.

The :class:`IntervalRecorder` is a plain :class:`~repro.instrument.probe.
ResidencyProbe` subscriber that keeps every residency event as a
``(thread, start, end, ace)`` tuple, per structure, clipped to the
measurement window exactly as the AVF ledgers clip their accruals.  The
audit layer replays these logs to cross-validate the summed ledgers,
independently of the ledger arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.instrument.structures import PROBE_STRUCTURES, Structure

#: One logged residency event: (thread, clipped start, end, ace).
Interval = Tuple[int, int, int, bool]


def reg_lifetime_segments(alloc: int, written: int, last_read: int,
                          freed: int, ace: bool) -> Tuple[Tuple[int, int, bool], ...]:
    """Decompose one register lifetime into ``(start, end, ace)`` segments.

    The paper's register life-cycle analysis: ``[alloc, written)`` holds no
    valid data (un-ACE); ``[written, last_read)`` is ACE when the value has
    ACE consumers; the remainder until ``freed`` is un-ACE.  A register
    squashed before producing a value (``written < 0``) is un-ACE
    throughout.  Both the AVF engine and the interval recorder consume this
    one decomposition, so ledger accrual and the verbatim log can never
    disagree on segment boundaries.
    """
    if written < 0:
        return ((alloc, freed, False),)
    if ace and last_read > written:
        end_ace = min(last_read, freed)
        return ((alloc, min(written, freed), False),
                (written, end_ace, True),
                (end_ace, freed, False))
    return ((alloc, min(written, freed), False),
            (min(written, freed), freed, False))


class IntervalRecorder:
    """Keeps every bus residency event verbatim, per structure.

    Window clipping matches :meth:`VulnerabilityAccount.add_interval`
    exactly — ``lo = max(start, window_start)``, zero-length results are
    dropped — so a replayed sum reproduces the ledger bit-for-bit.
    """

    __slots__ = ("window_start", "_logs")

    def __init__(self) -> None:
        self.window_start = 0
        self._logs: Dict[Structure, List[Interval]] = {
            s: [] for s in PROBE_STRUCTURES
        }

    # -- ResidencyProbe ----------------------------------------------------------

    def occupy(self, structure: Structure, thread_id: int, start: int,
               end: int, ace: bool) -> None:
        lo = start if start > self.window_start else self.window_start
        if end > lo:
            self._logs[structure].append((thread_id, lo, end, ace))

    def fu_busy_cycle(self, thread_id: int, ace: bool, cycle: int = -1) -> None:
        if cycle >= 0:
            self.occupy(Structure.FU, thread_id, cycle, cycle + 1, ace)

    def reg_lifetime(self, thread_id: int, alloc: int, written: int,
                     last_read: int, freed: int, ace: bool) -> None:
        for start, end, seg_ace in reg_lifetime_segments(
                alloc, written, last_read, freed, ace):
            self.occupy(Structure.REG, thread_id, start, end, seg_ace)

    # -- lifecycle ---------------------------------------------------------------

    def on_reset(self, cycle: int) -> None:
        """Measurement window restarted: drop pre-window events."""
        for log in self._logs.values():
            log.clear()
        self.window_start = cycle

    # -- consumers ---------------------------------------------------------------

    def intervals(self, structure: Structure) -> List[Interval]:
        """All logged events for ``structure`` (every thread, log order)."""
        return self._logs[structure]

    def replay_totals(self, structure: Structure) -> Tuple[Dict[int, float],
                                                           Dict[int, float]]:
        """Per-thread (ACE, un-ACE) entry-cycles re-summed from the log."""
        ace_sums: Dict[int, float] = {}
        unace_sums: Dict[int, float] = {}
        for thread_id, lo, end, ace in self._logs[structure]:
            ledger = ace_sums if ace else unace_sums
            ledger[thread_id] = ledger.get(thread_id, 0.0) + (end - lo)
        return ace_sums, unace_sums

    def __repr__(self) -> str:
        events = sum(len(log) for log in self._logs.values())
        return (f"IntervalRecorder({events} events, "
                f"window_start={self.window_start})")
