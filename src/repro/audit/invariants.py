"""Runtime conservation-law audits over the pipeline and the AVF engine.

Every AVF number the simulator reports reduces to entry-cycle ledgers that
must obey conservation laws the normal fast path never verifies:

* structure occupancy never exceeds capacity (ROB, LSQ, IQ, register file);
* per-account ledger totals never exceed ``capacity x elapsed cycles`` —
  equivalently, the implied idle time is non-negative, so
  ``ACE + un-ACE + idle == capacity x cycles`` holds exactly;
* the summed ledgers match an independent replay of the recorded residency
  intervals (the interval recorder every audited run carries);
* per-thread AVF contributions are consistent with the structure AVF;
* committed-instruction counts agree between the pipeline and the metrics.

Checks are plain functions ``check(core, cycle)`` raising
:class:`InvariantViolation` on drift, so campaigns and tests can register
their own.  :class:`InvariantChecker` schedules them every N cycles.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.avf.structures import (PRIVATE_STRUCTURES, PROBE_STRUCTURES,
                                  SHARED_STRUCTURES, Structure)
from repro.errors import InvariantViolation

#: One audit: raises InvariantViolation when its law does not hold.
Check = Callable[["SMTCore", int], None]  # noqa: F821  (forward ref)

#: Absolute slack for float ledger comparisons (sums of many small adds).
_ABS_EPS = 1e-6
#: Relative slack for large ledger totals.
_REL_EPS = 1e-9


def _tolerance(budget: float) -> float:
    return _ABS_EPS + _REL_EPS * abs(budget)


def check_occupancy(core, cycle: int) -> None:
    """No structure ever holds more entries than its capacity."""
    iq = core.issue_queue
    if len(iq) > iq.capacity:
        raise InvariantViolation("occupancy<=capacity", "IQ", cycle,
                                 len(iq) - iq.capacity,
                                 f"{len(iq)} entries in a {iq.capacity}-entry queue")
    per_thread = sum(iq.thread_count(t.id) for t in core.threads)
    if per_thread != len(iq):
        raise InvariantViolation(
            "iq-per-thread-counts", "IQ", cycle, per_thread - len(iq),
            f"per-thread counts sum to {per_thread}, queue holds {len(iq)}")
    for t in core.threads:
        if len(t.rob) > t.rob.capacity:
            raise InvariantViolation(
                "occupancy<=capacity", f"ROB[t{t.id}]", cycle,
                len(t.rob) - t.rob.capacity)
        if len(t.lsq) > t.lsq.capacity:
            raise InvariantViolation(
                "occupancy<=capacity", f"LSQ[t{t.id}]", cycle,
                len(t.lsq) - t.lsq.capacity)
    rf = core.regfile
    pool = rf.int_regs + rf.fp_regs
    accounted = rf.allocated_count() + rf.free_count(False) + rf.free_count(True)
    if accounted != pool:
        raise InvariantViolation(
            "regfile-pool-conservation", "Reg", cycle, accounted - pool,
            f"allocated + free = {accounted}, pool holds {pool} registers")


def check_ledger_conservation(core, cycle: int) -> None:
    """ACE + un-ACE + idle == capacity x elapsed cycles, per account.

    Residency is accrued with one-cycle granularity and the FU ledger counts
    the in-progress cycle as ``[cycle, cycle + 1)``, so the budget uses
    ``cycle + 1`` — an over-count must exceed that one-cycle slack (as any
    real double-count quickly does) to fire mid-run; the end-of-run check
    has no such slack left to hide in.
    """
    for structure, tid, account in core.engine.iter_accounts():
        name = account.name
        elapsed = max(0, (cycle + 1) - account.window_start)
        budget = account.capacity * elapsed
        occupied = account.occupied_cycles()
        if occupied > budget + _tolerance(budget):
            raise InvariantViolation(
                "ledger-conservation", name, cycle, occupied - budget,
                f"{occupied:.3f} occupied entry-cycles exceed capacity "
                f"{account.capacity} x {elapsed} elapsed cycles")
        for ledger_name, ledger in (("ACE", account.ace_cycles),
                                    ("un-ACE", account.unace_cycles)):
            for thread_id, value in ledger.items():
                if value < -_ABS_EPS:
                    raise InvariantViolation(
                        "ledger-non-negative", name, cycle, value,
                        f"{ledger_name} ledger of thread {thread_id} is negative")


def check_commit_agreement(core, cycle: int) -> None:
    """Pipeline and per-thread committed-instruction counts agree."""
    per_thread = sum(t.committed for t in core.threads)
    if per_thread != core.total_committed:
        raise InvariantViolation(
            "commit-agreement", "pipeline", cycle,
            per_thread - core.total_committed,
            f"threads committed {per_thread}, core counted {core.total_committed}")


def check_interval_replay(core, cycle: int) -> None:
    """Summed ledgers match an independent replay of the recorded intervals.

    The probe bus's :class:`~repro.instrument.recorder.IntervalRecorder`
    (subscribed by every session with ``SimConfig(check_invariants=N)``,
    N > 0) covers every bus-fed structure; a core without one is not
    checked.  Cache/TLB observers record aggregate samples, not intervals,
    and are skipped.  A double-counted ledger entry shows up here exactly:
    the replayed sum no longer matches.  Cost is proportional to the number
    of recorded intervals, so the scheduler runs this only on the final
    check.
    """
    recorder = getattr(getattr(core, "instruments", None), "recorder", None)
    if recorder is None:
        return
    replay_by_structure = {s: recorder.replay_totals(s)
                           for s in PROBE_STRUCTURES}
    for structure, tid, account in core.engine.iter_accounts():
        if structure not in replay_by_structure:
            continue
        replayed = replay_by_structure[structure]
        if tid is None:
            thread_ids = (set(account.ace_cycles) | set(account.unace_cycles)
                          | set(replayed[0]) | set(replayed[1]))
        else:
            thread_ids = {tid}
        _compare_replay(account, replayed, thread_ids, cycle)


def _compare_replay(account, replayed, thread_ids: Iterable[int],
                    cycle: int) -> None:
    """Raise unless the account's ledgers equal the replayed per-thread sums."""
    ace_sums, unace_sums = replayed
    for ledger_name, ledger, replay in (
            ("ACE", account.ace_cycles, ace_sums),
            ("un-ACE", account.unace_cycles, unace_sums)):
        for thread_id in thread_ids:
            recorded = ledger.get(thread_id, 0.0)
            independent = replay.get(thread_id, 0.0)
            if not math.isclose(recorded, independent,
                                rel_tol=_REL_EPS,
                                abs_tol=_tolerance(independent)):
                raise InvariantViolation(
                    "interval-replay", account.name, cycle,
                    recorded - independent,
                    f"{ledger_name} ledger of thread {thread_id} holds "
                    f"{recorded:.3f} entry-cycles, interval replay "
                    f"yields {independent:.3f}")


def audit_report(report) -> None:
    """Validate a finished :class:`~repro.avf.report.AvfReport`.

    Checks that every AVF and utilisation lies in [0, 1], that AVF never
    exceeds utilisation (ACE residency is a subset of occupancy), and that
    per-thread contributions are consistent with the structure AVF: they sum
    to it for shared structures and average to it for private ones (modulo
    the clamp at 1.0, which can only lower the reported structure value).
    """
    cycle = report.cycles
    for structure, avf in report.avf.items():
        name = structure.value
        util = report.utilization.get(structure, 0.0)
        if not 0.0 <= avf <= 1.0:
            raise InvariantViolation("avf-in-unit-interval", name, cycle, avf)
        if not 0.0 <= util <= 1.0:
            raise InvariantViolation("utilization-in-unit-interval", name,
                                     cycle, util)
        if avf > util + _tolerance(util):
            raise InvariantViolation(
                "avf<=utilization", name, cycle, avf - util,
                f"AVF {avf:.6f} exceeds utilisation {util:.6f}")
        per_thread = report.thread_avf.get(structure)
        if not per_thread:
            continue
        clamped = any(v >= 1.0 for v in per_thread.values())
        if structure in SHARED_STRUCTURES:
            total = sum(per_thread.values())
            # Clamping only ever lowers values, so an unclamped sum must
            # reproduce the structure AVF exactly (modulo float rounding)
            # and a clamped one may only fall below it.
            if total > 1.0 + _tolerance(1.0) and avf < 1.0:
                raise InvariantViolation(
                    "thread-avf-attribution", name, cycle, total - avf,
                    f"thread contributions sum to {total:.6f} with structure "
                    f"AVF {avf:.6f}")
            if not clamped and avf < 1.0 and not math.isclose(
                    total, avf, rel_tol=_REL_EPS, abs_tol=_tolerance(avf)):
                raise InvariantViolation(
                    "thread-avf-attribution", name, cycle, total - avf,
                    f"thread contributions sum to {total:.6f}, structure "
                    f"AVF is {avf:.6f}")
        elif structure in PRIVATE_STRUCTURES:
            mean = sum(per_thread.values()) / len(per_thread)
            if not math.isclose(mean, avf, rel_tol=_REL_EPS,
                                abs_tol=_tolerance(avf)):
                raise InvariantViolation(
                    "thread-avf-attribution", name, cycle, mean - avf,
                    f"per-context AVFs average to {mean:.6f}, structure "
                    f"AVF is {avf:.6f}")


#: Cheap checks run at every scheduled audit point.
DEFAULT_CHECKS: Tuple[Check, ...] = (
    check_occupancy,
    check_ledger_conservation,
    check_commit_agreement,
)

#: Additional checks run once, at end of simulation (cost ~ run length).
FINAL_CHECKS: Tuple[Check, ...] = (check_interval_replay,)


class InvariantChecker:
    """Schedules audits every ``every`` cycles over a running core.

    Pluggable: pass extra ``checks`` (run each audit point) or
    ``final_checks`` (run once, after drain).  Violations raise — the
    simulation stops at the first inconsistency with a cycle-exact report —
    so a completed run's ``checks_run`` count certifies a clean audit trail.
    """

    def __init__(self, every: int = 1,
                 checks: Optional[Sequence[Check]] = None,
                 final_checks: Optional[Sequence[Check]] = None) -> None:
        if every < 1:
            raise ValueError("check interval must be >= 1")
        self.every = every
        self.checks: Tuple[Check, ...] = tuple(checks or DEFAULT_CHECKS)
        self.final_checks: Tuple[Check, ...] = tuple(
            final_checks if final_checks is not None else FINAL_CHECKS)
        self.checks_run = 0
        self.last_checked_cycle = -1

    def maybe_check(self, core) -> None:
        """Run the periodic checks when the core's cycle hits the interval."""
        if core.cycle % self.every == 0:
            self.check(core)

    def check(self, core, final: bool = False) -> None:
        cycle = core.cycle
        for check in self.checks:
            check(core, cycle)
        if final:
            for check in self.final_checks:
                check(core, cycle)
        self.checks_run += 1
        self.last_checked_cycle = cycle
