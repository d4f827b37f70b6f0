"""The per-run auditor: invariant scheduling plus telemetry, in one object.

``SMTCore`` owns one :class:`SimAuditor` when the run was configured with
``SimConfig(check_invariants=N)`` and/or a ``trace_out`` path.  The auditor
is strictly observation-only: it reads pipeline and ledger state, never
mutates it, so an audited run commits the same instructions in the same
cycles and reports byte-identical AVF numbers to an unaudited one (a
differential test asserts this).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from repro.audit.invariants import InvariantChecker, audit_report
from repro.audit.observe import OccupancyTimeline, StageCounters, TraceWriter
from repro.errors import InvariantViolation

#: Sampling interval used when only tracing (no invariant checking) is on.
DEFAULT_SAMPLE_INTERVAL = 100


class SimAuditor:
    """Runs scheduled invariant audits and records telemetry for one core."""

    def __init__(self, check_every: int = 0,
                 trace_path: Optional[Union[str, Path]] = None,
                 checker: Optional[InvariantChecker] = None,
                 trace_writer: Optional[TraceWriter] = None) -> None:
        if checker is not None:
            self.checker: Optional[InvariantChecker] = checker
        else:
            self.checker = InvariantChecker(check_every) if check_every > 0 else None
        self.sample_every = (self.checker.every if self.checker is not None
                             else DEFAULT_SAMPLE_INTERVAL)
        self.timeline = OccupancyTimeline()
        if trace_writer is not None:
            self.trace: Optional[TraceWriter] = trace_writer
        else:
            self.trace = TraceWriter(trace_path) if trace_path is not None else None
        self.counters = StageCounters()
        self.finalized = False

    # -- cycle hook ----------------------------------------------------------------

    def on_cycle(self, core) -> None:
        """Called by the core at the end of every simulated cycle."""
        if core.cycle % self.sample_every == 0:
            snapshot = self.timeline.sample(core)
            self.counters = StageCounters.from_core(core)
            if self.trace is not None:
                self.trace.emit("sample", core.cycle, occupancy=snapshot,
                                counters=self.counters.to_payload())
        if self.checker is not None:
            self._checked(core, final=False)

    def next_wake(self, cycle: int) -> int:
        """The next sample (and check: ``checker.every`` is the interval)."""
        return (cycle // self.sample_every + 1) * self.sample_every

    def on_finalize(self, core) -> None:
        """Probe-bus lifecycle hook: the run drained, run the final audit."""
        self.finalize(core)

    # -- end of run ----------------------------------------------------------------

    def finalize(self, core) -> None:
        """Final audit after drain: every ledger is closed, no slack left."""
        if self.finalized:
            return
        self.finalized = True
        self.counters = StageCounters.from_core(core)
        self.timeline.sample(core)
        try:
            if self.checker is not None:
                self._checked(core, final=True)
        finally:
            if self.trace is not None:
                self.trace.emit("summary", core.cycle,
                                counters=self.counters.to_payload(),
                                peak_occupancy=dict(self.timeline.peaks),
                                invariant_checks=self.checks_run)
                self.trace.close()

    def audit_final_report(self, report) -> None:
        """Validate the reduced AVF report (thread attribution, bounds)."""
        if self.checker is not None:
            audit_report(report)

    def _checked(self, core, final: bool) -> None:
        try:
            if final:
                self.checker.check(core, final=True)
            else:
                self.checker.maybe_check(core)
        except InvariantViolation as violation:
            if self.trace is not None:
                self.trace.emit("violation", violation.cycle,
                                invariant=violation.invariant,
                                structure=violation.structure,
                                delta=violation.delta,
                                message=str(violation))
                self.trace.close()
            raise

    # -- reporting -----------------------------------------------------------------

    @property
    def checks_run(self) -> int:
        return self.checker.checks_run if self.checker is not None else 0

    def summary_payload(self) -> Dict[str, object]:
        """JSON-safe audit record attached to :class:`SimResult`."""
        payload: Dict[str, object] = {
            "invariant_checks": self.checks_run,
            "check_interval": (self.checker.every
                               if self.checker is not None else 0),
            "violations": 0,  # a violation raises; a report implies none
            "stage_counters": self.counters.to_payload(),
            "peak_occupancy": dict(self.timeline.peaks),
        }
        if self.trace is not None:
            payload["trace_path"] = str(self.trace.path)
            payload["trace_events"] = self.trace.events_written
        return payload
