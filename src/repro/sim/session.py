"""Unified simulation session: one owner for trace building, observer
wiring, core construction and result packaging.

Every harness that runs the cycle kernel — :func:`repro.sim.simulate`,
live fault injection and the RMT harness — goes through
:class:`SimSession`, so the wiring of the probe bus (ledger, interval
recorder, phase tracker, auditor, trace writer) exists in exactly one
place.  The kernel itself (:class:`repro.pipeline.core.SMTCore`) only ever
sees the narrow :class:`repro.instrument.Instrumentation` container this
session assembles.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.audit.auditor import SimAuditor
from repro.audit.observe import TraceWriter
from repro.avf.engine import AvfEngine
from repro.avf.phases import PhaseTracker
from repro.config import DEFAULT_CONFIG, MachineConfig, SimConfig
from repro.errors import ConfigError, SimulationError, WorkloadError
from repro.fetch.base import FetchPolicy
from repro.fetch.registry import create_policy
from repro.instrument import IntervalRecorder, ProbeBus
from repro.isa.opcodes import OpClass
from repro.pipeline.core import SMTCore
from repro.sim.results import SimResult, ThreadResult
from repro.workload.address_stream import is_non_temporal
from repro.workload.generator import ThreadTrace, generate_trace
from repro.workload.mixes import WorkloadMix
from repro.workload.spec2000 import get_profile

WorkloadSpec = Union[WorkloadMix, Sequence[str]]


def _program_names(workload: WorkloadSpec) -> List[str]:
    if isinstance(workload, WorkloadMix):
        return list(workload.programs)
    names = list(workload)
    if not names:
        raise WorkloadError("workload must contain at least one program")
    return names


TraceIdentity = Tuple[Tuple[str, ...], int, int]


def trace_identity(workload: WorkloadSpec, sim: SimConfig) -> TraceIdentity:
    """Everything :func:`build_traces` depends on: (programs, length, seed).

    Runs with equal identities read identical traces, so they may share
    one set of :class:`ThreadTrace` objects (see "Read-only traces" in
    ``docs/simulator-internals.md``).
    """
    return (tuple(_program_names(workload)),
            sim.max_instructions + sim.warmup_instructions, sim.seed)


def build_traces(workload: WorkloadSpec, sim: SimConfig) -> List[ThreadTrace]:
    """Materialise one correct-path trace per context.

    Each thread's trace is as long as the whole run's instruction budget
    (warmup included) — a safe upper bound, since no single thread can
    commit more than the total budget.  No run writes a trace (fetch
    copies each instruction), so the result may be shared by every run
    of the same :func:`trace_identity`, side by side or one after
    another; :func:`repro.experiments.parallel.run_jobs` builds them once
    per such group.
    """
    names, length, seed = trace_identity(workload, sim)
    return [
        generate_trace(get_profile(name), tid, length, seed=seed)
        for tid, name in enumerate(names)
    ]


def check_traces(workload: WorkloadSpec, sim: SimConfig,
                 traces: Sequence[ThreadTrace]) -> None:
    """Raise :class:`ConfigError` unless ``traces`` are, by program,
    thread, seed and length, the traces ``build_traces(workload, sim)``
    builds.

    For callers that label a result with the run's inputs (the result
    cache's content digest): a result simulated from other traces must
    not be filed under a key that claims these.
    """
    names, length, seed = trace_identity(workload, sim)
    expected = [(name, tid, seed, length) for tid, name in enumerate(names)]
    found = [(trace.profile.name, trace.thread_id, trace.seed, len(trace))
             for trace in traces]
    if found != expected:
        raise ConfigError(
            f"traces (program, thread, seed, length) {found} are not the "
            f"ones this run builds: {expected}")


class SimSession:
    """One simulation run, end to end.

    The session validates the workload, builds (or adopts) traces, wires
    every observer onto a :class:`~repro.instrument.ProbeBus`, constructs
    the core, and packages the result.  Observers subscribe in a fixed
    order — ledger, interval recorder, phase tracker, auditor, trace
    writer — so fan-out effects are deterministic.

    Attributes of interest after construction: ``core``, ``engine`` (the
    AVF ledger), ``recorder`` (interval recorder, or None), ``auditor``,
    ``phase_tracker``, ``names``, ``traces``, ``policy``, ``bus``.  Under
    ``sim.check_invariants > 0`` the interval recorder subscribes with the
    auditor, whose final check replays the recorded intervals against the
    ledger.

    ``traces`` may be shared with any number of other sessions, paused or
    running: the core only reads them (see "Read-only traces" in
    ``docs/simulator-internals.md``).

    ``ledger=False`` builds a *ledger-free* session: no ``AvfEngine``
    (``engine`` and ``core.engine`` are None) and none of the observers
    that read it — interval recorder, phase tracker, auditor — whatever
    ``sim`` asks for, so only ``observers`` subscribe.  The run then pays
    nothing for residency or cache-AVF bookkeeping, its end-of-run drain
    is skipped, and :meth:`package` refuses: there is no AVF to report.
    Live fault injection's faulty runs are built this way.
    """

    def __init__(self, workload: WorkloadSpec,
                 policy: Union[str, FetchPolicy] = "ICOUNT",
                 config: Optional[MachineConfig] = None,
                 sim: Optional[SimConfig] = None,
                 traces: Optional[List[ThreadTrace]] = None,
                 trace_out: Optional[str] = None,
                 observers: Sequence[object] = (),
                 taint: bool = False,
                 *, ledger: bool = True) -> None:
        self.config = config or DEFAULT_CONFIG
        self.sim = sim or SimConfig()
        self.workload = workload
        self.names = _program_names(workload)
        if traces is None:
            traces = build_traces(workload, self.sim)
        if len(traces) != len(self.names):
            raise WorkloadError("trace count does not match workload size")
        self.traces = traces
        self.policy = create_policy(policy) if isinstance(policy, str) else policy

        self.bus = ProbeBus()
        self.engine = self.recorder = None
        self.phase_tracker = self.auditor = None
        if ledger:
            self._subscribe_ledger(trace_out)
        elif trace_out is not None:
            raise ConfigError("a ledger-free session cannot write an event "
                              "trace: the trace writer rides on the auditor")
        # Extra observers (live fault injection's digest recorder, watchdog
        # and strike hook) subscribe after the standard set; none of them
        # implements the residency protocol, so the single-subscriber fast
        # path — the ledger called directly — is preserved.
        for observer in observers:
            self.bus.subscribe(observer)

        self.core = SMTCore(
            traces, self.config, self.policy, self.sim,
            self.bus.attach(ledger=self.engine,
                            recorder=self.recorder,
                            taint=taint))

    def _subscribe_ledger(self, trace_out: Optional[str]) -> None:
        """The ledger, then whichever of its dependents ``sim`` asks for."""
        self.engine = self.bus.subscribe(
            AvfEngine(self.config, len(self.traces)))
        if self.sim.check_invariants > 0:
            self.recorder = self.bus.subscribe(IntervalRecorder())
        if self.sim.phase_window_cycles > 0:
            self.phase_tracker = self.bus.subscribe(
                PhaseTracker(self.engine, self.sim.phase_window_cycles))
        writer = TraceWriter(trace_out) if trace_out is not None else None
        if self.sim.check_invariants > 0 or writer is not None:
            self.auditor = self.bus.subscribe(
                SimAuditor(check_every=self.sim.check_invariants,
                           trace_writer=writer))
        if writer is not None:
            self.bus.subscribe(writer)

    def run(self) -> SimResult:
        """Optionally warm functionally, run the core, package the result."""
        if self.sim.functional_warmup:
            functional_warmup(self.core, self.traces)
        cycles = self.core.run()
        return self.package(cycles)

    def package(self, cycles: int) -> SimResult:
        return package_result(self.core, self.workload, self.names,
                              self.policy, cycles, auditor=self.auditor,
                              phase_tracker=self.phase_tracker)


def functional_warmup(core: SMTCore, traces: List[ThreadTrace]) -> None:
    """Warm caches, TLBs and branch predictors with the traces' own footprint.

    All accesses happen at cycle 0; lines that remain resident enter
    measurement already warm — the role SimPoint fast-forwarding plays in
    the paper.  It is *not* ledger-neutral: a DL1 miss installs its line
    at its fill cycle (after 0), so a later warmup access that evicts it
    books the victim's residency up to the new line's fill into the DL1
    ledgers before cycle 1 (on seed 1 at scale 300, 600 un-ACE tag and
    4,800 un-ACE data entry-cycles on 8-CPU-B).  A timing warmup's ledger
    reset discards them; see docs/simulator-internals.md, "Memory
    hierarchy".

    Only the region each thread will actually execute is walked (the shared
    budget split per thread, with slack): traces are budget-length as an
    upper bound, and warming their far future would evict the near future
    that the measured window really touches.
    """
    per_thread_budget = core.sim.max_instructions * 3 // (2 * len(traces)) + 64
    for trace in traces:
        tid = trace.thread_id
        unit = core.threads[tid].branch_unit
        last_line = -1
        # Caches/TLBs: walk only the region this thread will execute —
        # warming its far future would evict the near future it touches.
        for instr in trace.instrs[:per_thread_budget]:
            line = core.mem.il1.line_address(instr.pc)
            if line != last_line:
                core.mem.fetch_access(instr.pc, 0, tid)
                last_line = line
            op = instr.op
            if op.is_memory and not is_non_temporal(instr.mem_addr):
                core.mem.data_access(instr.mem_addr, 0, tid, op.is_store)
        # Predictors: train over the whole trace.  A long-running program's
        # branch tables are at steady state; the tables are tiny (2-bit
        # counters), so this reaches saturation, not memorisation.
        for instr in trace.instrs:
            if instr.op is OpClass.BRANCH:
                taken, checkpoint = unit.gshare.predict(instr.pc)
                unit.gshare.resolve(instr.pc, instr.taken, taken, checkpoint)
            if instr.op.is_control and instr.taken:
                unit.btb.update(instr.pc, instr.target)
        # Reset counters so measured statistics exclude the warmup pass.
        unit.gshare.lookups = unit.gshare.correct = 0
    core.mem.reset_statistics()


def package_result(core: SMTCore, workload: WorkloadSpec, names: List[str],
                   policy: FetchPolicy, cycles: int,
                   auditor: Optional[SimAuditor] = None,
                   phase_tracker: Optional[PhaseTracker] = None) -> SimResult:
    """Assemble a :class:`SimResult` from a finished core."""
    if cycles <= 0:
        raise SimulationError(
            f"simulation finished after {cycles} cycles; a degenerate run "
            "has no IPC (did the instruction budget round down to zero?)")
    if core.engine is None:
        raise SimulationError(
            "cannot package a ledger-free run: it kept no AVF ledger "
            "(SimSession(ledger=False) is for live fault injection's "
            "faulty runs, which are classified by digest)")
    if auditor is None or phase_tracker is None:
        # Callers holding only the core (a forked core has no session):
        # recover the observers from the bus the core was wired with.
        bus = getattr(core.instruments, "bus", None)
        if bus is not None:
            for sub in bus.subscribers:
                if auditor is None and isinstance(sub, SimAuditor):
                    auditor = sub
                if phase_tracker is None and isinstance(sub, PhaseTracker):
                    phase_tracker = sub
    threads = []
    for t in core.threads:
        committed = core.committed_in_window(t.id)
        threads.append(ThreadResult(
            thread_id=t.id,
            program=names[t.id],
            committed=committed,
            ipc=committed / cycles,
            fetched=t.fetched,
            wrong_path_fetched=t.wrong_path_fetched,
            branch_mispredict_rate=t.branch_unit.misprediction_rate,
        ))
    committed_total = sum(t.committed for t in threads)
    workload_name = (workload.name if isinstance(workload, WorkloadMix)
                     else "+".join(names))
    avf_report = core.engine.report(cycles)
    audit = None
    if auditor is not None:
        auditor.audit_final_report(avf_report)
        audit = auditor.summary_payload()
    return SimResult(
        workload=workload_name,
        policy=policy.name,
        num_threads=core.num_threads,
        cycles=cycles,
        committed=committed_total,
        ipc=committed_total / cycles,
        threads=threads,
        avf=avf_report,
        dl1_miss_rate=core.mem.dl1.miss_rate,
        l2_miss_rate=core.mem.l2.miss_rate,
        il1_miss_rate=core.mem.il1.miss_rate,
        dtlb_miss_rate=core.mem.dtlb.miss_rate,
        mispredict_squashes=core.mispredict_squashes,
        phase_series=(phase_tracker.series
                      if phase_tracker is not None else None),
        audit=audit,
    )
