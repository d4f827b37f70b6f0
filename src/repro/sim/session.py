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
from repro.sim.backends import core_class, resolve_backend
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
    one set of :class:`ThreadTrace` objects (see "Trace ownership and
    sharing" in ``docs/simulator-internals.md``).
    """
    return (tuple(_program_names(workload)),
            sim.max_instructions + sim.warmup_instructions, sim.seed)


def build_traces(workload: WorkloadSpec, sim: SimConfig) -> List[ThreadTrace]:
    """Materialise one correct-path trace per context.

    Each thread's trace is as long as the whole run's instruction budget
    (warmup included) — a safe upper bound, since no single thread can
    commit more than the total budget.  A run only writes the pipeline
    fields of a trace's instructions and clears them again at fetch, so
    the result may be shared by every run of the same
    :func:`trace_identity`; :func:`repro.experiments.parallel.run_jobs`
    builds them once per such group.
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
    ``phase_tracker``, ``names``, ``traces``, ``policy``, ``bus``.
    """

    def __init__(self, workload: WorkloadSpec,
                 policy: Union[str, FetchPolicy] = "ICOUNT",
                 config: Optional[MachineConfig] = None,
                 sim: Optional[SimConfig] = None,
                 traces: Optional[List[ThreadTrace]] = None,
                 trace_out: Optional[str] = None,
                 observers: Sequence[object] = (),
                 taint: bool = False,
                 backend: Optional[str] = None) -> None:
        self.config = config or DEFAULT_CONFIG
        self.backend = resolve_backend(backend)
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
        self.engine = self.bus.subscribe(
            AvfEngine(self.config, len(traces)))
        self.recorder = None
        if self.sim.record_intervals:
            self.recorder = self.bus.subscribe(IntervalRecorder())
        self.phase_tracker = None
        if self.sim.phase_window_cycles > 0:
            self.phase_tracker = self.bus.subscribe(
                PhaseTracker(self.engine, self.sim.phase_window_cycles))
        self.auditor = None
        writer = TraceWriter(trace_out) if trace_out is not None else None
        if self.sim.check_invariants > 0 or writer is not None:
            self.auditor = self.bus.subscribe(
                SimAuditor(check_every=self.sim.check_invariants,
                           trace_writer=writer))
        if writer is not None:
            self.bus.subscribe(writer)
        # Extra observers (live fault injection's digest recorder, watchdog
        # and strike hook) subscribe after the standard set; none of them
        # implements the residency protocol, so the single-subscriber fast
        # path — the ledger called directly — is preserved.
        for observer in observers:
            self.bus.subscribe(observer)

        # Backend seam: both kernels take the same constructor arguments
        # and produce byte-identical results (see repro.sim.backends).
        self.core = core_class(self.backend)(
            traces, self.config, self.policy, self.sim,
            self.bus.attach(ledger=self.engine,
                            recorder=self.recorder,
                            taint=taint))

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


def build_core(traces: List[ThreadTrace], config: MachineConfig,
               policy: FetchPolicy, sim: SimConfig,
               trace_out: Optional[str] = None) -> SMTCore:
    """Construct a standalone core with standard observer wiring.

    For tests and tools that drive a core directly from pre-built traces;
    production entry points go through :class:`SimSession`.
    """
    bus = ProbeBus()
    engine = bus.subscribe(AvfEngine(config, len(traces)))
    recorder = None
    if sim.record_intervals:
        recorder = bus.subscribe(IntervalRecorder())
    if sim.phase_window_cycles > 0:
        bus.subscribe(PhaseTracker(engine, sim.phase_window_cycles))
    writer = TraceWriter(trace_out) if trace_out is not None else None
    if sim.check_invariants > 0 or writer is not None:
        bus.subscribe(SimAuditor(check_every=sim.check_invariants,
                                 trace_writer=writer))
    if writer is not None:
        bus.subscribe(writer)
    return SMTCore(traces, config, policy, sim,
                   bus.attach(ledger=engine, recorder=recorder))


def functional_warmup(core: SMTCore, traces: List[ThreadTrace]) -> None:
    """Warm caches, TLBs and branch predictors with the traces' own footprint.

    Content-only: all accesses happen at cycle 0, so no residency interval
    has positive length and the AVF ledgers stay untouched; lines that remain
    resident simply enter measurement already warm — the role SimPoint
    fast-forwarding plays in the paper.

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
            if instr.is_memory and not is_non_temporal(instr.mem_addr):
                core.mem.data_access(instr.mem_addr, 0, tid, instr.is_store)
        # Predictors: train over the whole trace.  A long-running program's
        # branch tables are at steady state; the tables are tiny (2-bit
        # counters), so this reaches saturation, not memorisation.
        for instr in trace.instrs:
            if instr.op is OpClass.BRANCH:
                taken, checkpoint = unit.gshare.predict(instr.pc)
                unit.gshare.resolve(instr.pc, instr.taken, taken, checkpoint)
            if instr.is_control and instr.taken:
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
    if auditor is None or phase_tracker is None:
        # Callers holding only the core (legacy ``_package`` signature):
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
