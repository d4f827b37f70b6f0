"""Live bit-flip fault injection with golden-run differential classification.

The ACE ledgers (:mod:`repro.avf`) compute each structure's AVF exactly;
this module measures the same quantity the other way round: it flips a
bit in a live structure mid-run and watches what the machine does.  One
golden (fault-free) run per campaign configuration is memoized.  The
campaign's strikes then drive one session of the same traces with two
extra observers on the probe bus:

* a :class:`~repro.faultinject.classify.Watchdog` bounding the run by the
  golden run's cycle count (hang containment),
* a :class:`~repro.faultinject.classify.DigestRecorder` folding commits
  into the architectural digest that is diffed against the golden one.

The driver advances to each strike's cycle in turn (every pending batch's
strikes merged in cycle order, :func:`run_batches`) and calls the struck
structure's ``inject_bit`` hook there; a strike that lands on live state
its protection does not resolve is then decided one of two ways
(:class:`_StrikeDriver`):

* a strike that wrote only taint (``StrikeReceipt.taint_only``) changes no
  kernel decision, so its faulty run would be the golden run cycle for
  cycle.  It is undone at once and decided by replaying its victim's
  taint over the golden run's dataflow log
  (:class:`~repro.faultinject.classify.DataflowLog`): no fork, no cycle;
* a structural strike gets a faulty run of its own, to the end, on a fork
  of the driver (:meth:`SMTCore.fork`).

The driver, and so every faulty run, is ledger-free
(``SimSession(ledger=False)``): reported AVF comes from the golden run
alone, which is also the only run that records a dataflow log.

Outcomes (:class:`InjectionOutcome`):
``MASKED_IDLE`` (struck slot empty), ``MASKED`` (digest identical),
``SDC`` (digest diverged), ``DUE`` (parity detected the flip, or the
corrupted simulator raised and was contained), ``HANG`` (watchdog),
``CORRECTED`` (ECC).  A campaign never aborts on a strike outcome — hangs
and crashes are the *measurement*, not failures.

Determinism: every strike draws its (cycle, slot, bit) from its own seeded
RNG substream — ``SeedSequence([campaign seed, structure, strike index])``
— so results are byte-identical regardless of worker count or completion
order.  Records are assembled sorted by (structure, index).

Protection is a per-structure :class:`~repro.protection.ProtectionConfig`
(every call site also accepts a bare scheme, meaning that scheme
everywhere), and strikes may be clustered multi-bit upsets: with an
:class:`~repro.structures.strike.MbuConfig`, each strike draws a cluster
length *after* its cycle/slot/bit draws on the same substream (so the
single-bit default draws stay byte-identical to the historical goldens),
and outcomes resolve per (scheme, effective cluster length) — parity
misses even clusters, SECDED corrects 1 / detects 2 / misses 3.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from enum import Enum, auto
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.avf.bits import structure_capacity
from repro.avf.structures import PRIVATE_STRUCTURES, Structure
from repro.config import DEFAULT_CONFIG, MachineConfig, SimConfig
from repro.content_store import ContentStore, stable_digest
from repro.errors import HangDetected, ReproError
from repro.faultinject.classify import (DataflowLog, DigestRecorder,
                                        TaintReplay, Watchdog)
from repro.metrics.reliability import wilson_interval
from repro.protection import ProtectionConfig, ProtectionScheme
from repro.protection.config import CoercibleProtection
from repro.sim.session import SimSession, functional_warmup
from repro.structures.strike import MbuConfig, burst_bits
from repro.structures.strike import entry_bits as strike_entry_bits
from repro.workload.mixes import TABLE2_MIXES, WorkloadMix

#: The pipeline structures live strikes can target.
INJECTABLE = (Structure.IQ, Structure.ROB, Structure.LSQ_TAG,
              Structure.LSQ_DATA, Structure.REG, Structure.FU)


class InjectionOutcome(Enum):
    MASKED_IDLE = auto()    # the struck slot held nothing
    SDC = auto()            # the faulty run's architectural digest diverged
    MASKED = auto()         # the faulty run's architectural digest matched
    DUE = auto()            # detected (parity) or contained simulator failure
    HANG = auto()           # the watchdog tripped: forward progress stopped
    CORRECTED = auto()      # ECC repaired the flip in place


#: Outcomes with no architectural consequence (the error rate's complement).
MASKED_OUTCOMES = frozenset({
    InjectionOutcome.MASKED_IDLE,
    InjectionOutcome.MASKED,
    InjectionOutcome.CORRECTED,
})

#: Version of the batch-record layout, hashed into every
#: :meth:`LiveBatchJob.key`: a new layout moves every batch digest (and
#: cache file name), so records of another layout are re-run rather than
#: misread.  v2: the MASKED/DUE/HANG/CORRECTED outcome classes.
CAMPAIGN_SCHEMA_VERSION = 2


@dataclass
class StructureCampaign:
    """Outcome counts for one structure."""

    structure: Structure
    injections: int
    outcomes: Dict[InjectionOutcome, int] = field(default_factory=dict)
    reported_avf: float = 0.0

    def _rate(self, outcomes) -> float:
        if not self.injections:
            return 0.0
        return sum(self.outcomes.get(o, 0) for o in outcomes) / self.injections

    @property
    def sdc_rate(self) -> float:
        """Injection-estimated AVF: the fraction of strikes that corrupt."""
        return self._rate((InjectionOutcome.SDC,))

    @property
    def masked_rate(self) -> float:
        """Fraction of strikes with no architectural consequence.

        Counted from the masked outcome classes, not ``1 - sdc_rate``: the
        complement would count DUE/HANG strikes as masked, and would report
        a vacuous 1.0 for a zero-strike campaign.
        """
        return self._rate(MASKED_OUTCOMES)

    @property
    def due_rate(self) -> float:
        return self._rate((InjectionOutcome.DUE,))

    @property
    def hang_rate(self) -> float:
        return self._rate((InjectionOutcome.HANG,))


#: Seed-substream index per structure (order is part of the RNG contract;
#: never reorder).
_STRUCT_SEED = {s: i for i, s in enumerate(INJECTABLE)}

#: Forced-outcome kinds the campaign can exercise (CI smoke coverage).
FORCED_KINDS = ("hang", "crash", "due")


@dataclass(frozen=True)
class LiveConfig:
    """Watchdog and batching knobs for one live campaign."""

    budget_factor: float = 2.0
    """Faulty runs may take this multiple of the golden run's cycles."""

    budget_slack: int = 200
    """Absolute extra cycles on top of the scaled budget (short runs)."""

    progress_window: int = 1500
    """Cycles without a single commit before the watchdog trips (0 = off)."""

    strike_batch: int = 8
    """Strikes per supervised task and per batch-cache entry.

    It sets the unit of scheduling, retry, caching and progress reporting,
    not the scope of a strike driver: the inline campaign strikes every
    pending batch on one driver (:func:`run_batches`)."""


@dataclass(frozen=True)
class StrikeSpec:
    """One sampled strike point.

    ``length`` is the *sampled* cluster length (1 outside MBU mode); the
    effective length after field-boundary clipping is what protection
    resolution and the record's ``cluster_len`` use.
    """

    structure: Structure
    index: int
    cycle: int
    slot: int
    bit: int
    length: int = 1

    @property
    def effective_length(self) -> int:
        return len(burst_bits(self.structure, self.bit, self.length))


@dataclass
class LiveStrikeRecord:
    """One classified strike."""

    structure: Structure
    index: int
    cycle: int
    slot: int
    bit: int
    outcome: InjectionOutcome
    target: str = ""
    detail: str = ""
    cluster_len: int = 1
    """Effective (post-clipping) cluster length of the burst."""

    def to_payload(self) -> Dict[str, object]:
        payload = {"structure": self.structure.value, "index": self.index,
                   "cycle": self.cycle, "slot": self.slot, "bit": self.bit,
                   "outcome": self.outcome.name, "target": self.target,
                   "detail": self.detail}
        if self.cluster_len != 1:
            # Omitted for single-bit strikes so default-path record bytes
            # stay identical to the pre-MBU goldens.
            payload["cluster_len"] = self.cluster_len
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "LiveStrikeRecord":
        return cls(structure=Structure(payload["structure"]),
                   index=int(payload["index"]), cycle=int(payload["cycle"]),
                   slot=int(payload["slot"]), bit=int(payload["bit"]),
                   outcome=InjectionOutcome[str(payload["outcome"])],
                   target=str(payload.get("target", "")),
                   detail=str(payload.get("detail", "")),
                   cluster_len=int(payload.get("cluster_len", 1)))


@dataclass
class GoldenRun:
    """The memoized fault-free reference run."""

    digest: str
    cycles: int            # total simulated cycles (the watchdog's base)
    measured_cycles: int
    committed: int
    names: List[str]
    traces: List[object]
    avf: Dict[Structure, float]
    flow: DataflowLog      # what taint-only strikes are replayed over


# -- golden-run memo ---------------------------------------------------------------

_GOLDEN_MEMO: "OrderedDict[str, GoldenRun]" = OrderedDict()
_GOLDEN_MEMO_CAP = 4


def _golden_key(programs: Sequence[str], policy: str, config: MachineConfig,
                sim: SimConfig) -> str:
    return stable_digest({"programs": list(programs), "policy": policy,
                          "machine": asdict(config), "sim": asdict(sim)})


def golden_run(workload: Union[WorkloadMix, Sequence[str]], policy: str,
               config: MachineConfig, sim: SimConfig) -> GoldenRun:
    """Run (or recall) the fault-free reference for one configuration.

    The run executes with taint propagation *enabled* so its timing and
    observer wiring are identical to the faulty runs'; a fault-free run
    must end taint-clean, which is asserted — a dirty golden run means the
    taint model leaked and every classification would be garbage.  It
    records its dataflow log (``SMTCore.flow_log``) for taint-only strikes
    to be replayed over.
    """
    programs = (workload.programs if isinstance(workload, WorkloadMix)
                else list(workload))
    key = _golden_key(programs, policy, config, sim)
    hit = _GOLDEN_MEMO.get(key)
    if hit is not None:
        _GOLDEN_MEMO.move_to_end(key)
        return hit

    recorder = DigestRecorder()
    session = SimSession(workload, policy=policy, config=config, sim=sim,
                         observers=(recorder,), taint=True)
    if sim.functional_warmup:
        functional_warmup(session.core, session.traces)
    session.core.flow_log = []
    measured = session.core.run()
    if not recorder.clean:
        raise ReproError("golden run is not taint-clean: the taint model "
                         "injected state without a strike")
    golden = GoldenRun(digest=recorder.digest(), cycles=session.core.cycle,
                       measured_cycles=measured,
                       committed=session.core.total_committed,
                       names=list(session.names), traces=session.traces,
                       avf=dict(session.engine.report(measured).avf),
                       flow=DataflowLog.of(session.core))
    _GOLDEN_MEMO[key] = golden
    while len(_GOLDEN_MEMO) > _GOLDEN_MEMO_CAP:
        _GOLDEN_MEMO.popitem(last=False)
    return golden


# -- strike sampling ---------------------------------------------------------------


def machine_capacity(structure: Structure, config: MachineConfig,
                     num_threads: int) -> int:
    """Machine-wide slot count (private structures x contexts)."""
    capacity = structure_capacity(structure, config, num_threads)
    if structure in PRIVATE_STRUCTURES:
        capacity *= num_threads
    return capacity


def draw_strike(seed: int, structure: Structure, index: int, cycles: int,
                capacity: int, bits: int,
                mbu: Optional[MbuConfig] = None) -> StrikeSpec:
    """Sample strike ``index`` of ``structure`` from its own substream.

    The substream is keyed by (campaign seed, structure, index) alone, so
    the draw is independent of worker count, batch shape and completion
    order — the root of the campaign's byte-for-byte reproducibility.

    The MBU cluster length (when ``mbu`` enables bursts) is drawn *after*
    cycle/slot/bit, so enabling MBU extends the draw sequence instead of
    perturbing it — single-bit campaigns stay byte-identical to the
    pre-MBU goldens, and MBU campaigns keep the same strike points as
    their single-bit twins.
    """
    seq = np.random.SeedSequence([seed, _STRUCT_SEED[structure], index])
    rng = np.random.Generator(np.random.PCG64(seq))
    cycle = int(rng.integers(1, cycles + 1))
    slot = int(rng.integers(0, capacity))
    bit = int(rng.integers(0, bits))
    length = 1
    if mbu is not None and mbu.enabled:
        length = mbu.sample_length(rng)
    return StrikeSpec(structure=structure, index=index, cycle=cycle,
                      slot=slot, bit=bit, length=length)


# -- forced-outcome hooks ----------------------------------------------------------


class _ForcedHook:
    """A cycle hook that corrupts the core once, on the first cycle from
    ``after_cycle`` on at which it finds a victim."""

    def __init__(self, after_cycle: int = 2) -> None:
        self.after_cycle = after_cycle
        self.done = False
        self.target = ""

    def next_wake(self, cycle: int) -> float:
        return float("inf") if self.done else max(self.after_cycle, cycle + 1)


class _ForcedHang(_ForcedHook):
    """Un-completes a finished ROB head: a guaranteed, unsquashable hang.

    The head is the oldest instruction of its thread, so no squash can
    remove it, and its writeback event has already been consumed — nothing
    will ever set ``completed_at`` again.  The thread stalls; once the
    remaining threads drain, total commits go flat and the watchdog trips.
    """

    def on_cycle(self, core) -> None:
        if self.done or core.cycle < self.after_cycle:
            return
        for t in core.threads:
            head = t.rob.head()
            if head is not None and head.completed_at >= 0 \
                    and not head.wrong_path:
                head.completed_at = -1
                self.target = f"ROB[t{t.id}] head #{head.seq}"
                self.done = True
                return


class _ForcedCrash(_ForcedHook):
    """Redirects an in-flight destination to an unallocated physical
    register: writeback (or squash) raises :class:`StructureError`, which
    the strike runner must contain as DUE — never let escape."""

    _BOGUS_PHYS = 1 << 30

    def on_cycle(self, core) -> None:
        if self.done or core.cycle < self.after_cycle:
            return
        for instr in core.issue_queue.entries():
            if instr.phys_dest is not None and not instr.squashed:
                instr.phys_dest = self._BOGUS_PHYS
                self.target = f"IQ t{instr.thread_id}#{instr.seq}"
                self.done = True
                return


# -- the strike driver -------------------------------------------------------------

#: A decided strike: (outcome, detail).
_Verdict = Tuple[InjectionOutcome, str]


def _contained(run, *args) -> Optional[_Verdict]:
    """Call ``run(*args)``: None if it returned, or the outcome whatever a
    struck simulator raised maps to.

    Nothing a strike does — hang, raise, corrupt — escapes this function,
    so no strike can abort a campaign.
    """
    try:
        run(*args)
        return None
    except HangDetected as exc:
        return InjectionOutcome.HANG, str(exc)
    except (KeyboardInterrupt, SystemExit, MemoryError):
        raise
    except Exception as exc:  # noqa: BLE001 - containment is the contract
        # The corrupted simulator failed loudly (a StructureError, an
        # IndexError in a perturbed queue, ...): the hardware analogue of
        # a machine-check — detected, unrecoverable, contained.
        return InjectionOutcome.DUE, f"contained {type(exc).__name__}: {exc}"


class _StrikeDriver:
    """One taint-mode session that strikes are injected into, in cycle order.

    Built exactly as a faulty run is: the golden run's memoized traces, a
    cycle budget of ``budget_factor`` x the golden length plus slack, a
    :class:`DigestRecorder`, a :class:`Watchdog`, one functional warmup
    and no AVF ledger (``ledger=False``: faulty runs are classified by
    digest, and none of the ledger's auditors, recorders or trackers —
    which cannot be forked — is subscribed, whatever ``sim`` asks for).
    Until something is injected it *is* the golden run, so it is advanced
    from strike to strike (``run(until=cycle)``) and only an applied,
    unresolved, structural strike needs a run of its own: a fork of the
    driver (:meth:`SMTCore.fork`) or, for a batch of one, the driver
    itself.
    """

    def __init__(self, workload: Union[WorkloadMix, Sequence[str]],
                 policy: str, config: MachineConfig, sim: SimConfig,
                 golden: GoldenRun, live: LiveConfig,
                 hooks: Sequence[object] = ()) -> None:
        limit = int(golden.cycles * live.budget_factor) + live.budget_slack
        faulty_sim = replace(sim, max_cycles=limit + 16)
        self.golden = golden
        session = SimSession(workload, policy=policy, config=config,
                             sim=faulty_sim, traces=golden.traces,
                             observers=(DigestRecorder(),
                                        Watchdog(limit, live.progress_window),
                                        *hooks),
                             taint=True, ledger=False)
        self.core = session.core
        #: Set once the driver itself stopped (it never does on a sane
        #: golden run); every later strike would stop the same way first.
        self.failure: Optional[_Verdict] = None
        if faulty_sim.functional_warmup:
            self.failure = _contained(functional_warmup, self.core,
                                      golden.traces)

    def advance(self, cycle: int) -> None:
        """Run the driver up to and including cycle ``cycle``'s hooks.

        The driver is the golden run and strikes fall within it
        (:func:`run_one_strike` checks), so the run pauses rather than
        finishing; only a verdict (the driver itself failing) is kept."""
        if self.failure is None:
            self.failure = _contained(self.core.run, cycle)

    def finish(self, core) -> _Verdict:
        """Run ``core`` (the driver or a fork of it), contained, to the
        end and classify it by its architectural digest."""
        verdict = _contained(core.run)
        if verdict is not None:
            return verdict
        recorder = next(sub for sub in core.instruments.bus.subscribers
                        if isinstance(sub, DigestRecorder))
        if recorder.digest() == self.golden.digest:
            return InjectionOutcome.MASKED, ""
        return InjectionOutcome.SDC, ""

    def strike(self, spec: StrikeSpec, protection: ProtectionConfig,
               fork: bool) -> Tuple[InjectionOutcome, str, str]:
        """Inject ``spec`` at the driver's current cycle and classify it.

        The strike first probes the driver: an empty slot is masked by
        idleness, a burst the protection scheme resolves is undone, and a
        taint-only strike is undone and replayed over the golden run's
        dataflow log (a receipt that tainted nothing is MASKED) — all
        decided without simulating a cycle.  A structural strike runs to
        the end (:meth:`finish`) on a fork (``fork=True``; the driver is
        restored and stays golden) or on the driver itself, which is then
        spent.  Returns (outcome, detail, target).
        """
        if self.failure is not None:
            return (*self.failure, "")
        receipt = self.core.inject_bit(spec.structure, spec.slot, spec.bit,
                                       spec.length)
        if not receipt.applied:
            return InjectionOutcome.MASKED_IDLE, "", receipt.target
        resolution = protection.resolve(spec.structure, spec.effective_length)
        if resolution is not None:
            receipt.undo()
            outcome = (InjectionOutcome.DUE if resolution == "due"
                       else InjectionOutcome.CORRECTED)
            return outcome, f"protection: {resolution}", receipt.target
        if receipt.taint_only:
            receipt.undo()
            if receipt.victim is not None and TaintReplay(
                    receipt.victim).run(self.golden.flow, self.core.cycle):
                return InjectionOutcome.SDC, "", receipt.target
            return InjectionOutcome.MASKED, "", receipt.target
        if not fork:
            return (*self.finish(self.core), receipt.target)
        try:
            victim = self.core.fork()
        finally:
            receipt.undo()
        return (*self.finish(victim), receipt.target)


# -- strikes -----------------------------------------------------------------------


def run_one_strike(spec: StrikeSpec,
                   workload: Union[WorkloadMix, Sequence[str]], policy: str,
                   config: MachineConfig, sim: SimConfig, golden: GoldenRun,
                   protection: CoercibleProtection,
                   live: LiveConfig,
                   driver: Optional[_StrikeDriver] = None) -> LiveStrikeRecord:
    """Inject one strike and classify it.

    ``driver`` is a campaign's shared driver, not yet past ``spec.cycle``;
    the strike forks it.  Without one the strike is a batch of one: it
    builds its own driver and strikes it in place.  Raises
    :class:`ReproError` unless ``spec.cycle`` falls within the golden run.
    """
    if not 1 <= spec.cycle <= golden.cycles:
        raise ReproError(f"strike cycle {spec.cycle} is outside the golden "
                         f"run's cycles [1, {golden.cycles}]")
    in_place = driver is None
    if in_place:
        driver = _StrikeDriver(workload, policy, config, sim, golden, live)
    driver.advance(spec.cycle)
    outcome, detail, target = driver.strike(
        spec, ProtectionConfig.coerce(protection), fork=not in_place)
    return LiveStrikeRecord(structure=spec.structure, index=spec.index,
                            cycle=spec.cycle, slot=spec.slot, bit=spec.bit,
                            outcome=outcome, target=target, detail=detail,
                            cluster_len=spec.effective_length)


def run_forced_strike(kind: str,
                      workload: Union[WorkloadMix, Sequence[str]],
                      policy: str, config: MachineConfig, sim: SimConfig,
                      golden: GoldenRun, live: LiveConfig) -> LiveStrikeRecord:
    """Run one guaranteed-outcome strike (watchdog / containment probes).

    ``hang`` must classify HANG, ``crash`` and ``due`` must classify DUE —
    the CI smoke target asserts exactly that, proving the watchdog and the
    exception containment on every push.  Each is a batch of one on its
    own driver: ``hang`` and ``crash`` corrupt it through a cycle hook;
    ``due`` strikes IQ slot 0 under parity at the first cycle it is
    occupied.
    """
    if kind not in FORCED_KINDS:
        raise ReproError(f"unknown forced strike kind {kind!r}; "
                         f"known: {', '.join(FORCED_KINDS)}")
    hook = {"hang": _ForcedHang, "crash": _ForcedCrash}.get(kind)
    hooks = (hook(),) if hook is not None else ()
    driver = _StrikeDriver(workload, policy, config, sim, golden, live, hooks)
    if kind == "due":
        cycle = 0
        while (driver.failure is None and driver.core.cycle == cycle
               and not driver.core.issue_queue.entries()):
            cycle += 1
            driver.advance(cycle)
        spec = StrikeSpec(structure=Structure.IQ, index=-1, cycle=cycle,
                          slot=0, bit=0)
        outcome, detail, target = driver.strike(
            spec, ProtectionConfig.coerce(ProtectionScheme.PARITY),
            fork=False)
    else:
        outcome, detail = driver.finish(driver.core)
        target = hooks[0].target
    return LiveStrikeRecord(structure=Structure.IQ, index=-1, cycle=0,
                            slot=0, bit=0, outcome=outcome,
                            target=f"forced:{kind} {target}".strip(),
                            detail=detail)


# -- campaign ----------------------------------------------------------------------


@dataclass
class LiveCampaignResult:
    """All structures' live campaigns plus validation statistics."""

    workload: str
    cycles: int
    injections_per_structure: int
    protection: ProtectionConfig
    mbu: MbuConfig = field(default_factory=MbuConfig)
    structures: Dict[Structure, StructureCampaign] = field(default_factory=dict)
    records: List[LiveStrikeRecord] = field(default_factory=list)
    forced: Dict[str, LiveStrikeRecord] = field(default_factory=dict)
    batches_cached: int = 0
    """Batches answered by the per-batch cache (recovery observability:
    a resumed campaign must show its finished batches here, recomputing
    none of them)."""
    batches_executed: int = 0
    """Batches actually simulated in this run."""

    def interval(self, structure: Structure,
                 z: float = 1.959963984540054) -> Tuple[float, float]:
        """Wilson CI of the structure's injection-estimated AVF."""
        campaign = self.structures[structure]
        sdc = campaign.outcomes.get(InjectionOutcome.SDC, 0)
        return wilson_interval(sdc, campaign.injections, z=z)

    def agrees(self, structure: Structure) -> bool:
        """Does the ACE-computed AVF fall inside the live estimate's CI?"""
        lo, hi = self.interval(structure)
        return lo <= self.structures[structure].reported_avf <= hi

    def verdict(self, structure: Structure) -> str:
        """Per-structure comparison of the ACE AVF with the live CI.

        ``agree`` — inside the interval; ``conservative`` — ACE above the
        interval, the expected direction (ACE analysis upper-bounds true
        vulnerability: ex-ACE state like a load's LSQ data copy after
        writeback stays in the ledger's ACE window but cannot corrupt a
        live run); ``ANOMALY`` — ACE *below* the interval, which an
        upper-bound analysis can never legitimately produce.
        """
        lo, hi = self.interval(structure)
        avf = self.structures[structure].reported_avf
        if lo <= avf <= hi:
            return "agree"
        return "conservative" if avf > hi else "ANOMALY"

    def summary(self) -> str:
        # ACE AVF validation only makes sense for the unprotected
        # single-bit campaign: protection removes SDCs by design, and a
        # multi-bit burst upper-bounds the per-bit AVF the ledger reports.
        validating = self.protection.is_none and not self.mbu.enabled
        mbu_note = (f", mbu<=len {self.mbu.max_len}" if self.mbu.enabled
                    else "")
        lines = [
            f"Live fault injection — {self.workload} "
            f"({self.injections_per_structure} strikes/structure, golden "
            f"{self.cycles} cycles, protection {self.protection.label()}"
            f"{mbu_note})",
            f"{'structure':<10} {'ACE AVF':>8} {'live est':>9} "
            f"{'95% CI':>17} {'masked':>7} {'due':>6} {'hang':>6} "
            f"{'verdict':>12}",
        ]
        for s, c in self.structures.items():
            lo, hi = self.interval(s)
            verdict = self.verdict(s) if validating else "n/a"
            lines.append(
                f"{s.value:<10} {c.reported_avf:8.4f} {c.sdc_rate:9.4f} "
                f"[{lo:6.4f}, {hi:6.4f}] {c.masked_rate:7.3f} "
                f"{c.due_rate:6.3f} {c.hang_rate:6.3f} {verdict:>12}")
        for kind, record in self.forced.items():
            lines.append(f"forced {kind:<6} -> {record.outcome.name:<9} "
                         f"({record.target})")
        return "\n".join(lines)


@dataclass(frozen=True)
class LiveBatchJob:
    """One batch of strikes on one structure as a supervised task.

    Picklable: a worker re-derives the golden run from the campaign
    parameters (memoized per process, so a worker pays for it once) and
    strikes its group's batches on one driver (:meth:`run_group`).  The
    digest covers every outcome-affecting input, so the supervisor's
    journal and the per-batch cache key resumed work correctly.
    """

    workload_name: str
    programs: Tuple[str, ...]
    policy: str
    config: MachineConfig
    sim: SimConfig
    seed: int
    protection: ProtectionConfig
    live: LiveConfig
    structure: Structure
    indices: Tuple[int, ...]
    mbu: MbuConfig = MbuConfig()

    @property
    def label(self) -> str:
        lo = min(self.indices) if self.indices else 0
        hi = max(self.indices) if self.indices else 0
        return (f"live/{self.workload_name}/{self.structure.value}"
                f"/{lo}-{hi}")

    def _workload(self) -> Union[WorkloadMix, List[str]]:
        mix = TABLE2_MIXES.get(self.workload_name)
        if mix is not None and tuple(mix.programs) == self.programs:
            return mix
        return list(self.programs)

    def key(self) -> Dict[str, object]:
        key = {
            "live_schema": CAMPAIGN_SCHEMA_VERSION,
            "workload": self.workload_name,
            "programs": list(self.programs),
            "policy": self.policy,
            "machine": asdict(self.config),
            "sim": asdict(self.sim),
            "seed": self.seed,
            "protection": self.protection.label(),
            "watchdog": asdict(self.live),
            "structure": self.structure.value,
            "indices": list(self.indices),
        }
        # Only present when bursts are on, so every historical single-bit
        # digest — and with it the batch cache and supervisor journals —
        # stays valid across the MBU upgrade.
        if self.mbu.enabled:
            key["mbu"] = self.mbu.to_payload()
        if self.protection.scrub_interval_cycles is not None:
            key["scrub"] = self.protection.scrub_interval_cycles
        return key

    def digest(self) -> str:
        """The content digest of :meth:`key`, computed once per job
        object and kept in its ``__dict__`` (a frozen dataclass refuses
        attribute assignment, not dict writes; its fields, ``==``,
        ``hash`` and ``repr`` never see the entry)."""
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = self.__dict__["_digest"] = stable_digest(self.key())
        return digest

    def run(self) -> Dict[str, object]:
        """Strike every index of the batch alone; records in index order
        (the one-job case of :func:`run_batches`)."""
        (_, payload), = run_batches([self])
        return payload

    def group_key(self) -> "LiveBatchJob":
        """Batches of one campaign (every field but ``structure`` and
        ``indices``) can share a strike driver."""
        return replace(self, structure=INJECTABLE[0], indices=())

    @staticmethod
    def run_group(jobs: Sequence["LiveBatchJob"]):
        """:func:`run_batches` for the supervisor, with its yield order:
        ``(order, results)``."""
        return _plan_batches(jobs)

    def validate(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Return ``payload`` if it is exactly this batch's records.

        A result from a cache entry or a fleet commit must carry one
        record per index, in ``indices`` order, for this structure, with
        an outcome this version knows — otherwise the structure's outcome
        counts would stop summing to its injections.  Raises
        ``ValueError`` if not.
        """
        records = payload["records"]
        if len(records) != len(self.indices):
            raise ValueError(f"{len(records)} records for "
                             f"{len(self.indices)} strikes")
        for expected, entry in zip(self.indices, records):
            try:
                record = LiveStrikeRecord.from_payload(entry)
            except KeyError as exc:
                raise ValueError(f"unknown outcome or field {exc} in "
                                 f"record {entry!r}") from None
            if record.index != expected:
                raise ValueError(f"record for strike {record.index}, "
                                 f"expected {expected}")
            if record.structure is not self.structure:
                raise ValueError(f"record for {record.structure.value}, "
                                 f"expected {self.structure.value}")
        return payload


def run_batches(jobs: Sequence[LiveBatchJob]
                ) -> Iterator[Tuple[LiveBatchJob, Dict[str, object]]]:
    """Strike every batch of one campaign on one shared driver.

    All strikes of ``jobs`` are drawn up front (a draw depends only on
    seed, structure and index), merged in cycle order, and struck on a
    single :class:`_StrikeDriver` that advances once through the golden
    run.  Each ``(job, payload)`` — records in the job's index order — is
    yielded as soon as the job's last strike is classified, so batches
    complete in order of their last strike's cycle, not in ``jobs`` order;
    the payload bytes are those of the job run alone.

    Raises ``ValueError`` if the jobs disagree on anything but
    ``structure`` and ``indices``: every other field shapes the driver.
    """
    return _plan_batches(jobs)[1]


def _plan_batches(jobs: Sequence[LiveBatchJob]):
    """Draw and order the strikes of :func:`run_batches`; returns
    ``(order, results)``: the jobs in the order ``results`` yields them
    (batches without strikes first, then by last strike cycle), known
    before anything is struck."""
    jobs = list(jobs)
    if not jobs:
        return [], iter(())
    first = jobs[0]
    for job in jobs[1:]:
        if replace(job, structure=first.structure,
                   indices=first.indices) != first:
            raise ValueError(f"{job.label} (digest {job.digest()[:12]}) is "
                             f"not a batch of the campaign of {first.label}")
    golden = golden_run(first._workload(), first.policy, first.config,
                        first.sim)
    num_threads = len(golden.names)
    strikes: List[Tuple[StrikeSpec, int, int]] = []
    for j, job in enumerate(jobs):
        capacity = machine_capacity(job.structure, job.config, num_threads)
        bits = strike_entry_bits(job.structure)
        strikes += [(draw_strike(job.seed, job.structure, index,
                                 golden.cycles, capacity, bits, job.mbu), j, i)
                    for i, index in enumerate(job.indices)]
    # A stable sort: equal cycles keep plan order.
    strikes.sort(key=lambda strike: strike[0].cycle)
    last = {j: position for position, (_, j, _) in enumerate(strikes)}
    order = ([job for job in jobs if not job.indices]
             + [jobs[j] for j in sorted(last, key=last.get)])
    return order, _strike_batches(jobs, golden, strikes)


def _strike_batches(jobs: List[LiveBatchJob], golden: GoldenRun,
                    strikes: List[Tuple[StrikeSpec, int, int]]
                    ) -> Iterator[Tuple[LiveBatchJob, Dict[str, object]]]:
    for job in jobs:
        if not job.indices:
            yield job, {"records": []}
    first = jobs[0]
    workload = first._workload()
    records: List[List[Optional[LiveStrikeRecord]]] = [
        [None] * len(job.indices) for job in jobs]
    pending = [len(job.indices) for job in jobs]
    driver = _StrikeDriver(workload, first.policy, first.config, first.sim,
                           golden, first.live)
    for spec, j, i in strikes:
        records[j][i] = run_one_strike(spec, workload, first.policy,
                                       first.config, first.sim, golden,
                                       first.protection, first.live, driver)
        pending[j] -= 1
        if not pending[j]:
            yield jobs[j], {"records": [record.to_payload()
                                        for record in records[j]]}


def _batched(indices: Sequence[int], batch: int) -> List[Tuple[int, ...]]:
    batch = max(1, batch)
    return [tuple(indices[i:i + batch])
            for i in range(0, len(indices), batch)]


def _normalised(workload: Union[WorkloadMix, Sequence[str]],
                injections: int, structures: Sequence[Structure],
                policy: str, config: Optional[MachineConfig],
                sim: Optional[SimConfig], protection: CoercibleProtection,
                live: Optional[LiveConfig], mbu: Optional[MbuConfig]):
    """Default and validate the arguments :func:`plan_live_batches` and
    :func:`run_live_campaign` share: (name, programs, policy name, config,
    sim, protection, live, mbu)."""
    unsupported = [s for s in structures if s not in INJECTABLE]
    if unsupported:
        raise ReproError(f"cannot inject into {unsupported}; "
                         f"supported: {list(INJECTABLE)}")
    if injections < 0:
        raise ReproError("injections must be >= 0")
    mix = isinstance(workload, WorkloadMix)
    return (workload.name if mix else "+".join(workload),
            tuple(workload.programs if mix else workload),
            policy if isinstance(policy, str) else policy.name,
            config or DEFAULT_CONFIG, sim or SimConfig(max_instructions=600),
            ProtectionConfig.coerce(protection), live or LiveConfig(),
            mbu or MbuConfig())


def plan_live_batches(workload: Union[WorkloadMix, Sequence[str]],
                      injections: int = 24,
                      structures: Sequence[Structure] = INJECTABLE,
                      policy: str = "ICOUNT",
                      config: Optional[MachineConfig] = None,
                      sim: Optional[SimConfig] = None,
                      seed: int = 42,
                      protection: CoercibleProtection = ProtectionScheme.NONE,
                      live: Optional[LiveConfig] = None,
                      mbu: Optional[MbuConfig] = None,
                      ) -> List[LiveBatchJob]:
    """Shard a live campaign into supervised :class:`LiveBatchJob` units.

    This is the batch-submission API: validation, normalization and
    batching with *no* execution, so a caller that schedules work itself
    (the campaign service) can plan a campaign, count its batches, and
    feed the jobs to its own supervisor.  :func:`run_live_campaign` plans
    through here, so both paths shard identically — same digests, same
    per-batch cache entries.
    """
    (name, programs, policy_name, config, base_sim, protection, live,
     mbu) = _normalised(workload, injections, structures, policy, config,
                        sim, protection, live, mbu)
    return [
        LiveBatchJob(workload_name=name, programs=programs,
                     policy=policy_name, config=config, sim=base_sim,
                     seed=seed, protection=protection, live=live,
                     structure=structure, indices=batch, mbu=mbu)
        for structure in structures
        for batch in _batched(range(injections), live.strike_batch)
    ]


def run_live_campaign(workload: Union[WorkloadMix, Sequence[str]],
                      injections: int = 24,
                      structures: Sequence[Structure] = INJECTABLE,
                      policy: str = "ICOUNT",
                      config: Optional[MachineConfig] = None,
                      sim: Optional[SimConfig] = None,
                      seed: int = 42,
                      protection: CoercibleProtection = ProtectionScheme.NONE,
                      live: Optional[LiveConfig] = None,
                      mbu: Optional[MbuConfig] = None,
                      forced: Sequence[str] = (),
                      jobs: int = 1,
                      supervisor=None,
                      cache_dir: Optional[Union[str, Path]] = None,
                      on_batch=None,
                      ) -> LiveCampaignResult:
    """Run a live injection campaign over ``structures``.

    ``injections`` strikes per structure are sampled, injected and
    classified against the golden run; ``forced`` adds guaranteed-outcome
    probe strikes (:data:`FORCED_KINDS`) reported separately.

    Inline (``jobs == 1``, no ``supervisor``), the batches the cache does
    not answer run together on one strike driver (:func:`run_batches`):
    the golden run is advanced once for the whole campaign, and each batch
    lands when its last strike — in cycle order — is classified.  With
    ``jobs > 1`` or an explicit ``supervisor``, the same runner executes
    on the supervised worker pool: the pending batches are split into
    about one group of consecutive batches per worker, each group struck
    on one driver, and each batch streamed back as it lands (timeouts,
    retries and resume via the supervisor's journal stay per batch).
    Records are identical either way.

    ``cache_dir`` persists each batch as ``live-<digest>.json``.
    ``on_batch(job, payload)`` fires once per batch as it lands: first the
    batches answered by the cache, in plan order, then the executed ones
    in completion order (by last strike cycle within a group, not plan
    order).
    The campaign service streams partial Wilson intervals from it.
    """
    (name, _, policy_name, config, base_sim, protection, live,
     mbu) = _normalised(workload, injections, structures, policy, config,
                        sim, protection, live, mbu)
    if jobs < 1:
        raise ReproError("jobs must be >= 1")
    unknown = [k for k in forced if k not in FORCED_KINDS]
    if unknown:
        raise ReproError(f"unknown forced kinds {unknown}; "
                         f"known: {list(FORCED_KINDS)}")

    golden = golden_run(workload, policy_name, config, base_sim)

    jobs_list = plan_live_batches(workload, injections=injections,
                                  structures=structures, policy=policy_name,
                                  config=config, sim=base_sim, seed=seed,
                                  protection=protection, live=live, mbu=mbu)

    store = ContentStore(cache_dir) if cache_dir is not None else None

    by_key: Dict[Tuple[int, int], LiveStrikeRecord] = {}
    order = {s: i for i, s in enumerate(structures)}

    def commit(job: LiveBatchJob, payload: Dict[str, object]) -> None:
        for entry in payload["records"]:
            record = LiveStrikeRecord.from_payload(entry)
            by_key[(order[record.structure], record.index)] = record
        if store is not None:
            store.put(f"live-{job.digest()}",
                      {"records": payload["records"]})
        if on_batch is not None:
            on_batch(job, payload)

    def already_done(job: LiveBatchJob) -> bool:
        entry = (store.get(f"live-{job.digest()}", decode=job.validate)
                 if store is not None else None)
        if entry is None:
            return False
        for raw in entry["records"]:
            record = LiveStrikeRecord.from_payload(raw)
            by_key[(order[record.structure], record.index)] = record
        if on_batch is not None:
            on_batch(job, {"records": list(entry["records"])})
        return True

    cached = 0
    executed = 0
    if supervisor is None and jobs == 1:
        pending = [job for job in jobs_list if not already_done(job)]
        cached = len(jobs_list) - len(pending)
        for job, payload in run_batches(pending):
            commit(job, payload)
            executed += 1
    else:
        if supervisor is None:
            from repro.resilience import RetryPolicy, Supervisor

            supervisor = Supervisor(
                max_workers=jobs,
                policy=RetryPolicy(retries=1, max_failures=0))
        outcome = supervisor.run(jobs_list, commit=commit,
                                 already_done=already_done)
        cached = outcome.skipped
        executed = outcome.executed

    result = LiveCampaignResult(workload=name, cycles=golden.cycles,
                                injections_per_structure=injections,
                                protection=protection, mbu=mbu,
                                batches_cached=cached,
                                batches_executed=executed)
    result.records = [by_key[key] for key in sorted(by_key)]
    for structure in structures:
        campaign = StructureCampaign(
            structure=structure, injections=injections,
            reported_avf=float(golden.avf[structure]))
        for record in result.records:
            if record.structure is structure:
                campaign.outcomes[record.outcome] = (
                    campaign.outcomes.get(record.outcome, 0) + 1)
        result.structures[structure] = campaign

    for kind in forced:
        result.forced[kind] = run_forced_strike(
            kind, workload, policy_name, config, base_sim, golden, live)
    return result
