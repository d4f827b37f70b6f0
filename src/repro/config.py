"""Machine and simulation configuration (Table 1 of the paper).

The defaults of :class:`MachineConfig` reproduce the simulated machine of
Table 1: an 8-wide, 7-stage SMT pipeline with a 96-entry shared issue queue,
per-thread 96-entry ROBs and 48-entry load/store queues, a shared merged
physical register file, and the cache/TLB hierarchy listed in the table.

Two values the paper does not state explicitly are documented here:

* the merged physical register pool size (``int_phys_regs``/``fp_phys_regs``,
  160 each) — chosen so that four or more threads contend for registers,
  which is what throttles per-thread ROB occupancy in the paper's Section 4.1
  analysis;
* the number of MSHRs (outstanding misses) per cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one set-associative cache."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int
    ports: int = 1
    mshrs: int = 8
    writeback: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.assoc <= 0:
            raise ConfigError(f"{self.name}: sizes must be positive")
        if self.size_bytes % (self.line_bytes * self.assoc) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(f"{self.name}: number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    @property
    def num_lines(self) -> int:
        return self.num_sets * self.assoc


@dataclass(frozen=True)
class TlbConfig:
    """Geometry and timing of one TLB."""

    name: str
    entries: int
    assoc: int
    miss_latency: int
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.assoc <= 0:
            raise ConfigError(f"{self.name}: entries and assoc must be positive")
        if self.entries % self.assoc != 0:
            raise ConfigError(f"{self.name}: entries not divisible by assoc")

    @property
    def num_sets(self) -> int:
        return self.entries // self.assoc


@dataclass(frozen=True)
class BranchConfig:
    """Per-thread branch prediction resources (Table 1)."""

    gshare_entries: int = 2048
    history_bits: int = 10
    btb_entries: int = 2048
    btb_assoc: int = 4
    ras_entries: int = 32
    misprediction_penalty: int = 7  # pipeline depth: redirect refills the front end

    def __post_init__(self) -> None:
        if self.gshare_entries & (self.gshare_entries - 1):
            raise ConfigError("gshare_entries must be a power of two")
        if self.history_bits < 0 or self.history_bits > 30:
            raise ConfigError("history_bits out of range")


@dataclass(frozen=True)
class MachineConfig:
    """Complete configuration of the simulated SMT machine (Table 1)."""

    # Pipeline
    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    pipeline_depth: int = 7
    fetch_threads_per_cycle: int = 1
    """Threads fetched per cycle: 1 = ICOUNT1.8 (M-Sim's default fetch
    arrangement, used here as the baseline), 2 = ICOUNT2.8.  The 1.8 scheme
    throttles instruction supply on high-IPC mixes, which is what keeps the
    shared IQ from saturating on CPU-bound workloads — the precondition for
    the paper's Figure 1 ordering (memory-bound mixes have the higher IQ
    AVF)."""
    decode_latency: int = 3  # fetch -> rename latency (front-end stages)

    # Shared structures
    iq_entries: int = 96
    int_phys_regs: int = 160
    """Shared INT *rename* registers beyond the per-thread architectural
    backing.  The physical file is sized ``32 x threads + int_phys_regs``
    (M-Sim's scheme); the fixed rename pool is what threads contend for,
    which is the paper's Section 4.1 mechanism limiting per-thread ROB
    occupancy under SMT."""
    fp_phys_regs: int = 160
    """Shared FP rename registers beyond architectural backing (see above)."""

    iq_partitioned: bool = False
    """Statically partition the shared issue queue among contexts.

    The paper's Section 5 proposes "predefined static IQ partitions for each
    thread" as a reliability-aware resource-allocation scheme: a thread with
    a long dependence chain can no longer clog the whole IQ with stalled ACE
    bits.  When enabled, dispatch caps each thread at iq_entries/contexts.
    """

    # Per-thread structures
    rob_entries: int = 96
    lsq_entries: int = 48

    # Functional units: (count, latency); latency of 1 = fully pipelined ALU
    int_alus: int = 8
    int_mult_div: int = 4
    load_store_units: int = 4
    fp_alus: int = 8
    fp_mult_div: int = 4

    int_alu_latency: int = 1
    int_mult_latency: int = 3
    int_div_latency: int = 20
    fp_alu_latency: int = 2
    fp_mult_latency: int = 4
    fp_div_latency: int = 12
    agen_latency: int = 1

    branch: BranchConfig = field(default_factory=BranchConfig)

    # Memory hierarchy (Table 1)
    il1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            "il1", 32 * 1024, 2, 32, hit_latency=1, ports=2, writeback=False
        )
    )
    dl1: CacheConfig = field(
        default_factory=lambda: CacheConfig("dl1", 64 * 1024, 4, 64, hit_latency=1, ports=2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            "l2", 2 * 1024 * 1024, 4, 128, hit_latency=12, ports=1, mshrs=16
        )
    )
    itlb: TlbConfig = field(default_factory=lambda: TlbConfig("itlb", 128, 4, miss_latency=200))
    dtlb: TlbConfig = field(default_factory=lambda: TlbConfig("dtlb", 256, 4, miss_latency=200))
    memory_latency: int = 200

    def __post_init__(self) -> None:
        for name in ("fetch_width", "issue_width", "commit_width", "iq_entries",
                     "rob_entries", "lsq_entries", "int_phys_regs", "fp_phys_regs"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.fetch_threads_per_cycle < 1:
            raise ConfigError("fetch_threads_per_cycle must be >= 1")
        if self.decode_latency < 1:
            raise ConfigError("decode_latency must be >= 1")

    def with_overrides(self, **kwargs: Any) -> "MachineConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = MachineConfig()


@dataclass(frozen=True)
class SimConfig:
    """Run-length and instrumentation knobs for one simulation."""

    max_instructions: int = 20_000
    """Total committed instructions (all threads) at which the run stops.

    The paper simulates 50M/100M/200M instructions for 2/4/8 contexts; this
    reproduction scales those counts down (see DESIGN.md) while preserving the
    2:4:8 proportionality via :func:`scaled_instruction_budget`.
    """

    max_cycles: int = 10_000_000
    """Safety valve: abort if the run exceeds this many cycles."""

    warmup_instructions: int = 0
    """Committed instructions to run before AVF/perf counters are reset."""

    functional_warmup: bool = True
    """Walk each trace's memory addresses and branches through the caches,
    TLBs and predictors (content only, zero cycles) before timed simulation.

    The paper fast-forwards each benchmark to its SimPoint (warming all
    state along the way) before detailed simulation; at reproduction scale
    this pass plays that role — without it, every run measures pure
    cold-start behaviour.
    """

    seed: int = 1

    phase_window_cycles: int = 0
    """Sample a per-structure AVF time series every this many cycles.

    0 disables phase tracking; see :mod:`repro.avf.phases`.
    """

    check_invariants: int = 0
    """Audit pipeline/ledger conservation laws every this many cycles.

    0 disables auditing.  N > 0 runs the :mod:`repro.audit` invariant
    checks every N cycles and attaches an audit record to the result.  It
    also logs every residency interval verbatim
    (:class:`~repro.instrument.recorder.IntervalRecorder`, memory
    proportional to the run), so the final pass after drain can replay
    them against the summed ledgers
    (:func:`repro.audit.check_interval_replay`).  Auditing is
    observation-only: it never changes what the run measures, only whether
    drift is detected.
    """

    def __post_init__(self) -> None:
        if self.max_instructions <= 0:
            raise ConfigError("max_instructions must be positive")
        if self.max_cycles <= 0:
            raise ConfigError("max_cycles must be positive")
        if self.warmup_instructions < 0:
            raise ConfigError("warmup_instructions must be >= 0")
        if self.phase_window_cycles < 0:
            raise ConfigError("phase_window_cycles must be >= 0")
        if self.check_invariants < 0:
            raise ConfigError("check_invariants must be >= 0")


def scaled_instruction_budget(num_threads: int, base_per_2_threads: int = 10_000) -> int:
    """Instruction budget proportional to the paper's 50M/100M/200M scheme.

    The paper terminates runs at 50M, 100M and 200M total instructions for
    2-, 4- and 8-context workloads respectively, i.e. 25M per context.  This
    helper preserves that proportionality at reproduction scale.
    """
    if num_threads <= 0:
        raise ConfigError("num_threads must be positive")
    return base_per_2_threads * max(1, num_threads) // 2
