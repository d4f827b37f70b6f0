"""Shared experiment plumbing: scaling, run caching, workload averaging.

The :class:`ResultCache` is the single funnel every experiment's
simulations go through.  It memoises in memory (so figures sharing runs —
1↔2, 6↔7↔8 — never repeat them within a process) and, when given a
``cache_dir``, persists every :class:`SimResult` to disk keyed by a stable
content hash of the full (machine config, sim config, workload, policy)
tuple, so repeated CLI invocations skip simulation entirely.  Entries go
through the :class:`~repro.content_store.ContentStore`: checksummed on
every read, so stale or corrupt files are invalidated (deleted and
recomputed), never misread.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.avf.structures import Structure
from repro.config import DEFAULT_CONFIG, MachineConfig, SimConfig
from repro.content_store import ContentStore, stable_digest
from repro.errors import ConfigError, MissingResultError
from repro.sim.results import SimResult
from repro.sim.session import check_traces
from repro.sim.simulator import simulate
from repro.workload.generator import ThreadTrace
from repro.workload.mixes import WorkloadMix, mixes_for

#: Environment knob for benchmark runs: per-thread instruction budget.
SCALE_ENV_VAR = "REPRO_SCALE"

#: Environment knob for runtime auditing: invariant-check interval in
#: cycles (0/unset = off).  Read by :meth:`ExperimentScale.from_env`, so
#: ``repro-sim reproduce --check-invariants`` reaches every simulation,
#: including those fanned out to worker processes.
AUDIT_ENV_VAR = "REPRO_CHECK_INVARIANTS"

MIX_TYPES = ("CPU", "MIX", "MEM")

@dataclass(frozen=True)
class ExperimentScale:
    """Run-length/seed settings shared by a family of experiment runs."""

    instructions_per_thread: int = 2500
    seed: int = 1
    check_invariants: int = 0

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        """Scale from ``REPRO_SCALE`` (per-thread instructions), default 2500.

        ``REPRO_CHECK_INVARIANTS`` (cycles between runtime audits, 0 = off)
        rides along the same way.  Raises :class:`ConfigError` for
        non-integer or non-positive values — a zero/negative budget would
        silently produce empty runs.
        """
        check_invariants = cls._env_int(AUDIT_ENV_VAR, minimum=0, default=0)
        raw = os.environ.get(SCALE_ENV_VAR)
        if raw is None or not raw.strip():
            return cls(check_invariants=check_invariants)
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"{SCALE_ENV_VAR} must be an integer instruction count, "
                f"got {raw!r}") from None
        if value <= 0:
            raise ConfigError(
                f"{SCALE_ENV_VAR} must be a positive instruction count, "
                f"got {value}")
        return cls(instructions_per_thread=value,
                   check_invariants=check_invariants)

    @staticmethod
    def _env_int(name: str, minimum: int, default: int) -> int:
        raw = os.environ.get(name)
        if raw is None or not raw.strip():
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")
        return value

    def sim_config(self, num_threads: int) -> SimConfig:
        return SimConfig(
            max_instructions=self.instructions_per_thread * num_threads,
            seed=self.seed,
            check_invariants=self.check_invariants,
        )


WorkloadLike = Union[WorkloadMix, Sequence[str]]


def workload_label(workload: WorkloadLike) -> str:
    """The name a :func:`simulate` run records for this workload."""
    if isinstance(workload, WorkloadMix):
        return workload.name
    return "+".join(workload)


def workload_programs(workload: WorkloadLike) -> Tuple[str, ...]:
    if isinstance(workload, WorkloadMix):
        return workload.programs
    return tuple(workload)


def job_key(config: MachineConfig, sim: SimConfig,
            workload: WorkloadLike, policy: str) -> Dict[str, object]:
    """Canonical identity of one simulation, as a JSON-safe dict.

    Covers every input that can change the result: the complete machine
    configuration, the complete sim configuration (including the seed), the
    workload label and program list, and the fetch policy.
    """
    return _job_key(config, sim, workload_label(workload),
                    workload_programs(workload), policy)


def _job_key(config: MachineConfig, sim: SimConfig, label: str,
             programs: Tuple[str, ...], policy: str) -> Dict[str, object]:
    return {
        "workload": label,
        "programs": list(programs),
        "policy": policy,
        "machine": asdict(config),
        "sim": asdict(sim),
    }


class _ByRepr:
    """A frozen config keyed by its ``repr`` rather than by equality.

    ``SimConfig(seed=True) == SimConfig(seed=1)`` and the two hash alike,
    yet their JSON (and so their digest) differs; likewise a float and an
    int field of equal value.  Every config field is in its ``repr``
    (none is declared ``repr=False``), so equal reprs serialise alike.
    """

    __slots__ = ("obj", "key")

    def __init__(self, obj: object) -> None:
        self.obj = obj
        self.key = (type(obj), repr(obj))

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ByRepr) and self.key == other.key


# Bounded: the campaign server is a long-lived process.
@lru_cache(maxsize=1024)
def _job_digest(config: _ByRepr, sim: _ByRepr, label: str,
                programs: Tuple[str, ...], policy: str) -> str:
    return stable_digest(_job_key(config.obj, sim.obj, label, programs, policy))


def job_digest(config: MachineConfig, sim: SimConfig,
               workload: WorkloadLike, policy: str) -> str:
    """``stable_digest(job_key(...))``, memoised: the cache file name of one
    simulation.  The two ``asdict`` calls inside ``job_key`` dominate a
    warm reproduce, which asks for each job's digest several times."""
    return _job_digest(_ByRepr(config), _ByRepr(sim), workload_label(workload),
                       workload_programs(workload), policy)


class ResultCache:
    """Memoises simulations in memory and, optionally, on disk.

    Within a process, identical runs return the same :class:`SimResult`
    object.  With ``cache_dir`` set, results are also persisted as one JSON
    file per run under ``<cache_dir>/<digest>.json`` and reused by later
    processes — ``repro-sim reproduce --cache-dir`` makes artefact
    regeneration near-instant on the second invocation.

    Counters: ``simulated`` (runs actually executed through this cache),
    ``mem_hits`` and ``disk_hits``.
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 cache_dir: Optional[Union[str, Path]] = None) -> None:
        self.config = config or DEFAULT_CONFIG
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._disk = (ContentStore(self.cache_dir)
                      if self.cache_dir is not None else None)
        self._mem: Dict[str, SimResult] = {}
        self.failed: Dict[str, str] = {}
        self.simulated = 0
        self.mem_hits = 0
        self.disk_hits = 0

    # -- cached entry points -------------------------------------------------------

    def run(self, workload: WorkloadLike, policy: str = "ICOUNT",
            sim: Optional[SimConfig] = None,
            config: Optional[MachineConfig] = None,
            traces: Optional[List[ThreadTrace]] = None) -> SimResult:
        """Cached :func:`simulate` with an arbitrary machine/sim config.

        ``traces`` lends the run pre-built traces, e.g. shared with other
        runs of the same trace identity.  They must be the ones
        ``build_traces(workload, sim)`` builds (else :class:`ConfigError`):
        the cache key claims exactly those.
        """
        config = config or self.config
        sim = sim or SimConfig()
        if traces is not None:
            check_traces(workload, sim, traces)
        digest = job_digest(config, sim, workload, policy)
        hit = self.get(digest)
        if hit is not None:
            return hit
        if digest in self.failed:
            # A supervised run already exhausted this job's retries; a
            # silent inline re-run here would mask the failure (and likely
            # fail the same way, this time with nothing supervising it).
            raise MissingResultError(self.failed[digest], digest)
        result = simulate(workload, policy=policy, config=config, sim=sim,
                          traces=traces)
        self.simulated += 1
        self.put(digest, result)
        return result

    def smt(self, mix: WorkloadMix, policy: str, scale: ExperimentScale) -> SimResult:
        return self.run(mix, policy=policy, sim=scale.sim_config(mix.num_threads))

    def single_thread(self, program: str, instructions: int,
                      scale: ExperimentScale) -> SimResult:
        """Standalone (superscalar) run committing exactly ``instructions``."""
        return self.run([program], policy="ICOUNT",
                        sim=SimConfig(max_instructions=instructions,
                                      seed=scale.seed,
                                      check_invariants=scale.check_invariants))

    # -- store ---------------------------------------------------------------------

    def get(self, digest: str) -> Optional[SimResult]:
        """Memory-then-disk lookup; None on miss."""
        hit = self._mem.get(digest)
        if hit is not None:
            self.mem_hits += 1
            return hit
        if self._disk is None:
            return None
        result = self._disk.get(digest, decode=SimResult.from_payload)
        if result is not None:
            self.disk_hits += 1
            self._mem[digest] = result
        return result

    def put(self, digest: str, result: SimResult) -> None:
        """Insert a finished run (memory always; disk when configured).

        Runs carrying a phase series stay memory-only: the series is not
        part of the serialization schema (see ``SimResult.to_payload``).
        """
        self._mem[digest] = result
        if self._disk is not None and result.phase_series is None:
            self._disk.put(digest, result.to_payload())

    def mark_failed(self, digest: str, label: str) -> None:
        """Record that a supervised job failed permanently.

        A later :meth:`run` for the same digest raises
        :class:`~repro.errors.MissingResultError` instead of silently
        re-simulating, so renderers degrade to explicit ``MISSING``
        markers.  :meth:`get` still answers (``None``) without raising —
        planners probe presence through it.
        """
        self.failed[digest] = label

    def clear(self) -> None:
        """Drop the in-memory memo (on-disk entries are left alone)."""
        self._mem.clear()


#: Process-wide cache shared by all figure modules (and hence by the
#: benchmark suite, where figures 1/2 and 6/7/8 reuse the same runs).
default_cache = ResultCache()


def average_avf(results: List[SimResult], structure: Structure) -> float:
    """Mean structure AVF over workload groups (the paper reports averages)."""
    return sum(r.avf.avf[structure] for r in results) / len(results)


def average_ipc(results: List[SimResult]) -> float:
    return sum(r.ipc for r in results) / len(results)


def groups_for(num_threads: int, mix_type: str) -> List[WorkloadMix]:
    """All Table 2 groups (A and, where present, B) of one workload type."""
    return mixes_for(num_threads, mix_type)


@dataclass
class StructureSeries:
    """One figure series: a value per tracked structure."""

    label: str
    values: Dict[Structure, float] = field(default_factory=dict)

    def row(self, order) -> List[float]:
        return [self.values[s] for s in order]
