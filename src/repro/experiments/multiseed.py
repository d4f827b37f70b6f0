"""Multi-seed replication: statistical robustness for any experiment.

The paper averages over workload groups A and B to avoid bias toward one
thread set; the statistical workload models add a second axis — the
generator seed.  This helper reruns a measurement across seeds and reports
mean and spread, so any figure's stability can be quantified (and any
shape assertion checked against noise rather than one draw).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.avf.structures import Structure
from repro.config import DEFAULT_CONFIG, MachineConfig, SimConfig
from repro.errors import ConfigError
from repro.experiments.runner import ResultCache, job_digest
from repro.sim.results import SimResult
from repro.sim.simulator import simulate
from repro.workload.mixes import WorkloadMix


@dataclass
class SeedStatistics:
    """Mean / min / max / stdev of one scalar across seeds."""

    values: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def std(self) -> float:
        n = len(self.values)
        if n < 2:
            return 0.0
        m = self.mean
        return (sum((v - m) ** 2 for v in self.values) / (n - 1)) ** 0.5

    @property
    def spread(self) -> float:
        """Relative spread: (max - min) / mean (0 when degenerate)."""
        if not self.values or self.mean == 0:
            return 0.0
        return (max(self.values) - min(self.values)) / self.mean


@dataclass
class MultiSeedResult:
    """Per-structure AVF and IPC statistics across seeds."""

    workload: str
    policy: str
    seeds: Sequence[int]
    ipc: SeedStatistics = field(default_factory=SeedStatistics)
    avf: Dict[Structure, SeedStatistics] = field(default_factory=dict)
    runs: List[SimResult] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"{self.workload} [{self.policy}] over seeds {list(self.seeds)}:",
                 f"  IPC  mean={self.ipc.mean:.3f} std={self.ipc.std:.3f}"]
        for s, stat in self.avf.items():
            lines.append(f"  {s.value:<9} mean={stat.mean:.4f} "
                         f"std={stat.std:.4f} spread={stat.spread:.2f}")
        return "\n".join(lines)


def run_multiseed(workload: Union[WorkloadMix, Sequence[str]],
                  seeds: Sequence[int] = (1, 2, 3),
                  policy: str = "ICOUNT",
                  instructions_per_thread: int = 2000,
                  config: Optional[MachineConfig] = None,
                  structures: Optional[Sequence[Structure]] = None,
                  cache: Optional[ResultCache] = None,
                  jobs: int = 1,
                  supervisor=None) -> MultiSeedResult:
    """Run one workload/policy point under several generator seeds.

    With ``cache`` given (typically a disk-backed :class:`ResultCache`),
    per-seed runs are cached, so re-running a spread analysis with more
    seeds only simulates the new ones.  ``jobs`` fans the per-seed runs
    over worker processes and ``supervisor`` (a
    :class:`repro.resilience.Supervisor`) makes that fan-out survive
    crashes, hangs and corrupt payloads; a seed whose job failed
    permanently surfaces as :class:`~repro.errors.MissingResultError`
    when its statistics are gathered.
    """
    if len(seeds) < 1:
        raise ConfigError("need at least one seed")
    config = config or DEFAULT_CONFIG
    programs = (workload.programs if isinstance(workload, WorkloadMix)
                else tuple(workload))
    threads = len(programs)
    tracked = tuple(structures) if structures else tuple(Structure)
    name = (workload.name if isinstance(workload, WorkloadMix)
            else "+".join(workload))
    sims = [SimConfig(max_instructions=instructions_per_thread * threads,
                      seed=seed) for seed in seeds]
    if jobs > 1 or supervisor is not None:
        # Fan the independent per-seed runs out first; the statistics
        # loop below then reads them from the (now warm) cache.  A custom
        # WorkloadMix a SimJob cannot reconstruct (digest would not match
        # the read below) stays on the inline path.
        from repro.experiments.parallel import SimJob, run_jobs

        cache = cache or ResultCache(config)
        fan_out = []
        for sim in sims:
            job = SimJob(workload_name=name, programs=programs,
                         policy=policy, config=config, sim=sim)
            if job.digest() == job_digest(config, sim, workload, policy):
                fan_out.append(job)
        run_jobs(fan_out, cache, max_workers=jobs, supervisor=supervisor)
    out = MultiSeedResult(workload=name, policy=policy, seeds=tuple(seeds),
                          avf={s: SeedStatistics() for s in tracked})
    for sim in sims:
        if cache is not None:
            result = cache.run(workload, policy=policy, sim=sim, config=config)
        else:
            result = simulate(workload, policy=policy, config=config, sim=sim)
        out.runs.append(result)
        out.ipc.values.append(result.ipc)
        for s in tracked:
            out.avf[s].values.append(result.avf.avf[s])
    return out
