"""Resource-scaling sensitivity: Section 5's sizing argument, measured.

"By increasing the size of a microarchitecture structure, architects aim to
exploit more parallelism.  Nevertheless, the performance gain does not
correlate with the scale of hardware resources in a linear manner.  This
effect, on the other hand, has a great influence on reliability, because
the increased size ... is likely to bring in more in-flight instructions
and expose more program states to soft-error strikes."

:func:`run_resource_sweep` scales one structure (IQ, ROB, LSQ or the rename
pools) across a size ladder and reports throughput alongside the
*exposure* of the structure — its ACE-bit-cycles per cycle (AVF x bits),
the quantity that actually multiplies the raw error rate.  The expected
picture: IPC saturates while exposure keeps growing, so past the knee every
added entry costs reliability for no performance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.avf.bits import structure_bits
from repro.avf.structures import Structure
from repro.errors import ConfigError
from repro.experiments.formatting import render_table
from repro.experiments.runner import ExperimentScale, ResultCache
from repro.workload.mixes import WorkloadMix, get_mix

#: Resources the sweep can scale and the structure whose exposure it tracks.
SWEEPABLE = {
    "iq": (("iq_entries",), Structure.IQ),
    "rob": (("rob_entries",), Structure.ROB),
    "lsq": (("lsq_entries",), Structure.LSQ_TAG),
    "regs": (("int_phys_regs", "fp_phys_regs"), Structure.REG),
}


@dataclass
class SweepPoint:
    """One size step of the ladder."""

    size: int
    ipc: float
    avf: float
    exposed_bits: float
    """ACE bits resident per cycle: AVF x structure bits — what the raw
    error rate multiplies."""


@dataclass
class SweepData:
    resource: str
    workload: str
    structure: Structure
    points: List[SweepPoint] = field(default_factory=list)

    def ipc_gain(self, i: int) -> float:
        """Relative IPC gain of step ``i`` over step ``i-1``."""
        return self.points[i].ipc / self.points[i - 1].ipc - 1.0

    def exposure_gain(self, i: int) -> float:
        return (self.points[i].exposed_bits
                / max(self.points[i - 1].exposed_bits, 1e-12) - 1.0)


def run_resource_sweep(resource: str,
                       sizes: Sequence[int],
                       workload: Union[str, WorkloadMix] = "4-MIX-A",
                       scale: Optional[ExperimentScale] = None,
                       policy: str = "ICOUNT",
                       cache: Optional[ResultCache] = None,
                       jobs: int = 1,
                       supervisor=None) -> SweepData:
    """Scale one resource over ``sizes`` and measure IPC and exposure.

    Every size step is a :class:`~repro.experiments.parallel.SimJob`
    planned through :func:`~repro.experiments.parallel.run_jobs` into
    ``cache`` (a private one when none is given), keyed by the overridden
    machine config — so repeated sweeps and the ``reproduce`` driver's
    prewarm reuse the runs, and the inline path builds the steps' shared
    traces once.  ``jobs``/``supervisor`` fan the steps over a
    (supervised, fault-tolerant) worker pool instead; a step whose job
    failed permanently surfaces as
    :class:`~repro.errors.MissingResultError` when the sweep reads it.
    """
    # Imported lazily: parallel.py imports SWEEPABLE from this module.
    from repro.experiments.parallel import SimJob, run_jobs

    if resource not in SWEEPABLE:
        raise ConfigError(f"unknown resource {resource!r}; "
                          f"known: {sorted(SWEEPABLE)}")
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ConfigError("sizes must be at least two positive values")
    scale = scale or ExperimentScale.from_env()
    mix = get_mix(workload) if isinstance(workload, str) else workload
    fields, structure = SWEEPABLE[resource]

    data = SweepData(resource=resource, workload=mix.name, structure=structure)
    cache = cache or ResultCache()
    configs = [cache.config.with_overrides(**{f: size for f in fields})
               for size in sizes]
    # Built via the scale (not a bare SimConfig) so the digest matches
    # the reproduce planner's jobs even when runtime auditing is on.
    sim = scale.sim_config(mix.num_threads)
    steps = [SimJob(workload_name=mix.name, programs=mix.programs,
                    policy=policy, config=config, sim=sim)
             for config in configs]
    # A custom mix a SimJob cannot reconstruct would be filed under
    # another digest than the read below; it is simulated by that read.
    run_jobs([job for job in steps if job.workload() == mix], cache,
             max_workers=jobs, supervisor=supervisor)
    for size, config in zip(sizes, configs):
        result = cache.run(mix, policy=policy, sim=sim, config=config)
        avf = result.avf.avf[structure]
        bits = structure_bits(structure, config, mix.num_threads)
        data.points.append(SweepPoint(size=size, ipc=result.ipc, avf=avf,
                                      exposed_bits=avf * bits))
    return data


def format_sweep(data: SweepData) -> str:
    rows = [[p.size, p.ipc, p.avf, p.exposed_bits] for p in data.points]
    return render_table(
        f"Resource sweep: {data.resource} on {data.workload} "
        f"(exposure = AVF x {data.structure.value} bits)",
        ["size", "IPC", "AVF", "exposed ACE bits"],
        rows,
    )
