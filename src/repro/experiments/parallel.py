"""Parallel experiment execution: fan simulation jobs over worker processes.

One job is one independent :func:`repro.sim.simulator.simulate` call — a
(workload, policy, machine config, sim config) tuple.  :func:`run_jobs`
deduplicates jobs by content digest, skips those already satisfied by the
:class:`ResultCache` (memory or disk) and executes the rest.

Either way the pending jobs are grouped by trace identity (programs,
trace length, seed — see :func:`repro.sim.session.trace_identity`), in
first-seen order, and each group runs through the same runner
(``_run_group``): the group's traces are built once, every job of the
group runs on them through :meth:`ResultCache.run`, and they are dropped
when the group ends.
Figures 6-8 run each mix under six fetch policies and the resource sweep
runs one mix at four sizes, so most reproduce jobs share a group.

* Inline (one worker, no supervisor): one group at a time, so at most one
  group's traces are alive at a time.
* Pooled: each group is one task group of a supervised worker pool
  (:mod:`repro.resilience`), which streams every job's result back as it
  finishes, so each stage builds each identity's traces once.  Only a
  retried job builds again, and so does each part of an identity split
  over the pool (with fewer identities than workers).  Crashes, hangs and
  corrupt payloads are retried per the supervisor's policy, and every
  completed result lands in the cache even when a sibling job fails.

Either way artefact rendering afterwards never simulates.

:func:`prewarm_artefacts` knows which runs each ``repro-sim reproduce``
artefact needs.  Planning happens in two stages because the single-thread
reference runs of Figures 3/4/8 and the SMT-vs-superscalar verdict depend
on the committed instruction counts of the SMT runs: stage one fans out
every SMT simulation, stage two derives the single-thread jobs from the
then-warm cache and fans those out.

The planners mirror the workload sets hard-coded in the ``fig*`` modules;
a drift between the two is benign — a missed job is simply simulated inline
at render time (cache miss), never wrong.

Determinism: a simulation depends only on its job tuple, and results cross
process boundaries as exact payload dicts (float bit patterns preserved by
pickle), so ``--jobs N`` renders byte-identical artefact text to ``--jobs
1``; tests assert this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.config import MachineConfig, SimConfig
from repro.errors import ConfigError, MissingResultError
from repro.experiments.runner import (
    MIX_TYPES,
    ExperimentScale,
    ResultCache,
    job_digest,
)
from repro.experiments.protection_frontier import (
    FRONTIER_BUDGET_CAP, FRONTIER_WORKLOAD)
from repro.experiments.sensitivity import SWEEPABLE
from repro.fetch.registry import POLICY_NAMES
from repro.resilience import RetryPolicy, Supervisor
from repro.sim.results import SimResult
from repro.sim.session import TraceIdentity, build_traces, trace_identity
from repro.workload.mixes import TABLE2_MIXES, WorkloadMix, get_mix, mixes_for

#: Workloads Figure 3 (and thus Figure 4) compares across execution modes.
FIG3_WORKLOADS = ("4-CPU-A", "4-MIX-A", "4-MEM-A")

#: The resource-scaling artefact's sweep: (resource, size ladder, workload).
#: Shared with ``reproduce.ARTEFACTS`` so planner and renderer cannot drift.
RESOURCE_SWEEP = ("rob", (24, 48, 96, 192), "4-CPU-A")

#: Every artefact the planners know how to prewarm — kept equal to the
#: keys of ``reproduce.ARTEFACTS`` (a test asserts it), defined here so a
#: typo'd name fails loudly instead of posing as an already-warm cache.
KNOWN_ARTEFACTS = frozenset({
    "fig1_avf_profile", "fig2_efficiency", "fig3_smt_vs_st",
    "fig4_smt_vs_st_efficiency", "fig5_context_scaling",
    "fig6_fetch_policies", "fig7_policy_efficiency", "fig8_fairness",
    "smt_vs_superscalar", "resource_scaling", "injection_validation",
    "protection_frontier",
})


@dataclass(frozen=True)
class SimJob:
    """One independent simulation: everything ``simulate`` needs, picklable."""

    workload_name: str
    programs: Tuple[str, ...]
    policy: str
    config: MachineConfig
    sim: SimConfig

    def workload(self) -> Union[WorkloadMix, List[str]]:
        """The Table 2 mix when the name matches one, else the program list."""
        mix = TABLE2_MIXES.get(self.workload_name)
        if mix is not None and mix.programs == self.programs:
            return mix
        return list(self.programs)

    def digest(self) -> str:
        return job_digest(self.config, self.sim, self.workload(), self.policy)

    # -- supervised-task protocol (see repro.resilience.supervisor) --------------

    @property
    def label(self) -> str:
        """Human-readable identity: MISSING markers, chaos matching, logs."""
        return f"{self.workload_name}/{self.policy}/seed{self.sim.seed}"

    def group_key(self) -> TraceIdentity:
        """Jobs of one trace identity can share one trace set."""
        return trace_identity(self.programs, self.sim)

    @staticmethod
    def run_group(jobs: Sequence["SimJob"]):
        """:func:`_run_group` for the supervisor: ``(order, results)``,
        results yielded as payloads in job order."""
        jobs = list(jobs)
        return jobs, ((job, result.to_payload())
                      for job, result in _run_group(jobs, ResultCache()))

    def validate(self, payload: Dict[str, object]) -> None:
        """Reject corrupt payloads before they can reach the cache."""
        SimResult.from_payload(payload)


def run_jobs(jobs: Iterable[SimJob], cache: ResultCache,
             max_workers: int = 1,
             supervisor: Optional[Supervisor] = None) -> int:
    """Execute every job the cache cannot already answer; returns that count.

    Jobs are deduplicated by digest first, then checked against the cache
    (memory and disk), so the union of several artefacts' job sets costs
    each distinct simulation once.  Jobs a supervised run has already
    failed permanently (``cache.failed``) are neither re-run nor counted.

    ``max_workers == 1`` (or a single pending job) without a
    ``supervisor`` runs inline, one trace-identity group at a time.
    Otherwise execution goes through a
    :class:`~repro.resilience.Supervisor` — the caller's, carrying its
    retry policy, journal and failure budget, or a default one with zero
    retries, which still guarantees that every payload completed before a
    mid-batch failure is committed to the cache before the failure
    propagates (as :class:`~repro.errors.ExecutionFailed`).
    """
    if max_workers < 1:
        raise ConfigError("max_workers must be >= 1")
    unique: Dict[str, SimJob] = {}
    for job in jobs:
        unique.setdefault(job.digest(), job)
    pending = {d: j for d, j in unique.items()
               if cache.get(d) is None and d not in cache.failed}
    if not pending:
        return 0
    if supervisor is None and (max_workers == 1 or len(pending) == 1):
        groups: Dict[TraceIdentity, List[SimJob]] = {}
        for job in pending.values():
            groups.setdefault(job.group_key(), []).append(job)
        for group in groups.values():
            for _job, _result in _run_group(group, cache):
                pass
        return len(pending)
    if supervisor is None:
        supervisor = Supervisor(max_workers=max_workers,
                                policy=RetryPolicy(retries=0, max_failures=0))

    def commit(job: SimJob, payload: Dict[str, object]) -> None:
        cache.put(job.digest(), SimResult.from_payload(payload))
        cache.simulated += 1

    try:
        outcome = supervisor.run(
            pending.values(), commit=commit,
            already_done=lambda j: cache.get(j.digest()) is not None)
    finally:
        # Whatever happened — clean finish, degraded finish, or an
        # ExecutionFailed abort — renderers must see permanent failures as
        # MISSING rather than silently re-simulating them inline.
        for failure in supervisor.report.failures:
            cache.mark_failed(failure.digest, failure.label)
    return outcome.executed


def _run_group(group: List[SimJob], cache: ResultCache
               ) -> Iterator[Tuple[SimJob, SimResult]]:
    """Run jobs of one trace identity on one set of traces, through
    ``cache``; yields each job's result as it lands.

    The traces are local to this generator, so they are garbage once it
    is exhausted — before the caller builds the next group's.
    """
    traces = build_traces(group[0].programs, group[0].sim)
    for job in group:
        yield job, cache.run(job.workload(), policy=job.policy, sim=job.sim,
                             config=job.config, traces=traces)


# -- per-artefact job planning ---------------------------------------------------


def _smt_job(mix: WorkloadMix, policy: str, scale: ExperimentScale,
             config: MachineConfig) -> SimJob:
    return SimJob(workload_name=mix.name, programs=mix.programs, policy=policy,
                  config=config, sim=scale.sim_config(mix.num_threads))


def _st_job(program: str, instructions: int, scale: ExperimentScale,
            config: MachineConfig) -> SimJob:
    return SimJob(workload_name=program, programs=(program,), policy="ICOUNT",
                  config=config, sim=scale.budget_config(instructions))


def smt_jobs_for(name: str, scale: ExperimentScale,
                 config: MachineConfig) -> List[SimJob]:
    """Stage-one (SMT) jobs of one artefact; empty for unknown names."""
    jobs: List[SimJob] = []
    if name in ("fig1_avf_profile", "fig2_efficiency", "smt_vs_superscalar"):
        for mix_type in MIX_TYPES:
            jobs += [_smt_job(m, "ICOUNT", scale, config)
                     for m in mixes_for(4, mix_type)]
    elif name in ("fig3_smt_vs_st", "fig4_smt_vs_st_efficiency"):
        jobs += [_smt_job(get_mix(n), "ICOUNT", scale, config)
                 for n in FIG3_WORKLOADS]
    elif name == "fig5_context_scaling":
        for mix_type in MIX_TYPES:
            for contexts in (2, 4, 8):
                jobs += [_smt_job(m, "ICOUNT", scale, config)
                         for m in mixes_for(contexts, mix_type)]
    elif name in ("fig6_fetch_policies", "fig7_policy_efficiency",
                  "fig8_fairness"):
        for contexts in (4, 8):
            for mix_type in MIX_TYPES:
                for mix in mixes_for(contexts, mix_type):
                    jobs += [_smt_job(mix, policy, scale, config)
                             for policy in POLICY_NAMES]
    elif name == "protection_frontier":
        # The frontier caps its reference run exactly like the renderer
        # does, so the prewarmed job digest matches cache.smt's lookup.
        capped = ExperimentScale(
            instructions_per_thread=min(scale.instructions_per_thread,
                                        FRONTIER_BUDGET_CAP),
            seed=scale.seed, check_invariants=scale.check_invariants)
        jobs.append(_smt_job(get_mix(FRONTIER_WORKLOAD), "ICOUNT",
                             capped, config))
    elif name == "resource_scaling":
        resource, sizes, workload = RESOURCE_SWEEP
        fields, _structure = SWEEPABLE[resource]
        mix = get_mix(workload)
        for size in sizes:
            jobs.append(SimJob(
                workload_name=mix.name, programs=mix.programs, policy="ICOUNT",
                config=config.with_overrides(**{f: size for f in fields}),
                sim=scale.sim_config(mix.num_threads)))
    return jobs


def followup_jobs_for(name: str, scale: ExperimentScale,
                      cache: ResultCache) -> List[SimJob]:
    """Stage-two (single-thread) jobs, derived from the warm SMT results.

    Reads the SMT runs through the cache — stage one has already executed
    them, so this never simulates; if a planner missed one, ``cache.smt``
    transparently runs it inline.
    """
    if name in ("fig3_smt_vs_st", "fig4_smt_vs_st_efficiency"):
        mixes = [get_mix(n) for n in FIG3_WORKLOADS]
    elif name == "smt_vs_superscalar":
        mixes = [m for t in MIX_TYPES for m in mixes_for(4, t)]
    elif name == "fig8_fairness":
        mixes = [m for n in (4, 8) for t in MIX_TYPES for m in mixes_for(n, t)]
    else:
        return []
    jobs: List[SimJob] = []
    for mix in mixes:
        try:
            smt = cache.smt(mix, "ICOUNT", scale)
        except MissingResultError:
            # The SMT run failed permanently under supervision; its
            # single-thread reference runs cannot even be planned.  The
            # renderer will surface the missing SMT job itself.
            continue
        for thread in smt.threads:
            jobs.append(_st_job(thread.program, max(thread.committed, 100),
                                scale, cache.config))
    return jobs


def prewarm_artefacts(names: Sequence[str], scale: ExperimentScale,
                      cache: ResultCache, jobs: int = 1,
                      supervisor: Optional[Supervisor] = None) -> int:
    """Run every simulation the named artefacts need; returns the number
    executed (0 when the cache was already fully warm).

    Unknown artefact names raise :class:`~repro.errors.ConfigError` — a
    typo must not masquerade as a fully-warm cache.  With a
    ``supervisor``, both planning stages run supervised and share its
    retry policy, journal and failure budget.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    unknown = sorted(set(names) - KNOWN_ARTEFACTS)
    if unknown:
        raise ConfigError(f"unknown artefacts {unknown}; "
                          f"known: {sorted(KNOWN_ARTEFACTS)}")
    stage1 = [job for name in names
              for job in smt_jobs_for(name, scale, cache.config)]
    executed = run_jobs(stage1, cache, max_workers=jobs,
                        supervisor=supervisor)
    stage2 = [job for name in names
              for job in followup_jobs_for(name, scale, cache)]
    executed += run_jobs(stage2, cache, max_workers=jobs,
                         supervisor=supervisor)
    return executed
