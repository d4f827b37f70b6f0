"""Runs that share a trace identity share trace objects.

``run_jobs`` builds one set of traces per (programs, length, seed) group
and runs every job of the group on it.  That is sound only because a run
never writes a trace: fetch copies each record.  These tests pin the
grouped payloads to isolated runs, every slot of every trace record to its
value before any run, the runner's bookkeeping to what it was per job, and
the result cache's refusal of traces its key does not describe.
"""

import json
import os
import weakref
from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.avf.structures import Structure
from repro.config import DEFAULT_CONFIG, SimConfig
from repro.errors import ConfigError
from repro.experiments import parallel
from repro.experiments.parallel import RESOURCE_SWEEP, SimJob, run_jobs
from repro.experiments.runner import ExperimentScale, ResultCache
from repro.experiments.sensitivity import SWEEPABLE
from repro.faultinject import InjectionOutcome, LiveConfig
from repro.faultinject import live as live_module
from repro.faultinject.classify import DigestRecorder
from repro.faultinject.live import (
    LiveBatchJob,
    StrikeSpec,
    draw_strike,
    golden_run,
    machine_capacity,
    run_one_strike,
)
from repro.fetch.registry import POLICY_NAMES
from repro.isa.instruction import DynInstr
from repro.protection import ProtectionConfig, ProtectionScheme
from repro.resilience import Supervisor
from repro.sim import session as session_module
from repro.sim.session import SimSession, build_traces
from repro.sim.simulator import simulate
from repro.structures.strike import entry_bits, locate_field
from repro.workload.mixes import get_mix

#: Every ``DynInstr`` field: no run may change any slot of a trace record.
TRACE_FIELDS = DynInstr.__slots__

MIX = get_mix("4-MIX-A")
SCALE = ExperimentScale(instructions_per_thread=120)

WORKLOAD = ("gcc", "mcf")
SIM = SimConfig(max_instructions=400, seed=5)


def _snapshot(traces):
    return [tuple(getattr(instr, name) for name in TRACE_FIELDS)
            for trace in traces for instr in trace.instrs]


def _entries(cache):
    return {path.name: path.read_bytes()
            for path in cache.cache_dir.glob("*.json")}


def _policy_and_rob_jobs():
    """4-MIX-A under every fetch policy and every resource-sweep ROB size:
    one trace identity, ten jobs (nine distinct)."""
    sim = SCALE.sim_config(MIX.num_threads)
    resource, sizes, _ = RESOURCE_SWEEP
    fields, _structure = SWEEPABLE[resource]
    jobs = [SimJob(MIX.name, MIX.programs, policy, DEFAULT_CONFIG, sim)
            for policy in POLICY_NAMES]
    jobs += [SimJob(MIX.name, MIX.programs, "ICOUNT",
                    DEFAULT_CONFIG.with_overrides(**{f: size for f in fields}),
                    sim)
             for size in sizes]
    return jobs


def _small_jobs():
    """Three trace identities: two policies of 2-CPU-A, one each of
    2-MEM-A and 2-MIX-A."""
    def job(name, policy):
        mix = get_mix(name)
        return SimJob(mix.name, mix.programs, policy, DEFAULT_CONFIG,
                      SCALE.sim_config(mix.num_threads))

    return [job("2-CPU-A", "ICOUNT"), job("2-MEM-A", "ICOUNT"),
            job("2-CPU-A", "FLUSH"), job("2-MIX-A", "DWARN")]


@pytest.fixture
def builds(monkeypatch):
    """The program tuples ``run_jobs`` builds traces for, in order."""
    calls = []

    def spy(workload, sim):
        calls.append(tuple(workload))
        return build_traces(workload, sim)

    monkeypatch.setattr(parallel, "build_traces", spy)
    return calls


class TestGroupedEqualsIsolated:
    def test_fetch_policies_and_rob_sizes(self, builds):
        jobs = _policy_and_rob_jobs()
        cache = ResultCache()
        assert run_jobs(jobs, cache) == len({job.digest() for job in jobs})
        assert builds == [MIX.programs]
        for job in jobs:
            alone = simulate(job.workload(), policy=job.policy,
                             config=job.config, sim=job.sim)
            assert (cache.get(job.digest()).to_payload()
                    == alone.to_payload()), (job.label,
                                             job.config.rob_entries)


@pytest.fixture
def golden_as_built(monkeypatch):
    """A fresh golden run of WORKLOAD/SIM, and its traces' snapshot taken
    as they were built: the golden run shares them with every strike
    driver, so a write by any of them shows."""
    built = []

    def spy(workload, sim):
        traces = build_traces(workload, sim)
        built.append(_snapshot(traces))
        return traces

    monkeypatch.setattr(session_module, "build_traces", spy)
    monkeypatch.setattr(live_module, "_GOLDEN_MEMO", OrderedDict())
    golden = golden_run(WORKLOAD, "ICOUNT", DEFAULT_CONFIG, SIM)
    before, = built
    return golden, before


class TestTraceFieldsAreReadOnly:
    def test_grouped_jobs(self, monkeypatch):
        built = []

        def spy(workload, sim):
            traces = build_traces(workload, sim)
            built.append((traces, _snapshot(traces)))
            return traces

        monkeypatch.setattr(parallel, "build_traces", spy)
        run_jobs(_policy_and_rob_jobs(), ResultCache())
        (traces, before), = built
        assert _snapshot(traces) == before

    def test_plain_run(self):
        traces = build_traces(WORKLOAD, SIM)
        before = _snapshot(traces)
        simulate(WORKLOAD, sim=SIM, traces=traces)
        assert _snapshot(traces) == before

    def test_taint_run(self):
        traces = build_traces(WORKLOAD, SIM)
        before = _snapshot(traces)
        SimSession(WORKLOAD, sim=SIM, traces=traces,
                   observers=(DigestRecorder(),), taint=True).run()
        assert _snapshot(traces) == before

    def test_live_batch_with_lsq_strikes(self, golden_as_built):
        golden, before = golden_as_built
        structure = Structure.LSQ_TAG
        job = LiveBatchJob(
            workload_name="+".join(WORKLOAD), programs=WORKLOAD,
            policy="ICOUNT", config=DEFAULT_CONFIG, sim=SIM, seed=13,
            protection=ProtectionConfig.coerce(ProtectionScheme.NONE),
            live=LiveConfig(), structure=structure, indices=tuple(range(12)))
        records = job.run()["records"]
        capacity = machine_capacity(structure, DEFAULT_CONFIG, len(WORKLOAD))
        address_flips = [
            record for index, record in zip(job.indices, records)
            if "=#" in record["target"]
            and locate_field(structure, draw_strike(
                job.seed, structure, index, golden.cycles, capacity,
                entry_bits(structure)).bit)[0] == "addr"]
        assert address_flips, "no strike flipped an LSQ entry's mem_addr"
        assert _snapshot(golden.traces) == before

    @pytest.mark.parametrize("scheme", [ProtectionScheme.NONE,
                                        ProtectionScheme.PARITY])
    def test_batch_of_one_lsq_address_strike(self, golden_as_built, scheme):
        # A batch of one strikes its driver in place, on the golden run's
        # traces; parity resolves the strike and undoes it at once.
        golden, before = golden_as_built
        spec = StrikeSpec(Structure.LSQ_TAG, index=0, cycle=60, slot=0, bit=5)
        assert locate_field(spec.structure, spec.bit)[0] == "addr"
        record = run_one_strike(spec, WORKLOAD, "ICOUNT", DEFAULT_CONFIG,
                                SIM, golden, scheme, LiveConfig())
        assert "=#" in record.target
        if scheme is ProtectionScheme.PARITY:
            assert record.outcome is InjectionOutcome.DUE
        assert _snapshot(golden.traces) == before


class TestBookkeeping:
    def test_counts_and_cache_entries_match_per_job_runs(self, tmp_path,
                                                         builds):
        jobs = _small_jobs()
        grouped = ResultCache(cache_dir=tmp_path / "grouped")
        assert run_jobs(jobs, grouped) == grouped.simulated == len(jobs)
        assert len(builds) == 3
        alone = ResultCache(cache_dir=tmp_path / "alone")
        for job in jobs:
            assert run_jobs([job], alone) == 1
        assert alone.simulated == len(jobs)
        assert _entries(grouped) == _entries(alone)
        assert len(_entries(grouped)) == len(jobs)
        assert run_jobs(jobs, grouped) == 0
        assert grouped.simulated == len(jobs)

    def test_failed_jobs_are_skipped_and_their_groups_not_built(self,
                                                                builds):
        jobs = _small_jobs()
        cache = ResultCache()
        # 2-MEM-A's only job and one of 2-CPU-A's two have failed before.
        for failed in (jobs[1], jobs[0]):
            cache.mark_failed(failed.digest(), failed.label)
        assert run_jobs(jobs, cache) == cache.simulated == 2
        assert builds == [get_mix("2-CPU-A").programs,
                          get_mix("2-MIX-A").programs]
        assert cache.get(jobs[0].digest()) is None
        assert cache.get(jobs[1].digest()) is None

    def test_a_group_is_freed_before_the_next_builds(self, monkeypatch):
        refs = []
        alive_at_build = []

        def spy(workload, sim):
            alive_at_build.append(sum(ref() is not None for ref in refs))
            traces = build_traces(workload, sim)
            refs.extend(weakref.ref(trace) for trace in traces)
            return traces

        monkeypatch.setattr(parallel, "build_traces", spy)
        run_jobs(_small_jobs(), ResultCache())
        assert alive_at_build == [0, 0, 0]
        assert len(refs) == 6
        assert all(ref() is None for ref in refs)


@pytest.fixture
def held_builds(tmp_path, monkeypatch):
    """Reads back every ``build_traces`` call a group runner made, in any
    process, as ``(pid, programs, traces of that process still alive at
    the build)``.  Pool workers are forked, so they inherit the spy and
    its per-process weakrefs; they report through a file."""
    log = tmp_path / "builds.jsonl"
    refs = []

    def spy(workload, sim):
        alive = sum(ref() is not None for ref in refs)
        traces = build_traces(workload, sim)
        refs.extend(weakref.ref(trace) for trace in traces)
        with open(log, "a") as out:
            out.write(json.dumps([os.getpid(), list(workload), alive]) + "\n")
        return traces

    monkeypatch.setattr(parallel, "build_traces", spy)

    def read():
        if not log.exists():
            return []
        return [tuple(json.loads(line)) for line in log.read_text().splitlines()]

    return read


class TestWorkerReusesTraces:
    """``SimJob.run_group`` builds one trace set for its group and drops it
    when the group ends; the pooled ``run_jobs`` hands each worker whole
    trace-identity groups."""

    def test_a_group_in_one_process_builds_once(self, held_builds):
        order, results = SimJob.run_group(_policy_and_rob_jobs())
        assert [job for job, _payload in results] == order
        assert held_builds() == [(os.getpid(), list(MIX.programs), 0)]

    def test_each_group_drops_its_set_before_the_next_builds(self,
                                                             held_builds):
        jobs = _small_jobs()  # identities: CPU, MEM, CPU, MIX
        for job in jobs:
            _order, results = SimJob.run_group([job])
            list(results)
        assert [(programs, alive) for _pid, programs, alive
                in held_builds()] == [(list(job.programs), 0)
                                      for job in jobs]

    def test_pooled_entries_equal_inline_and_no_worker_rebuilds(
            self, tmp_path, held_builds):
        jobs = _small_jobs() + _policy_and_rob_jobs()
        pooled = ResultCache(cache_dir=tmp_path / "pooled")
        assert run_jobs(jobs, pooled,
                        supervisor=Supervisor(max_workers=2)) == 13
        builds = held_builds()
        inline = ResultCache(cache_dir=tmp_path / "inline")
        assert run_jobs(jobs, inline) == 13
        assert _entries(pooled) == _entries(inline)
        assert len(_entries(pooled)) == 13

        assert builds and os.getpid() not in {pid for pid, _, _ in builds}
        assert all(alive == 0 for _pid, _programs, alive in builds), builds
        # Four identities, two of them with several jobs: one group, so
        # one build, each.
        assert sorted(programs for _pid, programs, _alive in builds) == sorted(
            list(job.programs) for job in {job.group_key(): job
                                           for job in jobs}.values()), builds


class TestForeignTracesRejected:
    @pytest.mark.parametrize("foreign", [
        pytest.param(lambda: build_traces(("gcc", "swim"), SIM),
                     id="program"),
        pytest.param(lambda: build_traces(WORKLOAD, replace(SIM, seed=6)),
                     id="seed"),
        pytest.param(lambda: build_traces(
            WORKLOAD, replace(SIM, max_instructions=300)), id="length"),
        pytest.param(lambda: build_traces(WORKLOAD, SIM)[:1], id="count"),
    ])
    def test_cache_refuses_traces_its_key_does_not_claim(self, foreign):
        cache = ResultCache()
        with pytest.raises(ConfigError, match="not the ones"):
            cache.run(WORKLOAD, sim=SIM, traces=foreign())
        assert cache.simulated == 0

    def test_thread_ids_must_match_positions(self):
        traces = build_traces(("gcc", "gcc"), SIM)
        with pytest.raises(ConfigError):
            ResultCache().run(["gcc", "gcc"], sim=SIM, traces=traces[::-1])

    def test_matching_traces_are_accepted(self):
        cache = ResultCache()
        lent = cache.run(WORKLOAD, sim=SIM,
                         traces=build_traces(WORKLOAD, SIM))
        assert lent.to_payload() == simulate(WORKLOAD, sim=SIM).to_payload()

    def test_simulate_still_takes_any_traces(self):
        result = simulate(WORKLOAD, sim=SIM,
                          traces=build_traces(("gcc", "swim"), SIM))
        assert result.committed > 0
