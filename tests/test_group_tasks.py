"""Supervised task groups: one strike driver or one trace set per group,
each job streamed back and committed on its own.

A pooled live campaign splits its batches into about one group per
worker and strikes each group on one driver; a pooled reproduce runs one
group per trace identity on one trace set.  These tests pin the records
and cache bytes of every path to the inline ones, count the drivers and
trace sets the workers build, and drive the per-job failure rules
(crash, timeout, corrupt payload) inside a group.  Workers are forked,
so they inherit the spies; the spies report through files.
"""

import json
import os
import time
from collections import Counter
from dataclasses import replace

import pytest

from repro.avf.structures import Structure
from repro.config import DEFAULT_CONFIG, SimConfig
from repro.experiments import parallel
from repro.experiments.parallel import (
    KNOWN_ARTEFACTS,
    SimJob,
    followup_jobs_for,
    run_jobs,
    smt_jobs_for,
)
from repro.experiments.runner import ExperimentScale, ResultCache
from repro.faultinject import LiveConfig
from repro.faultinject import live as live_module
from repro.faultinject.live import (
    INJECTABLE,
    LiveBatchJob,
    plan_live_batches,
    run_live_campaign,
)
from repro.protection import ProtectionScheme
from repro.resilience import CHAOS_ENV_VAR, RetryPolicy, Supervisor
from repro.sim.session import build_traces, trace_identity
from repro.structures.strike import MbuConfig
from repro.workload.mixes import get_mix

WORKLOAD = ("gcc", "mcf")
SIM = SimConfig(max_instructions=400, seed=5)
FAST = dict(backoff_base=0.01, backoff_max=0.05)


class _Log:
    """A JSON-lines file that forked workers append to."""

    def __init__(self, path):
        self.path = path

    def append(self, item) -> None:
        with open(self.path, "a") as out:
            out.write(json.dumps(item) + "\n")

    def read(self):
        if not self.path.exists():
            return []
        return [json.loads(line) for line in self.path.read_text().splitlines()]

    def clear(self) -> None:
        if self.path.exists():
            self.path.unlink()


@pytest.fixture(autouse=True)
def _no_chaos(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)


def _entries(directory):
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("*.json"))}


# -- every path gives the same bytes ----------------------------------------------

CAMPAIGNS = {
    "all-structures": dict(structures=INJECTABLE, seed=21),
    "rob-hang": dict(structures=(Structure.IQ, Structure.ROB), seed=2,
                     injections=12),
    "parity-mbu3": dict(structures=(Structure.IQ, Structure.LSQ_TAG), seed=7,
                        protection=ProtectionScheme.PARITY,
                        mbu=MbuConfig(max_len=3)),
    "secded-mbu3": dict(structures=(Structure.IQ, Structure.LSQ_TAG), seed=7,
                        protection=ProtectionScheme.SECDED,
                        mbu=MbuConfig(max_len=3)),
}


def _campaign(tmp_path, name, path, **kw):
    params = dict(injections=8, sim=SIM, live=LiveConfig(strike_batch=4))
    params.update(CAMPAIGNS[name])
    params.update(kw)
    cache = tmp_path / path
    result = run_live_campaign(list(WORKLOAD), cache_dir=cache, **params)
    return result, _entries(cache)


def _records(result):
    return [record.to_payload() for record in result.records]


class TestLiveBytesAcrossPaths:
    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_inline_pooled_and_one_worker_supervisor_agree(self, tmp_path,
                                                           name):
        inline, inline_entries = _campaign(tmp_path, name, "inline")
        pooled, pooled_entries = _campaign(tmp_path, name, "pooled", jobs=2)
        single, single_entries = _campaign(
            tmp_path, name, "single", supervisor=Supervisor(max_workers=1))
        assert _records(pooled) == _records(single) == _records(inline)
        assert pooled.summary() == single.summary() == inline.summary()
        assert pooled_entries == single_entries == inline_entries
        assert len(inline_entries) == inline.batches_executed
        if name == "rob-hang":
            assert any(r.outcome.name == "HANG" and r.index == 10
                       for r in pooled.records)

    def test_partly_warm_cache(self, tmp_path):
        _inline, full = _campaign(tmp_path, "all-structures", "warm")
        names = sorted(full)
        for name in names[1::2]:
            (tmp_path / "warm" / name).unlink()
        again, entries = _campaign(tmp_path, "all-structures", "warm", jobs=2)
        assert entries == full
        assert again.batches_cached == len(names[::2])
        assert again.batches_executed == len(names[1::2])


def _sim_jobs(names_and_policies, scale=ExperimentScale(
        instructions_per_thread=150)):
    jobs = []
    for name, policy in names_and_policies:
        mix = get_mix(name)
        jobs.append(SimJob(mix.name, mix.programs, policy, DEFAULT_CONFIG,
                           scale.sim_config(mix.num_threads)))
    return jobs


class TestReproduceBytesAcrossPaths:
    @pytest.mark.parametrize("jobs", [
        pytest.param([("4-MIX-A", p) for p in ("ICOUNT", "FLUSH", "STALL")],
                     id="one-identity"),
        pytest.param([("2-CPU-A", "ICOUNT"), ("2-MEM-A", "ICOUNT"),
                      ("2-CPU-A", "FLUSH"), ("2-MIX-A", "STALL")],
                     id="three-identities"),
    ])
    def test_inline_pooled_and_one_worker_supervisor_agree(self, tmp_path,
                                                           jobs):
        jobs = _sim_jobs(jobs)
        entries = []
        for path, kw in (("inline", {}), ("pooled", dict(max_workers=2)),
                         ("single", dict(supervisor=Supervisor(1)))):
            cache = ResultCache(cache_dir=tmp_path / path)
            assert run_jobs(jobs, cache, **kw) == len(jobs)
            entries.append(_entries(tmp_path / path))
        assert entries[0] == entries[1] == entries[2]
        assert len(entries[0]) == len(jobs)


# -- what the workers build -------------------------------------------------------


@pytest.fixture
def drivers(tmp_path, monkeypatch):
    """The pids of every strike driver built, in any process."""
    log = _Log(tmp_path / "drivers.jsonl")
    original = live_module._StrikeDriver.__init__

    def spy(self, *args, **kwargs):
        log.append(os.getpid())
        original(self, *args, **kwargs)

    monkeypatch.setattr(live_module._StrikeDriver, "__init__", spy)
    return log


class TestWorkersShareWork:
    KW = dict(injections=16, structures=INJECTABLE, sim=SIM, seed=4,
              live=LiveConfig(strike_batch=2))  # 48 batches

    def test_a_pooled_campaign_builds_one_driver_per_worker(self, drivers):
        inline = run_live_campaign(list(WORKLOAD), **self.KW)
        assert len(drivers.read()) == 1
        drivers.clear()
        pooled = run_live_campaign(list(WORKLOAD), jobs=2, **self.KW)
        built = drivers.read()
        assert 1 <= len(built) <= 2
        assert os.getpid() not in built
        assert _records(pooled) == _records(inline)
        drivers.clear()
        run_live_campaign(list(WORKLOAD),
                          supervisor=Supervisor(max_workers=1), **self.KW)
        assert len(drivers.read()) == 1

    def test_a_pooled_cold_reproduce_builds_each_identity_once_per_stage(
            self, tmp_path, monkeypatch):
        log = _Log(tmp_path / "builds.jsonl")

        def spy(workload, sim):
            log.append(repr(trace_identity(workload, sim)))
            return build_traces(workload, sim)

        monkeypatch.setattr(parallel, "build_traces", spy)
        scale = ExperimentScale(instructions_per_thread=300)
        cache = ResultCache()
        names = sorted(KNOWN_ARTEFACTS)
        total = 0
        for stage in (lambda: [job for name in names for job in
                               smt_jobs_for(name, scale, cache.config)],
                      lambda: [job for name in names for job in
                               followup_jobs_for(name, scale, cache)]):
            jobs = stage()
            log.clear()
            total += run_jobs(jobs, cache, max_workers=2)
            builds = Counter(log.read())
            assert set(builds.values()) == {1}, builds.most_common(3)
            assert len(builds) == len({job.group_key() for job in jobs})
        assert total == cache.simulated == 138


# -- streaming and the per-job failure rules -------------------------------------


def _group_jobs():
    """Four batches of one campaign, struck as one group on one worker."""
    return plan_live_batches(list(WORKLOAD), injections=4,
                             structures=(Structure.IQ, Structure.ROB),
                             sim=SIM, seed=21, live=LiveConfig(strike_batch=2))


@pytest.fixture
def groups(tmp_path, monkeypatch):
    """The labels of every live group a worker struck, group by group."""
    log = _Log(tmp_path / "groups.jsonl")
    original = live_module._plan_batches

    def spy(jobs):
        log.append([job.label for job in jobs])
        return original(jobs)

    monkeypatch.setattr(live_module, "_plan_batches", spy)
    return log


def _supervised(jobs, **policy):
    committed = []
    sup = Supervisor(max_workers=1, policy=RetryPolicy(**{**FAST, **policy}))
    outcome = sup.run(jobs, commit=lambda job, payload: committed.append(
        (job.label, payload, time.monotonic())))
    return sup, outcome, committed


class TestGroupStreamsAndFailsPerJob:
    def test_a_group_streams_each_job_as_it_finishes(self, monkeypatch):
        jobs = _group_jobs()
        order, _ = LiveBatchJob.run_group(jobs)
        monkeypatch.setenv(CHAOS_ENV_VAR, f"hang:{order[-1].label}:1:2")
        started = time.monotonic()
        sup, outcome, committed = _supervised(jobs)
        ended = time.monotonic()
        assert [label for label, _, _ in committed] == [j.label for j in order]
        # The first batch landed while its group was still striking (and
        # stalled, at its last yield, for 2 s).
        assert committed[0][2] - started < ended - started - 1.5
        assert outcome.executed == 4 and not sup.report

    def test_a_worker_killed_at_the_second_yield_reruns_only_the_rest(
            self, monkeypatch, groups):
        jobs = _group_jobs()
        order, _ = LiveBatchJob.run_group(jobs)
        groups.clear()
        monkeypatch.setenv(CHAOS_ENV_VAR, f"crash:{order[1].label}")
        sup, outcome, committed = _supervised(jobs, retries=1)
        assert not sup.report and outcome.executed == 4
        labels = [label for label, _, _ in committed]
        assert sorted(labels) == sorted(job.label for job in jobs)
        assert labels[0] == order[0].label  # streamed before the crash
        # One group, then each uncommitted batch alone; never the first.
        first, *reruns = groups.read()
        assert first == [job.label for job in jobs]
        assert sorted(reruns) == sorted([job.label] for job in order[1:])
        assert sup.crashes == 3 and sup.pool_rebuilds == 1
        for label, payload, _ in committed:
            job = next(j for j in jobs if j.label == label)
            assert payload == job.run()

    def test_a_hang_charges_the_job_due_and_requeues_the_rest_free(
            self, monkeypatch, groups):
        jobs = _group_jobs()
        order, _ = LiveBatchJob.run_group(jobs)
        hung = order[1]
        groups.clear()
        monkeypatch.setenv(CHAOS_ENV_VAR, f"hang:{hung.label}:1:60")
        sup, outcome, committed = _supervised(jobs, retries=0,
                                              max_failures=1, job_timeout=3.0)
        [failure] = sup.report.failures
        assert failure.label == hung.label and failure.kinds == ["timeout"]
        assert sup.timeouts == 1 and outcome.executed == 3
        assert [label for label, _, _ in committed] == [
            order[0].label, order[2].label, order[3].label]
        assert groups.read() == ([[job.label for job in jobs]]
                                 + [[job.label] for job in order[2:]])

    def test_a_corrupt_payload_rejects_that_job_only(self, monkeypatch,
                                                     groups):
        jobs = _group_jobs()
        order, _ = LiveBatchJob.run_group(jobs)
        groups.clear()
        monkeypatch.setenv(CHAOS_ENV_VAR, f"corrupt:{order[1].label}")
        sup, outcome, committed = _supervised(jobs, retries=1)
        assert not sup.report and outcome.executed == 4
        assert sup.retried == 1
        assert [label for label, _, _ in committed] == (
            [order[0].label] + [job.label for job in order[2:]]
            + [order[1].label])
        assert groups.read() == [[job.label for job in jobs],
                                 [order[1].label]]
        for label, payload, _ in committed:
            job = next(j for j in jobs if j.label == label)
            assert payload == job.run()

    def test_the_yield_order_is_known_before_any_strike(self, drivers):
        jobs = _group_jobs() + [replace(_group_jobs()[0], indices=())]
        order, results = LiveBatchJob.run_group(jobs)
        assert drivers.read() == []
        assert order[0].indices == ()
        assert [job for job, _payload in results] == order
