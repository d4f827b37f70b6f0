"""Fleet suite: multi-host worker shards behind the campaign scheduler.

The PR-10 tentpole is pinned four ways, innermost out:

* **lease ledger unit tests** — :class:`~repro.service.leases.LeaseTable`
  under a fake monotonic clock: grant/renew/expire lifecycle, the
  exactly-once commit verdicts (``ok``/``duplicate``/``fenced``), the
  monotonic-clock discipline (a wall-clock jump neither expires a live
  lease nor keeps a dead one alive);
* **wire codec** — batch jobs rebuilt through the real constructors and
  re-digested on arrival; tampered or version-skewed payloads are
  refused loudly;
* **coordinator/executor** — the ISSUE acceptance scenarios driven
  in-process with scripted shards: exactly-once under re-lease (expiry
  → reclaim → redispatch, one attempt charged, the zombie's late commit
  fenced), hedged redispatch of a slow shard, graceful degradation to
  the local pool on whole-fleet loss, and the zero-shard invariant
  (the local path untouched);
* **chaos differentials** — a real HTTP service plus real
  :class:`~repro.service.fleet.ShardAgent` threads under every network
  chaos mode (``drop``/``delay``/``partition``/``slow``/``zombie``) and
  a SIGKILLed worker process: the final artifact must be byte-identical
  to a clean no-fleet run, every time.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.config import SimConfig
from repro.errors import CampaignCancelled, ExecutionFailed
from repro.faultinject.live import LiveConfig, plan_live_batches
from repro.instrument.structures import Structure
from repro.resilience.chaos import (
    CHAOS_ENV_VAR,
    ChaosSpec,
    NetworkChaos,
)
from repro.resilience.supervisor import RetryPolicy, Supervisor
from repro.service.fleet import (
    ChaosTransport,
    FleetCoordinator,
    FleetError,
    FleetExecutor,
    HttpTransport,
    ShardAgent,
    job_from_wire,
    job_to_wire,
)
from repro.service.journal import (
    SERVICE_ID,
    SERVICE_JOURNAL_NAME,
    ServiceJournal,
)
from repro.service.leases import LeaseTable

from tests.test_service_contract import ServiceHarness, TINY_LIVE, check

SRC = Path(__file__).resolve().parent.parent / "src"

#: The differential spec: two batches, a retry budget wide enough that
#: chaos-charged lease expiries never exhaust a campaign.  The clean
#: baseline and every chaos run submit *exactly* this spec.
FLEET_SPEC = dict(TINY_LIVE, strikes=8, strike_batch=4,
                  budget={"retries": 3})


def tiny_jobs(strikes=4, batch=4):
    """Plan in-process live batch jobs small enough to run in the test."""
    return plan_live_batches(
        ["gcc"], injections=strikes, structures=(Structure.IQ,),
        sim=SimConfig(max_instructions=80),
        live=LiveConfig(strike_batch=batch))


class FakeClock:
    """An injectable monotonic clock the tests advance by hand."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def journal_events(path):
    return [json.loads(line).get("event")
            for line in Path(path).read_text().splitlines()]


# -- lease ledger ------------------------------------------------------------------


class TestLeaseTable:
    def test_grant_renew_expire_lifecycle(self):
        clock = FakeClock()
        table = LeaseTable(lease_timeout=15.0, clock=clock)
        lease = table.grant("d1", "live/x", "camp", "shard-a")
        assert lease.token == 1
        assert [h.token for h in table.holders("d1")] == [1]

        clock.advance(10.0)
        assert table.expire_due() == []
        assert table.renew("shard-a", [lease.token]) == {
            "renewed": [lease.token], "lost": []}
        clock.advance(10.0)  # renewed at t+10, so alive until t+25
        assert table.expire_due() == []
        clock.advance(6.0)
        expired = table.expire_due()
        assert [l.token for l in expired] == [lease.token]
        assert table.holders("d1") == []
        assert table.stats() == {"active": 0, "granted": 1, "renewed": 1,
                                 "reclaimed": 1, "fenced": 0}

    def test_renew_refuses_foreign_and_dead_tokens(self):
        clock = FakeClock()
        table = LeaseTable(lease_timeout=5.0, clock=clock)
        lease = table.grant("d1", "live/x", "camp", "shard-a")
        # Another shard heartbeating this token does not keep it alive.
        assert table.renew("shard-b", [lease.token])["lost"] == [lease.token]
        clock.advance(6.0)
        table.expire_due()
        # A dead token is reported lost so the shard abandons the batch.
        assert table.renew("shard-a", [lease.token])["lost"] == [lease.token]

    def test_commit_first_wins_hedge_partner_is_duplicate(self):
        table = LeaseTable(lease_timeout=60.0, clock=FakeClock())
        first = table.grant("d1", "live/x", "camp", "shard-a")
        hedge = table.grant("d1", "live/x", "camp", "shard-b")
        assert table.commit("shard-b", hedge.token, "d1") == "ok"
        assert table.commit("shard-a", first.token, "d1") == "duplicate"
        assert table.is_committed("d1")
        assert table.stats()["fenced"] == 0

    def test_commit_fences_ghosts(self, tmp_path):
        journal = ServiceJournal(tmp_path / SERVICE_JOURNAL_NAME)
        clock = FakeClock()
        table = LeaseTable(journal, lease_timeout=5.0, clock=clock)
        lease = table.grant("d1", "live/x", "camp", "shard-a")
        # Wrong shard, wrong digest, unknown token: all fenced.
        assert table.commit("shard-b", lease.token, "d1") == "fenced"
        assert table.commit("shard-a", lease.token, "other") == "fenced"
        assert table.commit("shard-a", 999, "d1") == "fenced"
        # Expired-and-reclaimed: the zombie's late commit is fenced too.
        clock.advance(6.0)
        table.expire_due()
        assert table.commit("shard-a", lease.token, "d1") == "fenced"
        assert table.stats()["fenced"] == 4
        events = journal_events(journal.path)
        assert events.count("lease_fenced") == 4
        assert "lease_granted" in events and "lease_reclaimed" in events
        # Every lease record is journaled under the fleet: prefix that
        # compaction drops wholesale.
        ids = [json.loads(line)["id"]
               for line in journal.path.read_text().splitlines()]
        assert all(cid.startswith("fleet:") for cid in ids)
        journal.compact()
        assert journal.path.read_text() == ""

    def test_close_stops_grants_but_lets_inflight_commit(self):
        table = LeaseTable(lease_timeout=60.0, clock=FakeClock())
        lease = table.grant("d1", "live/x", "camp", "shard-a")
        table.close()
        assert table.grant("d2", "live/y", "camp", "shard-a") is None
        # The drain window: work granted before close still commits.
        assert table.commit("shard-a", lease.token, "d1") == "ok"

    def test_release_drops_without_a_commit_slot(self):
        table = LeaseTable(lease_timeout=60.0, clock=FakeClock())
        lease = table.grant("d1", "live/x", "camp", "shard-a")
        table.release(lease.token)
        assert table.commit("shard-a", lease.token, "d1") == "fenced"
        assert not table.is_committed("d1")


class TestMonotonicDiscipline:
    """Satellite 2: wall-clock jumps are invisible to lease expiry."""

    def test_forward_wall_jump_does_not_expire_live_leases(self, monkeypatch):
        table = LeaseTable(lease_timeout=30.0)  # the real monotonic clock
        table.grant("d1", "live/x", "camp", "shard-a")
        monkeypatch.setattr(time, "time", lambda: time.monotonic() + 1e9)
        assert table.expire_due() == []
        assert table.active_count() == 1

    def test_backward_wall_jump_does_not_revive_dead_leases(
            self, monkeypatch):
        clock = FakeClock()
        table = LeaseTable(lease_timeout=5.0, clock=clock)
        lease = table.grant("d1", "live/x", "camp", "shard-a")
        monkeypatch.setattr(time, "time", lambda: -1e9)
        clock.advance(6.0)
        assert [l.token for l in table.expire_due()] == [lease.token]

    def test_shard_liveness_uses_the_injected_monotonic_clock(self):
        clock = FakeClock()
        coordinator = FleetCoordinator(lease_timeout=10.0,
                                       shard_timeout=10.0, clock=clock)
        coordinator.register("shard-a")
        assert coordinator.connected_shards() == 1
        clock.advance(11.0)
        assert coordinator.connected_shards() == 0

    def test_fleet_sources_never_read_wall_clock(self):
        import inspect

        import repro.service.fleet as fleet_module
        import repro.service.leases as leases_module
        for module in (leases_module, fleet_module):
            assert "time.time(" not in inspect.getsource(module)


# -- wire codec --------------------------------------------------------------------


class TestWireCodec:
    def test_round_trip_rebuilds_the_identical_job(self):
        [job] = tiny_jobs()
        wire = json.loads(json.dumps(job_to_wire(job)))  # a real wire hop
        rebuilt = job_from_wire(wire)
        assert rebuilt == job
        assert rebuilt.digest() == job.digest()

    def test_tampered_payload_is_refused(self):
        [job] = tiny_jobs()
        wire = job_to_wire(job)
        tampered = dict(wire, seed=int(wire["seed"]) + 1)
        with pytest.raises(FleetError, match="version-skewed"):
            job_from_wire(tampered)

    def test_malformed_payload_is_refused(self):
        [job] = tiny_jobs()
        wire = dict(job_to_wire(job))
        del wire["config"]
        with pytest.raises(FleetError, match="malformed"):
            job_from_wire(wire)


# -- coordinator + executor (in-process acceptance scenarios) ----------------------


def _run_executor(executor, jobs):
    """Run the executor on a thread; return (commits, outbox, thread)."""
    commits = []
    outbox = {}

    def runner():
        try:
            outbox["run"] = executor.run(
                jobs, lambda task, payload: commits.append(
                    (task.digest(), payload)))
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            outbox["error"] = exc

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    return commits, outbox, thread


class TestCoordinatorExecutor:
    def test_exactly_once_under_re_lease(self, tmp_path):
        """The ISSUE acceptance test: expiry, redispatch, fenced zombie."""
        journal = ServiceJournal(tmp_path / SERVICE_JOURNAL_NAME)
        coordinator = FleetCoordinator(journal, lease_timeout=0.4,
                                       hedge_after=60.0, shard_timeout=60.0)
        coordinator.register("shard-a")
        coordinator.register("shard-b")
        [job] = tiny_jobs()
        payload = job.run()
        local = Supervisor(max_workers=1, policy=RetryPolicy(retries=2))
        executor = FleetExecutor(coordinator, "camp-x", local)
        commits, outbox, thread = _run_executor(executor, [job])

        # Shard A acquires the batch, then neither heartbeats nor commits
        # (a SIGKILLed or partitioned worker, as seen from the server).
        granted = coordinator.poll("shard-a", 5.0)
        assert granted["job"]["digest"] == job.digest()
        token_a = granted["token"]

        # The lease expires unrenewed; the batch is charged one attempt
        # and returns to the pool, where shard B picks it up.
        time.sleep(0.6)
        regranted = coordinator.poll("shard-b", 5.0)
        assert regranted["job"]["digest"] == job.digest()
        assert regranted["token"] != token_a

        verdict = coordinator.commit("shard-b", regranted["token"],
                                     job.digest(), payload)
        assert verdict["verdict"] == "ok"
        # The zombie's late commit under the stale token is fenced.
        verdict = coordinator.commit("shard-a", token_a,
                                     job.digest(), payload)
        assert verdict["verdict"] == "fenced"

        thread.join(20)
        assert not thread.is_alive() and "error" not in outbox
        run = outbox["run"]
        assert run.executed == 1 and run.skipped == 0
        assert commits == [(job.digest(), payload)]  # exactly once
        assert not run.report.failures  # one attempt charged, budget holds

        stats = coordinator.stats()
        assert stats["leases"]["fenced"] == 1
        assert stats["leases"]["reclaimed"] == 1
        events = journal_events(journal.path)
        assert events.count("lease_reclaimed") == 1
        assert events.count("lease_fenced") == 1
        assert events.count("lease_committed") == 1

    def test_zero_shards_delegates_to_the_local_pool(self):
        coordinator = FleetCoordinator()
        local = Supervisor(max_workers=2, policy=RetryPolicy(retries=1))
        executor = FleetExecutor(coordinator, "camp-x", local)
        [job] = tiny_jobs()
        commits = []
        run = executor.run([job],
                           lambda task, payload: commits.append(payload))
        assert run.executed == 1 and not run.report.failures
        assert commits == [job.run()]  # byte-identical to in-process
        assert coordinator.stats()["leases"]["granted"] == 0

    def test_whole_fleet_loss_degrades_to_the_local_pool(self):
        coordinator = FleetCoordinator(lease_timeout=0.4, shard_timeout=1.0,
                                       hedge_after=60.0)
        coordinator.register("ghost")
        local = Supervisor(max_workers=1, policy=RetryPolicy(retries=2))
        degraded = []
        executor = FleetExecutor(coordinator, "camp-x", local,
                                 on_degraded=lambda: degraded.append(1))
        [job] = tiny_jobs()
        commits, outbox, thread = _run_executor(executor, [job])

        # The ghost takes the batch and is never heard from again.
        granted = coordinator.poll("ghost", 5.0)
        assert granted["job"] is not None

        thread.join(60)
        assert not thread.is_alive() and "error" not in outbox
        assert outbox["run"].executed == 1
        assert [d for d, _ in commits] == [job.digest()]
        assert degraded == [1]
        assert coordinator.stats()["fleet_degraded"] == 1

    def test_hedged_redispatch_first_commit_wins(self, tmp_path):
        journal = ServiceJournal(tmp_path / SERVICE_JOURNAL_NAME)
        coordinator = FleetCoordinator(journal, lease_timeout=30.0,
                                       hedge_after=0.2, shard_timeout=60.0)
        coordinator.register("slow")
        coordinator.register("fast")
        [job] = tiny_jobs()
        payload = job.run()
        local = Supervisor(max_workers=1, policy=RetryPolicy(retries=2))
        executor = FleetExecutor(coordinator, "camp-x", local)
        commits, outbox, thread = _run_executor(executor, [job])

        first = coordinator.poll("slow", 5.0)
        assert first["job"] is not None
        time.sleep(0.3)  # past the latency budget, lease still live
        hedged = coordinator.poll("fast", 5.0)
        assert hedged["digest"] == first["digest"]
        assert hedged["token"] != first["token"]

        assert coordinator.commit("fast", hedged["token"], job.digest(),
                                  payload)["verdict"] == "ok"
        assert coordinator.commit("slow", first["token"], job.digest(),
                                  payload)["verdict"] == "duplicate"

        thread.join(20)
        assert not thread.is_alive() and "error" not in outbox
        assert outbox["run"].executed == 1
        assert len(commits) == 1  # the loser's bytes went nowhere
        assert coordinator.stats()["batches"]["hedged"] == 1
        assert "batch_hedged" in journal_events(journal.path)

    def test_invalid_payload_charges_an_attempt_and_redispatches(self):
        coordinator = FleetCoordinator(lease_timeout=30.0, hedge_after=60.0,
                                       shard_timeout=60.0)
        coordinator.register("shard-a")
        [job] = tiny_jobs()
        payload = job.run()
        local = Supervisor(max_workers=1, policy=RetryPolicy(retries=2))
        executor = FleetExecutor(coordinator, "camp-x", local)
        commits, outbox, thread = _run_executor(executor, [job])

        granted = coordinator.poll("shard-a", 5.0)
        verdict = coordinator.commit("shard-a", granted["token"],
                                     job.digest(), {"records": []})
        assert verdict["verdict"] == "invalid"
        assert not coordinator.leases.is_committed(job.digest())

        # The same shard is redispatched under a fresh lease and the
        # real payload commits normally.
        regranted = coordinator.poll("shard-a", 5.0)
        assert regranted["token"] != granted["token"]
        assert coordinator.commit("shard-a", regranted["token"],
                                  job.digest(), payload)["verdict"] == "ok"
        thread.join(20)
        assert not thread.is_alive() and "error" not in outbox
        assert outbox["run"].executed == 1 and len(commits) == 1
        assert not outbox["run"].report.failures

    def test_right_count_with_foreign_indices_is_invalid(self):
        # A payload with one record per strike but the wrong strikes (a
        # duplicate index) must not commit: the campaign's outcome counts
        # would stop summing to its injections.
        coordinator = FleetCoordinator(lease_timeout=30.0, hedge_after=60.0,
                                       shard_timeout=60.0)
        coordinator.register("shard-a")
        [job] = tiny_jobs()
        payload = job.run()
        records = [dict(r) for r in payload["records"]]
        records[1]["index"] = records[0]["index"]
        local = Supervisor(max_workers=1, policy=RetryPolicy(retries=2))
        executor = FleetExecutor(coordinator, "camp-x", local)
        commits, outbox, thread = _run_executor(executor, [job])

        granted = coordinator.poll("shard-a", 5.0)
        verdict = coordinator.commit("shard-a", granted["token"],
                                     job.digest(), {"records": records})
        assert verdict["verdict"] == "invalid"
        assert "expected 1" in verdict["error"]
        assert not coordinator.leases.is_committed(job.digest())

        regranted = coordinator.poll("shard-a", 5.0)
        assert coordinator.commit("shard-a", regranted["token"],
                                  job.digest(), payload)["verdict"] == "ok"
        thread.join(20)
        assert not thread.is_alive() and "error" not in outbox
        assert commits == [(job.digest(), payload)]

    def test_remote_attempts_exhausted_aborts_with_report(self):
        coordinator = FleetCoordinator(lease_timeout=0.3, hedge_after=60.0,
                                       shard_timeout=60.0)
        coordinator.register("shard-a")
        [job] = tiny_jobs()
        local = Supervisor(max_workers=1,
                           policy=RetryPolicy(retries=0, max_failures=0))
        executor = FleetExecutor(coordinator, "camp-x", local)

        abandon = threading.Thread(
            target=lambda: coordinator.poll("shard-a", 5.0), daemon=True)
        abandon.start()
        with pytest.raises(ExecutionFailed) as excinfo:
            executor.run([job], lambda task, payload: None)
        abandon.join(10)
        [failure] = excinfo.value.report.failures
        assert failure.digest == job.digest()
        assert "lease_expired" in failure.kinds

    def test_request_stop_drains_inflight_leases_with_grace(self):
        coordinator = FleetCoordinator(lease_timeout=30.0, hedge_after=60.0,
                                       shard_timeout=60.0)
        coordinator.register("shard-a")
        [job] = tiny_jobs()
        payload = job.run()
        local = Supervisor(max_workers=1,
                           policy=RetryPolicy(retries=2, job_timeout=5.0))
        executor = FleetExecutor(coordinator, "camp-x", local)
        commits, outbox, thread = _run_executor(executor, [job])

        granted = coordinator.poll("shard-a", 5.0)
        assert granted["job"] is not None
        executor.request_stop()
        time.sleep(0.5)  # the executor must enter its drain first
        # The in-flight lease gets the job_timeout grace; its commit is
        # delivered rather than thrown away.
        assert coordinator.commit("shard-a", granted["token"], job.digest(),
                                  payload)["verdict"] == "ok"
        thread.join(20)
        assert not thread.is_alive()
        cancelled = outbox["error"]
        assert isinstance(cancelled, CampaignCancelled)
        assert cancelled.committed == 1 and cancelled.reclaimed == 0
        assert len(commits) == 1


# -- HTTP chaos differentials ------------------------------------------------------


@contextmanager
def shard_thread(port, shard_id, *, rule=None, heartbeat_interval=0.3,
                 poll_wait=1.0):
    """A real ShardAgent on a thread, optionally chaos-wrapped."""
    transport = HttpTransport(f"127.0.0.1:{port}")
    chaos = NetworkChaos(ChaosSpec.parse(rule) if rule else ChaosSpec())
    if rule:
        transport = ChaosTransport(transport, chaos)
    agent = ShardAgent(transport, shard_id=shard_id, jobs=1, chaos=chaos,
                       heartbeat_interval=heartbeat_interval,
                       poll_wait=poll_wait)
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    try:
        yield agent
    finally:
        agent.request_stop()
        thread.join(15)


def fleet_stats(harness):
    status, payload, _ = harness.request("GET", "/stats")
    assert status == 200
    return payload["fleet"]


def wait_fleet(harness, predicate, timeout=30.0, what="fleet condition"):
    deadline = time.monotonic() + timeout
    while True:
        stats = fleet_stats(harness)
        if predicate(stats):
            return stats
        assert time.monotonic() < deadline, f"timed out on {what}: {stats}"
        time.sleep(0.1)


def run_campaign_bytes(harness, spec):
    status, payload, _ = harness.request("POST", "/campaigns", body=spec)
    assert status == 201, payload
    final = harness.finish(payload["id"])
    assert final["state"] == "done", final
    status, _, raw = harness.request("GET",
                                     f"/campaigns/{payload['id']}/result")
    assert status == 200
    return raw


@pytest.fixture(scope="module")
def clean_bytes(tmp_path_factory):
    """FLEET_SPEC's artifact from a clean, fleet-less run: the oracle."""
    harness = ServiceHarness(tmp_path_factory.mktemp("fleet-clean") / "store")
    try:
        return run_campaign_bytes(harness, FLEET_SPEC)
    finally:
        harness.stop()


class TestChaosDifferentials:
    """Every network chaos mode must leave the artifact bytes untouched."""

    @contextmanager
    def _service(self, tmp_path, **kwargs):
        harness = ServiceHarness(tmp_path / "store", **kwargs)
        try:
            yield harness
        finally:
            harness.stop()

    def test_fleet_run_matches_clean_run(self, tmp_path, clean_bytes):
        with self._service(tmp_path) as harness:
            with shard_thread(harness.server.port, "shard-a") as agent:
                wait_fleet(harness,
                           lambda s: s["shards"]["connected"] >= 1,
                           what="shard registration")
                raw = run_campaign_bytes(harness, FLEET_SPEC)
                stats = fleet_stats(harness)
            assert raw == clean_bytes
            assert stats["leases"]["granted"] >= 2
            assert agent.batches_done >= 1
            check_stats = harness.request("GET", "/stats")[1]
            check(check_stats, "stats")

    def test_drop_mode_reclaims_and_matches(self, tmp_path, clean_bytes):
        with self._service(tmp_path, lease_timeout=1.0) as harness:
            with shard_thread(harness.server.port, "shard-a",
                              rule="drop:commit:1"):
                wait_fleet(harness,
                           lambda s: s["shards"]["connected"] >= 1,
                           what="shard registration")
                raw = run_campaign_bytes(harness, FLEET_SPEC)
                stats = fleet_stats(harness)
            assert raw == clean_bytes
            # The swallowed commit cost the shard its lease: reclaimed,
            # redispatched, committed on the retry.
            assert stats["leases"]["reclaimed"] >= 1

    def test_delay_mode_matches(self, tmp_path, clean_bytes):
        with self._service(tmp_path) as harness:
            with shard_thread(harness.server.port, "shard-a",
                              rule="delay:*:*:0.05"):
                wait_fleet(harness,
                           lambda s: s["shards"]["connected"] >= 1,
                           what="shard registration")
                raw = run_campaign_bytes(harness, FLEET_SPEC)
            assert raw == clean_bytes

    def test_partition_mode_heals_and_matches(self, tmp_path, clean_bytes):
        with self._service(tmp_path, lease_timeout=1.0) as harness:
            with shard_thread(harness.server.port, "shard-a",
                              rule="partition:commit:1:2.0"):
                wait_fleet(harness,
                           lambda s: s["shards"]["connected"] >= 1,
                           what="shard registration")
                raw = run_campaign_bytes(harness, FLEET_SPEC)
                stats = fleet_stats(harness)
            assert raw == clean_bytes
            assert stats["leases"]["reclaimed"] >= 1

    def test_slow_shard_is_hedged_and_matches(self, tmp_path, clean_bytes):
        with self._service(tmp_path, lease_timeout=30.0,
                           hedge_after=1.0) as harness:
            port = harness.server.port
            # The slow shard stalls its first batch long past the hedge
            # budget while its heartbeats keep the lease alive.
            with shard_thread(port, "shard-slow", rule="slow:live:1:6"):
                wait_fleet(harness,
                           lambda s: s["shards"]["connected"] >= 1,
                           what="slow shard registration")
                status, payload, _ = harness.request("POST", "/campaigns",
                                                     body=FLEET_SPEC)
                assert status == 201, payload
                cid = payload["id"]
                wait_fleet(harness,
                           lambda s: s["leases"]["granted"] >= 1,
                           what="slow shard taking a batch")
                with shard_thread(port, "shard-fast"):
                    final = harness.finish(cid)
                    assert final["state"] == "done", final
                    stats = wait_fleet(
                        harness, lambda s: s["batches"]["hedged"] >= 1,
                        what="hedged redispatch")
                    status, _, raw = harness.request(
                        "GET", f"/campaigns/{cid}/result")
                    assert status == 200
            assert raw == clean_bytes
            assert stats["batches"]["hedged"] >= 1

    def test_zombie_commit_is_fenced_and_matches(self, tmp_path,
                                                 clean_bytes):
        with self._service(tmp_path, lease_timeout=1.0,
                           hedge_after=60.0) as harness:
            port = harness.server.port
            # The zombie takes one batch, then drops every poll and
            # heartbeat while its held batch commits 2s late.
            with shard_thread(port, "shard-zombie", rule="zombie:*:1:2",
                              poll_wait=10.0):
                wait_fleet(harness,
                           lambda s: s["shards"]["connected"] >= 1,
                           what="zombie registration")
                status, payload, _ = harness.request("POST", "/campaigns",
                                                     body=FLEET_SPEC)
                assert status == 201, payload
                cid = payload["id"]
                wait_fleet(harness,
                           lambda s: s["leases"]["granted"] >= 1,
                           what="zombie taking a batch")
                with shard_thread(port, "shard-live"):
                    final = harness.finish(cid)
                    assert final["state"] == "done", final
                    status, _, raw = harness.request(
                        "GET", f"/campaigns/{cid}/result")
                    assert status == 200
                    # The zombie's late commit must be refused: its lease
                    # expired and the batch was re-leased to the live
                    # shard.
                    stats = wait_fleet(
                        harness, lambda s: s["leases"]["fenced"] >= 1,
                        what="fencing the zombie's late commit")
            assert raw == clean_bytes
            assert stats["leases"]["fenced"] >= 1
            assert stats["leases"]["reclaimed"] >= 1


class TestFleetProtocol:
    """Request-schema validation on the /fleet/* routes (satellite 4)."""

    def test_unknown_fleet_operation_is_404(self, service):
        status, payload, _ = service.request("POST", "/fleet/steal",
                                             body={"shard": "x"})
        assert status == 404
        check(payload, "error")

    def test_fleet_routes_require_post(self, service):
        status, payload, _ = service.request("GET", "/fleet/poll")
        assert status == 405
        check(payload, "error")

    def test_malformed_fleet_body_is_400(self, service):
        status, payload, _ = service.request("POST", "/fleet/poll",
                                             body={"shard": "x",
                                                   "wait": -1})
        assert status == 400  # wait below minimum
        check(payload, "error")
        status, payload, _ = service.request(
            "POST", "/fleet/commit",
            body={"shard": "x", "token": 0, "digest": "d", "payload": {}})
        assert status == 400  # token below minimum
        check(payload, "error")

    def test_commit_without_a_lease_is_fenced_not_an_error(self, service):
        status, payload, _ = service.request(
            "POST", "/fleet/commit",
            body={"shard": "x", "token": 12345, "digest": "d",
                  "payload": {}})
        assert status == 200
        assert payload["verdict"] == "fenced"

    def test_stats_fleet_block_starts_zeroed(self, service):
        status, payload, _ = service.request("GET", "/stats")
        assert status == 200
        check(payload, "stats")
        assert payload["fleet"] == {
            "shards": {"connected": 0},
            "leases": {"active": 0, "granted": 0, "renewed": 0,
                       "reclaimed": 0, "fenced": 0},
            "batches": {"hedged": 0},
            "fleet_degraded": 0}


@pytest.fixture
def service(tmp_path):
    harness = ServiceHarness(tmp_path / "store")
    yield harness
    harness.stop()


# -- process-level differentials ---------------------------------------------------


def _spawn(cmd, *, chaos=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(CHAOS_ENV_VAR, None)
    if chaos:
        env[CHAOS_ENV_VAR] = chaos
    return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=env)


def _spawn_serve(state_dir, *extra, chaos=None):
    proc = _spawn([sys.executable, "-m", "repro.cli", "serve",
                   "--state-dir", str(state_dir), "--port", "0", *extra],
                  chaos=chaos)
    box = {}
    ready = threading.Event()

    def pump():
        for line in proc.stdout:
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if match and not ready.is_set():
                box["port"] = int(match.group(1))
                ready.set()

    threading.Thread(target=pump, daemon=True).start()
    if not ready.wait(45):
        proc.kill()
        raise AssertionError("serve never announced its port")
    return proc, box["port"]


def _spawn_worker(port, shard_id, *, chaos=None):
    return _spawn([sys.executable, "-m", "repro.cli", "worker",
                   "--connect", f"127.0.0.1:{port}",
                   "--shard-id", shard_id,
                   "--heartbeat-interval", "0.3",
                   "--poll-wait", "1.0"],
                  chaos=chaos)


def _http(port, method, path, body=None, timeout=180.0):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=data)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = None
    return response.status, payload, raw


def _wait_http(port, predicate, timeout=30.0, what="condition"):
    deadline = time.monotonic() + timeout
    while True:
        _, stats, _ = _http(port, "GET", "/stats")
        if stats is not None and predicate(stats):
            return stats
        assert time.monotonic() < deadline, f"timed out on {what}: {stats}"
        time.sleep(0.2)


class TestWorkerProcesses:
    def test_sigkilled_worker_mid_batch_is_byte_identical(
            self, tmp_path, clean_bytes):
        """ISSUE failure #1: SIGKILL → lease expiry → redispatch."""
        proc, port = _spawn_serve(tmp_path / "state",
                                  "--lease-timeout", "1.5",
                                  "--hedge-after", "60")
        victim = survivor = None
        try:
            # The victim stalls its first batch for 60s (network 'slow'
            # chaos fires before execution), so the SIGKILL lands with
            # the batch leased and unfinished.
            victim = _spawn_worker(port, "victim", chaos="slow:live:1:60")
            _wait_http(port, lambda s: s["fleet"]["shards"]["connected"] >= 1,
                       what="victim registration")
            status, payload, _ = _http(port, "POST", "/campaigns",
                                       body=FLEET_SPEC)
            assert status == 201, payload
            cid = payload["id"]
            _wait_http(port, lambda s: s["fleet"]["leases"]["granted"] >= 1,
                       what="victim taking a batch")

            survivor = _spawn_worker(port, "survivor")
            victim.kill()
            victim.wait(15)

            status, final, _ = _http(port, "GET",
                                     f"/campaigns/{cid}?wait=120")
            assert status == 200 and final["state"] == "done", final
            stats = _wait_http(
                port, lambda s: s["fleet"]["leases"]["reclaimed"] >= 1,
                what="reclaiming the victim's lease")
            assert stats["fleet"]["leases"]["reclaimed"] >= 1

            status, _, raw = _http(port, "GET", f"/campaigns/{cid}/result")
            assert status == 200
            assert raw == clean_bytes
        finally:
            for worker in (victim, survivor):
                if worker is not None:
                    worker.kill()
                    worker.wait(15)
            proc.kill()
            proc.wait(15)

    def test_sigterm_drains_journals_shutdown_and_resumes(self, tmp_path):
        """Satellite 1: stop leases → drain → journal → socket last."""
        state = tmp_path / "state"
        spec = dict(TINY_LIVE, strikes=48, strike_batch=2)

        # Life one: chaos slows every batch so SIGTERM lands mid-flight.
        proc, port = _spawn_serve(state, chaos="hang:live:*:0.3")
        try:
            status, payload, _ = _http(port, "POST", "/campaigns", body=spec)
            assert status == 201, payload
            cid = payload["id"]
            deadline = time.monotonic() + 60
            while True:
                _, payload, _ = _http(port, "GET", f"/campaigns/{cid}")
                if payload["batches"]["done"] >= 2:
                    break
                assert time.monotonic() < deadline, payload
                time.sleep(0.2)
            assert payload["batches"]["done"] < payload["batches"]["total"]
        finally:
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(60)
        assert returncode == 0  # a drain, not a crash

        # The journal records the ordered shutdown: the campaign drained
        # back to non-terminal state, then the service-level shutdown
        # marker as the final entry before the socket closed.
        lines = [json.loads(line) for line in
                 (state / SERVICE_JOURNAL_NAME).read_text().splitlines()]
        drained = [e for e in lines
                   if e["id"] == cid and e["event"] == "drained"]
        assert drained, "SIGTERM drain was not journaled"
        assert lines[-1]["id"] == SERVICE_ID
        assert lines[-1]["event"] == "shutdown"
        assert lines[-1]["drained"] >= 1

        # Life two: the drained campaign is an obligation; recovery
        # resumes it through the batch cache and finishes it.
        proc, port = _spawn_serve(state)
        try:
            _, stats, _ = _http(port, "GET", "/stats")
            assert stats["recovered"] == 1, stats
            status, final, _ = _http(port, "GET",
                                     f"/campaigns/{cid}?wait=120")
            assert status == 200 and final["state"] == "done", final
            assert final["batches"]["done"] == final["batches"]["total"]
            assert final["batches"]["cached"] >= 2
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(30)
