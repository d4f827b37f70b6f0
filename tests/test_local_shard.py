"""The service's own pool is an in-process fleet shard.

Every live batch the campaign service runs is leased, whether or not a
remote shard is connected: the service's pool is a
:class:`~repro.service.fleet.ShardAgent` on a
:class:`~repro.service.fleet.LocalTransport`.  These tests pin what that
shard must keep from the per-campaign pools it replaced: one strike
driver per worker (a lone local shard leases a whole campaign as one
run), one campaign's hang never delaying another's batches, no worker
outliving a SIGTERM'd server, plus the group deadline a leased run's
``job_timeout`` relies on, the ``fail`` op, and recovery of journals an
older build wrote.  The lease bookkeeping a leased local batch adds is
pinned to a bounded cost: no journal record for the local shard's
routine grants and commits or for any renewal, a bounded memory of
committed digests, runs for the local shard only, and its id refused
over HTTP.
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.avf.structures import Structure
from repro.config import SimConfig
from repro.faultinject import LiveConfig
from repro.faultinject import live as live_module
from repro.faultinject.live import LiveBatchJob, plan_live_batches
from repro.resilience import CHAOS_ENV_VAR, RetryPolicy, Supervisor
from repro.service import leases as leases_module
from repro.service.fleet import FleetCoordinator
from repro.service.journal import SERVICE_JOURNAL_NAME, ServiceJournal
from repro.service.leases import LOCAL_SHARD_ID, LeaseTable
from repro.service.scheduler import CampaignScheduler
from repro.service.specs import parse_spec
from repro.service.store import ArtifactStore

from tests.test_fleet import _http, _spawn_serve, journal_events, tiny_jobs
from tests.test_service_contract import TINY_LIVE, check


@pytest.fixture(autouse=True)
def _no_chaos(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)


@pytest.fixture
def scheduler(tmp_path):
    """A journal-less scheduler with two workers per leased run."""
    sched = CampaignScheduler(ArtifactStore(tmp_path / "store"), workers=2)
    yield sched
    sched.shutdown()


@pytest.fixture
def drivers(tmp_path, monkeypatch):
    """A file every strike driver built, in any process, appends its pid to."""
    log = tmp_path / "drivers.txt"
    original = live_module._StrikeDriver.__init__

    def spy(self, *args, **kwargs):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        original(self, *args, **kwargs)

    monkeypatch.setattr(live_module._StrikeDriver, "__init__", spy)
    return lambda: log.read_text().split() if log.exists() else []


class TestGroupDeadline:
    def test_a_group_may_take_its_task_count_in_timeouts_to_first_yield(
            self, monkeypatch):
        # Four batches struck as one group: the first lands only after
        # most of the group's work.  Stall the first yield to about
        # 0.6 x 4 x job_timeout; a deadline of one job_timeout from the
        # group's start would kill this healthy group.
        jobs = plan_live_batches(["gcc", "mcf"], injections=4,
                                 structures=(Structure.IQ, Structure.ROB),
                                 sim=SimConfig(max_instructions=400, seed=5),
                                 seed=21, live=LiveConfig(strike_batch=2))
        order, _ = LiveBatchJob.run_group(jobs)
        timeout = 1.5
        monkeypatch.setenv(CHAOS_ENV_VAR,
                           f"hang:{order[0].label}:1:{0.6 * 4 * timeout}")
        committed = []
        sup = Supervisor(max_workers=1, policy=RetryPolicy(
            retries=0, max_failures=0, job_timeout=timeout))
        run = sup.run(jobs, commit=lambda job, payload: committed.append(
            job.label))
        assert not sup.report and sup.timeouts == 0
        assert run.executed == 4
        assert committed == [job.label for job in order]


class TestLocalShard:
    def test_a_fleetless_campaign_is_leased_on_one_driver_per_worker(
            self, scheduler, drivers):
        spec = dict(TINY_LIVE, strikes=16, strike_batch=2)  # 8 batches
        status, _ = scheduler.submit(spec)
        final = scheduler.wait(status["id"], timeout=120)
        assert final["state"] == "done", final
        total = final["batches"]["total"]
        assert total == 8 and final["batches"]["done"] == total
        fleet = scheduler.stats()["fleet"]
        assert fleet["leases"]["granted"] >= total
        assert fleet["shards"]["connected"] == 0
        built = drivers()
        assert 1 <= len(built) <= scheduler.workers
        assert str(os.getpid()) not in built

    def test_a_hung_campaign_never_delays_its_neighbour(self, scheduler,
                                                        monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "hang:live/gcc:*:5")
        a, _ = scheduler.submit(TINY_LIVE)
        b, _ = scheduler.submit(dict(TINY_LIVE, workload=["mcf"]))
        final_b = scheduler.wait(b["id"], timeout=60)
        a_then = scheduler.status(a["id"])
        assert final_b["state"] == "done", final_b
        assert a_then["batches"]["done"] == 0, a_then
        assert scheduler.wait(a["id"], timeout=60)["state"] == "done"

    def test_a_journal_ending_in_fleet_degraded_still_recovers(
            self, tmp_path):
        # Older builds journaled a non-terminal ``fleet_degraded`` when
        # the whole fleet was lost mid-campaign.
        store = ArtifactStore(tmp_path / "store")
        journal = ServiceJournal(store.root / SERVICE_JOURNAL_NAME)
        spec = parse_spec(TINY_LIVE)
        cid = spec.campaign_id()
        journal.record(cid, "submitted", request=spec.to_request())
        for event in ("admitted", "running", "fleet_degraded"):
            journal.record(cid, event)
        sched = CampaignScheduler(store, workers=1, journal=journal)
        try:
            assert sched.recover() == 1
            assert sched.wait(cid, timeout=60)["state"] == "done"
        finally:
            sched.shutdown()


class TestLeaseCost:
    def test_only_the_local_shard_leases_runs(self):
        coordinator = FleetCoordinator(hedge_after=60.0)
        coordinator.register(LOCAL_SHARD_ID)
        coordinator.register("remote")
        jobs = tiny_jobs(strikes=8, batch=1)
        coordinator.submit("camp", [(job, job.digest()) for job in jobs],
                           RetryPolicy(), [])
        # Two live shards: the local one takes half the campaign as one
        # run, as jobs; the remote one pulls one wire payload per poll.
        local = coordinator.poll(LOCAL_SHARD_ID)
        assert local["job"] is jobs[0]
        assert [e["job"] for e in local["more"]] == jobs[1:4]
        for job in jobs[4:6]:
            remote = coordinator.poll("remote")
            assert remote["more"] == []
            assert remote["job"]["digest"] == job.digest()
        assert coordinator.poll(LOCAL_SHARD_ID)["job"] is None
        assert coordinator.stats()["shards"]["connected"] == 1

    def test_routine_local_leases_and_renewals_write_no_journal(
            self, tmp_path):
        journal = ServiceJournal(tmp_path / SERVICE_JOURNAL_NAME)
        table = LeaseTable(journal, lease_timeout=60.0)
        for shard in (LOCAL_SHARD_ID, "remote"):
            lease = table.grant("d-" + shard, "live/x", "camp", shard)
            table.renew(shard, [lease.token])
            assert table.commit(shard, lease.token, lease.digest) == "ok"
        assert journal_events(journal.path) == ["lease_granted",
                                                "lease_committed"]
        assert table.stats()["renewed"] == 2
        lease = table.grant("d-lost", "live/x", "camp", LOCAL_SHARD_ID)
        table.release(lease.token, "lease_failed", kind="crash")
        assert journal_events(journal.path)[-1] == "lease_failed"

    def test_committed_digests_are_remembered_boundedly(self, monkeypatch):
        monkeypatch.setattr(leases_module, "COMMITTED_MEMORY", 2)
        table = LeaseTable(lease_timeout=60.0)
        held = table.grant("d0", "live/x", "camp", "b")
        for n in range(3):
            lease = table.grant(f"d{n}", "live/x", "camp", "a")
            assert table.commit("a", lease.token, f"d{n}") == "ok"
        assert not table.is_committed("d0")
        assert table.is_committed("d1") and table.is_committed("d2")
        # Past the memory a late partner reads ``ok``, not ``fenced``.
        assert table.commit("b", held.token, "d0") == "ok"


class TestFailOp:
    def test_a_bad_fail_body_is_400_and_an_unknown_token_a_no_op(
            self, tmp_path):
        from tests.test_service_contract import ServiceHarness

        service = ServiceHarness(tmp_path / "store")
        try:
            for body in ({"shard": "x", "token": 3, "digest": "d"},
                         {"shard": "x", "token": 3, "digest": "d",
                          "kind": "meltdown"},
                         {"shard": "x", "token": 0, "digest": "d",
                          "kind": "crash"}):
                status, payload, _ = service.request("POST", "/fleet/fail",
                                                     body=body)
                assert status == 400, body
                check(payload, "error")
            status, payload, _ = service.request(
                "POST", "/fleet/fail",
                body={"shard": "x", "token": 12345, "digest": "d",
                      "kind": "crash", "error": "worker died"})
            assert status == 200 and payload["verdict"] == "stale"
            _, stats, _ = service.request("GET", "/stats")
            assert stats["fleet"]["leases"]["active"] == 0
        finally:
            service.stop()

    def test_the_local_shard_id_is_refused_over_http(self, tmp_path):
        from tests.test_service_contract import ServiceHarness

        service = ServiceHarness(tmp_path / "store")
        try:
            for op, body in (("register", {}), ("poll", {"wait": 0}),
                             ("heartbeat", {"tokens": [1]}),
                             ("fail", {"token": 1, "digest": "d",
                                       "kind": "crash"})):
                status, payload, _ = service.request(
                    "POST", f"/fleet/{op}",
                    body=dict(body, shard=LOCAL_SHARD_ID))
                assert status == 400 and "reserved" in payload["error"], op
            _, stats, _ = service.request("GET", "/stats")
            assert stats["fleet"]["shards"]["connected"] == 0
        finally:
            service.stop()
        from repro.cli import main

        assert main(["worker", "--connect", "127.0.0.1:1",
                     "--shard-id", LOCAL_SHARD_ID]) == 2


def _children(pid):
    """Live (non-zombie) processes whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            found.append(int(entry.name))
    return found


def _alive(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to list a server's children")
class TestServeSigterm:
    def test_sigterm_leaves_no_child_of_the_server_alive(self, tmp_path):
        proc, port = _spawn_serve(tmp_path / "state",
                                  chaos="hang:live:*:0.5")
        workers = []
        try:
            spec = dict(TINY_LIVE, strikes=24, strike_batch=2)
            status, payload, _ = _http(port, "POST", "/campaigns", body=spec)
            assert status == 201, payload
            deadline = time.monotonic() + 60
            while not workers:
                _, stats, _ = _http(port, "GET", "/stats")
                if stats["fleet"]["leases"]["granted"] >= 1:
                    workers = _children(proc.pid)
                assert time.monotonic() < deadline, stats
                time.sleep(0.1)
            _, status_now, _ = _http(port, "GET", f"/campaigns/{payload['id']}")
            assert status_now["state"] == "running", status_now
        finally:
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(60)
        try:
            assert returncode == 0
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
        events = [json.loads(line)["event"] for line in
                  (tmp_path / "state" / SERVICE_JOURNAL_NAME)
                  .read_text().splitlines()]
        assert events[-1] == "shutdown"
