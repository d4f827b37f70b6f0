"""Fault-tolerant multi-host worker fleet behind the campaign scheduler.

Remote worker pools ("shards") that register with the campaign server
and take strike batches from the same scheduler as the local pool.  The
design is robustness-first — a dead, hung, partitioned or merely slow
shard must never corrupt, duplicate or lose a campaign's results — and
leans entirely on machinery the repo already trusts:

* **Leases, not connections** (:mod:`repro.service.leases`): a shard
  holds a batch under a time-bounded lease renewed by heartbeats.  The
  server never needs to detect a dead TCP peer; it only needs a
  monotonic clock.  Expiry → reclaim → redispatch, one attempt charged
  (the local supervisor's crash discipline).
* **Fencing tokens**: each grant carries a fresh token from one global
  counter.  A zombie — a live worker on the far side of a partition —
  can finish its batch and commit late; the token is no longer in the
  active table, so the commit is refused (``fenced``) and journaled.
* **Exactly-once by content hash**: batches are
  :class:`~repro.faultinject.LiveBatchJob` units whose results are keyed
  by (structure, strike-index) digests.  Dispatch is at-least-once;
  commit order cannot move a byte (the per-batch cache and ``by_key``
  assembly are order-independent), so a hedged batch committed by two
  shards dedups byte-identically and the chaos differential holds:
  a 3-shard campaign under network chaos produces artifact bytes
  identical to a clean single-host run.
* **Hedged redispatch**: a batch leased longer than ``hedge_after``
  (and still being renewed — a *slow* shard, not a dead one) is leased
  a second time to a different shard; the first valid commit wins, the
  loser's is a ``duplicate`` no-op.
* **Graceful degradation**: a campaign that loses every shard withdraws
  its remote work, journals ``fleet_degraded``, and finishes on the
  local supervisor pool.  With zero shards connected the scheduler
  never routes through the fleet at all — the local path is untouched.

Wire protocol: four POST routes on the existing stdlib-asyncio server
(``/fleet/register``, ``/fleet/poll`` (long-poll), ``/fleet/heartbeat``,
``/fleet/commit``), JSON bodies, ``Connection: close``.  Jobs cross the
wire as explicit payloads rebuilt through the real constructors and
re-digested on arrival — a codec or build mismatch is refused at the
shard, never simulated.

Chaos (:mod:`repro.resilience.chaos`): the shard's transport consults a
:class:`~repro.resilience.chaos.NetworkChaos` before every operation, so
``drop``/``delay``/``partition``/``slow``/``zombie`` are injected at the
transport layer of a *real* shard — the server-side machinery being
tested cannot tell chaos from weather.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.avf.structures import Structure
from repro.config import (
    BranchConfig,
    CacheConfig,
    MachineConfig,
    SimConfig,
    TlbConfig,
)
from repro.errors import CampaignCancelled, ExecutionFailed, ReproError
from repro.faultinject.live import LiveBatchJob, LiveConfig
from repro.protection import ProtectionConfig
from repro.resilience.chaos import ChaosDropped, NetworkChaos
from repro.resilience.supervisor import (
    DEFAULT_ABORT_GRACE,
    FailureReport,
    JobFailure,
    RetryPolicy,
    Supervisor,
    SupervisedRun,
)
from repro.service.leases import DEFAULT_LEASE_TIMEOUT, LeaseTable
from repro.structures.strike import MbuConfig

#: Seconds a leased batch may run before a second shard is hedged in.
DEFAULT_HEDGE_AFTER = 30.0

#: Seconds between shard heartbeats (well under the lease timeout).
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Seconds a shard's poll long-polls before returning idle.
DEFAULT_POLL_WAIT = 10.0

#: The fleet's transport operations (chaos match targets).
FLEET_OPS = ("register", "poll", "heartbeat", "commit")


class FleetError(ReproError):
    """A fleet protocol violation (codec mismatch, bad route, bad body)."""


# -- wire codec --------------------------------------------------------------------


def job_to_wire(job: LiveBatchJob) -> Dict[str, object]:
    """Serialize one batch job for dispatch (plain JSON, no pickling)."""
    return {
        "workload_name": job.workload_name,
        "programs": list(job.programs),
        "policy": job.policy,
        "config": asdict(job.config),
        "sim": asdict(job.sim),
        "seed": job.seed,
        "protection": job.protection.to_payload(),
        "live": asdict(job.live),
        "structure": job.structure.value,
        "indices": list(job.indices),
        "mbu": {"max_len": job.mbu.max_len,
                "weights": list(job.mbu.weights)},
        "digest": job.digest(),
    }


def job_from_wire(payload: Dict[str, object]) -> LiveBatchJob:
    """Rebuild a batch job through the real constructors and re-digest it.

    The sender's digest rides along and is checked against the rebuilt
    job's: a codec drift or a version-skewed shard produces a loud
    :class:`FleetError` instead of silently simulating the wrong
    campaign.
    """
    try:
        cfg = dict(payload["config"])
        config = MachineConfig(**{
            **cfg,
            "branch": BranchConfig(**cfg["branch"]),
            "il1": CacheConfig(**cfg["il1"]),
            "dl1": CacheConfig(**cfg["dl1"]),
            "l2": CacheConfig(**cfg["l2"]),
            "itlb": TlbConfig(**cfg["itlb"]),
            "dtlb": TlbConfig(**cfg["dtlb"]),
        })
        mbu_raw = payload.get("mbu") or {}
        job = LiveBatchJob(
            workload_name=str(payload["workload_name"]),
            programs=tuple(payload["programs"]),
            policy=str(payload["policy"]),
            config=config,
            sim=SimConfig(**payload["sim"]),
            seed=int(payload["seed"]),
            protection=ProtectionConfig.from_payload(payload["protection"]),
            live=LiveConfig(**payload["live"]),
            structure=Structure(payload["structure"]),
            indices=tuple(int(i) for i in payload["indices"]),
            mbu=MbuConfig(max_len=int(mbu_raw.get("max_len", 1)),
                          weights=tuple(mbu_raw.get("weights", ()))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FleetError(f"malformed batch wire payload: "
                         f"{type(exc).__name__}: {exc}") from exc
    digest = job.digest()
    if digest != payload.get("digest"):
        raise FleetError(
            f"batch digest mismatch after wire round-trip: server sent "
            f"{str(payload.get('digest'))[:12]}, shard rebuilt "
            f"{digest[:12]} — version-skewed shard refused")
    return job


# -- server side -------------------------------------------------------------------


class _RemoteBatch:
    """One batch's dispatch state inside the coordinator (lock-guarded)."""

    def __init__(self, job: LiveBatchJob, campaign_id: str) -> None:
        self.job = job
        self.digest = job.digest()
        self.wire = job_to_wire(job)
        self.campaign_id = campaign_id
        self.attempts = 0
        self.kinds: List[str] = []
        self.last_error = ""
        self.payload: Optional[Dict[str, object]] = None
        self.delivered = False
        self.withdrawn = False
        self.failed = False

    @property
    def settled(self) -> bool:
        return self.delivered or self.failed or self.withdrawn


class FleetCoordinator:
    """Server-side fleet state: shards, the dispatch pool, the leases.

    One coordinator serves every campaign of a service process; the
    per-campaign :class:`FleetExecutor` submits work into it and drains
    results out.  All methods are thread-safe (they are called from the
    asyncio server's ``to_thread`` workers and from campaign threads).
    Lock order is always coordinator condition → lease table lock.
    """

    def __init__(self, journal=None, *,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 hedge_after: float = DEFAULT_HEDGE_AFTER,
                 shard_timeout: Optional[float] = None,
                 clock=time.monotonic) -> None:
        self.leases = LeaseTable(journal, lease_timeout=lease_timeout,
                                 clock=clock)
        self.journal = journal
        self.hedge_after = hedge_after
        self.shard_timeout = (shard_timeout if shard_timeout is not None
                              else lease_timeout)
        self._clock = clock
        self._cond = threading.Condition()
        self._shards: Dict[str, float] = {}  # shard id -> last seen (monotonic)
        self._work: List[_RemoteBatch] = []
        self._by_digest: Dict[str, _RemoteBatch] = {}
        self.hedges = 0
        self.degraded = 0

    # -- shard-facing protocol -------------------------------------------------------

    def register(self, shard_id: str) -> Dict[str, object]:
        with self._cond:
            self._shards[shard_id] = self._clock()
            self._cond.notify_all()
        return {"shard": shard_id,
                "lease_timeout": self.leases.lease_timeout,
                "draining": self.leases.closed}

    def poll(self, shard_id: str, wait: float) -> Dict[str, object]:
        """Long-poll for one leased batch (or idle / draining).

        The wait loop doubles as the fleet's maintenance pass: every
        wake-up expires due leases, so reclaim latency is bounded by the
        poll cadence even with no executor actively waiting.
        """
        deadline = self._clock() + max(0.0, wait)
        with self._cond:
            while True:
                now = self._clock()
                self._shards[shard_id] = now
                self._reap_locked()
                if self.leases.closed:
                    return {"job": None, "token": None, "draining": True}
                batch, hedge = self._next_dispatchable_locked(shard_id)
                if batch is not None:
                    lease = self.leases.grant(batch.digest, batch.job.label,
                                              batch.campaign_id, shard_id)
                    if lease is None:  # closed raced the check above
                        return {"job": None, "token": None, "draining": True}
                    if hedge:
                        self.hedges += 1
                        if self.journal is not None:
                            self.journal.record(
                                f"fleet:{batch.digest[:16]}", "batch_hedged",
                                extra={"shard": shard_id,
                                       "token": lease.token,
                                       "label": batch.job.label})
                    self._cond.notify_all()
                    return {"job": batch.wire, "token": lease.token,
                            "digest": batch.digest,
                            "lease_timeout": self.leases.lease_timeout,
                            "draining": False}
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return {"job": None, "token": None, "draining": False}
                # Bounded naps so expiry reaping and close() are noticed.
                self._cond.wait(min(remaining, 0.25))

    def _next_dispatchable_locked(self, shard_id: str
                                  ) -> Tuple[Optional[_RemoteBatch], bool]:
        now = self._clock()
        for batch in self._work:
            if batch.settled or batch.payload is not None:
                continue
            holders = self.leases.holders(batch.digest)
            if not holders:
                return batch, False
            if (len(holders) == 1
                    and holders[0].shard_id != shard_id
                    and now - holders[0].granted_at >= self.hedge_after):
                # Still renewed (not expired) but past the latency
                # budget: a slow shard.  Hedge it to this one; first
                # valid commit wins, the loser dedups as 'duplicate'.
                return batch, True
        return None, False

    def heartbeat(self, shard_id: str,
                  tokens: Sequence[int]) -> Dict[str, object]:
        with self._cond:
            self._shards[shard_id] = self._clock()
        result = self.leases.renew(shard_id, tokens)
        return {"shard": shard_id, **result}

    def commit(self, shard_id: str, token: int, digest: str,
               payload: object) -> Dict[str, object]:
        """Rule on one commit: validate, then let the lease table decide.

        Validation happens *before* the exactly-once verdict so a
        corrupt payload never occupies a digest's one commit slot — the
        batch is charged an attempt and redispatched instead.
        """
        with self._cond:
            batch = self._by_digest.get(digest)
        if batch is not None and isinstance(payload, dict):
            try:
                batch.job.validate(payload)
            except Exception as exc:  # noqa: BLE001 - any invalid payload
                self.leases.release(token)
                with self._cond:
                    batch.attempts += 1
                    batch.kinds.append("corrupt")
                    batch.last_error = (f"invalid payload from {shard_id}: "
                                        f"{type(exc).__name__}: {exc}")
                    self._cond.notify_all()
                return {"verdict": "invalid", "error": batch.last_error}
        elif batch is not None:
            self.leases.release(token)
            return {"verdict": "invalid", "error": "payload not an object"}
        verdict = self.leases.commit(shard_id, token, digest)
        if verdict == "ok" and batch is not None:
            with self._cond:
                batch.payload = payload
                self._cond.notify_all()
        return {"verdict": verdict}

    # -- executor-facing API ---------------------------------------------------------

    def submit(self, campaign_id: str,
               jobs: Sequence[LiveBatchJob]) -> List[_RemoteBatch]:
        batches = [_RemoteBatch(job, campaign_id) for job in jobs]
        with self._cond:
            for batch in batches:
                self._work.append(batch)
                self._by_digest[batch.digest] = batch
            self._cond.notify_all()
        return batches

    def withdraw(self, batches: Sequence[_RemoteBatch],
                 only_idle: bool = False) -> List[_RemoteBatch]:
        """Make batches undispatchable; returns the ones left leased.

        With ``only_idle`` the currently-leased batches are spared (the
        graceful-shutdown drain lets them finish and commit); otherwise
        their leases are released too, so any late commit is fenced.
        """
        leased: List[_RemoteBatch] = []
        with self._cond:
            for batch in batches:
                if batch.settled:
                    continue
                if only_idle and self.leases.holders(batch.digest):
                    leased.append(batch)
                    continue
                batch.withdrawn = True
            self._cond.notify_all()
        if not only_idle:
            for batch in batches:
                for lease in self.leases.holders(batch.digest):
                    self.leases.release(lease.token)
        return leased

    def retire(self, batches: Sequence[_RemoteBatch]) -> None:
        """Remove a campaign's batches at end of run; late commits fence."""
        with self._cond:
            for batch in batches:
                if batch in self._work:
                    self._work.remove(batch)
                self._by_digest.pop(batch.digest, None)
        for batch in batches:
            for lease in self.leases.holders(batch.digest):
                self.leases.release(lease.token)

    def reap(self) -> None:
        with self._cond:
            self._reap_locked()

    def _reap_locked(self) -> None:
        expired = self.leases.expire_due()
        charged = False
        for lease in expired:
            batch = self._by_digest.get(lease.digest)
            if batch is None or batch.settled or batch.payload is not None:
                continue
            batch.attempts += 1
            batch.kinds.append("lease_expired")
            batch.last_error = (f"lease {lease.token} on shard "
                                f"{lease.shard_id} expired unrenewed")
            charged = True
        if charged:
            self._cond.notify_all()

    def wait_event(self, timeout: float) -> None:
        with self._cond:
            self._cond.wait(timeout)

    def connected_shards(self) -> int:
        with self._cond:
            now = self._clock()
            return sum(1 for seen in self._shards.values()
                       if now - seen <= self.shard_timeout)

    def close(self) -> None:
        """Stop granting leases (graceful-shutdown step one)."""
        self.leases.close()
        with self._cond:
            self._cond.notify_all()

    def note_degraded(self) -> None:
        with self._cond:
            self.degraded += 1

    def stats(self) -> Dict[str, object]:
        with self._cond:
            degraded = self.degraded
        return {"shards": {"connected": self.connected_shards()},
                "leases": self.leases.stats(),
                "batches": {"hedged": self.hedges},
                "fleet_degraded": degraded}


def empty_fleet_stats() -> Dict[str, object]:
    """The /stats fleet block of a service running without a fleet."""
    return {"shards": {"connected": 0},
            "leases": {"active": 0, "granted": 0, "renewed": 0,
                       "reclaimed": 0, "fenced": 0},
            "batches": {"hedged": 0},
            "fleet_degraded": 0}


class FleetExecutor:
    """Supervisor-protocol executor that runs live batches on the fleet.

    Drop-in for :class:`~repro.resilience.Supervisor` where the
    scheduler passes one into :func:`~repro.faultinject.run_live_campaign`:
    same ``run(tasks, commit, already_done)`` contract, same
    ``request_stop`` drain, same :class:`FailureReport` — literally the
    same object as the campaign's local supervisor's, so the scheduler's
    degradation accounting covers remote and fallback failures alike.
    The commit callback runs only on this (the campaign's) thread, so
    cache writes and progress bumps stay single-threaded exactly as with
    a local pool.
    """

    def __init__(self, coordinator: FleetCoordinator, campaign_id: str,
                 local: Supervisor, on_degraded=None) -> None:
        self.coordinator = coordinator
        self.campaign_id = campaign_id
        self.local = local
        self.policy = local.policy
        self.on_degraded = on_degraded
        self.report = local.report  # shared: one budget for both paths
        self.on_failure = local.on_failure
        self._stop = local._stop    # shared: one stop request drains both

    # -- Supervisor protocol ---------------------------------------------------------

    def request_stop(self) -> None:
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()

    def run(self, tasks, commit, already_done=None) -> SupervisedRun:
        skipped = 0
        jobs: List[LiveBatchJob] = []
        seen: Set[str] = set()
        for task in tasks:
            digest = task.digest()
            if digest in seen:
                continue
            seen.add(digest)
            if already_done is not None and already_done(task):
                skipped += 1
                continue
            jobs.append(task)
        batch_report = FailureReport()
        if not jobs:
            return SupervisedRun(executed=0, skipped=skipped,
                                 report=batch_report)
        if self.coordinator.connected_shards() == 0:
            # Zero shards: the local pool, unchanged (the invariant the
            # existing contract/recovery suites pin).
            outcome = self.local.run(jobs, commit)
            return SupervisedRun(executed=outcome.executed,
                                 skipped=outcome.skipped + skipped,
                                 report=outcome.report)

        batches = self.coordinator.submit(self.campaign_id, jobs)
        executed = 0
        lost_fleet = False
        try:
            while True:
                if self._stop.is_set():
                    self._drain_cancel(batches, commit)  # raises
                self.coordinator.reap()
                pending = 0
                for batch in batches:
                    if batch.settled:
                        continue
                    if batch.payload is not None:
                        commit(batch.job, batch.payload)
                        batch.delivered = True
                        executed += 1
                        continue
                    if batch.attempts > self.policy.retries:
                        self._fail(batch, batch_report)
                        continue
                    pending += 1
                if pending == 0:
                    break
                if self.coordinator.connected_shards() == 0:
                    lost_fleet = True
                    break
                self.coordinator.wait_event(0.1)

            if lost_fleet:
                # Whole-fleet loss: withdraw what the fleet still holds
                # (late commits fence), deliver anything that landed in
                # the race, and finish on the local pool.
                self.coordinator.withdraw(batches)
                for batch in batches:
                    if not batch.settled and batch.payload is not None:
                        commit(batch.job, batch.payload)
                        batch.delivered = True
                        executed += 1
        finally:
            self.coordinator.retire(batches)

        if lost_fleet:
            self.coordinator.note_degraded()
            if self.on_degraded is not None:
                self.on_degraded()
            remaining = [b.job for b in batches
                         if not b.delivered and not b.failed]
            outcome = self.local.run(remaining, commit)
            executed += outcome.executed
            batch_report.failures.extend(outcome.report.failures)
        return SupervisedRun(executed=executed, skipped=skipped,
                             report=batch_report)

    # -- failure / abort / drain -----------------------------------------------------

    def _fail(self, batch: _RemoteBatch, batch_report: FailureReport) -> None:
        batch.failed = True
        failure = JobFailure(digest=batch.digest, label=batch.job.label,
                             attempts=batch.attempts,
                             kinds=list(batch.kinds),
                             error=batch.last_error
                                   or "remote attempts exhausted")
        batch_report.failures.append(failure)
        self.report.failures.append(failure)
        if self.on_failure is not None:
            self.on_failure(failure)
        if len(self.report.failures) > self.policy.max_failures:
            raise ExecutionFailed(
                f"fleet execution aborted: {len(self.report.failures)} "
                f"permanent job failure(s) exceeded the budget of "
                f"{self.policy.max_failures} "
                f"(failed: {', '.join(self.report.labels())})",
                report=FailureReport(failures=list(self.report.failures)))

    def _drain_cancel(self, batches: Sequence[_RemoteBatch],
                      commit) -> int:
        """Stop requested: spare leased work a grace, reclaim the rest.

        Mirrors :meth:`Supervisor.run`'s ``drain_cancel``: never-leased
        batches are withdrawn immediately, in-flight leased batches get
        ``job_timeout`` (or the default abort grace) to commit — those
        commits are delivered — and whatever is still out after the
        grace is reclaimed by withdrawal (its late commit fences).
        """
        grace = self.policy.job_timeout or DEFAULT_ABORT_GRACE
        leased = self.coordinator.withdraw(batches, only_idle=True)
        committed = 0
        deadline = time.monotonic() + grace
        while leased and time.monotonic() < deadline:
            self.coordinator.reap()
            still: List[_RemoteBatch] = []
            for batch in leased:
                if batch.payload is not None and not batch.delivered:
                    commit(batch.job, batch.payload)
                    batch.delivered = True
                    committed += 1
                elif not batch.settled and batch.attempts <= \
                        self.policy.retries:
                    still.append(batch)
            leased = still
            if leased:
                self.coordinator.wait_event(0.1)
        reclaimed = len(leased)
        never_submitted = sum(1 for b in batches
                              if b.withdrawn and b not in leased)
        self.coordinator.withdraw(batches)
        raise CampaignCancelled(
            f"fleet execution cancelled: {committed} in-flight batch(es) "
            f"committed during drain, {reclaimed} reclaimed, "
            f"{never_submitted} withdrawn undispatched",
            committed=committed, reclaimed=reclaimed)


# -- shard side --------------------------------------------------------------------


class HttpTransport:
    """One-request-per-connection HTTP client for the fleet protocol."""

    PATHS = {op: f"/fleet/{op}" for op in FLEET_OPS}

    def __init__(self, base: str, timeout: float = 75.0) -> None:
        if "//" in base:
            base = base.split("//", 1)[1]
        base = base.rstrip("/")
        host, _, port = base.partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port) if port else 8642
        self.timeout = timeout

    def request(self, op: str, body: Dict[str, object]) -> Dict[str, object]:
        path = self.PATHS.get(op)
        if path is None:
            raise FleetError(f"unknown fleet operation {op!r}")
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("POST", path,
                         body=json.dumps(body).encode("utf-8"),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = json.loads(response.read().decode("utf-8"))
            if response.status >= 400:
                raise FleetError(f"fleet {op} failed: HTTP "
                                 f"{response.status}: "
                                 f"{data.get('error', '?')}")
            return data
        finally:
            conn.close()


class ChaosTransport:
    """Wraps a transport with :class:`NetworkChaos` gating every op."""

    def __init__(self, inner, chaos: NetworkChaos) -> None:
        self.inner = inner
        self.chaos = chaos

    def request(self, op: str, body: Dict[str, object]) -> Dict[str, object]:
        self.chaos.perform(op)  # may raise ChaosDropped or stall
        return self.inner.request(op, body)


class ShardAgent:
    """A remote worker shard: poll, run on the local PR-3 pool, commit.

    The agent is deliberately stateless about the campaign: every leased
    batch is rebuilt from its wire payload, executed on a local
    :class:`~repro.resilience.Supervisor` pool (so worker crashes and
    hangs on the shard are absorbed by the same machinery as anywhere
    else), and committed under its fencing token.  A batch whose lease
    the server reports lost is abandoned — its commit would fence.  A
    batch that fails permanently on this shard is simply never
    committed; the server's lease expiry charges the attempt and
    redispatches.
    """

    def __init__(self, transport, *, shard_id: Optional[str] = None,
                 jobs: int = 1, policy: Optional[RetryPolicy] = None,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 poll_wait: float = DEFAULT_POLL_WAIT,
                 chaos: Optional[NetworkChaos] = None) -> None:
        self.transport = transport
        self.shard_id = shard_id or (f"{socket.gethostname()}"
                                     f"-{os.getpid()}")
        self.jobs = jobs
        # A shard-local permanent failure must not poison later batches,
        # so the failure budget is effectively unlimited: the batch just
        # goes uncommitted and the server's lease machinery takes over.
        self.policy = policy or RetryPolicy(retries=1, max_failures=1 << 30)
        self.heartbeat_interval = heartbeat_interval
        self.poll_wait = poll_wait
        self.chaos = chaos if chaos is not None else NetworkChaos()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._held: Dict[int, str] = {}   # token -> digest
        self._lost: Set[int] = set()
        self.batches_done = 0
        self.batches_fenced = 0

    def request_stop(self) -> None:
        self._stop.set()

    def _call(self, op: str, body: Dict[str, object]
              ) -> Optional[Dict[str, object]]:
        """One transport op; None on any network (or chaos) failure."""
        try:
            return self.transport.request(op, body)
        except (ChaosDropped, OSError, FleetError):
            return None

    # -- lifecycle -------------------------------------------------------------------

    def run(self, max_batches: Optional[int] = None) -> int:
        """Serve until stopped, the server drains, or ``max_batches``.

        Returns the number of batches this shard committed (``ok`` or
        ``duplicate`` verdicts).
        """
        while not self._stop.is_set():
            if self._call("register", {"shard": self.shard_id}) is not None:
                break
            self._stop.wait(0.5)
        heartbeats = threading.Thread(target=self._heartbeat_loop,
                                      name=f"heartbeat-{self.shard_id}",
                                      daemon=True)
        heartbeats.start()
        supervisor = Supervisor(max_workers=self.jobs, policy=self.policy)
        try:
            while not self._stop.is_set():
                response = self._call("poll", {"shard": self.shard_id,
                                               "wait": self.poll_wait})
                if response is None:
                    self._stop.wait(0.2)
                    continue
                if response.get("draining"):
                    break
                wire = response.get("job")
                if wire is None:
                    continue
                self._run_leased(wire, int(response["token"]), supervisor)
                if (max_batches is not None
                        and self.batches_done >= max_batches):
                    break
        finally:
            self._stop.set()
        return self.batches_done

    def _run_leased(self, wire: Dict[str, object], token: int,
                    supervisor: Supervisor) -> None:
        try:
            job = job_from_wire(wire)
        except FleetError:
            # Version-skewed or corrupt dispatch: never simulate it; the
            # lease expires server-side and the batch goes elsewhere.
            return
        with self._lock:
            self._held[token] = job.digest()
        try:
            stall = self.chaos.slow_for(job.label)
            if stall > 0:
                time.sleep(stall)
            collected: Dict[str, Dict[str, object]] = {}

            def grab(task, payload) -> None:
                collected["payload"] = payload

            try:
                supervisor.run([job], commit=grab)
            except (ExecutionFailed, CampaignCancelled):
                return
            payload = collected.get("payload")
            if payload is None:
                return  # permanent local failure: let the lease expire
            with self._lock:
                if token in self._lost:
                    return  # the server already reclaimed this batch
            response = self._call("commit", {"shard": self.shard_id,
                                             "token": token,
                                             "digest": job.digest(),
                                             "payload": payload})
            verdict = (response or {}).get("verdict")
            if verdict in ("ok", "duplicate"):
                self.batches_done += 1
            elif verdict == "fenced":
                self.batches_fenced += 1
        finally:
            with self._lock:
                self._held.pop(token, None)
                self._lost.discard(token)

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            with self._lock:
                tokens = list(self._held)
            response = self._call("heartbeat", {"shard": self.shard_id,
                                                "tokens": tokens})
            if response is not None:
                lost = response.get("lost") or ()
                with self._lock:
                    self._lost.update(int(t) for t in lost)
