"""Leased dispatch of live batches: the campaign service's one path.

Every live batch the service runs is leased to a *shard*, a worker pool
that polls for work, and committed under that lease.  The service's own
pool is an in-process shard: a :class:`ShardAgent` on a
:class:`LocalTransport`, which calls the :class:`FleetCoordinator`
directly (no HTTP, no JSON).  ``repro-sim worker --connect`` runs the
same agent on an :class:`HttpTransport`.  So every batch is leased,
fenced and charged alike, whichever process runs it and whether or not
a remote shard is connected (:mod:`repro.service.leases` says which
lease transitions are journaled); losing every remote shard
needs no path of its own (their leases expire and the local shard takes
the batches back).  ``docs/campaign-service.md`` states the protocol:

* leases (:mod:`repro.service.leases`) renewed by heartbeats; expiry
  charges one attempt and redispatches; fencing tokens refuse a zombie's
  late commit; commits are exactly-once by content hash, so a hedged
  batch (leased again after ``hedge_after``) dedups byte-identically;
* the in-process shard leases a *run* of consecutive batches of one
  campaign, its share ``ceil(open batches / live shards)`` less what it
  holds, and strikes it as one :meth:`~repro.resilience.Supervisor.run`
  (one strike driver per worker), committing each batch under its own
  token as it streams.  A remote shard, or a batch charged an attempt,
  is leased one batch at a time, so remote load balances itself;
* one retry layer: a shard runs each batch once under the campaign's
  ``job_timeout`` and reports one it cannot finish through ``fail``; the
  coordinator charges it and backs off
  (:meth:`~repro.resilience.RetryPolicy.delay`), and the campaign's
  :class:`FleetExecutor` fails it past ``retries``;
* jobs are encoded for the wire on a remote grant only, rebuilt through
  the real constructors and re-digested on arrival; a remote shard's
  transport consults a :class:`~repro.resilience.chaos.NetworkChaos`
  before every operation.
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
from repro.service.leases import (
    DEFAULT_LEASE_TIMEOUT,
    LOCAL_SHARD_ID,
    Lease,
    LeaseTable,
)
from repro.structures.strike import MbuConfig

#: Seconds a leased batch may run before a second shard is hedged in.
DEFAULT_HEDGE_AFTER = 30.0

#: Seconds between shard heartbeats (well under the lease timeout).
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Seconds a shard's poll long-polls before returning idle.
DEFAULT_POLL_WAIT = 10.0

#: Payloads an executor's inbox holds before the in-process shard's
#: commits wait for it (remote commits never wait: they hold a server
#: thread).
INBOX_LIMIT = 64

#: The fleet's transport operations (chaos match targets).
FLEET_OPS = ("register", "poll", "heartbeat", "commit", "fail")


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

    def __init__(self, job: LiveBatchJob, digest: str, campaign_id: str,
                 policy: RetryPolicy, inbox: List["_RemoteBatch"]) -> None:
        self.job = job
        self.digest = digest
        self.campaign_id = campaign_id
        self.policy = policy
        #: Its executor's inbox, which the batch joins when it needs its
        #: executor: a payload to deliver, or its attempts spent.
        self.inbox = inbox
        self.attempts = 0
        self.kinds: List[str] = []
        self.last_error = ""
        #: Monotonic time before which a charged batch is not redispatched.
        self.ready_at = 0.0
        self.payload: Optional[Dict[str, object]] = None
        self.delivered = self.withdrawn = self.failed = False

    @property
    def settled(self) -> bool:
        return self.delivered or self.failed or self.withdrawn

    @property
    def open(self) -> bool:
        """Still owed a payload."""
        return not self.settled and self.payload is None


class FleetCoordinator:
    """Server-side fleet state: shards, the dispatch pool, the leases.

    One per service; each campaign's :class:`FleetExecutor` submits work
    into it and drains results out.  Thread-safe; lock order is
    coordinator lock → lease table lock.  Shards wait on ``_cond`` for
    leasable work, executors on ``_ready`` for their inbox, so a commit
    wakes only executors.  A lease's ``ref`` is the
    batch it was granted for.  The in-process shard is the one whose id
    is :data:`~repro.service.leases.LOCAL_SHARD_ID`: always live, never
    counted as connected, and handed jobs rather than wire payloads.
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
        lock = threading.Lock()
        self._cond = threading.Condition(lock)
        self._ready = threading.Condition(lock)
        self._shards: Dict[str, float] = {}  # shard id -> last seen (monotonic)
        self._work: List[_RemoteBatch] = []
        self.hedges = 0

    # -- shard-facing protocol -------------------------------------------------------

    def register(self, shard: str) -> Dict[str, object]:
        with self._cond:
            self._shards[shard] = self._clock()
            self._cond.notify_all()
        return {"shard": shard,
                "lease_timeout": self.leases.lease_timeout,
                "draining": self.leases.closed}

    def poll(self, shard: str, wait: float = 0.0) -> Dict[str, object]:
        """Long-poll for one leased run (or idle / draining).

        The grant's ``job`` is the wire payload, or for the in-process
        shard the job itself.  Every wake-up also expires due leases.
        """
        deadline = self._clock() + max(0.0, wait)
        with self._cond:
            while True:
                self._shards[shard] = self._clock()
                self._reap_locked()
                run, hedge = ([], False) if self.leases.closed \
                    else self._next_run_locked(shard)
                grants = []
                for batch in run:
                    lease = self.leases.grant(batch.digest, batch.job.label,
                                              batch.campaign_id, shard,
                                              ref=batch)
                    if lease is None:  # closed after the check above
                        break
                    grants.append((batch, lease.token))
                if grants:
                    if hedge:
                        self.hedges += 1
                        if self.journal is not None:
                            self.journal.record(
                                f"fleet:{run[0].digest[:16]}", "batch_hedged",
                                extra={"shard": shard,
                                       "token": grants[0][1],
                                       "label": run[0].job.label})
                    return self._grant(grants, shard != LOCAL_SHARD_ID)
                remaining = deadline - self._clock()
                if self.leases.closed or remaining <= 0:
                    return {"job": None, "token": None,
                            "draining": self.leases.closed}
                # Bounded naps so expiry reaping, retry backoffs and
                # close() are noticed.
                self._cond.wait(min(remaining, 0.25))

    def _grant(self, grants: List[Tuple[_RemoteBatch, int]],
               encode: bool) -> Dict[str, object]:
        first, *more = [{"job": job_to_wire(batch.job) if encode
                                 else batch.job,
                         "token": token, "digest": batch.digest,
                         "attempt": batch.attempts}
                        for batch, token in grants]
        return dict(first, more=more,
                    lease_timeout=self.leases.lease_timeout,
                    job_timeout=grants[0][0].policy.job_timeout,
                    draining=False)

    def _holders(self, batch: _RemoteBatch):
        return [lease for lease in self.leases.holders(batch.digest)
                if lease.ref is batch]

    def _next_run_locked(self, shard: str
                         ) -> Tuple[List[_RemoteBatch], bool]:
        """The run to lease to ``shard`` next, and whether it is a hedge.

        The first free batch in submission order decides: a remote shard
        or a charged batch gets it alone; otherwise the in-process shard
        takes up to its share of that campaign's free batches, in plan
        order.  A hedge is offered only when no free batch is.
        """
        now = self._clock()
        live = self._connected_locked(now) + 1
        hedge: Optional[_RemoteBatch] = None
        full: Set[str] = set()  # campaigns this shard holds its share of
        for batch in self._work:
            if (not batch.open or batch.campaign_id in full
                    or batch.attempts > batch.policy.retries
                    or batch.ready_at > now):
                continue
            holders = self._holders(batch)
            if holders:
                if (hedge is None and len(holders) == 1
                        and holders[0].shard_id != shard
                        and now - holders[0].granted_at >= self.hedge_after):
                    # Still renewed (not expired) but past the latency
                    # budget: a slow shard.  Hedge it to this one; first
                    # valid commit wins, the loser dedups as 'duplicate'.
                    hedge = batch
                continue
            if batch.attempts or shard != LOCAL_SHARD_ID:
                return [batch], False
            campaign = [b for b in self._work
                        if b.campaign_id == batch.campaign_id and b.open]
            held = sum(1 for b in campaign for lease in self._holders(b)
                       if lease.shard_id == shard)
            share = -(-len(campaign) // live) - held
            if share <= 0:
                full.add(batch.campaign_id)
                continue
            run = [b for b in campaign[campaign.index(batch):]
                   if not b.attempts and not self._holders(b)]
            return run[:share], False
        return ([hedge], True) if hedge is not None else ([], False)

    def heartbeat(self, shard: str, tokens: Sequence[int]) -> Dict[str, object]:
        with self._cond:
            self._shards[shard] = self._clock()
        return {"shard": shard, **self.leases.renew(shard, tokens)}

    def _lease(self, shard: str, token: int,
               digest: str) -> Optional[Lease]:
        """``token``'s lease, if it is ``shard``'s live lease on ``digest``."""
        lease = self.leases.get(token)
        if (lease is not None and lease.digest == digest
                and lease.shard_id == shard):
            return lease
        return None

    def commit(self, shard: str, token: int, digest: str,
               payload: object) -> Dict[str, object]:
        """Rule on one commit: validate, then let the lease table decide.

        Validation happens *before* the exactly-once verdict so a
        corrupt payload never occupies a digest's one commit slot — the
        batch is charged an attempt and redispatched instead.
        """
        # All under the condition, so no poll sees the batch unleased
        # before its payload (or its charge) lands and leases it again.
        with self._cond:
            lease = self._lease(shard, token, digest)
            batch = lease.ref if lease is not None else None
            if batch is not None:
                try:
                    if not isinstance(payload, dict):
                        raise TypeError("payload not an object")
                    batch.job.validate(payload)
                except Exception as exc:  # noqa: BLE001 - any invalid payload
                    self.leases.release(token)
                    error = (f"invalid payload from {shard}: "
                             f"{type(exc).__name__}: {exc}")
                    self._charge_locked(batch, "corrupt", error)
                    return {"verdict": "invalid", "error": error}
            verdict = self.leases.commit(shard, token, digest)
            if (verdict in ("ok", "duplicate") and batch is not None
                    and batch.open):
                batch.payload = payload
                self._notify_locked(batch)
                if shard == LOCAL_SHARD_ID:
                    # Backpressure, as a supervisor's own commit gives:
                    # undelivered payloads stay bounded when the
                    # campaign's executor falls behind.
                    self._ready.wait_for(
                        lambda: len(batch.inbox) < INBOX_LIMIT, 1.0)
        return {"verdict": verdict}

    def fail(self, shard: str, token: int, digest: str, kind: str,
             error: str = "") -> Dict[str, object]:
        """A shard could not finish a leased batch: charge one attempt.

        ``charged`` when the token was the shard's live lease on a batch
        still owed a payload; ``stale`` (a no-op) otherwise.
        """
        with self._cond:
            lease = self._lease(shard, token, digest)
            if lease is not None:
                self.leases.release(token, "lease_failed", kind=kind)
            batch = lease.ref if lease is not None else None
            if batch is None or not batch.open:
                return {"verdict": "stale"}
            self._charge_locked(batch, kind,
                                f"{kind} on shard {shard}: {error}")
        return {"verdict": "charged"}

    def _charge_locked(self, batch: _RemoteBatch, kind: str,
                       error: str) -> None:
        """One attempt of ``batch`` failed: count it and back off."""
        batch.attempts += 1
        batch.kinds.append(kind)
        batch.last_error = error
        batch.ready_at = self._clock() + batch.policy.delay(batch.digest,
                                                            batch.attempts)
        if batch.attempts > batch.policy.retries:
            self._notify_locked(batch)
        self._cond.notify_all()

    def _notify_locked(self, batch: _RemoteBatch) -> None:
        batch.inbox.append(batch)
        self._ready.notify_all()

    # -- executor-facing API ---------------------------------------------------------

    def submit(self, campaign_id: str,
               jobs: Sequence[Tuple[LiveBatchJob, str]],
               policy: RetryPolicy,
               inbox: List[_RemoteBatch]) -> List[_RemoteBatch]:
        """Queue ``(job, digest)`` pairs for dispatch under ``policy``;
        each joins ``inbox`` when it needs its executor."""
        batches = [_RemoteBatch(job, digest, campaign_id, policy, inbox)
                   for job, digest in jobs]
        with self._cond:
            self._work.extend(batches)
            self._cond.notify_all()
        return batches

    def withdraw(self, batches: Sequence[_RemoteBatch]) -> int:
        """Make the batches owed a payload and leased to no shard
        undispatchable (a drain lets leased ones commit); returns how
        many."""
        withdrawn = 0
        with self._cond:
            for batch in batches:
                if batch.open and not self._holders(batch):
                    batch.withdrawn = True
                    withdrawn += 1
        return withdrawn

    def retire(self, batches: Sequence[_RemoteBatch]) -> None:
        """Remove a campaign's batches at end of run.  Late commits of
        undelivered batches fence; a hedge partner's late commit of a
        delivered one stays a ``duplicate`` (its lease lives on)."""
        gone = set(map(id, batches))
        with self._cond:
            self._work = [b for b in self._work if id(b) not in gone]
        for batch in batches:
            if not batch.delivered:
                for lease in self._holders(batch):
                    self.leases.release(lease.token)

    def reap(self) -> None:
        with self._cond:
            self._reap_locked()

    def _reap_locked(self) -> None:
        for lease in self.leases.expire_due():
            batch = lease.ref
            if batch is not None and batch.open:
                self._charge_locked(batch, "lease_expired",
                                    f"lease {lease.token} on shard "
                                    f"{lease.shard_id} expired unrenewed")

    def take(self, inbox: List[_RemoteBatch],
             timeout: float) -> List[_RemoteBatch]:
        """Wait up to ``timeout`` for ``inbox`` to fill, then empty it."""
        with self._ready:
            self._ready.wait_for(lambda: inbox, timeout)
            ready = list(inbox)
            inbox.clear()
            self._ready.notify_all()
        return ready

    def connected_shards(self) -> int:
        """Remote shards heard from within ``shard_timeout``."""
        with self._cond:
            return self._connected_locked(self._clock())

    def _connected_locked(self, now: float) -> int:
        return sum(1 for shard, seen in self._shards.items()
                   if shard != LOCAL_SHARD_ID
                   and now - seen <= self.shard_timeout)

    def close(self) -> None:
        """Stop granting leases (graceful-shutdown step one)."""
        self.leases.close()
        with self._cond:
            self._cond.notify_all()

    def stats(self) -> Dict[str, object]:
        return {"shards": {"connected": self.connected_shards()},
                "leases": self.leases.stats(),
                "batches": {"hedged": self.hedges}}


class FleetExecutor:
    """The service's one executor of live campaigns, on leases.

    A drop-in for :class:`~repro.resilience.Supervisor` in
    :func:`~repro.faultinject.run_live_campaign` (same ``run`` contract,
    ``request_stop`` drain, ``report`` and ``on_failure`` hook), with no
    pool of its own: batches run wherever a shard leases them, under the
    campaign's retry ``policy``.  ``commit`` runs only on the campaign's
    thread.
    """

    def __init__(self, coordinator: FleetCoordinator, campaign_id: str,
                 policy: RetryPolicy, on_failure=None) -> None:
        self.coordinator = coordinator
        self.campaign_id = campaign_id
        self.policy = policy
        self.report = FailureReport()
        self.on_failure = on_failure
        self._stop = threading.Event()

    def request_stop(self) -> None:
        self._stop.set()

    def run(self, tasks, commit, already_done=None) -> SupervisedRun:
        """Submit, then deliver each batch's payload as it is committed.

        A stop request mirrors :meth:`Supervisor.run`'s drain: batches
        never leased are withdrawn at once, leased ones get
        ``job_timeout`` (or the default abort grace) to commit — those
        commits are delivered — and the rest are withdrawn (their late
        commits fence) before :class:`~repro.errors.CampaignCancelled`.
        """
        skipped = 0
        jobs: List[Tuple[LiveBatchJob, str]] = []
        seen: Set[str] = set()
        for task in tasks:
            digest = task.digest()
            if digest in seen:
                continue
            seen.add(digest)
            if already_done is not None and already_done(task):
                skipped += 1
            else:
                jobs.append((task, digest))
        report = FailureReport()
        if not jobs:
            return SupervisedRun(executed=0, skipped=skipped, report=report)
        inbox: List[_RemoteBatch] = []
        batches = self.coordinator.submit(self.campaign_id, jobs,
                                          self.policy, inbox)
        owed = len(batches)  # neither delivered, failed nor withdrawn
        executed = drained_from = unleased = 0
        drain_end: Optional[float] = None
        try:
            while True:
                if self._stop.is_set() and drain_end is None:
                    drain_end = time.monotonic() + (self.policy.job_timeout
                                                    or DEFAULT_ABORT_GRACE)
                    drained_from = executed
                    unleased = self.coordinator.withdraw(batches)
                    owed -= unleased
                self.coordinator.reap()
                for batch in self.coordinator.take(inbox,
                                                   0.1 if owed else 0.0):
                    if batch.settled:
                        continue
                    owed -= 1
                    if batch.payload is not None:
                        commit(batch.job, batch.payload)
                        batch.delivered, batch.payload = True, None
                        executed += 1
                    elif drain_end is None:
                        self._fail(batch, report)
                    else:  # attempts spent while draining
                        batch.withdrawn = True
                if drain_end is not None and (
                        not owed or time.monotonic() >= drain_end):
                    # retire() below fences the rest's late commits.
                    raise CampaignCancelled(
                        f"fleet execution cancelled: "
                        f"{executed - drained_from} in-flight batch(es) "
                        f"committed during drain, {owed} reclaimed, "
                        f"{unleased} withdrawn undispatched",
                        committed=executed - drained_from,
                        reclaimed=owed)
                if not owed:
                    break
        finally:
            self.coordinator.retire(batches)
        return SupervisedRun(executed=executed, skipped=skipped,
                             report=report)

    def _fail(self, batch: _RemoteBatch, report: FailureReport) -> None:
        batch.failed = True
        failure = JobFailure(digest=batch.digest, label=batch.job.label,
                             attempts=batch.attempts,
                             kinds=list(batch.kinds),
                             error=batch.last_error
                                   or "remote attempts exhausted")
        report.failures.append(failure)
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


# -- shard side --------------------------------------------------------------------


class HttpTransport:
    """One-request-per-connection HTTP client for the fleet protocol."""

    def __init__(self, base: str, timeout: float = 75.0) -> None:
        if "//" in base:
            base = base.split("//", 1)[1]
        base = base.rstrip("/")
        host, _, port = base.partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port) if port else 8642
        self.timeout = timeout

    def request(self, op: str, body: Dict[str, object]) -> Dict[str, object]:
        if op not in FLEET_OPS:
            raise FleetError(f"unknown fleet operation {op!r}")
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("POST", f"/fleet/{op}",
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


class LocalTransport:
    """The fleet protocol as direct calls on an in-process coordinator.

    No HTTP and no JSON: payloads cross as objects, and a shard named
    :data:`~repro.service.leases.LOCAL_SHARD_ID` is granted jobs, not
    wire payloads.
    """

    def __init__(self, coordinator: FleetCoordinator) -> None:
        self.coordinator = coordinator

    def request(self, op: str, body: Dict[str, object]) -> Dict[str, object]:
        if op not in FLEET_OPS:
            raise FleetError(f"unknown fleet operation {op!r}")
        return getattr(self.coordinator, op)(**body)


class ChaosTransport:
    """Wraps a transport with :class:`NetworkChaos` gating every op."""

    def __init__(self, inner, chaos: NetworkChaos) -> None:
        self.inner = inner
        self.chaos = chaos

    def request(self, op: str, body: Dict[str, object]) -> Dict[str, object]:
        self.chaos.perform(op)  # may raise ChaosDropped or stall
        return self.inner.request(op, body)


class _Run:
    """One leased run on a shard: its tokens and its supervisor."""

    def __init__(self, tokens: Dict[str, int], supervisor: Supervisor):
        self.tokens = tokens               # digest -> token
        self.open = set(tokens.values())   # neither reported nor lost
        self.supervisor = supervisor


class ShardAgent:
    """A worker shard: poll for runs, strike each on a pool, commit.

    Each leased run executes on a :class:`~repro.resilience.Supervisor`
    pool of ``jobs`` workers of its own, each batch once (``retries=0``)
    under the campaign's ``job_timeout``, committed under its own token
    as it streams or reported through ``fail``.  A remote shard's runs
    are one batch each.  Up to ``runs`` runs execute at once (the
    in-process shard holds one per running campaign, so one campaign's
    hang never delays another's).  A run whose every open token the
    server reports lost is stopped at once.
    """

    def __init__(self, transport, *, shard_id: Optional[str] = None,
                 jobs: int = 1, runs: int = 1,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 poll_wait: float = DEFAULT_POLL_WAIT,
                 chaos: Optional[NetworkChaos] = None) -> None:
        self.transport = transport
        self.shard_id = shard_id or (f"{socket.gethostname()}"
                                     f"-{os.getpid()}")
        self.jobs = jobs
        self.heartbeat_interval = heartbeat_interval
        self.poll_wait = poll_wait
        self.chaos = chaos if chaos is not None else NetworkChaos()
        self._stop = threading.Event()
        self._done = threading.Event()
        self._slots = threading.Semaphore(runs)
        self._lock = threading.Lock()
        self._runs: List[_Run] = []
        self._abandon = False
        self.batches_done = 0

    def request_stop(self, now: bool = False) -> None:
        """Stop polling; runs in flight finish, or with ``now`` are
        stopped at once (their workers killed, their leases left to the
        server)."""
        self._stop.set()
        if now:
            with self._lock:
                self._abandon = True
                runs = list(self._runs)
            for run in runs:
                run.supervisor.request_stop(now=True)

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
        threading.Thread(target=self._heartbeat_loop,
                         name=f"heartbeat-{self.shard_id}",
                         daemon=True).start()
        threads: List[threading.Thread] = []
        try:
            while not self._stop.is_set():
                if not self._slots.acquire(timeout=0.5):
                    continue
                if (max_batches is not None
                        and self.batches_done >= max_batches):
                    self._slots.release()
                    break
                grant = self._call("poll", {"shard": self.shard_id,
                                            "wait": self.poll_wait})
                if grant is None or grant.get("job") is None:
                    self._slots.release()
                    if grant is None:
                        self._stop.wait(0.2)
                    elif grant.get("draining"):
                        break
                    continue
                thread = threading.Thread(target=self._strike, args=(grant,),
                                          name=f"run-{self.shard_id}",
                                          daemon=True)
                thread.start()
                threads = [t for t in threads if t.is_alive()] + [thread]
        finally:
            self._stop.set()
            for thread in threads:
                thread.join()
            self._done.set()
        return self.batches_done

    def _strike(self, grant: Dict[str, object]) -> None:
        """Strike one leased run; always frees its slot."""
        try:
            jobs: List[LiveBatchJob] = []
            tokens: Dict[str, int] = {}
            attempts: Dict[str, int] = {}
            for entry in [grant, *(grant.get("more") or ())]:
                job = entry["job"]
                if not isinstance(job, LiveBatchJob):
                    try:
                        job = job_from_wire(job)
                    except FleetError:
                        # Version-skewed or corrupt dispatch: never
                        # simulate it; the lease expires server-side and
                        # the batch goes elsewhere.
                        continue
                digest = str(entry["digest"])
                jobs.append(job)
                tokens[digest] = int(entry["token"])
                attempts[digest] = int(entry.get("attempt") or 0)
            run = _Run(tokens, Supervisor(
                max_workers=self.jobs,
                # One attempt per lease: the server's budget is the only
                # retry layer, and a failure is reported, never absorbed.
                policy=RetryPolicy(retries=0,
                                   job_timeout=grant.get("job_timeout"),
                                   max_failures=1 << 30),
                on_failure=lambda failure: self._report(run, failure)))
            with self._lock:
                if not jobs or self._abandon:
                    return
                self._runs.append(run)
            try:
                stall = max(self.chaos.slow_for(job.label) for job in jobs)
                if stall > 0:
                    time.sleep(stall)
                run.supervisor.run(
                    jobs, commit=lambda job, payload: self._commit(
                        run, job.digest(), payload),
                    attempts=attempts)
            except (ExecutionFailed, CampaignCancelled):
                pass
            finally:
                with self._lock:
                    self._runs.remove(run)
        finally:
            self._slots.release()

    def _settle(self, run: _Run, digest: str) -> Optional[int]:
        """Close ``digest``'s token in ``run``; None if it was lost."""
        token = run.tokens[digest]
        with self._lock:
            if token not in run.open:
                return None
            run.open.discard(token)
        return token

    def _commit(self, run: _Run, digest: str,
                payload: Dict[str, object]) -> None:
        token = self._settle(run, digest)
        if token is None:
            return
        response = self._call("commit", {"shard": self.shard_id,
                                         "token": token, "digest": digest,
                                         "payload": payload})
        if (response or {}).get("verdict") in ("ok", "duplicate"):
            with self._lock:
                self.batches_done += 1

    def _report(self, run: _Run, failure: JobFailure) -> None:
        token = self._settle(run, failure.digest)
        if token is not None:
            self._call("fail", {"shard": self.shard_id, "token": token,
                                "digest": failure.digest,
                                "kind": failure.kinds[-1],
                                "error": failure.error})

    def _heartbeat_loop(self) -> None:
        # Beats until every run has ended, so leases stay renewed while
        # runs finish after the poll loop stops (a draining server).
        while not self._done.wait(self.heartbeat_interval):
            with self._lock:
                tokens = sorted(t for run in self._runs for t in run.open)
            response = self._call("heartbeat", {"shard": self.shard_id,
                                                "tokens": tokens})
            if response is None:
                continue
            lost = set(int(t) for t in response.get("lost") or ())
            stale = []
            with self._lock:
                for run in self._runs:
                    if run.open and run.open <= lost:
                        stale.append(run)
                    run.open -= lost
            for run in stale:
                run.supervisor.request_stop(now=True)
