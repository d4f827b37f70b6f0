"""Campaign scheduler: specs in, supervised job shards out, status streamed.

One :class:`CampaignScheduler` owns every campaign of a service process.
Each submitted spec becomes a campaign record; execution runs in a
dedicated thread on a dedicated :class:`~repro.resilience.Supervisor`
pool, so one campaign's worker crashes, hangs and budget exhaustion
degrade *that campaign only* — its neighbours' pools never see the
broken executor.  The spec's ``budget`` is the per-campaign degradation
budget (PR-3 semantics: fail past it, degrade within it).

**Admission control.** At most ``max_running`` campaigns execute
concurrently; beyond that, submissions wait in a bounded queue
(``max_queued``) ordered FIFO within priority (spec ``priority`` 0–9,
higher admits first, submission order breaks ties).  A submission that
finds the queue full raises :class:`QueueFull`, which the server renders
as ``429`` with a ``Retry-After`` hint and a machine-readable
queue-depth body — backpressure is part of the wire contract, not an
accident of load.  Queued campaigns report their ``queue_position`` so
clients can back off intelligently.

**Durability.** Every lifecycle transition (``submitted`` → ``admitted``
→ ``running`` → ``done``/``degraded``/``failed``/``cancelled``) is
journaled write-ahead to ``service-journal.jsonl``
(:class:`~repro.service.journal.ServiceJournal`).  On restart,
:meth:`CampaignScheduler.recover` replays the journal and re-admits
every campaign the dead process still owed work to; execution resumes
through the per-batch content cache, so finished batches are served —
never recomputed — and the recovered artifact is byte-identical to an
uninterrupted run's.

**Cancellation.** :meth:`cancel` removes a queued campaign outright, or
asks a running campaign's supervisor to drain: finished in-flight
batches commit to the cache, the rest are reclaimed (the hung-worker
pool-teardown path), the transition is journaled, and no partial result
is ever content-addressed.  A cancelled campaign is resubmittable; the
retry resumes from the committed batches.

Deduplication happens at two layers, both keyed by the spec's content
digest (:meth:`~repro.service.specs.CampaignSpec.digest`):

* **in-flight**: a second submission of a spec that is queued or running
  joins the existing campaign (``submissions`` increments, nothing else
  happens);
* **at rest**: a submission whose digest already has a final artifact in
  the :class:`~repro.service.store.ArtifactStore` completes instantly
  from the store.

Either way, every client of one digest reads the same artifact file —
byte-identical results by construction.  A campaign that previously
*failed*, *degraded* or was *cancelled* is not dedup'd: resubmitting it
is an explicit request to try again (journal-resume semantics — finished
batches are still in the shared cache, so only lost work re-runs).

Progress: live campaigns stream per-batch; as each
:class:`~repro.faultinject.LiveBatchJob` lands, the per-structure strike
and SDC counts advance and the status payload's partial Wilson intervals
(:func:`~repro.metrics.reliability.wilson_interval`) tighten.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SimConfig
from repro.errors import (
    CampaignCancelled,
    ExecutionFailed,
    MissingResultError,
    ReproError,
)
from repro.metrics.reliability import wilson_interval
from repro.resilience import RetryPolicy, Supervisor
from repro.service.journal import ServiceJournal
from repro.service.specs import CampaignSpec, SpecError, parse_spec
from repro.service.store import ArtifactStore

#: Campaign lifecycle states.
STATES = ("queued", "running", "done", "degraded", "failed", "cancelled")
TERMINAL_STATES = ("done", "degraded", "failed", "cancelled")

#: Terminal states a resubmission *retries* instead of joining: the
#: previous attempt did not answer the spec.
RETRYABLE_STATES = ("failed", "degraded", "cancelled")

#: Default admission limits: how many campaigns may execute at once, and
#: how many may wait behind them before submissions bounce with 429.
DEFAULT_MAX_RUNNING = 4
DEFAULT_MAX_QUEUED = 64

#: Ceiling on the Retry-After backpressure hint (seconds).
MAX_RETRY_AFTER = 60

#: Outcomes counted as SDC for the streaming Wilson interval.
_SDC = "SDC"


class QueueFull(ReproError):
    """The admission queue is at ``max_queued``; rendered as HTTP 429.

    Carries the machine-readable backpressure facts the 429 body and the
    ``Retry-After`` header are built from.
    """

    def __init__(self, queue_depth: int, max_queued: int,
                 retry_after: int) -> None:
        self.queue_depth = queue_depth
        self.max_queued = max_queued
        self.retry_after = retry_after
        super().__init__(
            f"admission queue full: {queue_depth} campaign(s) already "
            f"queued (max_queued={max_queued}); retry after "
            f"~{retry_after}s")


class CancelConflict(ReproError):
    """Cancellation hit a campaign already in a terminal state (409)."""

    def __init__(self, campaign_id: str, state: str) -> None:
        self.state = state
        super().__init__(
            f"campaign {campaign_id} is already in terminal state "
            f"{state!r}; nothing to cancel")


@dataclass
class _Campaign:
    """Mutable in-memory record of one campaign (lock-guarded)."""

    spec: CampaignSpec
    id: str
    digest: str
    state: str = "queued"
    submissions: int = 1
    version: int = 0
    priority: int = 0
    seq: int = 0
    batches_total: int = 0
    batches_done: int = 0
    batches_cached: int = 0
    cancel_requested: bool = False
    #: structure value -> {"strikes": n, "sdc": k} accumulated so far.
    progress: Dict[str, Dict[str, int]] = field(default_factory=dict)
    failures: List[Dict[str, object]] = field(default_factory=list)
    error: Optional[str] = None
    created: float = field(default_factory=time.time)
    finished: Optional[float] = None
    from_store: bool = False


class CampaignScheduler:
    """Shards campaign specs into supervised jobs and tracks their state."""

    def __init__(self, store: ArtifactStore, workers: int = 2,
                 max_running: int = DEFAULT_MAX_RUNNING,
                 max_queued: int = DEFAULT_MAX_QUEUED,
                 journal: Optional[ServiceJournal] = None,
                 fleet=None) -> None:
        if workers < 1:
            raise ReproError("workers must be >= 1")
        if max_running < 1:
            raise ReproError("max_running must be >= 1")
        if max_queued < 0:
            raise ReproError("max_queued must be >= 0")
        self.store = store
        self.workers = workers
        self.max_running = max_running
        self.max_queued = max_queued
        self.journal = journal
        #: Optional :class:`~repro.service.fleet.FleetCoordinator`.  With
        #: no fleet — or a fleet with zero connected shards — every
        #: campaign runs on its local pool exactly as before PR-10.
        self.fleet = fleet
        self._draining = False
        self._lock = threading.Condition()
        self._campaigns: Dict[str, _Campaign] = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._supervisors: Dict[str, Supervisor] = {}
        self._queue: List[str] = []
        self._running: set = set()
        self._seq = 0
        self._recovering = False
        #: Campaigns actually computed (dedup observability: two identical
        #: concurrent submissions must leave this at one).
        self.executions = 0
        self.store_hits = 0
        #: Campaigns re-admitted from the journal at startup.
        self.recovered = 0

    # -- durability ------------------------------------------------------------------

    def _journal(self, campaign: _Campaign, event: str,
                 request: Optional[dict] = None) -> None:
        if self.journal is not None:
            self.journal.record(campaign.id, event, request=request,
                                priority=campaign.priority)

    def recover(self) -> int:
        """Replay the service journal; re-admit interrupted campaigns.

        Call once at startup, before accepting connections.  Each
        campaign whose last journaled state is non-terminal is fed back
        through :meth:`submit` — the same validation and admission path
        a fresh client takes — in its original FIFO-within-priority
        order.  The queue bound is waived during recovery: a recovered
        backlog is an existing obligation, not new load.  Returns the
        number of campaigns re-admitted.
        """
        if self.journal is None:
            return 0
        interrupted = self.journal.interrupted()
        # Bound journal growth across restart cycles before appending
        # this life's transitions.
        self.journal.compact()
        recovered = 0
        self._recovering = True
        try:
            for record in sorted(interrupted.values(),
                                 key=lambda r: (-r.priority, r.seq)):
                try:
                    self.submit(record.request)
                except SpecError:
                    # A journal written by an older build may carry a
                    # request this build no longer accepts; dropping it
                    # is the only honest move (the batch cache keeps its
                    # finished work for a manual resubmission).
                    continue
                recovered += 1
        finally:
            self._recovering = False
        self.recovered = recovered
        return recovered

    # -- submission ----------------------------------------------------------------

    def submit(self, payload: object) -> Tuple[Dict[str, object], bool]:
        """Validate and enqueue a spec; returns (status, deduplicated).

        Raises :class:`~repro.service.specs.SpecError` on an invalid
        spec and :class:`QueueFull` when admission control refuses the
        load (the server renders that as 429 + Retry-After).
        """
        spec = parse_spec(payload)
        digest = spec.digest()
        cid = spec.campaign_id()
        with self._lock:
            existing = self._campaigns.get(cid)
            if (existing is not None
                    and existing.state not in RETRYABLE_STATES):
                existing.submissions += 1
                existing.version += 1
                self._lock.notify_all()
                return self._snapshot(existing), True
            if existing is None and self.store.read_artifact(digest) \
                    is not None:
                # Finished in a previous service life: serve from store.
                campaign = _Campaign(spec=spec, id=cid, digest=digest,
                                     state="done", from_store=True,
                                     priority=spec.priority)
                campaign.finished = campaign.created
                self._campaigns[cid] = campaign
                self.store_hits += 1
                self._write_manifest(campaign)
                return self._snapshot(campaign), True

            # A fresh campaign (or an explicit retry of a failed /
            # degraded / cancelled one) needs a running slot or a queue
            # place — check *before* mutating anything.
            admit_now = len(self._running) < self.max_running
            if (not admit_now and len(self._queue) >= self.max_queued
                    and not self._recovering):
                raise QueueFull(queue_depth=len(self._queue),
                                max_queued=self.max_queued,
                                retry_after=self._retry_after_locked())

            if existing is not None:
                # A failed/degraded/cancelled campaign: resubmission
                # retries it (finished batches resume from the cache).
                existing.submissions += 1
                existing.state = "queued"
                existing.error = None
                existing.failures = []
                existing.finished = None
                existing.batches_done = 0
                existing.batches_cached = 0
                existing.progress = {}
                existing.cancel_requested = False
                existing.spec = spec
                existing.priority = spec.priority
                existing.version += 1
                campaign = existing
            else:
                campaign = _Campaign(spec=spec, id=cid, digest=digest,
                                     priority=spec.priority)
                self._campaigns[cid] = campaign
            self._seq += 1
            campaign.seq = self._seq
            self._journal(campaign, "submitted", request=spec.to_request())
            if admit_now:
                self._start_locked(campaign)
            else:
                self._queue.append(cid)
            self._lock.notify_all()
            return self._snapshot(campaign), False

    def _retry_after_locked(self) -> int:
        """A deterministic backpressure hint: scale with the backlog."""
        backlog = len(self._queue) + len(self._running)
        return max(1, min(MAX_RETRY_AFTER, 2 * backlog))

    # -- admission -----------------------------------------------------------------

    def _start_locked(self, campaign: _Campaign) -> None:
        """Admit one campaign: journal, count, launch its thread."""
        self._running.add(campaign.id)
        self.executions += 1
        self._journal(campaign, "admitted")
        campaign.version += 1
        thread = threading.Thread(target=self._execute, args=(campaign,),
                                  name=f"campaign-{campaign.id}",
                                  daemon=True)
        self._threads[campaign.id] = thread
        thread.start()

    def _admit_locked(self) -> None:
        """Fill free running slots from the queue (FIFO within priority)."""
        while (self._queue and len(self._running) < self.max_running
               and not self._draining):
            cid = min(self._queue,
                      key=lambda c: (-self._campaigns[c].priority,
                                     self._campaigns[c].seq))
            self._queue.remove(cid)
            self._start_locked(self._campaigns[cid])
        self._lock.notify_all()

    # -- cancellation ---------------------------------------------------------------

    def cancel(self, campaign_id: str) -> Optional[Dict[str, object]]:
        """Request cancellation; returns a snapshot (None = unknown id).

        A queued campaign is removed and terminal immediately.  A
        running campaign's supervisor is asked to drain — the caller
        should :meth:`wait` for the terminal state, which arrives within
        the campaign's job-timeout bound (finished in-flight batches
        commit to the cache first).  Cancelling an already-``cancelled``
        campaign is idempotent; cancelling any other terminal state
        raises :class:`CancelConflict` (409 — there is nothing left to
        stop, and the artifact's existence must not be disguised).
        """
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                return None
            if campaign.state == "cancelled":
                return self._snapshot(campaign)
            if campaign.state in TERMINAL_STATES:
                raise CancelConflict(campaign_id, campaign.state)
            campaign.cancel_requested = True
            if campaign.id in self._queue:
                # Never admitted: no pool to drain, terminal right here.
                self._queue.remove(campaign.id)
                self._journal(campaign, "cancelled")
                campaign.state = "cancelled"
                campaign.finished = time.time()
                campaign.version += 1
                self._write_manifest(campaign)
                self._lock.notify_all()
                return self._snapshot(campaign)
            supervisor = self._supervisors.get(campaign_id)
            if supervisor is not None:
                supervisor.request_stop()
            campaign.version += 1
            self._lock.notify_all()
            return self._snapshot(campaign)

    def cancel_grace(self, campaign_id: str) -> float:
        """The drain grace a cancellation of this campaign is bounded by
        (its ``job_timeout`` budget, or the supervisor's default)."""
        from repro.resilience.supervisor import DEFAULT_ABORT_GRACE

        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                return 0.0
            return float(campaign.spec.budget.job_timeout
                         or DEFAULT_ABORT_GRACE)

    # -- queries -------------------------------------------------------------------

    def status(self, campaign_id: str) -> Optional[Dict[str, object]]:
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                return None
            return self._snapshot(campaign)

    def list_campaigns(self) -> List[Dict[str, object]]:
        with self._lock:
            return [self._summary(c)
                    for c in sorted(self._campaigns.values(),
                                    key=lambda c: (c.created, c.id))]

    def stats(self) -> Dict[str, object]:
        if self.fleet is not None:
            fleet_stats = self.fleet.stats()
        else:
            from repro.service.fleet import empty_fleet_stats

            fleet_stats = empty_fleet_stats()
        with self._lock:
            states: Dict[str, int] = {}
            for campaign in self._campaigns.values():
                states[campaign.state] = states.get(campaign.state, 0) + 1
            return {"campaigns": len(self._campaigns),
                    "executions": self.executions,
                    "store_hits": self.store_hits,
                    "recovered": self.recovered,
                    "queue": {"depth": len(self._queue),
                              "running": len(self._running),
                              "max_queued": self.max_queued,
                              "max_running": self.max_running},
                    "states": states,
                    "fleet": fleet_stats}

    def result_bytes(self, campaign_id: str) -> Optional[bytes]:
        """The final artifact's exact bytes, or None if not finished.

        Raises ``KeyError`` for an unknown campaign and
        :class:`~repro.errors.ArtifactIntegrityError` (rendered as 500)
        if the stored bytes no longer re-hash to their recorded
        checksum.  Degraded, failed and cancelled campaigns have no
        artifact (a partial result must never be content-addressed as if
        it answered the spec); their particulars live in the status
        payload and the manifest.
        """
        with self._lock:
            campaign = self._campaigns[campaign_id]
            if campaign.state != "done":
                return None
            digest = campaign.digest
        return self.store.verified_artifact_bytes(digest)

    def wait(self, campaign_id: str, timeout: float = 60.0,
             version: Optional[int] = None) -> Optional[Dict[str, object]]:
        """Block until the campaign changes (or terminates), then snapshot.

        With ``version``, returns as soon as the campaign's version
        exceeds it; otherwise waits for a terminal state.  Times out to
        the current snapshot — long-polling must degrade to polling.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                campaign = self._campaigns.get(campaign_id)
                if campaign is None:
                    return None
                if version is not None and campaign.version > version:
                    return self._snapshot(campaign)
                if campaign.state in TERMINAL_STATES:
                    return self._snapshot(campaign)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return self._snapshot(campaign)
                self._lock.wait(remaining)

    def join(self, timeout: float = 120.0) -> None:
        """Wait for every campaign thread (tests and orderly shutdown)."""
        deadline = time.monotonic() + timeout
        for thread in list(self._threads.values()):
            thread.join(max(0.0, deadline - time.monotonic()))

    def shutdown(self) -> None:
        """Graceful service drain (SIGTERM), in strict order.

        1. Stop granting fleet leases (shards see ``draining`` and wind
           down; in-flight leased batches may still commit).
        2. Ask every running campaign's supervisor/executor to drain:
           finished in-flight batches commit to the cache within the
           campaign's ``job_timeout`` grace, the rest are reclaimed, and
           the campaign journals the non-terminal ``drained`` state so
           the next service life resumes it.
        3. Journal a clean service ``shutdown`` record.

        The server closes its listening socket only after this returns —
        a client is never mid-request when the journal says the service
        exited cleanly.
        """
        from repro.resilience.supervisor import DEFAULT_ABORT_GRACE
        from repro.service.journal import SERVICE_ID

        with self._lock:
            self._draining = True
            running = [self._campaigns[cid] for cid in self._running
                       if cid in self._campaigns]
            supervisors = dict(self._supervisors)
        if self.fleet is not None:
            self.fleet.close()
        grace = 0.0
        for campaign in running:
            grace = max(grace, float(campaign.spec.budget.job_timeout
                                     or DEFAULT_ABORT_GRACE))
            supervisor = supervisors.get(campaign.id)
            if supervisor is not None:
                supervisor.request_stop()
        self.join(timeout=grace + 10.0 if running else 5.0)
        if self.journal is not None:
            self.journal.record(SERVICE_ID, "shutdown",
                                extra={"drained": len(running)})

    # -- snapshots -----------------------------------------------------------------

    def _summary(self, c: _Campaign) -> Dict[str, object]:
        return {"id": c.id, "kind": c.spec.kind, "state": c.state,
                "workload": c.spec.workload_name,
                "policy": c.spec.policy,
                "submissions": c.submissions}

    def _queue_position_locked(self, c: _Campaign) -> Optional[int]:
        if c.id not in self._queue:
            return None
        key = (-c.priority, c.seq)
        ahead = sum(
            1 for cid in self._queue
            if (-self._campaigns[cid].priority,
                self._campaigns[cid].seq) < key)
        return ahead + 1

    def _snapshot(self, c: _Campaign) -> Dict[str, object]:
        progress = []
        for structure in sorted(c.progress):
            counts = c.progress[structure]
            strikes, sdc = counts["strikes"], counts["sdc"]
            lo, hi = wilson_interval(sdc, strikes)
            progress.append({
                "structure": structure,
                "strikes": strikes,
                "sdc": sdc,
                "sdc_rate": (sdc / strikes) if strikes else 0.0,
                "wilson_low": lo,
                "wilson_high": hi,
            })
        return {
            "id": c.id,
            "kind": c.spec.kind,
            "state": c.state,
            "spec_digest": c.digest,
            "workload": c.spec.workload_name,
            "policy": c.spec.policy,
            "submissions": c.submissions,
            "version": c.version,
            "priority": c.priority,
            "queue_position": self._queue_position_locked(c),
            "batches": {"done": c.batches_done, "total": c.batches_total,
                        "cached": c.batches_cached},
            "progress": progress,
            "failures": list(c.failures),
            "error": c.error,
            "result_ready": c.state == "done",
        }

    # -- execution -----------------------------------------------------------------

    def _bump(self, campaign: _Campaign,
              mutate: Callable[[_Campaign], None]) -> None:
        with self._lock:
            mutate(campaign)
            campaign.version += 1
            self._lock.notify_all()

    def _supervisor(self, campaign: _Campaign) -> Supervisor:
        spec = campaign.spec
        policy = RetryPolicy(retries=spec.budget.retries,
                             max_failures=spec.budget.max_failures,
                             job_timeout=spec.budget.job_timeout)
        def record(failure) -> None:
            # Stream permanent failures into the live status payload —
            # clients see *which* job died while the campaign grinds on.
            self._bump(campaign,
                       lambda c: c.failures.append(failure.to_payload()))

        return Supervisor(max_workers=self.workers, policy=policy,
                          on_failure=record)

    def _maybe_fleet(self, campaign: _Campaign, supervisor: Supervisor):
        """Route a campaign through the worker fleet when one is live.

        Only live campaigns shard over the fleet (their batches are the
        content-hashed exactly-once unit); everything else — and every
        campaign starting while zero shards are connected — runs on its
        local pool exactly as without a fleet.
        """
        if (self.fleet is None or campaign.spec.kind != "live"
                or self.fleet.connected_shards() == 0):
            return supervisor
        from repro.service.fleet import FleetExecutor

        def degraded() -> None:
            # Whole-fleet loss mid-campaign: journaled under the
            # campaign id (non-terminal — if the process then dies the
            # campaign is still owed) before the local pool takes over.
            self._bump(campaign,
                       lambda c: self._journal(c, "fleet_degraded"))

        return FleetExecutor(self.fleet, campaign.id, supervisor,
                             on_degraded=degraded)

    def _execute(self, campaign: _Campaign) -> None:
        def start_running(c: _Campaign) -> None:
            self._journal(c, "running")
            c.state = "running"
        self._bump(campaign, start_running)
        supervisor = self._maybe_fleet(campaign, self._supervisor(campaign))
        with self._lock:
            self._supervisors[campaign.id] = supervisor
            if campaign.cancel_requested or self._draining:
                # Cancelled (or service drain began) in the
                # admission/running gap: drain at once.
                supervisor.request_stop()
        try:
            try:
                runner = {"live": self._run_live,
                          "reproduce": self._run_reproduce}[campaign.spec.kind]
                payload, degraded = runner(campaign, supervisor)
            except CampaignCancelled:
                if self._draining and not campaign.cancel_requested:
                    # Graceful service shutdown, not a client cancel: the
                    # campaign is *owed*, not abandoned.  Journal the
                    # non-terminal ``drained`` state so the next service
                    # life re-admits it and resumes from the batch cache.
                    def drained(c: _Campaign) -> None:
                        self._journal(c, "drained")
                        c.state = "queued"
                    self._bump(campaign, drained)
                    return
                def cancelled(c: _Campaign) -> None:
                    self._journal(c, "cancelled")
                    c.state = "cancelled"
                    c.failures = [f.to_payload()
                                  for f in supervisor.report.failures]
                    c.finished = time.time()
                self._bump(campaign, cancelled)
                self._write_manifest(campaign)
                return
            except ExecutionFailed as exc:
                def fail(c: _Campaign, exc=exc) -> None:
                    self._journal(c, "failed")
                    c.state = "failed"
                    c.error = str(exc)
                    c.failures = [f.to_payload()
                                  for f in supervisor.report.failures]
                    c.finished = time.time()
                self._bump(campaign, fail)
                self._write_manifest(campaign)
                return
            except Exception as exc:  # noqa: BLE001 - a campaign never takes
                # down the service; the error belongs to its submitter.
                def fail(c: _Campaign, exc=exc) -> None:
                    self._journal(c, "failed")
                    c.state = "failed"
                    c.error = f"{type(exc).__name__}: {exc}"
                    c.finished = time.time()
                self._bump(campaign, fail)
                self._write_manifest(campaign)
                return

            if not degraded:
                self.store.write_artifact(campaign.digest, payload)

            def finish(c: _Campaign) -> None:
                self._journal(c, "degraded" if degraded else "done")
                c.state = "degraded" if degraded else "done"
                c.failures = [f.to_payload()
                              for f in supervisor.report.failures]
                c.finished = time.time()
            self._bump(campaign, finish)
            self._write_manifest(campaign)
        finally:
            with self._lock:
                self._supervisors.pop(campaign.id, None)
                self._running.discard(campaign.id)
                self._admit_locked()

    def _write_manifest(self, campaign: _Campaign) -> None:
        with self._lock:
            manifest = {
                "id": campaign.id,
                "spec": campaign.spec.to_payload(),
                "spec_digest": campaign.digest,
                "state": campaign.state,
                "submissions": campaign.submissions,
                "batches": {"done": campaign.batches_done,
                            "total": campaign.batches_total,
                            "cached": campaign.batches_cached},
                "failures": list(campaign.failures),
                "error": campaign.error,
                "artifact": (f"artifacts/{campaign.digest}.json"
                             if campaign.state == "done" else None),
            }
        self.store.write_manifest(campaign.id, manifest)

    # -- per-kind runners ----------------------------------------------------------

    def _sim_config(self, spec: CampaignSpec, threads: int) -> SimConfig:
        return SimConfig(max_instructions=spec.instructions * threads,
                         seed=spec.seed)

    def _live_structures(self, spec: CampaignSpec):
        from repro.faultinject.live import INJECTABLE

        if not spec.structures:
            return INJECTABLE
        by_name = {s.value.lower(): s for s in INJECTABLE}
        return tuple(by_name[name] for name in spec.structures)

    def _run_live(self, campaign: _Campaign, supervisor: Supervisor
                  ) -> Tuple[Dict[str, object], bool]:
        from repro.faultinject import (LiveConfig, plan_live_batches,
                                       run_live_campaign)

        spec = campaign.spec
        workload = list(spec.programs)
        structures = self._live_structures(spec)
        sim = self._sim_config(spec, len(spec.programs))
        live = LiveConfig()
        if spec.strike_batch is not None:
            from dataclasses import replace

            live = replace(live, strike_batch=spec.strike_batch)

        batches = plan_live_batches(workload, injections=spec.strikes,
                                    structures=structures,
                                    policy=spec.policy, sim=sim,
                                    seed=spec.seed,
                                    protection=self._protection(spec),
                                    live=live, mbu=self._mbu(spec))
        self._bump(campaign,
                   lambda c: setattr(c, "batches_total", len(batches)))

        def on_batch(job, payload) -> None:
            def advance(c: _Campaign) -> None:
                c.batches_done += 1
                counts = c.progress.setdefault(
                    job.structure.value, {"strikes": 0, "sdc": 0})
                counts["strikes"] += len(payload["records"])
                counts["sdc"] += sum(
                    1 for r in payload["records"] if r["outcome"] == _SDC)
            self._bump(campaign, advance)

        result = run_live_campaign(
            workload, injections=spec.strikes, structures=structures,
            policy=spec.policy, sim=sim, seed=spec.seed,
            protection=self._protection(spec), live=live,
            mbu=self._mbu(spec),
            supervisor=supervisor, cache_dir=self.store.cache_dir,
            on_batch=on_batch)
        self._bump(campaign,
                   lambda c: setattr(c, "batches_cached",
                                     result.batches_cached))

        structures_payload = []
        for structure, counts in result.structures.items():
            lo, hi = result.interval(structure)
            structures_payload.append({
                "structure": structure.value,
                "injections": counts.injections,
                "reported_avf": counts.reported_avf,
                "sdc_rate": counts.sdc_rate,
                "wilson_low": lo,
                "wilson_high": hi,
                "outcomes": {o.name: n for o, n in counts.outcomes.items()},
            })
        degraded = bool(supervisor.report)
        payload = {
            "kind": "live",
            "spec": spec.to_payload(),
            "workload": result.workload,
            "cycles": result.cycles,
            "injections_per_structure": result.injections_per_structure,
            "protection": result.protection.label(),
            "mbu_len": spec.mbu_len,
            "structures": structures_payload,
            "records": [r.to_payload() for r in result.records],
            "summary": result.summary(),
        }
        return payload, degraded

    def _protection(self, spec: CampaignSpec):
        from repro.protection import ProtectionConfig

        return ProtectionConfig.coerce(spec.protection)

    def _mbu(self, spec: CampaignSpec):
        from repro.structures.strike import MbuConfig

        return MbuConfig(max_len=spec.mbu_len)

    def _run_reproduce(self, campaign: _Campaign, supervisor: Supervisor
                       ) -> Tuple[Dict[str, object], bool]:
        from repro.experiments.parallel import prewarm_artefacts
        from repro.experiments.reproduce import ARTEFACTS
        from repro.experiments.runner import ExperimentScale, ResultCache

        spec = campaign.spec
        scale = ExperimentScale(instructions_per_thread=spec.instructions,
                                seed=spec.seed)
        cache = ResultCache(cache_dir=self.store.cache_dir)
        self._bump(campaign, lambda c: setattr(c, "batches_total",
                                               len(spec.artefacts)))
        prewarm_artefacts(list(spec.artefacts), scale, cache,
                          jobs=self.workers, supervisor=supervisor)
        texts: Dict[str, str] = {}
        degraded = bool(supervisor.report)
        for name in spec.artefacts:
            try:
                texts[name] = ARTEFACTS[name](scale, cache)
            except MissingResultError as exc:
                texts[name] = (f"{name}: DEGRADED — MISSING({exc.label})\n"
                               f"(job {exc.digest[:12]} failed permanently)")
                degraded = True
            self._bump(campaign, lambda c: setattr(c, "batches_done",
                                                   c.batches_done + 1))
        payload = {
            "kind": "reproduce",
            "spec": spec.to_payload(),
            "artefacts": texts,
        }
        return payload, degraded
