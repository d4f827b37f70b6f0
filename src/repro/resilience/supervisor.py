"""Supervised worker pool: retries, timeouts, pool rebuilds, failure budget.

The :class:`Supervisor` runs *tasks* — picklable objects exposing
``label``, ``digest()``, ``run() -> payload`` and ``validate(payload)`` —
on a :class:`~concurrent.futures.ProcessPoolExecutor` it is prepared to
lose.  Four failure classes are survived:

``error``
    The task raised: retried under exponential backoff with deterministic
    (seeded) jitter, up to ``retries`` extra attempts.
``corrupt``
    The worker returned a payload ``validate`` rejects (or one whose
    digest does not match the task): same retry path — a payload is never
    committed unvalidated.
``crash``
    A worker process died and broke the pool.  Every payload already
    completed is collected off the dead pool's futures, the pool is
    rebuilt, and only the lost jobs are requeued.  The culprit cannot be
    identified among the in-flight jobs, so each lost job is charged one
    attempt — an innocent's extra attempt costs one retry, while a
    deterministic crasher still exhausts its budget and fails permanently.
``timeout``
    A job exceeded ``job_timeout`` wall-clock seconds.  The pool's worker
    processes are terminated (a hung worker never yields otherwise), the
    overdue job is charged an attempt, and innocent in-flight jobs are
    requeued free.

A job that exhausts its attempts becomes a permanent failure.  Permanent
failures beyond the ``max_failures`` budget abort the whole run with
:class:`~repro.errors.ExecutionFailed` — but only after every in-flight
job has been given a grace period to finish and commit, so an abort never
discards completed work.  Within budget, the run completes degraded and
the caller receives a structured :class:`FailureReport`.

Determinism: payloads cross process boundaries as exact pickled dicts and
commit order never influences results keyed by digest, so supervised
execution is byte-identical to inline execution when no faults fire.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import CampaignCancelled, ConfigError, ExecutionFailed
from repro.resilience.chaos import ChaosSpec, misbehave

#: Grace period (seconds) an abort grants in-flight jobs to finish and
#: commit before the pool is torn down, when no job timeout bounds them.
DEFAULT_ABORT_GRACE = 30.0

#: Upper bound on any single blocking wait inside the run loop, so a
#: :meth:`Supervisor.request_stop` from another thread is noticed within
#: this bound even when no timeout or backoff horizon would otherwise
#: wake the loop.
STOP_POLL_SECONDS = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout/budget knobs for one supervised run."""

    retries: int = 2
    job_timeout: Optional[float] = None
    max_failures: int = 0
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    backoff_jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.max_failures < 0:
            raise ConfigError("max_failures must be >= 0")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ConfigError("job_timeout must be positive")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ConfigError("backoff must be non-negative and growing")

    def delay(self, digest: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of one job.

        Exponential in the attempt, capped, with jitter derived from
        ``(seed, digest, attempt)`` — deterministic across runs (so tests
        and resumed campaigns behave identically) yet decorrelated across
        jobs (so a thundering herd of retries spreads out).
        """
        raw = min(self.backoff_base * self.backoff_factor ** (attempt - 1),
                  self.backoff_max)
        blob = f"{self.seed}:{digest}:{attempt}".encode()
        h = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
        unit = h / float(2 ** 64)  # uniform in [0, 1)
        return raw * (1.0 + self.backoff_jitter * (2.0 * unit - 1.0))


@dataclass
class JobFailure:
    """One permanently-failed job, with its full failure history."""

    digest: str
    label: str
    attempts: int
    kinds: List[str] = field(default_factory=list)
    error: str = ""

    def to_payload(self) -> dict:
        return {"digest": self.digest, "label": self.label,
                "attempts": self.attempts, "kinds": list(self.kinds),
                "error": self.error}


@dataclass
class FailureReport:
    """Every permanent failure of a supervised campaign, machine-readable."""

    failures: List[JobFailure] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.failures)

    def labels(self) -> List[str]:
        return [f.label for f in self.failures]

    def to_payload(self) -> dict:
        return {"schema": 1,
                "failures": [f.to_payload() for f in self.failures]}

    def to_json(self) -> str:
        """The text of ``failures.json``."""
        import json

        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> None:
        """Write ``failures.json`` (written even when empty, so automation
        can distinguish 'no failures' from 'no report')."""
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())


@dataclass
class SupervisedRun:
    """Outcome of one :meth:`Supervisor.run` batch."""

    executed: int
    skipped: int
    report: FailureReport


@dataclass
class _TaskState:
    task: object
    digest: str
    label: str
    attempt: int = 0
    ready_at: float = 0.0
    kinds: List[str] = field(default_factory=list)
    last_error: str = ""


def _run_task(task, attempt: int):
    """Worker entry point: run one task attempt, chaos permitting."""
    label = task.label
    rule = ChaosSpec.from_env().rule_for(label, attempt)
    if rule is not None and rule.mode != "corrupt":
        misbehave(rule, label)  # may crash, stall, or raise
    payload = task.run()
    if rule is not None and rule.mode == "corrupt":
        from repro.resilience.chaos import CORRUPT_PAYLOAD

        payload = dict(CORRUPT_PAYLOAD)
    return task.digest(), payload


class Supervisor:
    """Runs task batches with supervision; accumulates a campaign report.

    One Supervisor serves a whole campaign (several :meth:`run` batches —
    e.g. the reproduce driver's two planning stages): the failure budget
    and :attr:`report` span all of them.  Counters (:attr:`pool_rebuilds`,
    :attr:`timeouts`, :attr:`crashes`, :attr:`retried`) are cumulative and
    exist for observability and tests.
    """

    def __init__(self, max_workers: int = 1,
                 policy: Optional[RetryPolicy] = None,
                 journal=None,
                 on_failure: Optional[Callable[[JobFailure], None]] = None
                 ) -> None:
        if max_workers < 1:
            raise ConfigError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.policy = policy or RetryPolicy()
        self.journal = journal
        self.on_failure = on_failure
        self.report = FailureReport()
        self.pool_rebuilds = 0
        self.timeouts = 0
        self.crashes = 0
        self.retried = 0
        self._stop = threading.Event()
        self._clock = time.monotonic
        self._sleep = time.sleep

    # -- cancellation ----------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask a running batch to drain and stop (thread-safe, idempotent).

        The run loop notices within :data:`STOP_POLL_SECONDS`, stops
        submitting queued work, grants in-flight jobs a grace period
        (``job_timeout`` when set, else :data:`DEFAULT_ABORT_GRACE`) to
        finish and commit, reclaims whatever is still running by tearing
        the pool down — the same reclamation path a hung worker takes —
        and raises :class:`~repro.errors.CampaignCancelled`.  Finished
        work is never discarded and nothing is charged a retry attempt.
        """
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()

    # -- public entry point --------------------------------------------------------

    def run(self, tasks: Iterable[object],
            commit: Callable[[object, dict], None],
            already_done: Optional[Callable[[object], bool]] = None
            ) -> SupervisedRun:
        """Execute every task not already satisfied; commit each payload.

        ``commit(task, payload)`` is called exactly once per validated
        success, as results arrive.  ``already_done(task)`` short-circuits
        tasks the cache (or a resumed journal) can already answer.  The
        constructor's ``on_failure(failure)`` hook is called as each
        *permanent* failure lands (the campaign service streams these
        into live status payloads); retryable failures are invisible to
        it.  Returns the batch outcome; permanent failures also
        accumulate on :attr:`report`.
        """
        states: Dict[str, _TaskState] = {}
        skipped = 0
        for task in tasks:
            digest = task.digest()
            if digest in states:
                continue
            if already_done is not None and already_done(task):
                skipped += 1
                continue
            states[digest] = _TaskState(task=task, digest=digest,
                                        label=task.label)
        batch = FailureReport()
        if not states:
            return SupervisedRun(executed=0, skipped=skipped, report=batch)

        executed = 0
        waiting: Dict[str, _TaskState] = dict(states)
        futures: Dict[object, _TaskState] = {}
        deadlines: Dict[object, float] = {}
        pool = self._new_pool(len(states))
        started: Dict[str, float] = {}

        def success(state: _TaskState, payload: dict) -> None:
            nonlocal executed
            commit(state.task, payload)
            executed += 1
            if self.journal is not None:
                elapsed = self._clock() - started.get(state.digest,
                                                      self._clock())
                self.journal.record_done(state.digest, state.label,
                                         attempts=state.attempt + 1,
                                         elapsed=elapsed)

        def collect(fut, state: _TaskState) -> Optional[str]:
            """Handle one finished future; returns a failure kind or None."""
            try:
                digest, payload = fut.result()
            except BrokenProcessPool:
                return "crash"
            except Exception as exc:  # the task raised in the worker
                state.last_error = f"{type(exc).__name__}: {exc}"
                return "error"
            try:
                if digest != state.digest:
                    raise ValueError(f"worker returned digest {digest[:12]} "
                                     f"for job {state.digest[:12]}")
                state.task.validate(payload)
            except Exception as exc:
                state.last_error = f"{type(exc).__name__}: {exc}"
                return "corrupt"
            success(state, payload)
            return None

        def fail(state: _TaskState, kind: str, detail: str = "") -> None:
            """Charge one attempt; requeue with backoff or fail permanently."""
            if detail:
                state.last_error = detail
            state.kinds.append(kind)
            if kind == "timeout":
                self.timeouts += 1
            elif kind == "crash":
                self.crashes += 1
            state.attempt += 1
            if state.attempt <= self.policy.retries:
                self.retried += 1
                state.ready_at = (self._clock()
                                  + self.policy.delay(state.digest,
                                                      state.attempt))
                waiting[state.digest] = state
                return
            failure = JobFailure(digest=state.digest, label=state.label,
                                 attempts=state.attempt,
                                 kinds=list(state.kinds),
                                 error=state.last_error or kind)
            batch.failures.append(failure)
            self.report.failures.append(failure)
            if self.journal is not None:
                self.journal.record_failed(state.digest, state.label,
                                           attempts=state.attempt,
                                           kind=kind,
                                           error=failure.error)
            if self.on_failure is not None:
                self.on_failure(failure)

        def over_budget() -> bool:
            return len(self.report.failures) > self.policy.max_failures

        def abort() -> None:
            """Drain in-flight work into the cache, then raise.

            Completed-but-uncollected payloads are committed before the
            failure propagates — an abort must never throw away finished
            simulations (they are exactly what a re-run would skip).
            """
            grace = self.policy.job_timeout or DEFAULT_ABORT_GRACE
            done, _not_done = wait(set(futures), timeout=grace)
            for fut in done:
                state = futures.pop(fut)
                deadlines.pop(fut, None)
                collect(fut, state)  # success commits; failures are moot now
            self._kill_pool(pool)
            report = FailureReport(failures=list(self.report.failures))
            raise ExecutionFailed(
                f"supervised execution aborted: {len(report.failures)} "
                f"permanent job failure(s) exceeded the budget of "
                f"{self.policy.max_failures} "
                f"(failed: {', '.join(report.labels())})",
                report=report)

        def drain_cancel() -> None:
            """Stop requested: commit what finished, reclaim the rest.

            The mirror image of :func:`abort`, but nothing is a failure:
            futures that completed inside the grace period are committed
            (and journaled) exactly as if the run had continued, the
            still-running remainder is reclaimed by tearing the pool
            down (the hung-worker path), and no job is charged an
            attempt — a cancelled campaign's jobs must resume cleanly
            from the cache on resubmission.
            """
            grace = self.policy.job_timeout or DEFAULT_ABORT_GRACE
            done, _not_done = wait(set(futures), timeout=grace)
            committed = 0
            for fut in done:
                state = futures.pop(fut)
                deadlines.pop(fut, None)
                if collect(fut, state) is None:
                    committed += 1
            reclaimed = len(futures)
            futures.clear()
            deadlines.clear()
            self._kill_pool(pool)
            raise CampaignCancelled(
                f"supervised execution cancelled: {committed} in-flight "
                f"job(s) committed during drain, {reclaimed} reclaimed, "
                f"{len(waiting)} never submitted",
                committed=committed, reclaimed=reclaimed)

        try:
            while waiting or futures:
                if self._stop.is_set():
                    drain_cancel()
                now = self._clock()
                # Submit every job whose backoff has elapsed.
                rebuild = False
                for digest in list(waiting):
                    state = waiting[digest]
                    if state.ready_at > now:
                        continue
                    try:
                        fut = pool.submit(_run_task, state.task,
                                          state.attempt)
                    except Exception:  # pool broke under us
                        rebuild = True
                        break
                    del waiting[digest]
                    futures[fut] = state
                    started[digest] = now
                    if self.policy.job_timeout is not None:
                        deadlines[fut] = now + self.policy.job_timeout
                if rebuild:
                    self.pool_rebuilds += 1
                    pool = self._replace_pool(pool, len(waiting) + len(futures))
                    continue
                if not futures:
                    next_ready = min(s.ready_at for s in waiting.values())
                    # Bounded naps so a stop request interrupts a backoff.
                    self._sleep(min(STOP_POLL_SECONDS,
                                    max(0.0, next_ready - self._clock())))
                    continue

                now = self._clock()
                horizons = [STOP_POLL_SECONDS]
                if deadlines:
                    horizons.append(min(deadlines.values()) - now)
                if waiting:
                    horizons.append(min(s.ready_at
                                        for s in waiting.values()) - now)
                timeout = max(0.05, min(horizons))
                done, _ = wait(set(futures), timeout=timeout,
                               return_when=FIRST_COMPLETED)

                broken = False
                for fut in done:
                    state = futures.pop(fut)
                    deadlines.pop(fut, None)
                    kind = collect(fut, state)
                    if kind == "crash":
                        broken = True
                        fail(state, "crash",
                             "worker process died (pool broken)")
                    elif kind is not None:
                        fail(state, kind)
                    if over_budget():
                        abort()

                if broken:
                    # The pool is gone; every in-flight future completes
                    # broken.  Collect stragglers (some may hold real
                    # results set just before the break), charge the lost
                    # ones one attempt each, and rebuild.
                    leftovers, _ = wait(set(futures), timeout=5.0)
                    for fut in list(futures):
                        state = futures.pop(fut)
                        deadlines.pop(fut, None)
                        kind = (collect(fut, state) if fut in leftovers
                                else "crash")
                        if kind is not None:
                            fail(state, kind,
                                 "worker process died (pool broken)"
                                 if kind == "crash" else "")
                        if over_budget():
                            abort()
                    self.pool_rebuilds += 1
                    pool = self._replace_pool(pool,
                                              len(waiting) + len(futures))
                    continue

                # Per-job wall-clock timeouts.  Only a *running* overdue
                # future is hung; one still queued behind a hog gets its
                # clock restarted (it has not had its turn yet).
                now = self._clock()
                overdue = [f for f, dl in deadlines.items() if dl <= now]
                hung = [f for f in overdue if f.running()]
                for f in overdue:
                    if not f.running() and f in deadlines:
                        deadlines[f] = now + (self.policy.job_timeout or 0.0)
                if hung:
                    for f in hung:
                        state = futures.pop(f)
                        deadlines.pop(f, None)
                        fail(state, "timeout",
                             f"exceeded job timeout of "
                             f"{self.policy.job_timeout:g}s")
                        if over_budget():
                            abort()
                    # A hung worker never yields; reclaim it by killing
                    # the pool.  Innocent in-flight jobs requeue free.
                    for f in list(futures):
                        state = futures.pop(f)
                        deadlines.pop(f, None)
                        state.ready_at = 0.0
                        waiting[state.digest] = state
                    self.pool_rebuilds += 1
                    pool = self._replace_pool(pool,
                                              len(waiting) + len(futures))
        finally:
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except Exception:
                self._kill_pool(pool)

        return SupervisedRun(executed=executed, skipped=skipped, report=batch)

    # -- pool lifecycle ------------------------------------------------------------

    def _new_pool(self, jobs: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max(1, min(self.max_workers, jobs)))

    def _replace_pool(self, pool: ProcessPoolExecutor,
                      jobs: int) -> ProcessPoolExecutor:
        self._kill_pool(pool)
        return self._new_pool(jobs)

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even if its workers are hung or dead.

        ``shutdown`` alone joins the worker processes, which never returns
        while one sleeps forever — so the processes are terminated first.
        ``_processes`` is internal API, hence the defensive ``getattr``;
        losing it on some future Python merely degrades to an abandoned
        (leaked until exit) worker, never to a wrong result.
        """
        procs = list((getattr(pool, "_processes", None) or {}).values())
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for proc in procs:
            try:
                proc.join(timeout=5.0)
            except Exception:
                pass
