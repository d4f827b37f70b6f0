"""Supervised worker pool: task groups, streamed results, retries, timeouts.

The :class:`Supervisor` runs *tasks*: picklable objects exposing
``label``, ``digest()``, ``validate(payload)``, ``group_key()`` and a
static ``run_group(tasks) -> (order, results)``.  Tasks with equal group
keys can share work (a strike driver, a trace set), so they run as one
*group*: ``run_group`` returns ``order``, the tasks in the order their
payloads will come, and ``results``, an iterator yielding ``(task,
payload)`` as each task finishes.

Groups.  Tasks are grouped by key in plan order.  With fewer keys than
workers, each key's tasks are split into up to ``max_workers`` groups of
consecutive tasks (a single live campaign spreads over the whole pool);
otherwise a key is one group.  The pool has ``min(max_workers, groups)``
worker processes, each on a pipe of its own.  An idle worker takes the
next ready group, reports its ``order``, and streams each task's payload
the moment the task yields.  The parent validates and commits each one
as it arrives, so ``commit``, ``already_done``, the journal, retries,
the failure budget, ``on_failure`` and ``MISSING`` markers all stay per
task.  So does chaos (:mod:`repro.resilience.chaos`): a worker-mode rule
for a task acts at that task's yield.

Four failure classes are survived, each charged to single tasks:

``error``
    The task raised: a rule raised at its yield (the group goes on), or
    the group runner itself raised, which ends the group and charges the
    task next due to yield.  Retried under exponential backoff with
    deterministic (seeded) jitter, up to ``retries`` extra attempts.
``corrupt``
    The worker sent a payload ``validate`` rejects (or one whose digest
    does not match the task): that task alone takes the same retry path,
    and the group goes on.  A payload is never committed unvalidated.
``crash``
    A worker process died.  The tasks it already streamed stay
    committed.  The culprit cannot be told apart from the rest of its
    group, so each uncommitted task of the group is charged one attempt:
    an innocent's extra attempt costs one retry, while a deterministic
    crasher still exhausts its budget.
``timeout``
    Until its first yield, a group's deadline is ``job_timeout`` times
    its task count after its start: a group strikes its tasks together,
    so its first task lands only after most of the group's work.  After
    each yield the deadline is ``job_timeout`` from that yield.  Past it
    the worker is killed (a hung worker never yields otherwise), the
    task next due to yield (the first uncommitted one in ``order``) is
    charged an attempt, and the other uncommitted tasks requeue free.

After a crash, a timeout or a runner error, the group's uncommitted
tasks rerun as one-task groups, so every later attempt has exactly the
semantics of a task run alone.  Only the failed worker is replaced
(:attr:`Supervisor.pool_rebuilds` counts replacements); the others keep
running their groups.

A task that exhausts its attempts becomes a permanent failure.  Permanent
failures beyond the ``max_failures`` budget abort the whole run with
:class:`~repro.errors.ExecutionFailed`, but only after every in-flight
group has been given a grace period to stream and commit, so an abort
never discards completed work.  Within budget, the run completes degraded
and the caller receives a structured :class:`FailureReport`.

Determinism: payloads cross process boundaries as exact pickled dicts, a
group's payloads are byte-equal to its tasks run alone, and commit order
never influences results keyed by digest, so supervised execution is
byte-identical to inline execution when no faults fire.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.errors import CampaignCancelled, ConfigError, ExecutionFailed
from repro.resilience.chaos import CORRUPT_PAYLOAD, ChaosSpec, misbehave

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


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _ready_at(group: List[_TaskState]) -> float:
    return max(state.ready_at for state in group)


def _serve(conn, parent_end) -> None:
    """Worker process: run each ``(tasks, attempts)`` group sent down
    ``conn`` until ``None`` or the parent's end closes."""
    parent_end.close()  # inherited; held open, the parent's death shows no EOF
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            _run_group(conn, *message)
    except (EOFError, OSError):
        return  # the parent is gone


def _run_group(conn, tasks: list, attempts: List[int]) -> None:
    """Run one group, sending ``("order", positions)``, then one
    ``("done", i, digest, payload)`` or ``("error", i, text)`` per task as
    it yields, then ``("end",)`` — or ``("fail", text)`` if the group
    runner raises.  ``i`` is the task's position in ``tasks``."""
    chaos = ChaosSpec.from_env()
    position = {id(task): i for i, task in enumerate(tasks)}
    try:
        order, results = type(tasks[0]).run_group(tasks)
        conn.send(("order", [position[id(task)] for task in order]))
        for task, payload in results:
            i = position[id(task)]
            rule = chaos.rule_for(task.label, attempts[i])
            if rule is not None and rule.mode == "corrupt":
                payload = dict(CORRUPT_PAYLOAD)
            elif rule is not None:
                try:
                    misbehave(rule, task.label)  # may crash, stall, or raise
                except Exception as exc:
                    conn.send(("error", i, _describe(exc)))
                    continue
            conn.send(("done", i, task.digest(), payload))
    except Exception as exc:
        conn.send(("fail", _describe(exc)))
    else:
        conn.send(("end",))


class _Worker:
    """One worker process, the parent's end of its pipe, and its group."""

    def __init__(self, context) -> None:
        self.conn, child = context.Pipe()
        self.process = context.Process(target=_serve,
                                       args=(child, self.conn))
        self.process.start()
        child.close()
        #: The tasks of the group it runs, in plan order.
        self.group: Optional[List[_TaskState]] = None
        #: The group's uncommitted tasks, in yield order once reported.
        self.pending: List[_TaskState] = []
        self.started = 0.0
        self.deadline = math.inf

    def close(self, kill: bool) -> None:
        """End the process: ask it to stop, or kill it (hung or busy)."""
        if kill:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        self.conn.close()


class Supervisor:
    """Runs task batches with supervision; accumulates a campaign report.

    One Supervisor serves a whole campaign (several :meth:`run` batches —
    e.g. the reproduce driver's two planning stages): the failure budget
    and :attr:`report` span all of them.  Counters (:attr:`pool_rebuilds`,
    the workers replaced after a crash or a timeout; :attr:`timeouts`,
    :attr:`crashes`, :attr:`retried`) are cumulative and exist for
    observability and tests.
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
        self._now = False
        self._clock = time.monotonic
        self._sleep = time.sleep

    # -- cancellation ----------------------------------------------------------------

    def request_stop(self, now: bool = False) -> None:
        """Ask a running batch to drain and stop (thread-safe, idempotent).

        The run loop notices within :data:`STOP_POLL_SECONDS`, stops
        submitting queued work, grants in-flight groups a grace period
        (``job_timeout`` when set, else :data:`DEFAULT_ABORT_GRACE`) to
        stream and commit, reclaims whatever is still running by killing
        its workers — the same reclamation path a hung worker takes — and
        raises :class:`~repro.errors.CampaignCancelled`.  Finished work is
        never discarded and nothing is charged a retry attempt.  With
        ``now`` there is no grace: the caller has no use for the results.
        """
        self._now = now
        self._stop.set()

    @property
    def stop_requested(self) -> bool:
        return self._stop.is_set()

    # -- public entry point --------------------------------------------------------

    def run(self, tasks: Iterable[object],
            commit: Callable[[object, dict], None],
            already_done: Optional[Callable[[object], bool]] = None,
            attempts: Optional[Mapping[str, int]] = None
            ) -> SupervisedRun:
        """Execute every task not already satisfied; commit each payload.

        ``commit(task, payload)`` is called exactly once per validated
        success, as results arrive.  ``already_done(task)`` short-circuits
        tasks the cache (or a resumed journal) can already answer.
        ``attempts`` maps a task digest to the attempts it was already
        charged elsewhere (a fleet shard runs a leased batch's next
        attempt), so chaos rules and the journal count on from there.  The
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
            states[digest] = _TaskState(
                task=task, digest=digest, label=task.label,
                attempt=attempts.get(digest, 0) if attempts else 0)
        batch = FailureReport()
        if not states:
            return SupervisedRun(executed=0, skipped=skipped, report=batch)
        executed = _Batch(self, self._groups(list(states.values())),
                          commit, batch).execute()
        return SupervisedRun(executed=executed, skipped=skipped, report=batch)

    def _groups(self, states: List[_TaskState]) -> List[List[_TaskState]]:
        """Group tasks by key in plan order; split keys over the pool
        when there are fewer keys than workers."""
        by_key: Dict[object, List[_TaskState]] = {}
        for state in states:
            by_key.setdefault(state.task.group_key(), []).append(state)
        split = len(by_key) < self.max_workers
        groups = []
        for members in by_key.values():
            n = len(members)
            parts = min(self.max_workers, n) if split else 1
            groups += [members[i * n // parts:(i + 1) * n // parts]
                       for i in range(parts)]
        return groups


class _Batch:
    """One :meth:`Supervisor.run` call: its queue, workers and commits."""

    def __init__(self, supervisor: Supervisor,
                 groups: List[List[_TaskState]],
                 commit: Callable[[object, dict], None],
                 report: FailureReport) -> None:
        self.sup = supervisor
        self.policy = supervisor.policy
        self.clock = supervisor._clock
        self.commit = commit
        self.report = report
        self.waiting = groups
        self.size = min(supervisor.max_workers, len(groups))
        self.workers: List[_Worker] = []
        # The platform's default start method (fork on Linux), as the
        # process pool before: a worker inherits the parent's imports and
        # golden-run memo instead of paying for them once per campaign.
        self.context = multiprocessing.get_context()
        self.executed = 0

    def busy(self) -> List[_Worker]:
        return [w for w in self.workers if w.group is not None]

    # -- the run loop ----------------------------------------------------------------

    def execute(self) -> int:
        try:
            while self.waiting or self.busy():
                if self.sup._stop.is_set():
                    self.cancel()
                self.assign()
                busy = self.busy()
                now = self.clock()
                horizons = [STOP_POLL_SECONDS]
                if self.waiting and len(busy) < self.size:
                    horizons.append(min(map(_ready_at, self.waiting)) - now)
                if not busy:
                    # Bounded naps so a stop request interrupts a backoff.
                    self.sup._sleep(max(0.0, min(horizons)))
                    continue
                horizons += [w.deadline - now for w in busy]
                self.pump(busy, max(0.05, min(horizons)), charge=True)
                self.reap_overdue()
        finally:
            for worker in self.workers:
                worker.close(kill=worker.group is not None)
            self.workers.clear()
        return self.executed

    def assign(self) -> None:
        """Hand every ready group to an idle (or a new) worker."""
        now = self.clock()
        for group in list(self.waiting):
            if _ready_at(group) > now:
                continue
            worker = next((w for w in self.workers if w.group is None), None)
            if worker is None:
                if len(self.workers) >= self.size:
                    return
                worker = _Worker(self.context)
                self.workers.append(worker)
            try:
                worker.conn.send(([s.task for s in group],
                                  [s.attempt for s in group]))
            except OSError:  # the idle worker died; try a fresh one
                self.retire(worker, kill=True)
                continue
            self.waiting.remove(group)
            worker.group = group
            worker.pending = list(group)
            worker.started = now
            self.touch(worker, len(group))

    def touch(self, worker: _Worker, tasks: int = 1) -> None:
        """Set the deadline ``tasks`` job timeouts from now."""
        timeout = self.policy.job_timeout
        worker.deadline = (self.clock() + timeout * tasks
                           if timeout is not None else math.inf)

    def retire(self, worker: _Worker, kill: bool) -> None:
        self.workers.remove(worker)
        worker.close(kill=kill)

    def pump(self, busy: List[_Worker], timeout: float, charge: bool) -> None:
        """Wait up to ``timeout`` for messages; handle every one that came.

        ``charge=False`` (drain) commits successes but charges nobody."""
        ready = wait([w.conn for w in busy], timeout)
        for worker in busy:
            if worker.conn not in ready:
                continue
            while worker.group is not None:
                try:
                    message = worker.conn.recv()
                except Exception:  # EOF, or a message cut short by death
                    self.lost(worker, charge)
                    break
                self.receive(worker, message, charge)
                if worker.group is None or not worker.conn.poll():
                    break

    def receive(self, worker: _Worker, message: tuple, charge: bool) -> None:
        kind = message[0]
        if kind in ("done", "error"):
            self.touch(worker)
        if kind == "order":
            worker.pending = [worker.group[i] for i in message[1]]
        elif kind == "done":
            _, i, digest, payload = message
            state = worker.group[i]
            worker.pending.remove(state)
            try:
                if digest != state.digest:
                    raise ValueError(f"worker returned digest {digest[:12]} "
                                     f"for job {state.digest[:12]}")
                state.task.validate(payload)
            except Exception as exc:
                if charge:
                    self.fail(state, "corrupt", _describe(exc))
                return
            self.success(worker, state, payload)
        elif kind == "error":
            state = worker.group[message[1]]
            worker.pending.remove(state)
            if charge:
                self.fail(state, "error", message[2])
        else:  # "end", or "fail": the runner raised
            pending = self.release(worker)
            if kind == "fail":
                self.requeue(pending, charge, "error", message[1])
            elif charge:  # a runner that skipped tasks; never expected
                for state in pending:
                    self.fail(state, "error", "not yielded by its group")

    def release(self, worker: _Worker) -> List[_TaskState]:
        """End the worker's group; returns its uncommitted tasks."""
        pending = worker.pending
        worker.group = None
        worker.pending = []
        worker.deadline = math.inf
        return pending

    def replace(self, worker: _Worker) -> List[_TaskState]:
        """Kill a dead or hung worker (a new one starts when a group needs
        it); returns its group's uncommitted tasks."""
        pending = self.release(worker)
        self.retire(worker, kill=True)
        self.sup.pool_rebuilds += 1
        return pending

    def lost(self, worker: _Worker, charge: bool) -> None:
        """The worker died: charge each uncommitted task of its group."""
        for state in self.replace(worker):
            if charge:
                self.fail(state, "crash", "worker process died")

    def reap_overdue(self) -> None:
        now = self.clock()
        for worker in self.busy():
            if worker.deadline <= now:
                self.requeue(self.replace(worker), True, "timeout",
                             f"exceeded job timeout of "
                             f"{self.policy.job_timeout:g}s")

    def requeue(self, pending: List[_TaskState], charge: bool, kind: str,
                detail: str) -> None:
        """A group ended early: charge the task next due to yield, and
        requeue the others free, each as a group of its own."""
        for state in pending[1:]:
            state.ready_at = 0.0
            self.waiting.append([state])
        if pending and charge:
            self.fail(pending[0], kind, detail)

    # -- per-task outcomes ---------------------------------------------------------

    def success(self, worker: _Worker, state: _TaskState,
                payload: dict) -> None:
        self.commit(state.task, payload)
        self.executed += 1
        journal = self.sup.journal
        if journal is not None:
            journal.record_done(state.digest, state.label,
                                attempts=state.attempt + 1,
                                elapsed=self.clock() - worker.started)

    def fail(self, state: _TaskState, kind: str, detail: str) -> None:
        """Charge one attempt; requeue with backoff or fail permanently."""
        sup = self.sup
        state.last_error = detail
        state.kinds.append(kind)
        if kind == "timeout":
            sup.timeouts += 1
        elif kind == "crash":
            sup.crashes += 1
        state.attempt += 1
        if state.attempt <= self.policy.retries:
            sup.retried += 1
            state.ready_at = (self.clock()
                              + self.policy.delay(state.digest, state.attempt))
            self.waiting.append([state])
            return
        failure = JobFailure(digest=state.digest, label=state.label,
                             attempts=state.attempt, kinds=list(state.kinds),
                             error=state.last_error or kind)
        self.report.failures.append(failure)
        sup.report.failures.append(failure)
        if sup.journal is not None:
            sup.journal.record_failed(state.digest, state.label,
                                      attempts=state.attempt, kind=kind,
                                      error=failure.error)
        if sup.on_failure is not None:
            sup.on_failure(failure)
        if len(sup.report.failures) > self.policy.max_failures:
            self.abort()

    # -- endings -------------------------------------------------------------------

    def drain(self) -> int:
        """Commit what in-flight groups stream within the grace period
        (``job_timeout``, else :data:`DEFAULT_ABORT_GRACE`; none after
        ``request_stop(now=True)``), charging nobody; returns the number
        committed."""
        grace = 0.0 if self.sup._now else (self.policy.job_timeout
                                           or DEFAULT_ABORT_GRACE)
        before = self.executed
        end = self.clock() + grace
        while True:
            busy = self.busy()
            left = end - self.clock()
            if not busy or left <= 0:
                return self.executed - before
            self.pump(busy, min(left, STOP_POLL_SECONDS), charge=False)

    def abort(self) -> None:
        """Over budget: drain in-flight work into the cache, then raise.

        Completed-but-uncollected payloads are committed before the
        failure propagates — an abort must never throw away finished
        simulations (they are exactly what a re-run would skip).
        """
        self.drain()
        report = FailureReport(failures=list(self.sup.report.failures))
        raise ExecutionFailed(
            f"supervised execution aborted: {len(report.failures)} "
            f"permanent job failure(s) exceeded the budget of "
            f"{self.policy.max_failures} "
            f"(failed: {', '.join(report.labels())})",
            report=report)

    def cancel(self) -> None:
        """Stop requested: commit what streams in the grace period,
        reclaim the rest.

        The mirror image of :meth:`abort`, but nothing is a failure:
        payloads that arrive inside the grace period are committed (and
        journaled) exactly as if the run had continued, the still-running
        remainder is reclaimed by killing its workers (the hung-worker
        path), and no task is charged an attempt — a cancelled campaign's
        tasks must resume cleanly from the cache on resubmission.
        """
        committed = self.drain()
        reclaimed = sum(len(w.pending) for w in self.busy())
        unsubmitted = sum(map(len, self.waiting))
        raise CampaignCancelled(
            f"supervised execution cancelled: {committed} in-flight "
            f"job(s) committed during drain, {reclaimed} reclaimed, "
            f"{unsubmitted} never submitted",
            committed=committed, reclaimed=reclaimed)
