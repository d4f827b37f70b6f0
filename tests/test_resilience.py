"""The resilience layer: chaos harness, journal, supervisor, degradation.

Every supervisor test injects real faults (worker death via ``os._exit``,
hangs, corrupt payloads, raised exceptions) through the ``REPRO_CHAOS``
spec and asserts the run recovers — or degrades — exactly as specified.
"""

import json
import os

import pytest

from repro.content_store import (
    atomic_write,
    canonical_json_bytes,
    sweep_tmp_orphans,
)
from repro.errors import ConfigError, ExecutionFailed, MissingResultError
from repro.experiments.parallel import (
    KNOWN_ARTEFACTS,
    SimJob,
    prewarm_artefacts,
    run_jobs,
)
from repro.experiments.reproduce import ARTEFACTS, run_all
from repro.experiments.runner import ExperimentScale, ResultCache
from repro.resilience import (
    CHAOS_ENV_VAR,
    ChaosInjectedError,
    ChaosRule,
    ChaosSpec,
    CheckpointJournal,
    FailureReport,
    RetryPolicy,
    Supervisor,
)
from repro.workload.mixes import get_mix

TINY = ExperimentScale(instructions_per_thread=200)

#: A fast retry policy for tests: real exponential shape, tiny base.
FAST = dict(backoff_base=0.01, backoff_max=0.05)


def _jobs(cache, names=("2-CPU-A", "2-MEM-A"), policy="ICOUNT"):
    return [SimJob(workload_name=n, programs=get_mix(n).programs,
                   policy=policy, config=cache.config,
                   sim=TINY.sim_config(get_mix(n).num_threads))
            for n in names]


class TestChaosSpec:
    def test_parse_full_grammar(self):
        spec = ChaosSpec.parse("crash:4-MEM-A, hang:fig5:1:30,"
                               "corrupt:*:*, raise:2-CPU-A:2")
        assert [r.mode for r in spec.rules] == ["crash", "hang",
                                                "corrupt", "raise"]
        assert spec.rules[1].seconds == 30.0
        assert spec.rules[2].attempts is None
        assert spec.rules[3].attempts == 2

    def test_defaults_first_attempt_only(self):
        rule = ChaosSpec.parse("crash:x").rules[0]
        assert rule.applies("job-x-1", attempt=0)
        assert not rule.applies("job-x-1", attempt=1)
        assert not rule.applies("unrelated", attempt=0)

    def test_star_matches_every_label_and_attempt(self):
        rule = ChaosRule(mode="raise", match="*", attempts=None)
        assert rule.applies("anything", attempt=7)

    def test_rule_for_picks_first_applicable(self):
        spec = ChaosSpec.parse("crash:a:1,raise:a:*")
        assert spec.rule_for("a", 0).mode == "crash"
        assert spec.rule_for("a", 1).mode == "raise"
        assert spec.rule_for("b", 0) is None

    @pytest.mark.parametrize("bad", [
        "explode:x", "crash", "crash::", "crash:x:0", "crash:x:y",
        "hang:x:1:fast", "hang:x:1:-1", "crash:x:1:2:3",
    ])
    def test_rejects_malformed_rules(self, bad):
        with pytest.raises(ConfigError):
            ChaosSpec.parse(bad)

    def test_from_env_empty_means_off(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        assert not ChaosSpec.from_env()
        monkeypatch.setenv(CHAOS_ENV_VAR, "   ")
        assert not ChaosSpec.from_env()


class TestCheckpointJournal:
    def test_records_then_replays(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        j = CheckpointJournal(path)
        j.record_done("d1", "job-1", attempts=1, elapsed=0.5)
        j.record_failed("d2", "job-2", attempts=3, kind="error", error="boom")

        replay = CheckpointJournal(path, resume=True)
        assert set(replay.done) == {"d1"}
        assert set(replay.failed) == {"d2"}
        assert replay.failed["d2"]["kind"] == "error"

    def test_fresh_mode_truncates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).record_done("d1", "j", 1, 0.1)
        fresh = CheckpointJournal(path, resume=False)
        assert fresh.done == {} and path.read_text() == ""

    def test_replay_tolerates_truncated_last_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        j = CheckpointJournal(path)
        j.record_done("d1", "j1", 1, 0.1)
        j.record_done("d2", "j2", 1, 0.1)
        # Simulate a crash mid-write: chop the final line in half.
        text = path.read_text()
        path.write_text(text[:len(text) - 25])

        replay = CheckpointJournal(path, resume=True)
        assert set(replay.done) == {"d1"}

    def test_done_supersedes_failed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        j = CheckpointJournal(path)
        j.record_failed("d1", "j", attempts=2, kind="crash", error="died")
        j.record_done("d1", "j", attempts=3, elapsed=0.2)
        replay = CheckpointJournal(path, resume=True)
        assert set(replay.done) == {"d1"} and replay.failed == {}


class TestRetryPolicy:
    @pytest.mark.parametrize("kwargs", [
        dict(retries=-1), dict(max_failures=-1), dict(job_timeout=0),
        dict(backoff_base=-1), dict(backoff_factor=0.5),
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_delay_deterministic_capped_and_jittered(self):
        p = RetryPolicy(backoff_base=1.0, backoff_factor=2.0,
                        backoff_max=4.0, backoff_jitter=0.1)
        assert p.delay("abc", 1) == p.delay("abc", 1)
        assert p.delay("abc", 1) != p.delay("xyz", 1)  # decorrelated jitter
        for attempt in (1, 2, 3, 10):
            assert p.delay("abc", attempt) <= 4.0 * 1.1
        assert p.delay("abc", 2) > p.delay("abc", 1) * 0.8  # roughly growing


class TestSupervisorChaos:
    """Real faults through a real process pool, on tiny simulations."""

    def _run(self, monkeypatch, chaos, names=("2-CPU-A", "2-MEM-A"),
             workers=2, **policy):
        monkeypatch.setenv(CHAOS_ENV_VAR, chaos)
        cache = ResultCache()
        sup = Supervisor(max_workers=workers,
                         policy=RetryPolicy(**{**FAST, **policy}))
        executed = run_jobs(_jobs(cache, names), cache,
                            max_workers=workers, supervisor=sup)
        return cache, sup, executed

    def test_crash_once_retries_then_succeeds(self, monkeypatch):
        cache, sup, executed = self._run(
            monkeypatch, "crash:2-CPU-A:1", retries=1)
        assert executed == 2
        assert not sup.report
        assert sup.crashes >= 1 and sup.pool_rebuilds >= 1
        for job in _jobs(cache):
            assert cache.get(job.digest()) is not None

    def test_raise_exhausted_within_budget_degrades(self, monkeypatch):
        cache, sup, executed = self._run(
            monkeypatch, "raise:2-CPU-A:*", retries=1, max_failures=1)
        assert executed == 1
        assert sup.report.labels() == ["2-CPU-A/ICOUNT/seed1"]
        failure = sup.report.failures[0]
        assert failure.attempts == 2 and set(failure.kinds) == {"error"}
        assert "ChaosInjectedError" in failure.error
        bad, good = _jobs(cache)
        assert cache.get(good.digest()) is not None
        with pytest.raises(MissingResultError) as exc:
            cache.run(bad.workload(), policy=bad.policy,
                      sim=bad.sim, config=bad.config)
        assert exc.value.label == "2-CPU-A/ICOUNT/seed1"

    def test_over_budget_abort_still_commits_finished_work(self, monkeypatch):
        """Satellite regression: an abort never discards completed results."""
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise:2-CPU-A:*")
        cache = ResultCache()
        sup = Supervisor(max_workers=2,
                         policy=RetryPolicy(retries=0, max_failures=0, **FAST))
        with pytest.raises(ExecutionFailed) as exc:
            run_jobs(_jobs(cache), cache, max_workers=2, supervisor=sup)
        assert exc.value.report.labels() == ["2-CPU-A/ICOUNT/seed1"]
        bad, good = _jobs(cache)
        # The sibling job was in flight when the budget blew: its payload
        # must have been drained into the cache before the raise.
        assert cache.get(good.digest()) is not None
        assert cache.failed == {bad.digest(): bad.label}

    def test_hang_reclaimed_by_timeout_then_succeeds(self, monkeypatch):
        cache, sup, executed = self._run(
            monkeypatch, "hang:2-CPU-A:1:60",
            retries=1, job_timeout=1.0)
        assert executed == 2
        assert not sup.report
        assert sup.timeouts >= 1 and sup.pool_rebuilds >= 1

    def test_hang_forever_fails_permanently_as_timeout(self, monkeypatch):
        cache, sup, executed = self._run(
            monkeypatch, "hang:2-CPU-A:*:60",
            names=("2-CPU-A",), workers=1,
            retries=0, job_timeout=0.8, max_failures=1)
        assert executed == 0
        assert sup.report.failures[0].kinds == ["timeout"]

    def test_corrupt_payload_never_committed_retried(self, monkeypatch):
        cache, sup, executed = self._run(
            monkeypatch, "corrupt:2-CPU-A:1", retries=1)
        assert executed == 2
        assert not sup.report
        assert sup.retried >= 1
        # The committed result parses and renders — not the garbage dict.
        job = _jobs(cache)[0]
        assert cache.get(job.digest()).summary()

    def test_supervised_results_identical_to_inline(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        inline = ResultCache()
        for job in _jobs(inline):
            inline.run(job.workload(), policy=job.policy,
                       sim=job.sim, config=job.config)
        supervised = ResultCache()
        run_jobs(_jobs(supervised), supervised, max_workers=2,
                 supervisor=Supervisor(max_workers=2))
        for job in _jobs(inline):
            a = inline.get(job.digest()).to_payload()
            b = supervised.get(job.digest()).to_payload()
            assert a == b  # exact, including float bit patterns

    def test_journal_records_and_skips_on_resume(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        path = tmp_path / "journal.jsonl"
        cache = ResultCache()
        jobs = _jobs(cache)
        sup = Supervisor(max_workers=2, policy=RetryPolicy(**FAST),
                         journal=CheckpointJournal(path))
        run_jobs(jobs, cache, max_workers=2, supervisor=sup)
        journal = CheckpointJournal(path, resume=True)
        assert set(journal.done) == {j.digest() for j in jobs}

        resumed = Supervisor(max_workers=2, journal=journal)
        outcome = resumed.run(jobs, commit=lambda t, p: None,
                              already_done=lambda t: t.digest()
                              in journal.done)
        assert outcome.executed == 0 and outcome.skipped == 2


class TestDegradedReproduce:
    def test_run_all_emits_missing_markers_and_failure_report(
            self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "200")
        monkeypatch.setenv(CHAOS_ENV_VAR, "raise:4-MEM-A:*")
        cache = ResultCache()
        sup = Supervisor(max_workers=2,
                         policy=RetryPolicy(retries=0, max_failures=3,
                                            **FAST))
        out = tmp_path / "out"
        report = run_all(out, only=["fig1_avf_profile", "resource_scaling"],
                         jobs=2, cache=cache, supervisor=sup)

        degraded = (out / "fig1_avf_profile.txt").read_text()
        assert "MISSING(4-MEM-A/ICOUNT/seed1)" in degraded
        assert "DEGRADED" in degraded
        # The artefact untouched by the failed job renders normally.
        intact = (out / "resource_scaling.txt").read_text()
        assert "MISSING" not in intact and "Resource sweep" in intact

        failures = json.loads((out / "failures.json").read_text())
        labels = [f["label"] for f in failures["failures"]]
        assert labels and all("4-MEM-A" in l for l in labels)
        assert "## Failures" in report.read_text()

    def test_failures_json_skipped_on_clean_run(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "200")
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        out = tmp_path / "out"
        run_all(out, only=["fig1_avf_profile"], cache=ResultCache(),
                supervisor=Supervisor(max_workers=2))
        assert not (out / "failures.json").exists()


class TestPlannerValidation:
    def test_prewarm_rejects_unknown_artefact(self):
        with pytest.raises(ConfigError) as exc:
            prewarm_artefacts(["fig1_avf_profile", "fig9_not_real"],
                              TINY, ResultCache())
        assert "fig9_not_real" in str(exc.value)
        assert "fig1_avf_profile" in str(exc.value)  # lists valid names

    def test_known_artefacts_match_reproduce_registry(self):
        assert KNOWN_ARTEFACTS == frozenset(ARTEFACTS)


class TestGracefulDrain:
    """:meth:`Supervisor.request_stop` — the cancellation drain.

    The contract under test: a stop request commits every in-flight job
    that finishes inside the grace window, reclaims the rest exactly
    once through the pool-teardown path, charges nobody a retry attempt,
    and raises :class:`CampaignCancelled` carrying the counts.
    """

    def _run_async(self, sup, jobs, cache):
        """Start run_jobs on ``sup`` in a thread; returns (thread, box)."""
        import threading

        box = {}

        def target():
            try:
                run_jobs(jobs, cache, max_workers=2, supervisor=sup)
            except BaseException as exc:  # noqa: BLE001 - captured for asserts
                box["exc"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        return thread, box

    def test_stop_before_run_submits_nothing(self, monkeypatch):
        from repro.errors import CampaignCancelled

        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        cache = ResultCache()
        sup = Supervisor(max_workers=2, policy=RetryPolicy(**FAST))
        sup.request_stop()
        assert sup.stop_requested
        with pytest.raises(CampaignCancelled) as exc:
            run_jobs(_jobs(cache), cache, max_workers=2, supervisor=sup)
        assert exc.value.committed == 0
        assert exc.value.reclaimed == 0
        assert "2 never submitted" in str(exc.value)
        assert not sup.report and sup.retried == 0

    def test_drain_commits_inflight_finished_work(self, monkeypatch):
        """A job that finishes inside the grace window is committed —
        cancellation never throws away completed simulations."""
        import time as _time

        from repro.errors import CampaignCancelled

        # 2-MEM-A stalls 1s on every attempt: in flight but unfinished
        # when the stop lands, finished well inside the 6s grace.
        monkeypatch.setenv(CHAOS_ENV_VAR, "hang:2-MEM-A:*:1.0")
        cache = ResultCache()
        sup = Supervisor(max_workers=2,
                         policy=RetryPolicy(job_timeout=6.0, **FAST))
        jobs = _jobs(cache)
        thread, box = self._run_async(sup, jobs, cache)
        _time.sleep(0.5)
        sup.request_stop()
        thread.join(20)
        assert not thread.is_alive()
        exc = box["exc"]
        assert isinstance(exc, CampaignCancelled)
        assert exc.committed >= 1      # the drained hang-then-finish job
        assert exc.reclaimed == 0
        # Everything that completed is in the cache; nobody was charged.
        for job in jobs:
            assert cache.get(job.digest()) is not None
        assert not sup.report
        assert sup.retried == 0 and sup.timeouts == 0

    def test_drain_reclaims_hung_job_without_charging_it(self, monkeypatch):
        """A job still hung at the end of the grace window is reclaimed
        (pool teardown, the hung-worker path) exactly once, with no
        attempt charged — a resubmission must resume it cleanly."""
        import time as _time

        from repro.errors import CampaignCancelled

        monkeypatch.setenv(CHAOS_ENV_VAR, "hang:2-MEM-A:*:60")
        cache = ResultCache()
        # job_timeout doubles as the drain grace; stop lands long before
        # the 3s in-run deadline could charge the hang a timeout.
        sup = Supervisor(max_workers=2,
                         policy=RetryPolicy(job_timeout=3.0, **FAST))
        jobs = _jobs(cache)
        thread, box = self._run_async(sup, jobs, cache)
        _time.sleep(0.7)
        sup.request_stop()
        thread.join(20)
        assert not thread.is_alive()
        exc = box["exc"]
        assert isinstance(exc, CampaignCancelled)
        assert exc.reclaimed == 1
        clean, hung = jobs
        assert cache.get(hung.digest()) is None     # reclaimed, not faked
        assert cache.get(clean.digest()) is not None
        assert not sup.report                        # no permanent failure
        assert sup.retried == 0 and sup.timeouts == 0

    def test_drain_after_pool_rebuild(self, monkeypatch):
        """A stop request still drains cleanly on a pool that has already
        been torn down and rebuilt by a worker crash."""
        import time as _time

        from repro.errors import CampaignCancelled

        monkeypatch.setenv(CHAOS_ENV_VAR,
                           "crash:2-CPU-A:1,hang:2-MEM-A:*:60")
        cache = ResultCache()
        sup = Supervisor(max_workers=2,
                         policy=RetryPolicy(retries=2, job_timeout=3.0,
                                            **FAST))
        jobs = _jobs(cache)
        thread, box = self._run_async(sup, jobs, cache)
        crashed, _hung = jobs
        deadline = _time.monotonic() + 15
        # Wait for the crash to have forced a rebuild and the retried
        # job to have landed, so the drain runs on the rebuilt pool.
        while _time.monotonic() < deadline:
            if sup.pool_rebuilds >= 1 and cache.get(crashed.digest()):
                break
            _time.sleep(0.05)
        sup.request_stop()
        thread.join(20)
        assert not thread.is_alive()
        assert isinstance(box["exc"], CampaignCancelled)
        assert sup.pool_rebuilds >= 1
        assert cache.get(crashed.digest()) is not None
        assert not sup.report


class TestTmpFileHygiene:
    def test_cache_open_sweeps_orphans(self, tmp_path):
        orphan = tmp_path / "deadbeef.json.tmp12345"
        orphan.write_text("{}")
        keeper = tmp_path / "entry.json"
        keeper.write_text("{}")
        ResultCache(cache_dir=tmp_path)
        assert not orphan.exists() and keeper.exists()

    def test_sweep_returns_count(self, tmp_path):
        for i in range(3):
            (tmp_path / f"x{i}.json.tmp{i}").write_text("")
        assert sweep_tmp_orphans(tmp_path) == 3
        assert sweep_tmp_orphans(tmp_path) == 0

    def test_atomic_write_cleans_up_after_failure(self, tmp_path,
                                                  monkeypatch):
        target = tmp_path / "entry.json"

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            atomic_write(target, canonical_json_bytes({"k": 1}))
        assert not target.exists()
        assert list(tmp_path.glob("*.tmp*")) == []  # no leaked temp file

    def test_atomic_write_round_trips(self, tmp_path):
        target = tmp_path / "entry.json"
        atomic_write(target, canonical_json_bytes({"b": 2, "a": 1}))
        assert json.loads(target.read_text()) == {"a": 1, "b": 2}
        assert list(tmp_path.glob("*.tmp*")) == []
