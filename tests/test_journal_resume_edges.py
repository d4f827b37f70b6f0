"""Journal-resume edge cases (PR-7 satellite).

A resumed campaign must either resume *cleanly* (skipping exactly the
work the journal-plus-cache can still answer) or *refuse* with a
diagnostic — never silently mix stale completions with freshly computed
results.  Three edges are pinned end to end:

* a journal whose final line was truncated by a crash mid-write resumes
  cleanly, losing at most that one event;
* a journal carrying entries from a newer schema version refuses to
  resume, and the diagnostic says what to do about it;
* cache entries whose schema no longer matches are invalidated as a
  unit — the campaign recomputes them from scratch and the final result
  is byte-identical to a fresh run, proving no stale/fresh mixing.
"""

import json

import pytest

from repro.config import SimConfig
from repro.content_store import STORE_SCHEMA_VERSION
from repro.errors import ReproError
from repro.faultinject import run_live_campaign
from repro.resilience import RetryPolicy, Supervisor
from repro.resilience.journal import JOURNAL_SCHEMA_VERSION, CheckpointJournal

SIM = SimConfig(max_instructions=80, seed=3)


def _campaign(tmp_path, journal=None):
    supervisor = Supervisor(max_workers=1,
                            policy=RetryPolicy(retries=0, max_failures=0),
                            journal=journal)
    result = run_live_campaign(["gcc"], injections=4, sim=SIM, seed=9,
                               supervisor=supervisor,
                               cache_dir=tmp_path / "cache")
    payload = json.dumps([r.to_payload() for r in result.records],
                         sort_keys=True)
    return supervisor, payload


class TestTruncatedFinalLine:
    def test_resume_is_clean_and_loses_at_most_one_event(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        _, fresh_payload = _campaign(tmp_path, journal=journal)
        lines = path.read_text().splitlines()
        assert lines, "campaign must journal its completions"

        # Crash mid-write: the last line is half a JSON object.
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:10])
        resumed = CheckpointJournal(path, resume=True)
        assert set(resumed.done) == {
            json.loads(line)["digest"] for line in lines[:-1]
            if json.loads(line)["event"] == "done"}

        # The campaign itself resumes cleanly: the cache still answers
        # every batch (including the one with the lost journal line), so
        # the rerun executes nothing and reproduces the result exactly.
        supervisor, resumed_payload = _campaign(tmp_path, journal=resumed)
        assert resumed_payload == fresh_payload
        assert not supervisor.report

    def test_truncated_line_never_invents_a_completion(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record_done("d1", "job-1", attempts=1, elapsed=0.1)
        text = path.read_text()
        path.write_text(text + json.dumps(
            {"schema": JOURNAL_SCHEMA_VERSION, "event": "done",
             "digest": "d2"})[:20])
        resumed = CheckpointJournal(path, resume=True)
        assert set(resumed.done) == {"d1"}


class TestFutureSchemaRefusal:
    def test_newer_schema_entries_refuse_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        CheckpointJournal(path).record_done("d1", "job-1", 1, 0.1)
        with path.open("a") as fh:
            fh.write(json.dumps({"schema": JOURNAL_SCHEMA_VERSION + 1,
                                 "event": "done", "digest": "d2",
                                 "label": "job-2"}) + "\n")
        with pytest.raises(ReproError) as excinfo:
            CheckpointJournal(path, resume=True)
        message = str(excinfo.value)
        assert str(path) in message
        assert f"schema {JOURNAL_SCHEMA_VERSION + 1}" in message
        assert "--resume" in message  # tells the user the way out

    def test_fresh_mode_ignores_future_schema(self, tmp_path):
        # Without --resume the old journal is truncated, not parsed:
        # a fresh campaign must never be blocked by a stale file.
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"schema": JOURNAL_SCHEMA_VERSION + 1,
                                    "event": "done", "digest": "d2"}) + "\n")
        journal = CheckpointJournal(path, resume=False)
        assert journal.done == {} and path.read_text() == ""

    def test_older_or_missing_schema_still_replays(self, tmp_path):
        # Backwards tolerance: schema-less v0 lines (and any lower
        # version) replay as today's semantics — only *newer* refuses.
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"event": "done", "digest": "d0", "label": "j"})
            + "\n")
        journal = CheckpointJournal(path, resume=True)
        assert set(journal.done) == {"d0"}


class TestCacheSchemaMismatch:
    def test_stale_cache_entries_recompute_cleanly(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        _, fresh_payload = _campaign(
            tmp_path, journal=CheckpointJournal(journal_path))

        # Rewrite every cached batch under a bogus schema version: the
        # journal says "done", but the results are no longer readable.
        cache_root = tmp_path / "cache"
        stale = list(cache_root.rglob("live-*.json"))
        assert stale, "campaign must have cached its batches"
        for entry_path in stale:
            entry = json.loads(entry_path.read_text())
            entry["schema"] = STORE_SCHEMA_VERSION + 1
            entry_path.write_text(json.dumps(entry))

        # Resume: the loader invalidates each stale entry as a unit and
        # the supervisor re-executes those batches.  Determinism (seeded
        # substreams) makes the recomputed campaign byte-identical to
        # the fresh one — nothing stale leaked in, nothing fresh mixed
        # with a half-read entry.
        resumed = CheckpointJournal(journal_path, resume=True)
        supervisor, resumed_payload = _campaign(tmp_path, journal=resumed)
        assert resumed_payload == fresh_payload
        assert not supervisor.report
        for entry_path in stale:
            entry = json.loads(entry_path.read_text())
            assert entry["schema"] == STORE_SCHEMA_VERSION

    def test_corrupt_cache_entry_recomputes_not_mixes(self, tmp_path):
        _, fresh_payload = _campaign(tmp_path)
        cache_root = tmp_path / "cache"
        victim = sorted(cache_root.rglob("live-*.json"))[0]
        victim.write_text("{definitely not json")

        _, resumed_payload = _campaign(tmp_path)
        assert resumed_payload == fresh_payload
        # The corrupt entry was replaced by the recomputed batch.
        assert json.loads(victim.read_text())["schema"] == \
            STORE_SCHEMA_VERSION
