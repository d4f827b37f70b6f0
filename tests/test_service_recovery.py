"""Crash-safe recovery suite for the campaign service (ISSUE-8 tentpole).

Three layers, innermost out:

* **journal unit tests** — :class:`~repro.service.journal.ServiceJournal`
  honours the shared JSONL discipline: durable appends, replay that
  folds a lifecycle into one record, tolerance of a truncated final
  line, refusal of newer-schema entries, and an atomic compaction that
  preserves the folded state;
* **in-process recovery** — a scheduler pointed at a journal written by
  a "dead" predecessor re-admits the interrupted campaign through the
  ordinary submission path, resumes it through the per-batch cache, and
  produces an artifact byte-identical to an uninterrupted run's;
* **kill-and-restart differential** — the real ``repro-sim serve``
  process is SIGKILLed mid-campaign and restarted on the same state
  dir; the resumed campaign reports its recovered batches as cached and
  the final artifact matches an uninterrupted baseline byte for byte.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.resilience.chaos import CHAOS_ENV_VAR
from repro.service.journal import (
    SERVICE_JOURNAL_NAME,
    SERVICE_JOURNAL_VERSION,
    ServiceJournal,
)
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ArtifactStore

SRC = Path(__file__).resolve().parent.parent / "src"

#: Small enough to finish in seconds, deterministic by construction.
TINY_LIVE = {"kind": "live", "workload": ["gcc"], "strikes": 4,
             "instructions": 80, "structures": ["iq"]}


# -- journal unit tests ------------------------------------------------------------


class TestServiceJournal:
    def test_record_replay_roundtrip(self, tmp_path):
        journal = ServiceJournal(tmp_path / SERVICE_JOURNAL_NAME)
        journal.record("abc", "submitted", request=TINY_LIVE, priority=2)
        journal.record("abc", "admitted")
        journal.record("abc", "running")
        journal.record("abc", "done")

        records = journal.replay()
        assert list(records) == ["abc"]
        record = records["abc"]
        assert record.state == "done"
        assert record.request == TINY_LIVE
        assert record.priority == 2
        assert record.seq == 1
        assert record.submissions == 1
        assert record.events == ["submitted", "admitted", "running", "done"]
        assert not record.interrupted

    def test_interrupted_filters_terminal_states(self, tmp_path):
        journal = ServiceJournal(tmp_path / SERVICE_JOURNAL_NAME)
        journal.record("done-1", "submitted", request=TINY_LIVE)
        journal.record("done-1", "done")
        journal.record("mid-flight", "submitted", request=TINY_LIVE)
        journal.record("mid-flight", "running")
        journal.record("cancelled-1", "submitted", request=TINY_LIVE)
        journal.record("cancelled-1", "cancelled")

        assert list(journal.interrupted()) == ["mid-flight"]

    def test_truncated_final_line_loses_at_most_one_event(self, tmp_path):
        path = tmp_path / SERVICE_JOURNAL_NAME
        journal = ServiceJournal(path)
        journal.record("abc", "submitted", request=TINY_LIVE)
        journal.record("abc", "running")
        # A crash mid-write leaves a partial line with no newline.
        with path.open("a") as fh:
            fh.write('{"schema": 1, "event": "done", "id": "ab')

        records = journal.replay()
        assert records["abc"].state == "running"
        assert records["abc"].interrupted

    def test_newer_schema_refuses_replay_with_remedy(self, tmp_path):
        path = tmp_path / SERVICE_JOURNAL_NAME
        journal = ServiceJournal(path)
        journal.record("abc", "submitted", request=TINY_LIVE)
        entry = {"schema": SERVICE_JOURNAL_VERSION + 1,
                 "event": "done", "id": "abc"}
        with path.open("a") as fh:
            fh.write(json.dumps(entry) + "\n")

        with pytest.raises(ReproError) as excinfo:
            journal.replay()
        message = str(excinfo.value)
        assert "service journal" in message
        assert SERVICE_JOURNAL_NAME in message

    def test_resubmission_reuses_id_and_counts_submissions(self, tmp_path):
        journal = ServiceJournal(tmp_path / SERVICE_JOURNAL_NAME)
        journal.record("abc", "submitted", request=TINY_LIVE)
        journal.record("abc", "failed")
        journal.record("abc", "submitted", request=TINY_LIVE, priority=1)
        journal.record("abc", "running")

        record = journal.replay()["abc"]
        assert record.submissions == 2
        assert record.priority == 1
        assert record.seq == 2
        assert record.interrupted

    def test_compact_folds_to_one_line_per_campaign(self, tmp_path):
        path = tmp_path / SERVICE_JOURNAL_NAME
        journal = ServiceJournal(path)
        for cid in ("aaa", "bbb", "ccc"):
            journal.record(cid, "submitted", request=TINY_LIVE)
            journal.record(cid, "admitted")
            journal.record(cid, "running")
        journal.record("aaa", "done")
        before = journal.replay()

        journal.compact()
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        after = ServiceJournal(path).replay()
        assert {cid: (r.state, r.request, r.seq)
                for cid, r in after.items()} == \
               {cid: (r.state, r.request, r.seq)
                for cid, r in before.items()}
        # Sequence numbering continues past the compacted entries, so a
        # post-compaction submission never collides with a recovered one.
        fresh = ServiceJournal(path)
        fresh.replay()
        fresh.record("ddd", "submitted", request=TINY_LIVE)
        assert fresh.replay()["ddd"].seq == 4

    def test_compaction_racing_live_writers_drops_no_record(self, tmp_path):
        """PR-10 satellite: compaction vs. concurrent lease renewals.

        Fleet shards journal lease grant/renew traffic from transport
        threads while the scheduler journals campaign lifecycles and a
        startup (or periodic) compaction rewrites the file.  The journal
        lock must make each append land strictly before or strictly
        after the compacted file — a ``submitted``/``admitted`` record
        written during the rewrite window can never vanish.
        """
        path = tmp_path / SERVICE_JOURNAL_NAME
        journal = ServiceJournal(path)
        stop = threading.Event()
        written = []
        errors = []

        def submitter(prefix):
            try:
                n = 0
                while not stop.is_set():
                    cid = f"{prefix}-{n:04d}"
                    journal.record(cid, "submitted", request=TINY_LIVE)
                    journal.record(cid, "admitted")
                    written.append(cid)
                    n += 1
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def renewer():
            try:
                n = 0
                while not stop.is_set():
                    journal.record(f"fleet:{n % 7:016d}", "lease_renewed",
                                   extra={"token": n, "shard": "shard-a"})
                    n += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = ([threading.Thread(target=submitter, args=(prefix,))
                    for prefix in ("aa", "bb")]
                   + [threading.Thread(target=renewer)])
        for thread in threads:
            thread.start()
        compactions = 0
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                journal.compact()
                compactions += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
        assert not errors
        assert compactions >= 3 and len(written) >= 10

        records = ServiceJournal(path).replay()
        for cid in written:
            assert cid in records, f"compaction dropped {cid}"
            assert records[cid].state in ("submitted", "admitted")
        # Lease records compact away wholesale and the survivors replay
        # as observability only — never as a recovery obligation.
        assert not any(cid.startswith("fleet:") and record.interrupted
                       for cid, record in records.items())


# -- in-process scheduler recovery -------------------------------------------------


def _dead_process_journal(root, campaign_id, spec):
    """Write the journal a service killed mid-campaign leaves behind."""
    journal = ServiceJournal(Path(root) / SERVICE_JOURNAL_NAME)
    journal.record(campaign_id, "submitted", request=spec)
    journal.record(campaign_id, "admitted")
    journal.record(campaign_id, "running")
    return journal


class TestSchedulerRecovery:
    def test_recover_resumes_byte_identical_through_batch_cache(
            self, tmp_path):
        # Uninterrupted baseline: same spec, its own store.
        baseline_store = ArtifactStore(tmp_path / "baseline")
        baseline = CampaignScheduler(baseline_store, workers=2)
        status, _ = baseline.submit(TINY_LIVE)
        cid = status["id"]
        assert baseline.wait(cid, timeout=120)["state"] == "done"
        baseline_bytes = baseline.result_bytes(cid)

        # The recovering store inherits the baseline's batch cache —
        # exactly the state a killed service leaves behind once its
        # batches committed.
        root = tmp_path / "recovered"
        store = ArtifactStore(root)
        shutil.copytree(baseline_store.cache_dir, store.cache_dir,
                        dirs_exist_ok=True)
        journal = _dead_process_journal(root, cid, TINY_LIVE)

        scheduler = CampaignScheduler(store, workers=2, journal=journal)
        assert scheduler.recover() == 1
        assert scheduler.stats()["recovered"] == 1
        final = scheduler.wait(cid, timeout=120)
        assert final["state"] == "done"
        # Every batch came from the cache: recovery recomputes nothing.
        assert final["batches"]["cached"] == final["batches"]["total"] > 0
        assert scheduler.result_bytes(cid) == baseline_bytes

        # The journal was compacted at recovery and now ends terminal:
        # a second restart owes no work.
        assert journal.interrupted() == {}

    def test_recover_skips_requests_this_build_rejects(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        _dead_process_journal(root, "badc0ffee badc0ff", {"kind": "nope"})
        # A kind this build removed is rejected the same way.
        _dead_process_journal(root, "1ea7e7ba1ea7e7ba",
                              {"kind": "interval", "workload": ["gcc"],
                               "strikes": 30})
        journal = ServiceJournal(Path(root) / SERVICE_JOURNAL_NAME)

        scheduler = CampaignScheduler(store, workers=2, journal=journal)
        assert scheduler.recover() == 0
        assert scheduler.stats()["campaigns"] == 0

    def test_recover_waives_the_queue_bound(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        journal = ServiceJournal(Path(root) / SERVICE_JOURNAL_NAME)
        specs = [dict(TINY_LIVE, strikes=4 + n) for n in range(3)]
        from repro.service.specs import parse_spec

        cids = []
        for spec in specs:
            cid = parse_spec(spec).campaign_id()
            cids.append(cid)
            journal.record(cid, "submitted", request=spec)
            journal.record(cid, "running")

        # A bound tighter than the recovered backlog must not drop work:
        # the backlog is an existing obligation, not new load.
        scheduler = CampaignScheduler(store, workers=2, max_running=1,
                                      max_queued=1, journal=journal)
        assert scheduler.recover() == 3
        for cid in cids:
            assert scheduler.wait(cid, timeout=180)["state"] == "done"


# -- kill-and-restart differential -------------------------------------------------


def _spawn_serve(state_dir, *, chaos=None, new_session=False):
    """Start ``repro-sim serve`` on an ephemeral port; return (proc, port).

    ``new_session`` starts the server in its own process group, so the
    pool workers a SIGKILL orphans can be reaped by group afterwards.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(CHAOS_ENV_VAR, None)
    if chaos:
        env[CHAOS_ENV_VAR] = chaos
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--state-dir", str(state_dir), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, start_new_session=new_session)
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


class TestKillAndRestart:
    def test_sigkill_mid_campaign_then_restart_is_byte_identical(
            self, tmp_path):
        spec = dict(TINY_LIVE, strikes=48, strike_batch=2)

        # Uninterrupted baseline, in-process.
        baseline_sched = CampaignScheduler(
            ArtifactStore(tmp_path / "baseline"), workers=2)
        status, _ = baseline_sched.submit(spec)
        cid = status["id"]
        assert baseline_sched.wait(cid, timeout=180)["state"] == "done"
        baseline_bytes = baseline_sched.result_bytes(cid)

        # Life one: chaos slows every batch so the SIGKILL lands with
        # most of the 24 batches still outstanding.  Its own process
        # group, so the pool workers the SIGKILL orphans can be reaped.
        state = tmp_path / "state"
        proc, port = _spawn_serve(state, chaos="hang:live/gcc:*:1.0",
                                  new_session=True)
        first_life_group = proc.pid
        try:
            status, payload, _ = _http(port, "POST", "/campaigns", body=spec)
            assert status == 201, payload
            assert payload["id"] == cid

            deadline = time.monotonic() + 60
            while True:
                _, payload, _ = _http(port, "GET", f"/campaigns/{cid}")
                if payload["batches"]["done"] >= 2:
                    break
                assert time.monotonic() < deadline, payload
                time.sleep(0.2)
            committed = payload["batches"]["done"]
            assert committed < payload["batches"]["total"]
        finally:
            proc.kill()  # SIGKILL: no shutdown hooks, no journal flush
            proc.wait(15)

        # Life two: same state dir, no chaos.  Startup replays the
        # journal and re-admits the campaign before binding the socket.
        proc, port = _spawn_serve(state)
        try:
            _, stats, _ = _http(port, "GET", "/stats")
            assert stats["recovered"] == 1, stats

            status, final, _ = _http(port, "GET",
                                     f"/campaigns/{cid}?wait=120")
            assert status == 200 and final["state"] == "done", final
            batches = final["batches"]
            assert batches["done"] == batches["total"] == 24
            # The first life's committed batches were *served*, not
            # recomputed.
            assert batches["cached"] >= committed

            status, _, raw = _http(port, "GET", f"/campaigns/{cid}/result")
            assert status == 200
            assert raw == baseline_bytes
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(15)
            _reap_group(first_life_group)


def _reap_group(pgid, timeout=30.0):
    """SIGKILL process group ``pgid`` and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        assert time.monotonic() < deadline, f"process group {pgid} survived"
        time.sleep(0.1)
