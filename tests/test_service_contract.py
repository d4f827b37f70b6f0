"""Contract suite for the campaign service (PR-7 tentpole).

The service's REST/JSON API is pinned three ways:

* **golden schemas** — every response payload must validate against
  ``tests/golden/service_schemas.json`` via the same
  :func:`~repro.service.specs.validate_schema` checker the server uses
  for requests;
* **concurrency** — two clients submitting the identical spec trigger
  exactly one computation and read byte-identical result artifacts;
* **chaos** — a ``REPRO_CHAOS`` rule crashing one campaign's workers
  degrades that campaign only; its neighbour, on its own supervisor
  pool, completes untouched.

The harness is fully in-process: the asyncio server runs on its own
event loop in a daemon thread, bound to an ephemeral port, and the
client is stdlib ``http.client`` — real sockets, real HTTP parsing, no
mocks between the contract and the implementation.
"""

import asyncio
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.resilience.chaos import CHAOS_ENV_VAR
from repro.service import API_SCHEMA_VERSION, validate_schema
from repro.service.journal import SERVICE_JOURNAL_NAME
from repro.service.server import CampaignServer
from repro.service.store import ArtifactStore

GOLDEN = Path(__file__).parent / "golden" / "service_schemas.json"
SCHEMAS = json.loads(GOLDEN.read_text())

#: A spec small enough that a full live campaign lands in a few seconds.
TINY_LIVE = {"kind": "live", "workload": ["gcc"], "strikes": 4,
             "instructions": 80, "structures": ["iq"]}


def check(payload, schema_name):
    errors = validate_schema(payload, SCHEMAS[schema_name])
    assert not errors, f"{schema_name}: {errors}"


class ServiceHarness:
    """In-process server + blocking HTTP client for the contract tests."""

    def __init__(self, root, **server_kwargs):
        self.root = Path(root)
        self.server = CampaignServer(ArtifactStore(root), workers=2,
                                     **server_kwargs)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(15), "server failed to start"

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._ready.set()
        self.loop.run_forever()

    def stop(self):
        if self.loop.is_closed():
            return
        asyncio.run_coroutine_threadsafe(self.server.stop(),
                                         self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()

    def request_full(self, method, path, body=None, timeout=180.0):
        """Like :meth:`request` but also returns the response headers."""
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", self.server.port,
                                          timeout=timeout)
        try:
            data = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=data)
            response = conn.getresponse()
            raw = response.read()
            headers = {k.lower(): v for k, v in response.getheaders()}
        finally:
            conn.close()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        return response.status, payload, raw, headers

    def request(self, method, path, body=None, timeout=180.0):
        status, payload, raw, _ = self.request_full(method, path, body=body,
                                                    timeout=timeout)
        return status, payload, raw

    def finish(self, campaign_id, timeout=180.0):
        """Long-poll until the campaign reaches a terminal state."""
        status, payload, _ = self.request(
            "GET", f"/campaigns/{campaign_id}?wait={int(timeout)}")
        assert status == 200, payload
        assert payload["state"] in ("done", "degraded", "failed",
                                    "cancelled"), payload
        return payload

    def await_state(self, campaign_id, *states, timeout=30.0):
        """Poll until the campaign reaches one of ``states``."""
        deadline = time.monotonic() + timeout
        while True:
            status, payload, _ = self.request("GET",
                                              f"/campaigns/{campaign_id}")
            assert status == 200, payload
            if payload["state"] in states:
                return payload
            assert time.monotonic() < deadline, (
                f"campaign stuck in {payload['state']}, wanted {states}")
            time.sleep(0.05)


@pytest.fixture
def service(tmp_path):
    harness = ServiceHarness(tmp_path / "store")
    yield harness
    harness.stop()


class TestResponseSchemas:
    def test_healthz(self, service):
        status, payload, _ = service.request("GET", "/healthz")
        assert status == 200
        check(payload, "healthz")
        assert payload["api_schema"] == API_SCHEMA_VERSION

    def test_submit_status_list_stats_result(self, service):
        status, payload, _ = service.request("POST", "/campaigns",
                                             body=TINY_LIVE)
        assert status == 201
        check(payload, "submit_response")
        check(payload, "campaign_status")
        assert payload["deduplicated"] is False
        cid = payload["id"]

        final = service.finish(cid)
        check(final, "campaign_status")
        assert final["state"] == "done"
        assert final["result_ready"] is True
        assert final["batches"]["done"] == final["batches"]["total"] == 1
        # Partial progress carries Wilson bounds that bracket the estimate.
        (progress,) = final["progress"]
        assert progress["structure"] == "IQ"
        assert progress["strikes"] == 4
        assert (progress["wilson_low"] <= progress["sdc_rate"]
                <= progress["wilson_high"])

        status, payload, _ = service.request("GET", "/campaigns")
        assert status == 200
        check(payload, "campaign_list")
        assert [c["id"] for c in payload["campaigns"]] == [cid]

        status, payload, _ = service.request("GET", "/stats")
        assert status == 200
        check(payload, "stats")
        assert payload["executions"] == 1

        status, payload, raw = service.request("GET",
                                               f"/campaigns/{cid}/result")
        assert status == 200
        check(payload, "result_envelope")
        assert payload["result"]["kind"] == "live"
        assert raw.endswith(b"\n")

    @pytest.mark.parametrize("spec,expect_progress", [
        ({"kind": "reproduce", "artefacts": ["fig1_avf_profile"],
          "instructions": 120}, False),
    ], ids=["reproduce"])
    def test_other_kinds_honour_the_same_contract(self, service, spec,
                                                  expect_progress):
        status, payload, _ = service.request("POST", "/campaigns", body=spec)
        assert status == 201
        check(payload, "submit_response")
        final = service.finish(payload["id"])
        check(final, "campaign_status")
        assert final["state"] == "done"
        assert bool(final["progress"]) == expect_progress
        status, payload, raw = service.request(
            "GET", f"/campaigns/{payload['id']}/result")
        assert status == 200
        check(payload, "result_envelope")
        assert payload["result"]["kind"] == spec["kind"]

    def test_removed_interval_kind_is_refused_by_name(self, service):
        status, payload, _ = service.request(
            "POST", "/campaigns",
            body={"kind": "interval", "workload": ["gcc"], "strikes": 30})
        assert status == 400
        check(payload, "error")
        message = payload["error"]
        assert "spec.kind" in message and "'interval' was removed" in message
        assert "'live'" in message
        assert service.request("GET", "/stats")[1]["executions"] == 0

    def test_unknown_legacy_backend_is_refused(self, service):
        status, payload, _ = service.request(
            "POST", "/campaigns", body=dict(TINY_LIVE, backend="fortran"))
        assert status == 400
        check(payload, "error")
        assert "spec.backend" in payload["error"]
        assert "'fortran'" in payload["error"]
        assert service.request("GET", "/stats")[1]["executions"] == 0

    def test_error_schemas(self, service):
        cases = [
            ("POST", "/campaigns", {"kind": "nope"}, 400),
            ("POST", "/campaigns", None, 400),          # empty body
            ("GET", "/campaigns/ffffffffffffffff", None, 404),
            ("GET", "/nowhere", None, 404),
            ("DELETE", "/campaigns", None, 405),
            ("GET", "/campaigns/ffffffffffffffff/result", None, 404),
        ]
        for method, path, body, expected in cases:
            status, payload, _ = service.request(method, path, body=body)
            assert status == expected, (method, path, payload)
            check(payload, "error")

    def test_validation_error_names_the_field(self, service):
        status, payload, _ = service.request(
            "POST", "/campaigns",
            body={"kind": "live", "workload": ["gcc"], "strikes": -1})
        assert status == 400
        assert "strikes" in payload["error"]

        status, payload, _ = service.request(
            "POST", "/campaigns",
            body={"kind": "live", "workload": ["gcc"], "surprise": 1})
        assert status == 400
        assert "surprise" in payload["error"]

    def test_result_conflict_before_done(self, service):
        status, payload, _ = service.request("POST", "/campaigns",
                                             body=TINY_LIVE)
        cid = payload["id"]
        # Immediately asking for the result races the campaign; either it
        # is not finished (409) or it already landed (200) — never a 500.
        status, payload, _ = service.request("GET", f"/campaigns/{cid}/result")
        assert status in (200, 409)
        if status == 409:
            check(payload, "error")
        service.finish(cid)


class TestDeduplication:
    def test_concurrent_identical_submissions_compute_once(self, service):
        barrier = threading.Barrier(2)
        outcomes = []

        def submit():
            barrier.wait()
            outcomes.append(service.request("POST", "/campaigns",
                                            body=TINY_LIVE))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert len(outcomes) == 2
        ids = {payload["id"] for _, payload, _ in outcomes}
        assert len(ids) == 1
        (cid,) = ids
        # Exactly one 201 (created) — the other submission coalesced.
        assert sorted(status for status, _, _ in outcomes) == [200, 201]

        final = service.finish(cid)
        assert final["state"] == "done"
        assert final["submissions"] == 2

        status, payload, _ = service.request("GET", "/stats")
        assert payload["executions"] == 1

        _, _, raw_a = service.request("GET", f"/campaigns/{cid}/result")
        _, _, raw_b = service.request("GET", f"/campaigns/{cid}/result")
        assert raw_a == raw_b
        assert len(raw_a) > 2

    def test_scheduling_fields_do_not_split_identity(self, service):
        status, first, _ = service.request("POST", "/campaigns",
                                           body=TINY_LIVE)
        assert status == 201
        service.finish(first["id"])
        # Same science, different scheduling: dedups to the same artifact.
        variant = dict(TINY_LIVE, backend="python",
                       budget={"retries": 3}, strike_batch=1)
        status, second, _ = service.request("POST", "/campaigns",
                                            body=variant)
        assert status == 200
        assert second["id"] == first["id"]
        assert second["deduplicated"] is True

    def test_store_survives_server_restart(self, service, tmp_path):
        status, payload, _ = service.request("POST", "/campaigns",
                                             body=TINY_LIVE)
        cid = payload["id"]
        service.finish(cid)
        _, _, raw = service.request("GET", f"/campaigns/{cid}/result")
        service.stop()

        reborn = ServiceHarness(tmp_path / "store")
        try:
            status, payload, _ = reborn.request("POST", "/campaigns",
                                                body=TINY_LIVE)
            assert status == 200
            assert payload["deduplicated"] is True
            assert payload["state"] == "done"
            _, _, raw2 = reborn.request("GET", f"/campaigns/{cid}/result")
            assert raw2 == raw
            _, stats, _ = reborn.request("GET", "/stats")
            assert stats["executions"] == 0
            assert stats["store_hits"] == 1
        finally:
            reborn.stop()


class TestChaosIsolation:
    def test_crashing_campaign_does_not_poison_neighbour(self, service,
                                                         monkeypatch):
        # Crash every attempt of any job whose label mentions gcc: that
        # is campaign A's workload and only campaign A's.
        monkeypatch.setenv(CHAOS_ENV_VAR, "crash:live/gcc:*")
        spec_a = dict(TINY_LIVE, budget={"retries": 1, "max_failures": 0})
        spec_b = dict(TINY_LIVE, workload=["mcf"])

        _, a, _ = service.request("POST", "/campaigns", body=spec_a)
        _, b, _ = service.request("POST", "/campaigns", body=spec_b)
        assert a["id"] != b["id"]

        final_a = service.finish(a["id"])
        final_b = service.finish(b["id"])

        assert final_a["state"] == "failed"
        assert final_a["failures"], "permanent failures must be reported"
        assert any("crash" in f["kinds"] for f in final_a["failures"])
        check(final_a, "campaign_status")

        assert final_b["state"] == "done"
        assert final_b["failures"] == []
        status, _, raw = service.request("GET",
                                         f"/campaigns/{b['id']}/result")
        assert status == 200 and len(raw) > 2

        # The failed campaign has no artifact to serve...
        status, payload, _ = service.request("GET",
                                             f"/campaigns/{a['id']}/result")
        assert status == 409
        check(payload, "error")

        # ...and once chaos clears, resubmitting it retries for real
        # (a failure is never dedup'd into permanence).
        monkeypatch.delenv(CHAOS_ENV_VAR)
        status, retry, _ = service.request("POST", "/campaigns", body=spec_a)
        assert status == 201
        assert retry["id"] == a["id"]
        final = service.finish(a["id"])
        assert final["state"] == "done"
        status, _, _ = service.request("GET", f"/campaigns/{a['id']}/result")
        assert status == 200

    def test_budgeted_campaign_degrades_instead_of_failing(self, service,
                                                           monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "crash:live/gcc:*")
        spec = dict(TINY_LIVE, budget={"retries": 0, "max_failures": 8})
        _, payload, _ = service.request("POST", "/campaigns", body=spec)
        final = service.finish(payload["id"])
        assert final["state"] == "degraded"
        assert final["failures"]
        # Degraded output is not content-addressed as a final artifact:
        # it must never satisfy a future submission of the same spec.
        status, _, _ = service.request("GET",
                                       f"/campaigns/{payload['id']}/result")
        assert status == 409


class TestHttpEdges:
    def test_malformed_json_body(self, service):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", service.server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/campaigns", body=b"{not json")
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        check(payload, "error")
        assert "JSON" in payload["error"]

    def test_oversized_body_refused(self, service):
        import http.client

        from repro.service.server import MAX_BODY_BYTES

        conn = http.client.HTTPConnection("127.0.0.1", service.server.port,
                                          timeout=30)
        try:
            conn.putrequest("POST", "/campaigns")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 413
        check(payload, "error")

    def test_malformed_request_line(self, service):
        import socket

        with socket.create_connection(("127.0.0.1", service.server.port),
                                      timeout=30) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            data = sock.recv(65536)
        assert data.startswith(b"HTTP/1.1 400 ")


#: A campaign that *stays running* while admission tests probe the queue:
#: chaos hangs every mcf batch for a few seconds, so one submission of
#: this spec pins the single running slot of a ``max_running=1`` server.
BLOCKER = dict(TINY_LIVE, workload=["mcf"])
BLOCKER_CHAOS = "hang:live/mcf:*:4.0"


@contextmanager
def bounded_service(root, **server_kwargs):
    """A ServiceHarness with explicit admission bounds."""
    harness = ServiceHarness(root, **server_kwargs)
    try:
        yield harness
    finally:
        harness.stop()


class TestAdmissionControl:
    def test_backpressure_emits_429_with_retry_after(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, BLOCKER_CHAOS)
        q1 = dict(TINY_LIVE, strikes=5)
        q2 = dict(TINY_LIVE, strikes=6)
        q3 = dict(TINY_LIVE, strikes=7)
        with bounded_service(tmp_path / "store", max_running=1,
                             max_queued=2) as svc:
            status, blocker, _ = svc.request("POST", "/campaigns",
                                             body=BLOCKER)
            assert status == 201
            svc.await_state(blocker["id"], "running")

            status, first, _ = svc.request("POST", "/campaigns", body=q1)
            assert status == 201
            check(first, "campaign_status")
            assert first["state"] == "queued"
            assert first["queue_position"] == 1

            status, second, _ = svc.request("POST", "/campaigns", body=q2)
            assert status == 201
            assert second["queue_position"] == 2

            # The queue is at its bound: the next submission is refused
            # with a machine-readable body and a Retry-After header.
            status, rejected, _, headers = svc.request_full(
                "POST", "/campaigns", body=q3)
            assert status == 429
            check(rejected, "rate_limited")
            assert rejected["queue_depth"] == 2
            assert rejected["max_queued"] == 2
            assert "max_queued" in rejected["error"]
            assert headers["retry-after"] == str(rejected["retry_after"])

            _, stats, _ = svc.request("GET", "/stats")
            check(stats, "stats")
            assert stats["queue"] == {"depth": 2, "running": 1,
                                      "max_queued": 2, "max_running": 1}

            # Nothing admitted was lost: every accepted campaign runs to
            # completion once the blocker releases the slot.
            for admitted in (blocker, first, second):
                final = svc.finish(admitted["id"])
                assert final["state"] == "done", final
                assert final["queue_position"] is None

            # Honouring Retry-After works: the rejected spec resubmits
            # cleanly after the queue drains.
            status, retried, _ = svc.request("POST", "/campaigns", body=q3)
            assert status == 201
            assert svc.finish(retried["id"])["state"] == "done"

    def test_priority_jumps_the_queue_fifo_within_level(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, BLOCKER_CHAOS)
        with bounded_service(tmp_path / "store", max_running=1,
                             max_queued=4) as svc:
            _, blocker, _ = svc.request("POST", "/campaigns", body=BLOCKER)
            svc.await_state(blocker["id"], "running")

            _, first, _ = svc.request("POST", "/campaigns",
                                      body=dict(TINY_LIVE, strikes=5))
            _, second, _ = svc.request("POST", "/campaigns",
                                       body=dict(TINY_LIVE, strikes=6))
            assert [first["queue_position"], second["queue_position"]] == [1, 2]

            # A higher-priority submission jumps ahead of both...
            _, urgent, _ = svc.request(
                "POST", "/campaigns",
                body=dict(TINY_LIVE, strikes=7, priority=3))
            assert urgent["priority"] == 3
            assert urgent["queue_position"] == 1
            # ...demoting the FIFO pair without reordering them.
            _, now_first, _ = svc.request("GET", f"/campaigns/{first['id']}")
            _, now_second, _ = svc.request("GET",
                                           f"/campaigns/{second['id']}")
            assert now_first["queue_position"] == 2
            assert now_second["queue_position"] == 3

            for payload in (blocker, first, second, urgent):
                assert svc.finish(payload["id"])["state"] == "done"

            # The journal's "admitted" events pin the actual admission
            # order: blocker first, then priority, then FIFO.
            journal = svc.root / SERVICE_JOURNAL_NAME
            admitted = [entry["id"]
                        for entry in map(json.loads,
                                         journal.read_text().splitlines())
                        if entry["event"] == "admitted"]
            assert admitted == [blocker["id"], urgent["id"],
                                first["id"], second["id"]]

    def test_concurrent_overflow_rejects_exactly_the_excess(self, tmp_path,
                                                            monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, BLOCKER_CHAOS)
        specs = [dict(TINY_LIVE, strikes=5 + n) for n in range(5)]
        with bounded_service(tmp_path / "store", max_running=1,
                             max_queued=3) as svc:
            _, blocker, _ = svc.request("POST", "/campaigns", body=BLOCKER)
            svc.await_state(blocker["id"], "running")

            barrier = threading.Barrier(len(specs))
            outcomes = []

            def submit(spec):
                barrier.wait()
                outcomes.append(svc.request("POST", "/campaigns", body=spec))

            threads = [threading.Thread(target=submit, args=(spec,))
                       for spec in specs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)

            # Exactly the overflow is rejected — never more, never fewer.
            statuses = sorted(status for status, _, _ in outcomes)
            assert statuses == [201, 201, 201, 429, 429]
            admitted = [payload for status, payload, _ in outcomes
                        if status == 201]
            assert len({payload["id"] for payload in admitted}) == 3

            # Zero lost, zero duplicated: each admitted campaign lands
            # exactly once with its artifact ready.
            for payload in admitted:
                final = svc.finish(payload["id"])
                assert final["state"] == "done"
                assert final["result_ready"] is True
            _, stats, _ = svc.request("GET", "/stats")
            assert stats["executions"] == 4  # blocker + three admitted


class TestCancellation:
    def test_cancel_queued_campaign_is_immediate_and_idempotent(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, BLOCKER_CHAOS)
        with bounded_service(tmp_path / "store", max_running=1,
                             max_queued=4) as svc:
            _, blocker, _ = svc.request("POST", "/campaigns", body=BLOCKER)
            svc.await_state(blocker["id"], "running")
            _, queued, _ = svc.request("POST", "/campaigns",
                                       body=dict(TINY_LIVE, strikes=5))
            assert queued["state"] == "queued"

            start = time.monotonic()
            status, payload, _ = svc.request(
                "DELETE", f"/campaigns/{queued['id']}")
            assert status == 200
            assert time.monotonic() - start < 5.0, \
                "cancelling a queued campaign must not wait on any drain"
            check(payload, "campaign_status")
            assert payload["state"] == "cancelled"
            assert payload["queue_position"] is None

            # Idempotent: a second DELETE re-acknowledges, same answer.
            status, again, _ = svc.request(
                "DELETE", f"/campaigns/{queued['id']}")
            assert status == 200
            assert again["state"] == "cancelled"

            # A cancelled campaign never reaches the artifact store...
            status, _, _ = svc.request(
                "GET", f"/campaigns/{queued['id']}/result")
            assert status == 409
            # ...and resubmitting revives it for real.
            status, revived, _ = svc.request(
                "POST", "/campaigns", body=dict(TINY_LIVE, strikes=5))
            assert status == 201
            assert revived["id"] == queued["id"]
            assert svc.finish(revived["id"])["state"] == "done"
            assert svc.finish(blocker["id"])["state"] == "done"

    def test_cancel_running_campaign_drains_then_resumes_from_cache(
            self, service, monkeypatch):
        # Slow every gcc batch so the campaign (24 batches, 2 workers)
        # takes ~18s end to end: the 3s drain grace can only commit the
        # few batches already in flight, never the whole backlog.
        monkeypatch.setenv(CHAOS_ENV_VAR, "hang:live/gcc:*:1.5")
        spec = dict(TINY_LIVE, strikes=48, strike_batch=2,
                    budget={"job_timeout": 3.0})
        status, payload, _ = service.request("POST", "/campaigns", body=spec)
        assert status == 201
        cid = payload["id"]

        # Wait for real progress so the drain has in-flight work to keep.
        deadline = time.monotonic() + 30
        while True:
            _, payload, _ = service.request("GET", f"/campaigns/{cid}")
            if payload["batches"]["done"] >= 1:
                break
            assert time.monotonic() < deadline, payload
            time.sleep(0.1)

        start = time.monotonic()
        status, cancelled, _ = service.request("DELETE", f"/campaigns/{cid}")
        elapsed = time.monotonic() - start
        assert status == 200
        # Bounded by the drain grace (job_timeout) plus the server margin.
        assert elapsed < 15.0, f"cancel took {elapsed:.1f}s"
        check(cancelled, "campaign_status")
        assert cancelled["state"] == "cancelled"
        committed = cancelled["batches"]["done"]
        assert 1 <= committed < cancelled["batches"]["total"]

        # Partial work is never served as the final artifact...
        status, _, _ = service.request("GET", f"/campaigns/{cid}/result")
        assert status == 409

        # ...but every committed batch survives in the cache: the
        # resubmission resumes instead of starting over.
        monkeypatch.delenv(CHAOS_ENV_VAR)
        status, revived, _ = service.request("POST", "/campaigns", body=spec)
        assert status == 201
        assert revived["id"] == cid
        final = service.finish(cid)
        assert final["state"] == "done"
        assert final["batches"]["done"] == final["batches"]["total"] == 24
        assert final["batches"]["cached"] >= committed
        status, _, _ = service.request("GET", f"/campaigns/{cid}/result")
        assert status == 200

    def test_cancel_unknown_campaign_is_404(self, service):
        status, payload, _ = service.request(
            "DELETE", "/campaigns/ffffffffffffffff")
        assert status == 404
        check(payload, "error")

    def test_cancel_finished_campaign_conflicts_naming_state(self, service):
        _, payload, _ = service.request("POST", "/campaigns", body=TINY_LIVE)
        cid = payload["id"]
        assert service.finish(cid)["state"] == "done"
        status, payload, _ = service.request("DELETE", f"/campaigns/{cid}")
        assert status == 409
        check(payload, "error")
        assert payload["state"] == "done"
        assert "done" in payload["error"]
        # The artifact is untouched by the refused cancellation.
        status, _, _ = service.request("GET", f"/campaigns/{cid}/result")
        assert status == 200


class TestProtectionSpecs:
    """v2 spec fields: heterogeneous protection and MBU clusters."""

    def test_equivalent_protection_spellings_dedup(self, service):
        spellings = ["ecc", "secded", {"default": "secded"}]
        ids = []
        for protection in spellings:
            _, payload, _ = service.request(
                "POST", "/campaigns",
                body=dict(TINY_LIVE, protection=protection))
            ids.append(payload["id"])
        assert len(set(ids)) == 1
        final = service.finish(ids[0])
        assert final["state"] == "done"
        _, wrapped, _ = service.request("GET", f"/campaigns/{ids[0]}/result")
        assert wrapped["result"]["protection"] == "secded"

    def test_per_structure_protection_and_mbu_round_trip(self, service):
        body = dict(TINY_LIVE, protection="iq=parity", mbu_len=3)
        status, payload, _ = service.request("POST", "/campaigns", body=body)
        assert status == 201
        cid = payload["id"]
        assert service.finish(cid)["state"] == "done"
        _, wrapped, _ = service.request("GET", f"/campaigns/{cid}/result")
        assert wrapped["result"]["protection"] == "IQ=parity"
        assert wrapped["result"]["mbu_len"] == 3
        assert all(r["cluster_len"] <= 3
                   for r in wrapped["result"]["records"]
                   if "cluster_len" in r)

    def test_mbu_len_splits_identity(self, service):
        _, first, _ = service.request("POST", "/campaigns", body=TINY_LIVE)
        _, second, _ = service.request(
            "POST", "/campaigns", body=dict(TINY_LIVE, mbu_len=2))
        assert first["id"] != second["id"]
        service.finish(first["id"])
        service.finish(second["id"])

    def test_invalid_protection_rejected_with_valid_set(self, service):
        status, payload, _ = service.request(
            "POST", "/campaigns",
            body=dict(TINY_LIVE, protection="hamming"))
        assert status == 400
        check(payload, "error")
        assert "secded" in payload["error"]

    def test_out_of_range_mbu_len_rejected(self, service):
        status, payload, _ = service.request(
            "POST", "/campaigns", body=dict(TINY_LIVE, mbu_len=9))
        assert status == 400
        check(payload, "error")


class TestIntegrity:
    def test_corrupt_artifact_is_refused_with_digest(self, service):
        _, payload, _ = service.request("POST", "/campaigns", body=TINY_LIVE)
        cid = payload["id"]
        assert service.finish(cid)["state"] == "done"
        status, _, _ = service.request("GET", f"/campaigns/{cid}/result")
        assert status == 200

        # Flip result content on disk while keeping the recorded
        # checksum: exactly what bit rot or tampering looks like.
        (artifact,) = (service.root / "artifacts").glob("*.json")
        artifact.write_bytes(
            artifact.read_bytes().replace(b'"live"', b'"LIVE"', 1))

        status, payload, _ = service.request(
            "GET", f"/campaigns/{cid}/result")
        assert status == 500
        check(payload, "error")
        assert payload["digest"] == artifact.stem
        assert artifact.stem in payload["error"]
        assert "integrity" in payload["error"]
