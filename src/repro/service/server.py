"""The asyncio REST/JSON front end of the campaign service.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` —
no ``http.server``, no framework — because the API surface is a handful
of routes and the contract suite pins every byte of it:

========  ==============================  =======================================
method    path                            semantics
========  ==============================  =======================================
GET       ``/healthz``                    liveness + API schema version
POST      ``/campaigns``                  submit a spec; 201 new, 200 dedup'd,
                                          429 + ``Retry-After`` when the
                                          admission queue is full
GET       ``/campaigns``                  summaries of every known campaign
GET       ``/campaigns/{id}``             full status (``?wait=SECS`` and
                                          ``?version=N`` long-poll for change)
DELETE    ``/campaigns/{id}``             cancel: drains the campaign's pool,
                                          returns the terminal snapshot
GET       ``/campaigns/{id}/result``      the final artifact's exact bytes
                                          (integrity-verified; 500 on rot)
GET       ``/stats``                      scheduler counters (dedup, queue,
                                          recovery observability)
========  ==============================  =======================================

Blocking scheduler calls (submission validation, long-poll waits) run via
:func:`asyncio.to_thread`, keeping the event loop free to accept other
clients while a campaign grinds.  Every response carries
``Connection: close`` — one request per connection keeps the parser
honest and the contract suite simple.

Durability: :meth:`CampaignServer.start` replays the service journal
(:mod:`repro.service.journal`) *before* binding the socket, so every
campaign a crashed predecessor owed work to is back in the admission
queue by the time the first client can connect.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.content_store import canonical_json_bytes
from repro.errors import ArtifactIntegrityError
from repro.service.fleet import (
    DEFAULT_HEDGE_AFTER,
    FleetCoordinator,
)
from repro.service.journal import SERVICE_JOURNAL_NAME, ServiceJournal
from repro.service.leases import DEFAULT_LEASE_TIMEOUT, LOCAL_SHARD_ID
from repro.service.scheduler import (
    DEFAULT_MAX_QUEUED,
    DEFAULT_MAX_RUNNING,
    CampaignScheduler,
    CancelConflict,
    QueueFull,
)
from repro.service.specs import FLEET_SCHEMAS, SpecError, validate_schema
from repro.service.store import ArtifactStore

#: Version of the REST/JSON wire contract.  v2 added admission control
#: (429 + Retry-After + ``queue_position``), DELETE cancellation and the
#: ``cancelled`` state, ``priority``, and ``batches.cached``.  v3 added
#: the worker-fleet protocol (``POST /fleet/register|poll|heartbeat|
#: commit``) and the ``fleet`` counters block in ``/stats``.  v4 added
#: ``POST /fleet/fail`` and leased runs (poll's ``more``), and dropped
#: ``fleet.fleet_degraded``: every live batch is leased.
API_SCHEMA_VERSION = 4

#: Refuse request bodies beyond this (a campaign spec is tiny).
MAX_BODY_BYTES = 1 << 20

#: Refuse header sections beyond this.
MAX_HEADER_BYTES = 64 * 1024

#: Cap on ``?wait=`` so a dead client cannot pin a thread for hours.
MAX_WAIT_SECONDS = 120.0

_REASONS = {200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            409: "Conflict", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error"}

#: Extra seconds a DELETE waits beyond the campaign's drain grace (the
#: supervisor's stop-poll latency plus collection slack).
CANCEL_WAIT_MARGIN = 3.0


class _HttpError(Exception):
    """An error response: status, message, optional structured fields
    merged into the JSON body, optional extra response headers."""

    def __init__(self, status: int, message: str,
                 extra: Optional[Dict[str, object]] = None,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.extra = extra or {}
        self.headers = headers or {}


class CampaignServer:
    """Binds a :class:`CampaignScheduler` to a TCP port."""

    def __init__(self, store: ArtifactStore, workers: int = 2,
                 host: str = "127.0.0.1", port: int = 0,
                 max_running: int = DEFAULT_MAX_RUNNING,
                 max_queued: int = DEFAULT_MAX_QUEUED,
                 journal: Optional[ServiceJournal] = None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 hedge_after: float = DEFAULT_HEDGE_AFTER) -> None:
        if journal is None:
            journal = ServiceJournal(store.root / SERVICE_JOURNAL_NAME)
        self.fleet = FleetCoordinator(journal, lease_timeout=lease_timeout,
                                      hedge_after=hedge_after)
        self.scheduler = CampaignScheduler(store, workers=workers,
                                           max_running=max_running,
                                           max_queued=max_queued,
                                           journal=journal,
                                           fleet=self.fleet)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        # Recover *before* binding: no client may observe a service that
        # has forgotten the campaigns its predecessor journaled.
        await asyncio.to_thread(self.scheduler.recover)
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        self.scheduler.stop_shard()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling -------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            headers: Dict[str, str] = {}
            try:
                method, target, body = await self._read_request(reader)
                status, payload, raw = await self._route(method, target, body)
            except _HttpError as exc:
                status = exc.status
                payload = dict(exc.extra, error=exc.message)
                headers = exc.headers
                raw = None
            except Exception as exc:  # noqa: BLE001 - a handler bug must
                # produce a 500, not a silently dropped connection.
                status = 500
                payload = {"error": f"{type(exc).__name__}: {exc}"}
                raw = None
            data = raw if raw is not None else canonical_json_bytes(payload)
            writer.write(self._head(status, len(data), headers))
            writer.write(data)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    @staticmethod
    def _head(status: int, length: int,
              extra: Optional[Dict[str, str]] = None) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}",
                 "Content-Type: application/json",
                 f"Content-Length: {length}"]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request header section too large")
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "truncated request")
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "request header section too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, f"malformed request line: {lines[0]!r}")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, f"bad Content-Length: {length_text!r}")
        if length < 0:
            raise _HttpError(400, f"bad Content-Length: {length_text!r}")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413,
                             f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _HttpError(400, "request body shorter than "
                                      "Content-Length")
        return method, target, body

    # -- routing -------------------------------------------------------------------

    async def _route(self, method: str, target: str, body: bytes
                     ) -> Tuple[int, Dict[str, object], Optional[bytes]]:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)

        if path == "/healthz":
            self._require(method, "GET")
            return 200, {"status": "ok",
                         "api_schema": API_SCHEMA_VERSION}, None
        if path == "/stats":
            self._require(method, "GET")
            return 200, dict(self.scheduler.stats(),
                             api_schema=API_SCHEMA_VERSION), None
        if path == "/campaigns":
            if method == "POST":
                return await self._submit(body)
            self._require(method, "GET")
            return 200, {"api_schema": API_SCHEMA_VERSION,
                         "campaigns": self.scheduler.list_campaigns()}, None
        if path.startswith("/campaigns/"):
            rest = path[len("/campaigns/"):]
            if "/" not in rest:
                if method == "DELETE":
                    return await self._cancel(rest)
                self._require(method, "GET")
                return await self._status(rest, query)
            campaign_id, _, tail = rest.partition("/")
            if tail == "result":
                self._require(method, "GET")
                return await self._result(campaign_id)
        if path.startswith("/fleet/"):
            self._require(method, "POST")
            return await self._fleet(path[len("/fleet/"):], body)
        raise _HttpError(404, f"no such route: {method} {path}")

    async def _fleet(self, op: str, body: bytes
                     ) -> Tuple[int, Dict[str, object], None]:
        schema = FLEET_SCHEMAS.get(op)
        if schema is None:
            raise _HttpError(404, f"no such fleet operation: {op!r}")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}")
        errors = validate_schema(payload, schema)
        if errors:
            raise _HttpError(400, f"bad fleet {op} body: "
                                  f"{'; '.join(errors)}")
        if payload["shard"] == LOCAL_SHARD_ID:
            raise _HttpError(400, f"shard id {LOCAL_SHARD_ID!r} is reserved "
                                  f"for the service's own pool")
        if op == "poll":
            payload["wait"] = min(float(payload.get("wait", 0.0)),
                                  MAX_WAIT_SECONDS)
        # The schema pins the body's keys to the op's parameters.
        result = await asyncio.to_thread(getattr(self.fleet, op), **payload)
        return 200, dict(result, api_schema=API_SCHEMA_VERSION), None

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"method {method} not allowed here "
                                  f"(use {expected})")

    async def _submit(self, body: bytes
                      ) -> Tuple[int, Dict[str, object], None]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}")
        try:
            status, dedup = await asyncio.to_thread(
                self.scheduler.submit, payload)
        except SpecError as exc:
            raise _HttpError(400, str(exc))
        except QueueFull as exc:
            # Backpressure is part of the wire contract: the client gets
            # the queue facts it needs to back off, in the body *and* the
            # standard header.
            raise _HttpError(
                429, str(exc),
                extra={"queue_depth": exc.queue_depth,
                       "max_queued": exc.max_queued,
                       "retry_after": exc.retry_after,
                       "api_schema": API_SCHEMA_VERSION},
                headers={"Retry-After": str(exc.retry_after)})
        return (200 if dedup else 201), dict(
            status, api_schema=API_SCHEMA_VERSION, deduplicated=dedup), None

    async def _cancel(self, campaign_id: str
                      ) -> Tuple[int, Dict[str, object], None]:
        try:
            status = await asyncio.to_thread(self.scheduler.cancel,
                                             campaign_id)
        except CancelConflict as exc:
            raise _HttpError(409, str(exc), extra={"state": exc.state})
        if status is None:
            raise _HttpError(404, f"unknown campaign: {campaign_id}")
        if status["state"] not in ("cancelled", "done", "degraded", "failed"):
            # A running campaign drains within its job-timeout grace; wait
            # it out (bounded) so DELETE returns the terminal snapshot.
            grace = self.scheduler.cancel_grace(campaign_id)
            status = await asyncio.to_thread(
                self.scheduler.wait, campaign_id,
                min(grace + CANCEL_WAIT_MARGIN, MAX_WAIT_SECONDS)) or status
        return 200, dict(status, api_schema=API_SCHEMA_VERSION), None

    async def _status(self, campaign_id: str, query: Dict[str, list]
                      ) -> Tuple[int, Dict[str, object], None]:
        wait = 0.0
        if "wait" in query:
            try:
                wait = min(float(query["wait"][0]), MAX_WAIT_SECONDS)
            except ValueError:
                raise _HttpError(400, f"bad wait value: {query['wait'][0]!r}")
        version: Optional[int] = None
        if "version" in query:
            try:
                version = int(query["version"][0])
            except ValueError:
                raise _HttpError(
                    400, f"bad version value: {query['version'][0]!r}")
        if wait > 0:
            status = await asyncio.to_thread(
                self.scheduler.wait, campaign_id, wait, version)
        else:
            status = self.scheduler.status(campaign_id)
        if status is None:
            raise _HttpError(404, f"unknown campaign: {campaign_id}")
        return 200, dict(status, api_schema=API_SCHEMA_VERSION), None

    async def _result(self, campaign_id: str
                      ) -> Tuple[int, Dict[str, object], bytes]:
        try:
            raw = await asyncio.to_thread(
                self.scheduler.result_bytes, campaign_id)
        except KeyError:
            raise _HttpError(404, f"unknown campaign: {campaign_id}")
        except ArtifactIntegrityError as exc:
            # Never serve bytes that fail re-hashing: a 500 naming the
            # digest beats silently returning wrong science.
            raise _HttpError(500, str(exc), extra={"digest": exc.digest})
        if raw is None:
            status = self.scheduler.status(campaign_id) or {}
            state = status.get("state", "unknown")
            raise _HttpError(409, f"campaign {campaign_id} has no result "
                                  f"artifact (state: {state})")
        return 200, {}, raw


async def _serve(store_root: str, host: str, port: int, workers: int,
                 max_running: int, max_queued: int, ready=None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 hedge_after: float = DEFAULT_HEDGE_AFTER) -> None:
    server = CampaignServer(ArtifactStore(store_root), workers=workers,
                            host=host, port=port, max_running=max_running,
                            max_queued=max_queued,
                            lease_timeout=lease_timeout,
                            hedge_after=hedge_after)
    await server.start()
    if ready is not None:
        ready(server.port)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or platform without handlers
    serving = asyncio.ensure_future(server.serve_forever())
    stopping = asyncio.ensure_future(stop.wait())
    try:
        await asyncio.wait({serving, stopping},
                           return_when=asyncio.FIRST_COMPLETED)
        if stop.is_set():
            # Ordered drain: stop granting leases → drain in-flight
            # campaigns within their job-timeout grace → journal the
            # clean service shutdown — and only then, in the finally
            # below, close the listening socket.
            await asyncio.to_thread(server.scheduler.shutdown)
    except asyncio.CancelledError:
        pass
    finally:
        for task in (serving, stopping):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        await server.stop()


def run_service(store_root: str, host: str = "127.0.0.1", port: int = 8642,
                workers: int = 2, max_running: int = DEFAULT_MAX_RUNNING,
                max_queued: int = DEFAULT_MAX_QUEUED, ready=None,
                lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                hedge_after: float = DEFAULT_HEDGE_AFTER) -> None:
    """Run the campaign service until interrupted (the CLI entry point).

    ``ready(port)`` is invoked once the socket is bound — which is also
    after journal recovery has re-admitted every interrupted campaign —
    so the smoke harness learns an ephemeral port without racing either
    the bind or the recovery.

    SIGTERM and SIGINT trigger the graceful drain
    (:meth:`~repro.service.scheduler.CampaignScheduler.shutdown`): leases
    stop being granted, in-flight work drains within its grace, a clean
    ``shutdown`` record is journaled, and the socket closes last.
    """
    try:
        asyncio.run(_serve(store_root, host, port, workers, max_running,
                           max_queued, ready=ready,
                           lease_timeout=lease_timeout,
                           hedge_after=hedge_after))
    except KeyboardInterrupt:
        pass
