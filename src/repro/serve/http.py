"""``repro.serve.http``: the overload-hardened asyncio HTTP/1.1 front door.

The service tier so far speaks JSONL files and framed sockets -- nothing
an untrusted client could reach.  This module is the missing API tier in
front of :class:`~repro.serve.service.SimService`, stdlib only:

====================  ==================================================
``POST /v1/jobs``     submit one job spec; idempotency key from the
                      ``Idempotency-Key`` header or content-addressed
                      from the spec.  A duplicate returns the original
                      job id (200); a result-store hit returns the
                      result without queueing (200); a fresh admission
                      is 202; every shed is a structured 429/503 with
                      ``Retry-After``.
``GET /v1/jobs/{id}`` poll one job record (404 when unknown).
``DELETE /v1/jobs/{id}``  cancel a still-queued job (409 once started).
``GET /healthz``      liveness from the live :class:`HealthSnapshot`.
``GET /readyz``       readiness (503 + ``Retry-After`` while not ready).
``GET /metrics``      Prometheus text from :mod:`repro.obs.export`.
====================  ==================================================

Robustness is the headline, not the routes:

* **Backpressure end to end** -- every
  :data:`~repro.serve.queue.SHED_REASONS` admission outcome maps to a
  structured 429/503 JSON body with a ``Retry-After`` header
  (:data:`SHED_STATUS` / :data:`DEFAULT_RETRY_AFTER`); a hard-open
  circuit breaker is consulted *at admission* (non-mutating
  :meth:`~repro.serve.breaker.CircuitBreaker.probe_eta_s`), so clients
  back off before the queue ever sees the job.  Nothing is dropped
  silently and no traceback ever reaches a socket: an unexpected
  handler error becomes a structured 500 and a counter.
* **Slow-loris containment** -- headers and body are size-bounded
  (431/413), reads carry deadlines (408), and each connection serves
  exactly one request (``Connection: close``), so a dribbling client
  holds one socket for at most ``read_timeout_s``.
* **Bounded accept backlog** -- at ``max_connections`` concurrent
  connections the server answers an immediate structured 503 instead of
  queueing unbounded sockets; per-client token buckets
  (:mod:`repro.serve.ratelimit`) shed request floods with 429.
* **Deterministic fault injection** -- accept/read/write each draw
  from the ``net`` fault injector at their own sites
  (``http.accept`` / ``http.read`` / ``http.write``), so dropped
  connections, delayed requests, and vanished responses replay
  byte-identically under a seed.
* **Graceful drain** -- :meth:`HttpFrontDoor.request_shutdown` (wired
  to SIGTERM by the CLI) stops accepting, in-flight responses finish
  within ``drain_deadline_s``, and the service's own shutdown then
  records unfinished jobs as resumable ``shed`` gaps -- the PR 4 drain
  path, unchanged.

Observability: every request is a ``http.request`` span (remote trace
context adopted from ``X-Trace-Id``/``X-Span-Id`` headers), counted
under ``sweep.serve.http.*`` with a latency histogram that feeds the
``repro top`` HTTP row.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass
from http.client import responses as _REASONS
from typing import Callable, Optional

from repro.obs.events import get_event_log
from repro.obs.export import prometheus_text
from repro.resilience import faults
from repro.serve.ratelimit import RateLimiter

#: HTTP status for each structured shed reason.  429 = the client can
#: help by slowing down; 503 = the server is the bottleneck; 409 = the
#: request conflicts with existing state (not load at all).
SHED_STATUS = {
    "queue_full": 429,
    "past_deadline": 429,
    "breaker_open": 503,
    "draining": 503,
    "duplicate_id": 409,
    "cancelled": 409,
}

#: Fallback ``Retry-After`` seconds per shed reason, used when the
#: admission decision carried no sharper hint (``Admission.retry_after_s``).
DEFAULT_RETRY_AFTER = {
    "queue_full": 1.0,
    "past_deadline": 1.0,
    "breaker_open": 5.0,
    "draining": 10.0,
}

_JSON = "application/json"
_MAX_HEADERS = 64


@dataclass
class HttpConfig:
    """Shape of one :class:`HttpFrontDoor` instance."""

    host: str = "127.0.0.1"
    #: 0 = ephemeral; the bound port lands in :attr:`HttpFrontDoor.port`.
    port: int = 0
    #: Request line + headers budget; beyond it the request is a 431.
    max_header_bytes: int = 8192
    #: Body budget; a larger declared Content-Length is a 413.
    max_body_bytes: int = 64 * 1024
    #: Deadline for reading the header block and the body (seconds
    #: each); a dribbling client gets a 408, never an idle worker.
    read_timeout_s: float = 5.0
    #: Concurrent-connection ceiling; beyond it new connections get an
    #: immediate structured 503 (bounded accept backlog).
    max_connections: int = 64
    #: Per-client token-bucket rate (requests/second); 0 disables.
    rate_per_s: float = 0.0
    #: Bucket burst ceiling (max requests absorbed at once).
    rate_burst: float = 10.0
    #: Max distinct client buckets kept (LRU-evicted beyond this).
    rate_max_clients: int = 1024
    #: How long drain waits for in-flight responses before force-closing.
    drain_deadline_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.max_header_bytes < 256 or self.max_body_bytes < 1:
            raise ValueError("header/body size bounds too small")
        if self.read_timeout_s <= 0:
            raise ValueError("read_timeout_s must be positive")


class RequestError(Exception):
    """A malformed or over-budget request, answered structurally."""

    def __init__(self, status: int, code: str, detail: str = ""):
        super().__init__(f"{status} {code}: {detail}")
        self.status = status
        self.code = code
        self.detail = detail


class _ConnectionAbort(Exception):
    """Tear the connection down without a response (injected net fault
    or a peer that vanished mid-read) -- counted, never raised past the
    connection handler."""


def retry_after_for(reason: "str | None", hint: "float | None") -> "float | None":
    """The ``Retry-After`` value for one shed decision."""
    if hint is not None:
        return hint
    if reason is None:
        return None
    return DEFAULT_RETRY_AFTER.get(reason)


def _wire_delay(site: str) -> "float | None":
    """Seconds to stall the wire step at ``site``, or None when the
    ``net`` fault schedule drops it (a duplicate is a no-op here)."""
    injector = faults.active("net")
    kind = injector.draw(site) if injector is not None else None
    if kind == "delay":
        return injector.plan.delay_s
    return 0.0 if kind in (None, "dup") else None


class HttpFrontDoor:
    """The asyncio HTTP/1.1 API tier over one :class:`SimService`.

    ``service=None`` mounts a *status-only* front (healthz / readyz /
    metrics plus ``GET /v1/fleet`` from ``status_provider``) -- the
    shape the fabric coordinator exposes; job routes then answer a
    structured 503.
    """

    def __init__(
        self,
        service,
        config: "HttpConfig | None" = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        status_provider: "Callable[[], dict] | None" = None,
        telemetry=None,
    ):
        self.service = service
        self.config = config or HttpConfig()
        self._clock = clock
        self._status_provider = status_provider
        self._telemetry = telemetry
        if self._telemetry is None and service is not None:
            self._telemetry = service.telemetry
        self._limiter: "RateLimiter | None" = None
        if self.config.rate_per_s > 0:
            self._limiter = RateLimiter(
                self.config.rate_per_s,
                self.config.rate_burst,
                max_clients=self.config.rate_max_clients,
                clock=clock,
            )
        self._server: "asyncio.base_events.Server | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop_event: "asyncio.Event | None" = None
        self._draining = False
        self._open = 0
        self._in_flight = 0
        self._writers: "set" = set()
        self.host: "str | None" = None
        self.port: "int | None" = None

    # -- telemetry plumbing (None-tolerant) ----------------------------
    def _record(self, event: str, count: int = 1) -> None:
        if self._telemetry is not None:
            self._telemetry.record_http(event, count)

    def _record_latency(self, seconds: float) -> None:
        if self._telemetry is not None:
            self._telemetry.record_http_latency(seconds)

    def _record_in_flight(self) -> None:
        if self._telemetry is not None:
            self._telemetry.record_http_in_flight(self._in_flight)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "HttpFrontDoor":
        if self._server is not None:
            raise RuntimeError("front door already started")
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self._draining:
            # A shutdown signal raced ahead of start(): honor it.
            self._stop_event.set()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_header_bytes,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self

    def request_shutdown(self) -> None:
        """Stop accepting and wake :meth:`wait_shutdown` (thread-safe:
        callable from a signal handler while the loop runs)."""
        self._draining = True
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    async def wait_shutdown(self) -> None:
        await self._stop_event.wait()

    async def drain(self) -> None:
        """Stop accepting, finish in-flight responses, close stragglers."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = self._clock() + self.config.drain_deadline_s
        while self._open and self._clock() < deadline:
            await asyncio.sleep(0.02)
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        self._server = None

    @property
    def open_connections(self) -> int:
        return self._open

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- the wire ------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """One accepted socket: at most one request, never an escape.

        Every exception class is contained here -- a handler bug
        becomes a structured 500 inside :meth:`_serve_one`, and wire
        trouble (peer gone, injected fault) is counted and closed.
        """
        delay = _wire_delay("http.accept")
        if delay is None:
            # Injected accept drop: the TCP handshake succeeded but the
            # server "loses" the connection -- the client sees a reset
            # and retries.
            self._record("accept_dropped")
            self._close(writer)
            return
        if delay > 0:
            await asyncio.sleep(delay)
        if self._draining or self._open >= self.config.max_connections:
            code = "draining" if self._draining else "over_capacity"
            self._record(code)
            # Consume the request head (briefly) before answering:
            # closing a socket with unread received data makes the
            # kernel RST the connection and discard our 503 -- the one
            # response this branch exists to deliver.
            try:
                await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"),
                    min(1.0, self.config.read_timeout_s),
                )
            except Exception:
                pass
            await self._try_respond(
                writer, 503,
                {"error": code, "retry_after_s": 1.0},
                retry_after=1.0,
            )
            self._close(writer)
            return
        self._open += 1
        self._writers.add(writer)
        try:
            await self._serve_one(reader, writer)
        except _ConnectionAbort:
            pass
        except Exception:
            # Truly unexpected wire-handling failure: counted, contained.
            self._record("connection_error")
        finally:
            self._writers.discard(writer)
            self._open -= 1
            self._close(writer)

    async def _serve_one(self, reader, writer) -> None:
        started = self._clock()
        self._in_flight += 1
        self._record_in_flight()
        status = None
        try:
            try:
                method, target, headers, body = await self._read_request(
                    reader
                )
            except RequestError as exc:
                self._record("malformed")
                status = exc.status
                await self._try_respond(
                    writer, exc.status,
                    {"error": exc.code, "detail": exc.detail},
                )
                return
            client = self._client_id(writer)
            elog = get_event_log()
            with elog.span(
                "http.request",
                trace_id=headers.get("x-trace-id"),
                parent_id=headers.get("x-span-id"),
                method=method,
                path=target,
                client=client,
            ):
                try:
                    status, doc, retry_after, content = self._route(
                        method, target, headers, body, client
                    )
                except RequestError as exc:
                    status, doc, retry_after, content = (
                        exc.status,
                        {"error": exc.code, "detail": exc.detail},
                        None,
                        _JSON,
                    )
                except Exception as exc:
                    # Never a traceback down the socket: structured 500.
                    self._record("internal_error")
                    elog.emit(
                        "http.internal_error",
                        method=method, path=target,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    status, doc, retry_after, content = (
                        500,
                        {"error": "internal", "detail": type(exc).__name__},
                        None,
                        _JSON,
                    )
            await self._respond(
                writer, status, doc,
                retry_after=retry_after, content_type=content,
            )
        finally:
            self._in_flight -= 1
            self._record_in_flight()
            if status is not None:
                self._record("requests")
                self._record(f"status.{status}")
                self._record_latency(max(self._clock() - started, 0.0))

    async def _read_request(self, reader):
        """Parse one size-bounded, deadline-bounded HTTP/1.1 request."""
        delay = _wire_delay("http.read")
        if delay is None:
            # Injected read drop: the request never "arrives".
            self._record("read_dropped")
            raise _ConnectionAbort()
        if delay > 0:
            await asyncio.sleep(delay)
        timeout = self.config.read_timeout_s
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout
            )
        except asyncio.TimeoutError:
            self._record("timeouts")
            raise RequestError(
                408, "request_timeout",
                f"header block not received within {timeout:g}s",
            )
        except asyncio.LimitOverrunError:
            raise RequestError(
                431, "headers_too_large",
                f"header block exceeds {self.config.max_header_bytes} bytes",
            )
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                # Clean disconnect before any bytes: not an error.
                self._record("disconnects")
                raise _ConnectionAbort()
            raise RequestError(
                400, "truncated_request",
                "connection closed mid-header",
            )
        except ConnectionError:
            self._record("disconnects")
            raise _ConnectionAbort()
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise RequestError(
                400, "bad_request_line", f"unparseable: {lines[0][:120]!r}"
            )
        method, target = parts[0].upper(), parts[1]
        if len(lines) - 1 > _MAX_HEADERS:
            raise RequestError(
                431, "too_many_headers", f"more than {_MAX_HEADERS} headers"
            )
        headers: "dict[str, str]" = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep or not name.strip():
                raise RequestError(
                    400, "bad_header", f"unparseable header {line[:80]!r}"
                )
            headers[name.strip().lower()] = value.strip()
        body = b""
        length_raw = headers.get("content-length")
        if length_raw is not None:
            try:
                length = int(length_raw)
            except ValueError:
                raise RequestError(
                    400, "bad_content_length",
                    f"not an integer: {length_raw[:40]!r}",
                )
            if length < 0:
                raise RequestError(
                    400, "bad_content_length", "negative length"
                )
            if length > self.config.max_body_bytes:
                raise RequestError(
                    413, "body_too_large",
                    f"{length} bytes > limit {self.config.max_body_bytes}",
                )
            if length:
                try:
                    body = await asyncio.wait_for(
                        reader.readexactly(length), timeout
                    )
                except asyncio.TimeoutError:
                    self._record("timeouts")
                    raise RequestError(
                        408, "request_timeout",
                        f"body not received within {timeout:g}s",
                    )
                except (asyncio.IncompleteReadError, ConnectionError):
                    self._record("disconnects")
                    raise _ConnectionAbort()
        elif method in ("POST", "PUT"):
            raise RequestError(
                411, "length_required", "POST requires Content-Length"
            )
        return method, target, headers, body

    # -- routing -------------------------------------------------------
    def _route(self, method, target, headers, body, client):
        """Dispatch one parsed request; returns
        (status, doc, retry_after_s, content_type)."""
        path = target.split("?", 1)[0]
        if path == "/healthz":
            return self._status_route(method, ready_check=False)
        if path == "/readyz":
            return self._status_route(method, ready_check=True)
        if path == "/metrics":
            if method != "GET":
                raise RequestError(405, "method_not_allowed", "GET only")
            return (
                200, prometheus_text(), None,
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/v1/fleet":
            if method != "GET":
                raise RequestError(405, "method_not_allowed", "GET only")
            if self._status_provider is None:
                raise RequestError(404, "not_found", "no fleet mounted")
            return 200, dict(self._status_provider()), None, _JSON
        if path == "/v1/jobs":
            if method != "POST":
                raise RequestError(
                    405, "method_not_allowed", "POST to submit"
                )
            return self._submit_route(headers, body, client)
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            if not job_id or "/" in job_id:
                raise RequestError(404, "not_found", f"no route {path!r}")
            if method == "GET":
                return self._poll_route(job_id)
            if method == "DELETE":
                return self._cancel_route(job_id)
            raise RequestError(
                405, "method_not_allowed", "GET to poll, DELETE to cancel"
            )
        raise RequestError(404, "not_found", f"no route {path!r}")

    def _status_route(self, method, *, ready_check):
        if method != "GET":
            raise RequestError(405, "method_not_allowed", "GET only")
        if self.service is not None:
            snap = self.service.health_snapshot()
            ok = snap.ready if ready_check else snap.alive
            doc = snap.to_dict()
        elif self._status_provider is not None:
            doc = dict(self._status_provider())
            ok = bool(doc.get("ready" if ready_check else "alive", True))
        else:
            doc, ok = {"alive": True, "ready": True}, True
        if self._draining:
            doc["draining"] = True
            ok = ok and not ready_check
        return (200 if ok else 503), doc, (None if ok else 2.0), _JSON

    def _submit_route(self, headers, body, client):
        if self.service is None:
            return (
                503,
                {"error": "no_job_service",
                 "detail": "this endpoint is status-only"},
                None, _JSON,
            )
        if self._limiter is not None:
            allowed, retry_after = self._limiter.allow(client)
            if not allowed:
                self._record("rate_limited")
                return (
                    429,
                    {"error": "rate_limited",
                     "detail": f"client {client} over "
                               f"{self.config.rate_per_s:g} req/s",
                     "retry_after_s": retry_after},
                    retry_after, _JSON,
                )
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RequestError(400, "bad_json", str(exc)[:200])
        if not isinstance(doc, dict):
            raise RequestError(
                400, "bad_job", "job spec must be a JSON object"
            )
        key = headers.get("idempotency-key")
        if not key:
            key = self.service.idempotency_key_for(doc)
        try:
            job_id, admission, outcome = self.service.submit_idempotent(
                doc, idempotency_key=key, admission_breaker=True
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise RequestError(400, "bad_job", str(exc)[:200])
        if outcome in ("deduplicated", "cached"):
            record = self.service.poll(job_id)
            payload = {
                "job_id": job_id,
                "status": record.status if record else "served",
                "idempotency_key": key,
            }
            if outcome == "deduplicated":
                payload["deduplicated"] = True
            else:
                payload["served_from"] = "cache"
            if record is not None and record.result is not None:
                payload["result"] = record.result
            return 200, payload, None, _JSON
        if admission.admitted:
            return (
                202,
                {"job_id": job_id, "status": "pending",
                 "idempotency_key": key},
                None, _JSON,
            )
        retry_after = retry_after_for(
            admission.reason, admission.retry_after_s
        )
        status = SHED_STATUS.get(admission.reason, 503)
        return (
            status,
            {"error": "shed", "reason": admission.reason,
             "detail": admission.detail, "job_id": job_id,
             "retry_after_s": retry_after},
            retry_after, _JSON,
        )

    def _poll_route(self, job_id):
        if self.service is None:
            return 503, {"error": "no_job_service"}, None, _JSON
        record = self.service.poll(job_id)
        if record is None:
            raise RequestError(404, "unknown_job", f"no job {job_id!r}")
        return 200, record.to_dict(), None, _JSON

    def _cancel_route(self, job_id):
        if self.service is None:
            return 503, {"error": "no_job_service"}, None, _JSON
        if self.service.cancel(job_id):
            return (
                200, {"job_id": job_id, "status": "cancelled"}, None, _JSON
            )
        record = self.service.poll(job_id)
        if record is None:
            raise RequestError(404, "unknown_job", f"no job {job_id!r}")
        return (
            409,
            {"error": "too_late", "job_id": job_id,
             "status": record.status,
             "detail": "job already started or finished"},
            None, _JSON,
        )

    # -- response writing ----------------------------------------------
    @staticmethod
    def _client_id(writer) -> str:
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if isinstance(peer, tuple) else "unknown"

    @staticmethod
    def _encode(status, doc, *, retry_after=None, content_type=_JSON):
        if isinstance(doc, (bytes, str)):
            payload = doc.encode("utf-8") if isinstance(doc, str) else doc
        else:
            payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            "server: repro-serve",
            f"content-type: {content_type}",
            f"content-length: {len(payload)}",
            "connection: close",
        ]
        if retry_after is not None:
            headers.append(
                f"retry-after: {max(int(math.ceil(retry_after)), 1)}"
            )
        return "\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + payload

    async def _respond(
        self, writer, status, doc, *, retry_after=None, content_type=_JSON
    ) -> None:
        """Write one response through the ``http.write`` fault site."""
        delay = _wire_delay("http.write")
        if delay is None:
            # Injected write drop: the job may well be admitted but the
            # 202 vanishes -- exactly the case idempotency keys exist
            # for (the client's retry finds the original id).
            self._record("write_dropped")
            raise _ConnectionAbort()
        if delay > 0:
            await asyncio.sleep(delay)
        data = self._encode(
            status, doc, retry_after=retry_after, content_type=content_type
        )
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionError, OSError):
            self._record("disconnects")
            raise _ConnectionAbort()

    async def _try_respond(self, writer, status, doc, *, retry_after=None):
        """Best-effort response on an error path (peer may be gone)."""
        try:
            await self._respond(writer, status, doc, retry_after=retry_after)
        except _ConnectionAbort:
            pass

    @staticmethod
    def _close(writer) -> None:
        try:
            writer.close()
        except Exception:
            pass


async def serve_front_door(
    front: HttpFrontDoor,
    *,
    on_ready: "Callable[[HttpFrontDoor], None] | None" = None,
) -> None:
    """Start ``front``, run until :meth:`request_shutdown`, then drain."""
    await front.start()
    if on_ready is not None:
        on_ready(front)
    try:
        await front.wait_shutdown()
    finally:
        await front.drain()
