"""The asyncio planning service: HTTP front, coalescing, tiered caches.

A long-running process that turns the planner's amortization machinery
(structure-keyed caches, budget-independent aux entries, persistent
worker pools) into sustained request throughput, the way serving
systems batch and share state across concurrent queries:

* **HTTP over asyncio streams** — a deliberately minimal HTTP/1.1
  implementation on :func:`asyncio.start_server` (keep-alive,
  ``Content-Length`` bodies, JSON in/out).  Zero dependencies beyond
  the stdlib; the route table is data (:data:`ROUTES`), introspected by
  ``tools/check_docs_links.py`` so the documented endpoints cannot
  drift from the served ones.

* **Request coalescing** — concurrent requests that normalize to the
  same digest share one in-flight computation future: the first caller
  leads (cache probe + pool submission), every other awaiter rides the
  same :class:`asyncio.Task` and receives the identical result object.
  Duplicate bursts — the signature load of "millions of users" hitting
  a handful of popular configurations — cost one plan instead of N.

* **Tiered caches** — lookups go LRU → disk → compute: a bounded
  in-process :class:`~repro.lru.LRU` of finished results, keyed by
  digest, in front of the disk-backed (and entry-bounded)
  :class:`~repro.planner.cache.PlanCache`, in front of the worker
  pool.  Hit/miss/coalesce counters for every tier are exported on
  ``GET /stats``.

* **Process-pool execution** — CPU-bound planning runs on the
  persistent pools of :mod:`repro.planner.sweep`
  (:func:`~repro.planner.sweep.get_pool`), so per-worker structural
  caches stay warm across requests exactly as they do across sweep
  chunks.  A broken pool degrades the service to threads (logged and
  visible in ``/stats``) instead of failing requests; shutdown joins
  the workers and reports leaks through the exit code.

* **Guards** — the guards of :mod:`repro.service.resilience`: a
  per-endpoint in-flight budget sheds compute-tier work with 429 and a
  measured ``Retry-After`` (the pool itself queues without bound), and
  the circuit breaker supervises the pool.  A body's ``deadline_ms``
  bounds the client's wait with a 504 while its computation still
  lands in the caches.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import math
import signal
import sys
import threading
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field

from repro import faultinject
from repro.api import API_VERSION
from repro.lru import LRU
from repro.planner.cache import PlanCache
from repro.planner.planner import NoFeasibleSchedule
from repro.planner.sweep import (
    discard_pool,
    get_pool,
    respawn_pool,
    shutdown_pools,
)
from repro.service.requests import OPERATIONS, RequestError, pop_deadline
from repro.service.resilience import AdmissionController, CircuitBreaker, Shed

logger = logging.getLogger(__name__)

#: Largest accepted request body; planning queries are a few hundred
#: bytes, so anything bigger is a client bug (HTTP 413).
MAX_BODY_BYTES = 1 << 20
#: Budget for one full request to arrive (idle keep-alive wait +
#: request line + headers + body); stalled or idle connections are
#: closed when it expires.
KEEPALIVE_TIMEOUT_S = 75.0


class PayloadTooLarge(RequestError):
    """A request body over :data:`MAX_BODY_BYTES` (HTTP 413, not 400)."""


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class Route:
    """One served endpoint (also the docs-validation ground truth)."""

    method: str
    path: str
    description: str


#: The service's full route table, in documentation order; the
#: ``POST /v1/*`` routes are the operation table's.  ``tools/
#: check_docs_links.py`` verifies ``docs/service.md`` against this.
ROUTES: tuple[Route, ...] = (
    Route("GET", "/healthz", "liveness/readiness probe"),
    Route("GET", "/stats", "cache, coalescing and executor counters"),
    *(
        Route("POST", path, operation.description)
        for path, operation in OPERATIONS.items()
    ),
    Route("POST", "/shutdown", "graceful shutdown (drains in-flight work)"),
)
#: ``(method, path)`` of every route, and every served path: the
#: dispatcher's 404/405 lookups.
_ROUTE_KEYS = frozenset((route.method, route.path) for route in ROUTES)
_ROUTE_PATHS = frozenset(route.path for route in ROUTES)


def envelope(result, *, digest: str, cache: str, started: float) -> dict:
    """The uniform ``/v1/*`` success body.

    Every planning endpoint answers ``{"api_version", "result",
    "meta"}``: the result object under ``result``, provenance under
    ``meta`` (``digest`` — the request's normalized cache key,
    ``cache`` — which tier answered, ``timings`` — wall-clock serving
    time).  ``meta.timings`` varies per request; response-identity
    checks must compare ``meta.digest`` + ``result``, never raw bytes.
    """
    return {
        "api_version": API_VERSION,
        "result": result,
        "meta": {
            "digest": digest,
            "cache": cache,
            "timings": {
                "total_ms": round((time.monotonic() - started) * 1e3, 3)
            },
        },
    }


def error_body(code: str, message: str, hint: str | None = None,
               **extra) -> dict:
    """The uniform error body: ``{"api_version", "error": {...}}``.

    ``code`` is a stable machine-readable slug, ``message`` the human
    diagnosis, ``hint`` what the client should do about it.  Extra
    fields (``retry_after_s``, ``allowed``, ``routes``) ride inside the
    error object.
    """
    return {
        "api_version": API_VERSION,
        "error": {"code": code, "message": message, "hint": hint, **extra},
    }


@dataclass
class ServiceStats:
    """Mutable counters behind ``GET /stats``."""

    requests: dict[str, int] = field(default_factory=dict)
    errors: int = 0
    computed: int = 0
    coalesced: int = 0
    disk_hits: int = 0
    #: Requests refused by admission control (429).
    shed: int = 0
    #: Requests whose ``deadline_ms`` expired (504); the underlying
    #: computation keeps running and lands in the caches.
    deadline_timeouts: int = 0
    #: Connections deliberately reset mid-response by the
    #: ``drop-connection-mid-response`` fault site.
    dropped_connections: int = 0

    def count(self, endpoint: str) -> None:
        self.requests[endpoint] = self.requests.get(endpoint, 0) + 1


class PlanningService:
    """The asyncio planning service (``repro-experiments serve``).

    One instance owns the LRU tier, the optional disk tier, the
    in-flight coalescing map and a handle to the shared worker pools.
    Run it with :meth:`run` (blocking, installs signal handlers — the
    CLI path) or inside an existing loop via :meth:`serve_async`
    (tests, :class:`ServiceThread`).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8181,
        executor: str = "process",
        max_workers: int | None = None,
        cache_dir: str | None = None,
        lru_size: int = 256,
        breaker_backoff_s: float = 0.5,
        faults: str | None = None,
    ):
        if executor not in ("process", "thread"):
            raise ValueError(
                f"executor must be 'process' or 'thread', got {executor!r}"
            )
        self.host = host
        self.port = port
        self.executor = executor
        self.max_workers = max_workers
        self.cache_dir = cache_dir
        self.lru = LRU(lru_size)
        self.disk = PlanCache(cache_dir) if cache_dir is not None else None
        self.stats = ServiceStats()
        self.admission = AdmissionController()
        self.breaker = CircuitBreaker(backoff_s=breaker_backoff_s)
        if faults:
            faultinject.install(faults)
        else:
            # Resolve REPRO_FAULTS eagerly: a typo'd spec must refuse
            # to start the service, not surface as a 500 on the first
            # request that happens to hit an armed code path.
            faultinject.get_injector()
        self.degraded: str | None = None
        self.started_at: float | None = None
        self._inflight: dict[str, asyncio.Task] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._clients: set[asyncio.Task] = set()
        #: Connections waiting for their next request: shutdown closes
        #: these at once instead of draining them.
        self._idle: set[asyncio.StreamWriter] = set()

    # -- tiered lookup + coalescing -------------------------------------

    async def _resolve(self, key: str, compute, *, disk: bool, klass: str):
        """One result through the tiers: LRU → coalesce → admit → pool.

        ``compute`` is a zero-argument callable (already bound to its
        request) executed on the worker pool on a full miss.  Returns
        ``(tier, value)`` where ``tier`` names where the value came
        from; followers of an in-flight computation report
        ``"coalesced"`` regardless of the tier the leader lands on.

        Admission control is charged *here*, after the LRU probe and
        the coalesce check and only for would-be leaders — the service
        sheds work, not lookups: cache hits and riders on someone
        else's computation always go through, even at full budget.
        The budget unit is released when the leader finishes, whether
        or not the client that started it is still waiting.
        """
        value = self.lru.get(key)
        if value is not None:
            return "lru", value
        task = self._inflight.get(key)
        if task is not None:
            self.stats.coalesced += 1
            _tier, value = await asyncio.shield(task)
            return "coalesced", value
        self.admission.admit(klass)  # raises Shed → HTTP 429
        task = asyncio.ensure_future(self._lead(key, compute, disk))
        task.add_done_callback(lambda _t: self.admission.release(klass))
        self._inflight[key] = task
        task.add_done_callback(functools.partial(self._retire, key))
        # Shield the leader too: one cancelled client (connection reset,
        # deadline expiry) must not kill a computation other awaiters
        # are riding — a timed-out leader never poisons the group.
        return await asyncio.shield(task)

    def _retire(self, key: str, task: asyncio.Task) -> None:
        self._inflight.pop(key, None)
        if not task.cancelled():
            task.exception()  # mark retrieved; awaiters re-raise their own

    async def _lead(self, key: str, compute, disk: bool):
        """The leader's path: probe the disk tier, else compute."""
        if disk and self.disk is not None:
            value = await asyncio.to_thread(self.disk.get, key)
            if value is not None:
                self.stats.disk_hits += 1
                self.lru.put(key, value)
                return "disk", value
        self.stats.computed += 1
        value = await self._run_on_pool(compute)
        self.lru.put(key, value)
        return "computed", value

    async def _run_on_pool(self, compute):
        """Run one CPU-bound computation on the configured executor.

        The process pool sits behind :class:`CircuitBreaker`: a pool
        that breaks mid-request (a worker OOM-killed, a restricted
        sandbox, the ``kill-pool-worker`` fault site) trips the breaker
        and the request — like every request while the breaker is open
        — runs on the thread fallback instead of failing.  Once the
        breaker's backoff expires, one request probes a freshly
        respawned pool (:func:`~repro.planner.sweep.respawn_pool`); a
        successful probe closes the breaker and restores process
        execution, so a transient crash no longer degrades the service
        for its whole lifetime.
        """
        loop = asyncio.get_running_loop()
        injector = faultinject.get_injector()
        slow = injector.fault("slow-worker")
        if slow is not None and injector.should_fire("slow-worker"):
            await asyncio.sleep(slow.delay_ms / 1000.0)
        if self.executor == "process":
            was_open = self.breaker.state == CircuitBreaker.OPEN
            if self.breaker.allow():
                # ``allow`` flipping open → half-open makes this request
                # the resurrection probe: never reuse the cached (still
                # broken) pool object for it.
                pool = (
                    respawn_pool("process", self.max_workers)
                    if was_open
                    else get_pool("process", self.max_workers)
                )
                if pool is None:
                    self._pool_failed(
                        "process pool unavailable in this environment"
                    )
                else:
                    try:
                        if injector.should_fire("kill-pool-worker"):
                            # Deliberately crash one worker; the broken
                            # pool surfaces as BrokenExecutor below and
                            # the real computation retries on threads.
                            await loop.run_in_executor(
                                pool, faultinject._exit_now
                            )
                        result = await loop.run_in_executor(pool, compute)
                    except BrokenExecutor as exc:
                        self._pool_failed(
                            f"process pool failed "
                            f"({type(exc).__name__}: {exc})"
                        )
                        discard_pool("process", self.max_workers)
                    else:
                        self._pool_recovered()
                        return result
        return await asyncio.to_thread(compute)

    def _pool_failed(self, reason: str) -> None:
        """Trip the breaker and record the degradation for operators."""
        self.breaker.record_failure(reason)
        self.degraded = (
            f"{reason}; serving from threads until the breaker closes"
        )
        logger.warning("service degraded: %s", self.degraded)

    def _pool_recovered(self) -> None:
        """A pool run succeeded: close the breaker if it was probing."""
        if self.breaker.state != CircuitBreaker.CLOSED:
            logger.warning(
                "service recovered: process pool restored after %d "
                "attempt(s)", self.breaker.counters.recovery_attempts,
            )
        self.breaker.record_success()
        self.degraded = None

    # -- endpoint handlers ----------------------------------------------

    async def _post(self, path: str, payload) -> dict:
        """One ``POST /v1/*`` body, through the operation ``path`` names:
        validate, digest, resolve through the tiers, wrap the result."""
        started = time.monotonic()
        operation = OPERATIONS[path]
        request = operation.request.from_payload(payload)
        key = request.digest()
        tier, result = await self._resolve(
            key,
            functools.partial(operation.execute, request, self.cache_dir),
            disk=operation.disk,
            klass=path,
        )
        if operation.render is not None:
            result = operation.render(result)
        return envelope(result, digest=key, cache=tier, started=started)

    def _healthz_payload(self) -> dict:
        return {
            "status": "degraded" if self.degraded else "ok",
            "uptime_s": (
                0.0 if self.started_at is None
                else time.monotonic() - self.started_at
            ),
            "executor": "thread" if self.degraded else self.executor,
            "degraded": self.degraded,
            "breaker": self.breaker.state,
        }

    def stats_payload(self) -> dict:
        """The ``GET /stats`` body (public for tests and tools)."""
        disk = {"enabled": self.disk is not None}
        if self.disk is not None:
            disk.update(
                {
                    "hits": self.disk.hits,
                    "misses": self.disk.misses,
                    "entries": len(self.disk),
                    "max_entries": self.disk.max_entries,
                    "evictions": self.disk.evictions,
                    "quarantined": self.disk.quarantined,
                    "directory": str(self.disk.directory),
                }
            )
        return {
            "uptime_s": (
                0.0 if self.started_at is None
                else time.monotonic() - self.started_at
            ),
            "requests": dict(sorted(self.stats.requests.items())),
            "errors": self.stats.errors,
            "computed": self.stats.computed,
            "coalesced": self.stats.coalesced,
            "disk_tier_hits": self.stats.disk_hits,
            "inflight": len(self._inflight),
            "lru": self.lru.stats(),
            "disk": disk,
            "executor": {
                "kind": "thread" if self.degraded else self.executor,
                "max_workers": self.max_workers,
                "degraded": self.degraded,
            },
            "resilience": {
                "shed": self.stats.shed,
                "deadline_timeouts": self.stats.deadline_timeouts,
                "dropped_connections": self.stats.dropped_connections,
                "admission": self.admission.snapshot(),
                "breaker": self.breaker.snapshot(),
                "faults": faultinject.get_injector().snapshot(),
            },
        }

    # -- HTTP plumbing ---------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes):
        """Route one parsed request → (status, payload, extra_headers).

        Planning endpoints run under the request's ``deadline_ms``, if
        it carries one: expiry cancels *this client's wait* and
        answers 504 — the shielded leader computation keeps running and
        lands in the caches, so a timed-out client retrying later hits
        the LRU, and coalesced riders with laxer deadlines are never
        poisoned.  Admission refusals surface as 429 with a
        ``Retry-After`` header.
        """
        path = path.split("?", 1)[0]
        if (method, path) not in _ROUTE_KEYS:
            if path in _ROUTE_PATHS:
                allowed = [r.method for r in ROUTES if r.path == path]
                return 405, error_body(
                    "method_not_allowed",
                    f"{method} not allowed on {path}",
                    hint=f"use {' or '.join(allowed)}",
                    allowed=allowed,
                ), {}
            return 404, error_body(
                "not_found",
                f"no route for {path}",
                hint="see the error's 'routes' list for served endpoints",
                routes=[
                    {"method": r.method, "path": r.path} for r in ROUTES
                ],
            ), {}
        self.stats.count(path)
        if path == "/healthz":
            return 200, self._healthz_payload(), {}
        if path == "/stats":
            return 200, self.stats_payload(), {}
        if path == "/shutdown":
            # Respond first, then let the loop see the event: the
            # handler returns, the response drains, the callback fires.
            asyncio.get_running_loop().call_soon(self.request_shutdown)
            return 200, {"status": "shutting-down"}, {}
        if self._shutdown_event is not None and self._shutdown_event.is_set():
            # Draining: in-flight work completes, new work is refused.
            return 503, error_body(
                "shutting_down",
                "service is shutting down",
                hint="retry after the service restarts",
            ), {"Retry-After": "1"}
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self.stats.errors += 1
            return 400, error_body(
                "bad_request",
                f"request body is not valid JSON: {error}",
                hint="send a JSON object with the endpoint's fields",
            ), {}
        try:
            deadline_s = pop_deadline(payload)
            work = self._post(path, payload)
            if deadline_s is not None:
                result = await asyncio.wait_for(work, deadline_s)
            else:
                result = await work
            return 200, result, {}
        except Shed as shed:
            self.stats.shed += 1
            retry_after = max(1, math.ceil(shed.retry_after_s))
            return 429, error_body(
                "rate_limited",
                shed.reason,
                hint="retry after retry_after_s seconds",
                retry_after_s=shed.retry_after_s,
            ), {"Retry-After": str(retry_after)}
        except asyncio.TimeoutError:
            self.stats.deadline_timeouts += 1
            return 504, error_body(
                "deadline_exceeded",
                f"deadline of {deadline_s * 1000:g} ms exceeded",
                hint="the computation continues and will be served from "
                "cache; retry with a laxer deadline_ms",
            ), {}
        except RequestError as error:
            self.stats.errors += 1
            return 400, error_body(
                "bad_request", str(error),
                hint="fix the request body and resend",
            ), {}
        except NoFeasibleSchedule as error:
            self.stats.errors += 1
            return 422, error_body(
                "no_feasible_schedule", str(error),
                hint="raise memory_budget_gib or allow more methods; "
                "/v1/plan lists the same rejections",
                rejected=[
                    {"method": method, "reason": reason}
                    for method, reason in error.rejected
                ],
            ), {}
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - the service must not die
            self.stats.errors += 1
            logger.exception("unhandled error serving %s %s", method, path)
            return 500, error_body(
                "internal", f"{type(error).__name__}: {error}",
                hint="inspect the service log for the traceback",
            ), {}

    @staticmethod
    def _render(
        status: int, payload: dict, *, close: bool,
        extra: dict[str, str] | None = None,
    ) -> bytes:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        return "\r\n".join(lines).encode("ascii") + b"\r\n\r\n" + body

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        """Parse one HTTP/1.1 request → (method, path, body, close) or None.

        The *whole* read — request line, headers and body — runs under
        one ``KEEPALIVE_TIMEOUT_S`` budget (enforced by the caller's
        ``wait_for``), so an idle keep-alive connection and a stalled
        mid-request client (slowloris, short body) both get reclaimed
        instead of leaking a connection task forever.  The connection
        stops counting as idle once its request line has arrived, so
        shutdown drains the rest of the request instead of closing it.
        """
        request_line = await reader.readline()
        self._idle.discard(writer)
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise RequestError(f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
            if len(headers) > 100:
                raise RequestError("too many headers")
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise RequestError(
                f"invalid Content-Length {raw_length!r}"
            ) from None
        if length > MAX_BODY_BYTES:
            raise PayloadTooLarge(
                f"request body of {length} bytes is too large"
            )
        body = await reader.readexactly(length) if length > 0 else b""
        close = headers.get("connection", "").lower() == "close"
        return method.upper(), path, body, close

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
            task.add_done_callback(self._clients.discard)
        try:
            while not self._shutdown_event.is_set():
                self._idle.add(writer)
                try:
                    parsed = await asyncio.wait_for(
                        self._read_request(reader, writer),
                        KEEPALIVE_TIMEOUT_S,
                    )
                except RequestError as error:
                    if isinstance(error, PayloadTooLarge):
                        status, code = 413, "payload_too_large"
                        hint = f"send at most {MAX_BODY_BYTES} bytes"
                    else:
                        status, code = 400, "bad_request"
                        hint = "send a well-formed HTTP/1.1 request"
                    writer.write(
                        self._render(
                            status,
                            error_body(code, str(error), hint=hint),
                            close=True,
                        )
                    )
                    await writer.drain()
                    break
                except (
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break
                finally:
                    self._idle.discard(writer)
                if parsed is None:
                    break
                method, path, body, client_close = parsed
                status, payload, extra = await self._dispatch(
                    method, path, body
                )
                shutting_down = (
                    self._shutdown_event.is_set()
                    or path.split("?", 1)[0] == "/shutdown"
                )
                close = client_close or shutting_down
                data = self._render(
                    status, payload, close=close, extra=extra
                )
                if (
                    status == 200
                    and path.split("?", 1)[0].startswith("/v1/")
                    and faultinject.should_fire(
                        "drop-connection-mid-response"
                    )
                ):
                    # Write half the bytes, then reset the connection:
                    # the client observes a torn response and must
                    # retry (the result is cached, so the retry is
                    # cheap and bit-identical).
                    self.stats.dropped_connections += 1
                    writer.write(data[: max(1, len(data) // 2)])
                    await writer.drain()
                    writer.transport.abort()
                    break
                writer.write(data)
                await writer.drain()
                if close:
                    break
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- lifecycle --------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (threadsafe; idempotent)."""
        loop, event = self._loop, self._shutdown_event
        if loop is None or event is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass  # loop closed between the check and the call

    async def serve_async(self, ready=None) -> None:
        """Serve until shutdown is requested; drains in-flight work.

        ``ready`` (if given) is called with the service once the socket
        is bound — ``self.port`` then holds the real port (useful with
        ``port=0``).
        """
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        try:
            if ready is not None:
                ready(self)
            await self._shutdown_event.wait()
        finally:
            # Stop accepting, then yield once so handlers whose request
            # line has already arrived leave the idle set.  Close the
            # connections still idling between requests (their readers
            # see EOF), then drain: first the computations clients are
            # awaiting, then the connections with a request in progress.
            # Only then wait for the server: from Python 3.12.1 on,
            # ``wait_closed`` waits for every connection, idle or not.
            server.close()
            await asyncio.sleep(0)
            for writer in list(self._idle):
                writer.close()
            pending = list(self._inflight.values()) + list(self._clients)
            if pending:
                done, not_done = await asyncio.wait(pending, timeout=30.0)
                for task in not_done:
                    task.cancel()
                if not_done:
                    await asyncio.wait(not_done, timeout=5.0)
            try:
                await asyncio.wait_for(server.wait_closed(), 5.0)
            except asyncio.TimeoutError:
                pass  # e.g. a peer that stopped reading: exit anyway

    def run(self, ready=None) -> int:
        """Blocking entry point for the CLI: serve, then clean up.

        Installs SIGINT/SIGTERM handlers for graceful shutdown and
        returns the process exit code: ``0`` on a clean exit, ``1``
        when worker processes were left alive after the pools were
        shut down (a leak a supervisor must know about).
        """

        async def _main() -> None:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # platform without signal support in loops
            await self.serve_async(ready=ready)

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:  # pragma: no cover - signal-handler gap
            pass
        return shutdown_and_check_workers()


def shutdown_and_check_workers(join_timeout_s: float = 5.0) -> int:
    """Shut the persistent pools down and verify no worker leaked.

    Returns the exit code the ``serve`` subcommand reports: ``1`` when
    any pool worker process is still alive after the join timeout —
    the condition CI's service-smoke job exists to catch.  A worker
    still busy with a long computation counts as leaked, and is
    reported within the timeout instead of being waited for.
    """
    import multiprocessing

    deadline = time.monotonic() + join_timeout_s
    for reaper in shutdown_pools():
        reaper.join(timeout=max(0.0, deadline - time.monotonic()))
    leaked = []
    for process in multiprocessing.active_children():
        process.join(timeout=max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            leaked.append(process)
    if leaked:
        print(
            f"error: {len(leaked)} worker process(es) still alive after "
            "shutdown: " + ", ".join(str(p.pid) for p in leaked),
            file=sys.stderr,
        )
        return 1
    return 0


class ServiceThread:
    """Run a :class:`PlanningService` on a background thread.

    The harness tests, benchmarks and the load generator use this to
    get a live server in-process::

        service = PlanningService(port=0, executor="thread")
        with ServiceThread(service) as live:
            url = f"http://{live.host}:{live.port}"

    Exiting the context requests graceful shutdown and joins the
    thread.  The shared worker pools are *not* torn down here (they
    persist across sweeps and services by design); call
    :func:`shutdown_and_check_workers` for a full teardown.
    """

    def __init__(self, service: PlanningService):
        self.service = service
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None

    def __enter__(self) -> PlanningService:
        def runner() -> None:
            try:
                asyncio.run(
                    self.service.serve_async(ready=lambda _s: self._ready.set())
                )
            except BaseException as error:  # noqa: BLE001 - surfaced below
                self._error = error
            finally:
                self._ready.set()

        self._thread = threading.Thread(
            target=runner, name="planning-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("planning service did not start within 30s")
        if self._error is not None:
            raise RuntimeError("planning service failed to start") from self._error
        return self.service

    def __exit__(self, *_exc) -> None:
        self.service.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        if self._error is not None:
            raise RuntimeError("planning service crashed") from self._error
