"""The network serving tier: SpotLight on the wire.

:class:`SpotLightServer` puts a :class:`~repro.core.frontend.QueryFrontend`
behind a stdlib-only ``asyncio`` HTTP/1.1 endpoint:

* ``POST /query`` — the frontend's dict request/response schema as
  JSON (``{"query": <name>, "params": {...}}``);
* ``POST /batch`` — up to :data:`MAX_BATCH_QUERIES` queries in one
  request (``{"queries": [...]}``), answered in one response whose
  per-query results are byte-identical to the equivalent sequence of
  single ``/query`` calls;
* ``GET /healthz`` — liveness (never rate-limited);
* ``GET /stats`` — serving counters, per-endpoint latency histograms,
  and the frontend's cache statistics;
* ``GET /watch`` — when the server follows a recorder (see
  :mod:`repro.replication`), a chunked-JSON change feed of replication
  events (price spikes, revocations, availability transitions) with
  periodic heartbeats and a resumable ``since_seq`` cursor.

It is shaped for real traffic, not demos:

* **keep-alive** connection handling with per-request read timeouts,
  a request body size cap, and graceful shutdown (the listener stops,
  in-flight requests drain, idle connections are closed);
* **single-flight coalescing** — identical in-flight ``/query``
  requests (canonicalized by :meth:`QueryFrontend.request_key`) share
  one engine computation.  The frontend's TTL cache only dedupes
  *completed* results; under a thundering herd of identical cold
  queries the coalescing map is what keeps the engine from computing
  the same answer K times.  Batch sub-queries go through the same
  map, so K identical sub-queries in one batch cost one engine call;
* a **zero-re-serialization hot path**: queries are answered from the
  frontend's wire byte cache (:meth:`QueryFrontend.handle_wire`), so a
  cache hit is a dict lookup plus one ``writer.write`` of preassembled
  header and body bytes — no ``json.dumps`` per hit, and no
  thread-pool round-trip (the loop takes the frontend lock
  opportunistically and falls back to the executor only on a miss);
* **conditional requests**: every OK ``/query`` response carries a
  strong ``ETag``; a request whose ``If-None-Match`` matches is
  answered ``304 Not Modified`` with no body (counted in
  ``not_modified``).  Tags are content-hashed with an invalidation
  generation, so repeat pollers keep getting 304s across TTL
  refreshes but never across :meth:`QueryFrontend.invalidate`;
* **token-bucket admission control** per client host (the same bucket
  idiom the simulated EC2 substrate uses for API rate limits),
  answering ``429`` with a ``Retry-After`` hint when a client
  overruns its budget — a batch of N queries consumes N tokens;
* engine work runs on a worker thread (the event loop never blocks on
  a cold query), serialized by a lock because the frontend's cache is
  not thread-safe — coalescing and the TTL cache keep that serialization
  cheap.

:class:`BackgroundServer` runs the same server on a daemon thread with
its own event loop, for blocking callers (tests, benchmarks, examples).
One server is one event loop — one core; :mod:`repro.server_pool`
pre-forks several of them onto a shared ``SO_REUSEPORT`` address when
throughput should scale across cores.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Callable
from urllib.parse import parse_qs

from repro.core.frontend import (
    STACKABLE_QUERIES,
    STACKED_BATCH_MIN,
    QueryFrontend,
    QueryRequest,
    WireResponse,
    assemble_batch_body,
    wire_encode,
)
from repro.ec2.limits import TokenBucket

#: Admission-control defaults: generous enough that a well-behaved
#: client never sees them, small enough that one host cannot starve
#: the rest of the fleet.
DEFAULT_RATE_PER_SECOND = 500.0
DEFAULT_BURST = 1000.0

DEFAULT_MAX_REQUEST_BYTES = 1 << 20
DEFAULT_REQUEST_TIMEOUT = 30.0
DEFAULT_SHUTDOWN_GRACE = 5.0

#: Overall budget for reading ONE request (request line + headers +
#: body) once its first byte has arrived.  ``request_timeout`` bounds
#: how long an idle keep-alive connection may sit quiet between
#: requests; this bounds how long a peer may *dribble* — a slow-loris
#: client that trickles one header byte per second resets a per-read
#: timeout forever but cannot outrun a deadline.
DEFAULT_READ_DEADLINE = 10.0

#: Header-section guards (the body has ``max_request_bytes``; without
#: these a peer could stream headers forever).
MAX_HEADER_LINES = 100

#: Idle per-client admission buckets are swept once the map passes this
#: size, so a parade of one-shot client IPs cannot grow memory forever.
MAX_CLIENT_BUCKETS = 4096

#: Upper bound on queries per ``/batch`` request.  Combined with the
#: body-size cap this bounds the work one request can pin; a batch of N
#: also consumes N admission tokens, so batching cannot outrun the
#: per-client rate limit.
MAX_BATCH_QUERIES = 256

#: Latency histogram bucket upper bounds, in seconds (the last bucket
#: is open-ended).  Spans 100 µs cache hits to multi-second cold scans.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_REASONS = {
    200: "OK", 304: "Not Modified", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Preassembled response heads, one per (status, keep_alive): every
#: header byte that does not vary per response is baked at import, so
#: writing a response is head + content-length digits + extra header
#: lines + blank line + body — no per-request string formatting.
_RESPONSE_HEADS = {
    (status, keep_alive): (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"Content-Length: "
    ).encode("latin-1")
    for status, reason in _REASONS.items()
    for keep_alive in (True, False)
}

#: Content-Length values for every body size a cached answer plausibly
#: has, formatted once at import.
_CONTENT_LENGTHS = tuple(b"%d" % n for n in range(8192))


def _content_length(n: int) -> bytes:
    return _CONTENT_LENGTHS[n] if n < 8192 else b"%d" % n


#: The cluster counter schema — single source of truth shared by
#: :meth:`SpotLightServer._board_counters`, the multi-worker stats
#: board (``repro.server_pool.StatsBoard``), and the client SDK's
#: single-process ``cluster_stats`` fallback.
CLUSTER_COUNTER_FIELDS = (
    "requests", "queries", "errors", "coalesced", "throttled",
    "slow_shed", "cache_hits", "cache_misses", "connections",
    "batch_queries", "not_modified", "wire_generation", "replica_lag",
)

#: The subset of :data:`CLUSTER_COUNTER_FIELDS` that are gauges
#: (point-in-time readings), not monotone counters: cluster aggregation
#: takes their max across worker rows instead of summing.
CLUSTER_GAUGE_FIELDS = frozenset({"wire_generation", "replica_lag"})


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimation."""

    def __init__(self) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.bucket_counts = [0] * (len(LATENCY_BUCKETS) + 1)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        self.bucket_counts[bisect.bisect_left(LATENCY_BUCKETS, seconds)] += 1

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile sample (the
        last finite bound for the open-ended overflow bucket)."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank:
                return LATENCY_BUCKETS[min(index, len(LATENCY_BUCKETS) - 1)]
        return LATENCY_BUCKETS[-1]

    def snapshot(self) -> dict[str, object]:
        return {
            "count": self.count,
            "total_seconds": round(self.total_seconds, 6),
            "mean_seconds": (
                round(self.total_seconds / self.count, 6) if self.count else 0.0
            ),
            "p50_seconds": self.quantile(0.50),
            "p99_seconds": self.quantile(0.99),
            "buckets": {
                **{
                    f"le_{bound:g}": self.bucket_counts[i]
                    for i, bound in enumerate(LATENCY_BUCKETS)
                },
                "inf": self.bucket_counts[-1],
            },
        }


class _EndpointStats:
    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.latency = LatencyHistogram()

    def snapshot(self) -> dict[str, object]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "latency": self.latency.snapshot(),
        }


class _HttpError(Exception):
    """An HTTP-level failure (malformed framing, oversized body, ...)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _IdleTimeout(Exception):
    """A keep-alive connection idled past the request timeout."""


class SpotLightServer:
    """An asyncio HTTP/1.1 JSON endpoint over a query frontend."""

    def __init__(
        self,
        frontend: QueryFrontend,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_per_second: float = DEFAULT_RATE_PER_SECOND,
        burst: float = DEFAULT_BURST,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        read_deadline: float = DEFAULT_READ_DEADLINE,
        shutdown_grace: float = DEFAULT_SHUTDOWN_GRACE,
        clock: Callable[[], float] = time.monotonic,
        reuse_port: bool = False,
        worker_id: int = 0,
        stats_board: "object | None" = None,
        replica: "object | None" = None,
        frontend_lock: "threading.Lock | None" = None,
        startup: "dict[str, float] | None" = None,
    ) -> None:
        self.frontend = frontend
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        self.worker_id = worker_id
        # A cross-process counter board (see repro.server_pool): each
        # pre-forked worker publishes its row after every request, and
        # /stats folds the rows into a cluster-wide aggregate.
        self._stats_board = stats_board
        self.rate_per_second = rate_per_second
        self.burst = burst
        self.max_request_bytes = max_request_bytes
        self.request_timeout = request_timeout
        self.read_deadline = read_deadline
        self.shutdown_grace = shutdown_grace
        self._clock = clock
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._inflight: dict[str, asyncio.Future] = {}
        self._buckets: dict[str, TokenBucket] = {}
        # A ReplicaTailer (repro.replication) when this server follows
        # a recorder's directory: source of the /watch change feed, the
        # replica-lag gauge, and the "replica-stale" health detail.
        self.replica = replica
        # Seconds each start-up stage took before this server was built
        # (snapshot verify/load, prime, replica seed), for /stats.
        self.startup = startup
        # The frontend mutates its cache with no locking; one worker
        # lock serializes engine calls across connections.  A follower
        # passes its tailer's lock here so replicated inserts and
        # engine reads serialize on the same mutex.
        self._frontend_lock = (
            frontend_lock if frontend_lock is not None else threading.Lock()
        )
        self._executor = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="spotlight-query"
        )
        self._closing = False
        self._started_at = 0.0
        self.connections_accepted = 0
        self.coalesced = 0
        self.throttled = 0
        self.slow_shed = 0
        self.batch_queries = 0
        self.not_modified = 0
        self.watch_connections = 0
        self.watch_events = 0
        # Pre-encoded header lines appended to every response (e.g. a
        # router's X-Shard-Epoch); empty for a plain server.
        self._extra_headers: bytes = b""
        self._endpoints: dict[str, _EndpointStats] = {
            "/query": _EndpointStats(),
            "/batch": _EndpointStats(),
            "/healthz": _EndpointStats(),
            "/stats": _EndpointStats(),
        }

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (resolves ``port=0``).

        With ``reuse_port`` the listener joins an ``SO_REUSEPORT``
        group: several worker processes bind the same address and the
        kernel spreads incoming connections across them.
        """
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port,
            reuse_port=self.reuse_port or None,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = self._clock()

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight requests
        for up to ``shutdown_grace`` seconds, then close stragglers."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {task for task in self._connections if not task.done()}
        if pending:
            _, pending = await asyncio.wait(pending, timeout=self.shutdown_grace)
        for task in pending:  # idle keep-alive readers, hung peers
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # -- connection handling ------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client_host = peer[0] if isinstance(peer, tuple) else "unknown"
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader)
                except _IdleTimeout:
                    break  # quiet peer between requests: just close
                except asyncio.TimeoutError:
                    # Stalled or dribbling mid-request (slow-loris):
                    # shed the connection rather than hold it open.
                    self.slow_shed += 1
                    await self._write_response(
                        writer, 408,
                        wire_encode(
                            _error_body("timeout", "request read timed out")
                        ),
                        keep_alive=False,
                    )
                    break
                except _HttpError as exc:
                    await self._write_response(
                        writer, exc.status,
                        wire_encode(_error_body("http-error", exc.message)),
                        keep_alive=False,
                    )
                    # Lingering close: swallow what the peer already
                    # sent so closing on unread input doesn't RST the
                    # error response out from under them.
                    with contextlib.suppress(Exception):
                        await asyncio.wait_for(
                            reader.read(self.max_request_bytes), 0.25
                        )
                    break
                if request is None:  # clean EOF between requests
                    break
                method, target, body, keep_alive, headers = request
                path, _, query = target.partition("?")
                keep_alive = keep_alive and not self._closing
                if path == "/watch":
                    # A long-lived chunked stream, not a framed
                    # request/response — it owns the connection.
                    await self._handle_watch(writer, method, query)
                    break
                status, payload, extra = await self._dispatch(
                    method, path, body, headers, client_host
                )
                await self._write_response(
                    writer, status, payload,
                    keep_alive=keep_alive, extra=extra,
                    include_body=method != "HEAD",
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes, bool, dict[str, str]] | None:
        """Read one framed request; None on clean EOF before a request.

        The wait for the request's *first byte* is the idle keep-alive
        timeout (``request_timeout``).  From that byte on, the whole
        request — line, headers, body — must arrive within
        ``read_deadline``: the rest of the read runs under ONE
        ``wait_for`` (on 3.11 every ``wait_for`` spawns a task, so the
        old per-read deadline cost several task spin-ups per request),
        and a peer dribbling one byte per read still cannot hold the
        connection past the deadline.
        """
        try:
            first = await asyncio.wait_for(
                reader.read(1), self.request_timeout
            )
        except asyncio.TimeoutError:
            raise _IdleTimeout() from None
        if not first:
            return None
        return await asyncio.wait_for(
            self._read_rest(reader, first), self.read_deadline
        )

    async def _read_rest(
        self, reader: asyncio.StreamReader, first: bytes
    ) -> tuple[str, str, bytes, bool, dict[str, str]]:
        try:
            request_line = first + await reader.readline()
        except ValueError:  # StreamReader line-length limit overrun
            raise _HttpError(431, "request line too long") from None
        try:
            method, target, version = request_line.decode("latin-1").split()
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        header_lines = 0
        while True:
            # Count lines, not dict entries: repeats of one header name
            # collapse in the dict but still arrive on the wire.
            header_lines += 1
            if header_lines > MAX_HEADER_LINES:
                raise _HttpError(431, "too many header fields")
            try:
                line = await reader.readline()
            except ValueError:
                raise _HttpError(431, "header line too long") from None
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise _HttpError(400, "truncated headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        try:
            content_length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if content_length < 0:
            raise _HttpError(400, "bad Content-Length")
        if content_length > self.max_request_bytes:
            raise _HttpError(
                413,
                f"request body of {content_length} bytes exceeds the "
                f"{self.max_request_bytes} byte limit",
            )
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        keep_alive = (
            headers.get("connection", "").lower() != "close"
            and version.upper() != "HTTP/1.0"
        )
        return method.upper(), target, body, keep_alive, headers

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        keep_alive: bool,
        extra: bytes = b"",
        include_body: bool = True,
    ) -> None:
        # A HEAD response advertises the GET body's length but must not
        # send the body itself, or the keep-alive stream desyncs.
        # ``extra`` is zero or more complete header lines (each ending
        # CRLF), pre-encoded by the dispatch path.
        writer.write(
            _RESPONSE_HEADS[(status, keep_alive)]
            + _content_length(len(body)) + b"\r\n" + extra + b"\r\n"
            + (body if include_body else b"")
        )
        await writer.drain()

    # -- routing ------------------------------------------------------------
    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: dict[str, str],
        client_host: str,
    ) -> tuple[int, bytes, bytes]:
        """Route one request; returns ``(status, body_bytes, extra)``
        where ``extra`` is pre-encoded additional header lines."""
        endpoint = self._endpoints.get(path)
        if endpoint is None:
            return (
                404,
                wire_encode(
                    _error_body("not-found", f"no such endpoint: {path}")
                ),
                b"",
            )
        started = self._clock()
        endpoint.requests += 1
        extra = b""
        try:
            if path == "/query":
                if method != "POST":
                    status, payload = 405, wire_encode(_error_body(
                        "method-not-allowed", "use POST for /query"
                    ))
                else:
                    status, payload, extra = await self._handle_query(
                        body, headers, client_host
                    )
            elif path == "/batch":
                if method != "POST":
                    status, payload = 405, wire_encode(_error_body(
                        "method-not-allowed", "use POST for /batch"
                    ))
                else:
                    status, payload, extra = await self._handle_batch(
                        body, client_host
                    )
            elif method not in ("GET", "HEAD"):
                status, payload = 405, wire_encode(_error_body(
                    "method-not-allowed", f"use GET for {path}"
                ))
            elif path == "/healthz":
                health = self._healthz()
                if asyncio.iscoroutine(health):
                    # A router's health probe fans out to its shards.
                    health = await health
                status, payload = 200, wire_encode(health)
            elif path == "/stats":
                status, payload = 200, wire_encode(self.stats())
            else:  # a subclass-registered GET endpoint (e.g. /shards)
                status, payload = self._handle_extra_get(path)
        except Exception as exc:  # last-ditch: never drop the connection
            status, payload = 500, wire_encode(_error_body(
                "internal-error", f"{type(exc).__name__}: {exc}"
            ))
        finally:
            endpoint.latency.observe(self._clock() - started)
        if status >= 400:
            endpoint.errors += 1
        if self._stats_board is not None:
            self._stats_board.publish(self.worker_id, self._board_counters())
        if self._extra_headers:
            extra = extra + self._extra_headers
        return status, payload, extra

    def _handle_extra_get(self, path: str) -> tuple[int, bytes]:
        """GET handler for endpoints a subclass added to
        ``self._endpoints`` beyond the built-in four.  The base server
        registers none, so this is unreachable until a subclass both
        registers a path and forgets to override this."""
        return 404, wire_encode(
            _error_body("not-found", f"no such endpoint: {path}")
        )

    def _healthz(self) -> dict:
        """Liveness plus — for pool workers — cluster degradation.

        A worker always answers 200 (it is, after all, alive); the
        ``status`` string escalates to ``"degraded"`` when the pool
        supervisor reports dead or budget-exhausted workers, so health
        checks see trouble even though the surviving workers answer.
        """
        health_status = "shutting-down" if self._closing else "serving"
        detail: list[str] = []
        payload: dict[str, object] = {
            "ok": True,
            "uptime_seconds": round(self._clock() - self._started_at, 3),
        }
        pool_health = getattr(self._stats_board, "health", None)
        if callable(pool_health):
            pool = pool_health()
            if pool.get("workers"):
                payload["pool"] = pool
                if not self._closing and pool["alive"] < pool["workers"]:
                    health_status = "degraded"
                    detail.append("worker-dead")
                if not self._closing and pool["failed"]:
                    health_status = "degraded"
                    detail.append("worker-failed")
        if self.replica is not None:
            try:
                replica = self.replica.health()
            except Exception as exc:
                replica = {"error": f"{type(exc).__name__}: {exc}"}
            payload["replica"] = replica
            if not self._closing and replica.get("stale"):
                health_status = "degraded"
                detail.append("replica-stale")
        payload["status"] = health_status
        # ``detail`` names *why* a degrade happened — "worker-dead" is a
        # supervision failure, "replica-stale" is replication lag — so
        # operators can tell them apart from one probe.
        payload["detail"] = detail
        return payload

    def _board_counters(self) -> dict[str, float]:
        """This worker's running totals, in stats-board schema.

        Keyed off ``CLUSTER_COUNTER_FIELDS`` so schema drift fails
        loudly (KeyError on the first request) instead of silently
        publishing zeros for a forgotten field.
        """
        values = {
            "requests": sum(e.requests for e in self._endpoints.values()),
            "queries": self._endpoints["/query"].requests,
            "errors": sum(e.errors for e in self._endpoints.values()),
            "coalesced": self.coalesced,
            "throttled": self.throttled,
            "slow_shed": self.slow_shed,
            "cache_hits": self.frontend.hits,
            "cache_misses": self.frontend.misses,
            "connections": self.connections_accepted,
            "batch_queries": self.batch_queries,
            "not_modified": self.not_modified,
            "wire_generation": self.frontend.generation,
            "replica_lag": self._replica_lag(),
        }
        return {field: values[field] for field in CLUSTER_COUNTER_FIELDS}

    def _replica_lag(self) -> int:
        """The cheap per-request lag gauge (cached watermark; /healthz
        and /stats re-read the watermark for the authoritative value)."""
        if self.replica is None:
            return 0
        try:
            return int(self.replica.health(fresh=False)["lag"])
        except Exception:
            return 0

    # -- /query: admission + single flight ----------------------------------
    def _admit(self, client_host: str, tokens: float = 1.0) -> float | None:
        """None if the request may proceed, else a retry-after hint.

        A batch consumes one token per sub-query, so the per-client
        rate limit holds regardless of how queries are framed.
        """
        bucket = self._buckets.get(client_host)
        if bucket is None:
            if len(self._buckets) >= MAX_CLIENT_BUCKETS:
                self._sweep_idle_buckets()
            bucket = TokenBucket(self._clock, self.rate_per_second, self.burst)
            self._buckets[client_host] = bucket
        if bucket.try_consume(tokens):
            return None
        return bucket.seconds_until_available(tokens)

    def _sweep_idle_buckets(self) -> None:
        """Drop buckets that have refilled to full burst (their client
        has been idle long enough to carry no admission state), then —
        if every client is somehow active — oldest-first so the map
        stays bounded even under synthetic client-address floods."""
        idle = [
            host for host, bucket in self._buckets.items()
            if bucket.available >= bucket.burst
        ]
        for host in idle:
            del self._buckets[host]
        while len(self._buckets) >= MAX_CLIENT_BUCKETS:
            del self._buckets[next(iter(self._buckets))]

    def _throttle_response(
        self, client_host: str, retry_after: float
    ) -> tuple[int, bytes, bytes]:
        self.throttled += 1
        body = wire_encode({
            "ok": False,
            "error": {
                "code": "throttled",
                "message": (
                    f"client {client_host} exceeded "
                    f"{self.rate_per_second:g} queries/s"
                ),
                "retry_after": round(retry_after, 3),
            },
        })
        return 429, body, f"Retry-After: {retry_after:.3f}\r\n".encode("latin-1")

    async def _handle_query(
        self, body: bytes, headers: dict[str, str], client_host: str
    ) -> tuple[int, bytes, bytes]:
        retry_after = self._admit(client_host)
        if retry_after is not None:
            return self._throttle_response(client_host, retry_after)
        try:
            request = json.loads(body)
        except json.JSONDecodeError as exc:
            return (
                400,
                wire_encode(
                    _error_body("bad-request", f"body is not JSON: {exc}")
                ),
                b"",
            )
        if not isinstance(request, dict):
            return (
                400,
                wire_encode(
                    _error_body("bad-request", "request must be an object")
                ),
                b"",
            )
        wire = await self._coalesced_wire(QueryRequest.from_dict(request))
        if wire.etag is None:
            return wire.status, wire.body, b""
        etag_line = b"ETag: " + wire.etag.encode("latin-1") + b"\r\n"
        if self._etag_matches(headers.get("if-none-match"), wire.etag):
            self.not_modified += 1
            return 304, b"", etag_line
        return wire.status, wire.body, etag_line

    @staticmethod
    def _etag_matches(if_none_match: str | None, etag: str) -> bool:
        if if_none_match is None:
            return False
        if if_none_match == etag or if_none_match == "*":
            return True
        return etag in (tag.strip() for tag in if_none_match.split(","))

    async def _handle_batch(
        self, body: bytes, client_host: str
    ) -> tuple[int, bytes, bytes]:
        """N queries, one request.  Each sub-query runs through the same
        wire cache and single-flight map as ``/query``, so the
        ``results`` array is byte-identical to what the equivalent
        sequence of single calls would have returned — and K identical
        sub-queries cost one engine call."""
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError as exc:
            return (
                400,
                wire_encode(
                    _error_body("bad-request", f"body is not JSON: {exc}")
                ),
                b"",
            )
        queries = parsed.get("queries") if isinstance(parsed, dict) else parsed
        if not isinstance(queries, list) or not queries:
            return (
                400,
                wire_encode(_error_body(
                    "bad-request",
                    'batch body must be {"queries": [...]} with at least '
                    "one query",
                )),
                b"",
            )
        if len(queries) > MAX_BATCH_QUERIES:
            return (
                400,
                wire_encode(_error_body(
                    "bad-request",
                    f"batch of {len(queries)} exceeds the "
                    f"{MAX_BATCH_QUERIES} query limit",
                )),
                b"",
            )
        retry_after = self._admit(client_host, tokens=float(len(queries)))
        if retry_after is not None:
            return self._throttle_response(client_host, retry_after)
        self.batch_queries += len(queries)
        results = await self._execute_batch(queries)
        return 200, assemble_batch_body([wire.body for wire in results]), b""

    async def _execute_batch(self, queries: list) -> list[WireResponse]:
        """Resolve an admitted batch to per-query responses, in order.

        Enough distinct cold stackable point queries are answered by
        one stacked kernel pass (:meth:`QueryFrontend.stacked_wire`);
        everything else is dispatched concurrently, and duplicates
        coalesce on the in-flight map (the leader registers its future
        before first awaiting, so in-batch duplicates deterministically
        follow it).  gather preserves order.  A router subclass
        overrides this to split the batch by owning shard.
        """
        requests = [
            QueryRequest.from_dict(item) if isinstance(item, dict) else None
            for item in queries
        ]
        stacked: dict[str, WireResponse] = {}
        stackable = [
            request for request in requests
            if request is not None
            and isinstance(request.query, str)
            and request.query in STACKABLE_QUERIES
        ]
        if len(stackable) >= STACKED_BATCH_MIN:
            loop = asyncio.get_running_loop()
            stacked = await loop.run_in_executor(
                self._executor, self._locked_stacked_wire, stackable
            )
        coros = []
        for request in requests:
            if request is None:
                coros.append(self._bad_subquery())
                continue
            leader = stacked.pop(request.key, None)
            if leader is not None:
                coros.append(self._ready_wire(leader))
            else:
                coros.append(self._coalesced_wire(request))
        return await asyncio.gather(*coros)

    async def _ready_wire(self, wire: WireResponse) -> WireResponse:
        return wire

    async def _bad_subquery(self) -> WireResponse:
        body = wire_encode(_error_body("bad-request", "request must be an object"))
        return WireResponse(400, body, None, False, body)

    async def _coalesced_wire(self, request: QueryRequest) -> WireResponse:
        """Serve one query as wire bytes, sharing one computation
        between identical in-flight requests.

        The hot path never leaves the event loop: if the frontend lock
        is free (it almost always is — holders are cold engine calls),
        a wire-cache hit is answered inline instead of paying a
        thread-pool round-trip.
        """
        key = request.key
        if self._frontend_lock.acquire(blocking=False):
            try:
                hit = self.frontend.wire_lookup(key)
            finally:
                self._frontend_lock.release()
            if hit is not None:
                return hit
        loop = asyncio.get_running_loop()
        leader_future = self._inflight.get(key)
        if leader_future is not None:
            self.coalesced += 1
            leader: WireResponse = await asyncio.shield(leader_future)
            return leader.as_follower()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            response = await self._compute_wire(request)
            future.set_result(response)
        except BaseException as exc:
            future.set_exception(exc)
            # Followers re-raise from the shared future; retrieving the
            # exception here keeps it from ever counting as unobserved.
            future.exception()
            raise
        finally:
            del self._inflight[key]
        return response

    async def _compute_wire(self, request: QueryRequest) -> WireResponse:
        """Compute one uncached query as a single-flight leader.  The
        base server runs the engine on the thread pool under the
        frontend lock; a router overrides this with shard fan-out."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._locked_handle_wire, request
        )

    def _locked_handle_wire(self, request: QueryRequest) -> WireResponse:
        with self._frontend_lock:
            return self.frontend.handle_wire(request)

    def _locked_stacked_wire(
        self, requests: list[QueryRequest]
    ) -> dict[str, WireResponse]:
        with self._frontend_lock:
            return self.frontend.stacked_wire(requests)

    # -- /watch: the chunked change feed -------------------------------------
    async def _handle_watch(
        self, writer: asyncio.StreamWriter, method: str, query: str
    ) -> None:
        """Stream the replica's change feed as chunked JSON lines.

        The stream opens with a hello frame
        (``{"watch": true, "since_seq": N, "latest_seq": L}``), then
        carries one JSON object per event.  ``?since_seq=N`` resumes
        after cursor N (omitted: from the live tail); a cursor that has
        fallen off the bounded ring gets an explicit
        ``{"gap": true, ...}`` marker before the oldest retained event
        — bounded resumability, never silent loss.  Heartbeat frames
        every ``?heartbeat=`` seconds (default 5) keep idle streams
        distinguishable from dead ones.
        """
        feed = getattr(self.replica, "feed", None)
        if method not in ("GET", "HEAD") or feed is None:
            status, code, message = (
                (405, "method-not-allowed", "use GET for /watch")
                if feed is not None
                else (404, "not-found",
                      "no change feed: this server does not follow a "
                      "recorder (start it with --follow)")
            )
            await self._write_response(
                writer, status, wire_encode(_error_body(code, message)),
                keep_alive=False,
            )
            return
        try:
            params = parse_qs(query)
            since = (
                int(params["since_seq"][0]) if "since_seq" in params else None
            )
            heartbeat = float(params.get("heartbeat", ["5.0"])[0])
        except (ValueError, IndexError):
            await self._write_response(
                writer, 400,
                wire_encode(_error_body(
                    "bad-request", "since_seq and heartbeat must be numbers"
                )),
                keep_alive=False,
            )
            return
        heartbeat = min(max(heartbeat, 0.2), 60.0)
        cursor = feed.latest_seq if since is None else max(int(since), 0)
        self.watch_connections += 1
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        try:
            await self._watch_stream(writer, feed, cursor, heartbeat)
            writer.write(b"0\r\n\r\n")  # clean end of stream
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # subscriber went away mid-stream

    @staticmethod
    def _watch_chunk(payload: dict) -> bytes:
        data = wire_encode(payload) + b"\n"
        return b"%x\r\n%s\r\n" % (len(data), data)

    async def _watch_stream(
        self,
        writer: asyncio.StreamWriter,
        feed: "object",
        cursor: int,
        heartbeat: float,
    ) -> None:
        writer.write(self._watch_chunk(
            {"watch": True, "since_seq": cursor, "latest_seq": feed.latest_seq}
        ))
        await writer.drain()
        last_write = self._clock()
        poll = min(0.1, heartbeat / 4)
        while not self._closing:
            events, gap = feed.since(cursor)
            if gap:
                writer.write(self._watch_chunk(
                    {"gap": True, "oldest_seq": feed.oldest_seq}
                ))
            if events:
                for event in events:
                    writer.write(self._watch_chunk(event))
                    cursor = event["seq"]
                self.watch_events += len(events)
                last_write = self._clock()
                await writer.drain()
                continue
            if self._clock() - last_write >= heartbeat:
                writer.write(self._watch_chunk(
                    {"heartbeat": True, "seq": feed.latest_seq}
                ))
                last_write = self._clock()
                await writer.drain()
            await asyncio.sleep(poll)

    # -- stats ---------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "ok": True,
            "worker": self.worker_id,
            "uptime_seconds": round(self._clock() - self._started_at, 3),
            "connections_accepted": self.connections_accepted,
            "open_connections": len(self._connections),
            "coalesced": self.coalesced,
            "throttled": self.throttled,
            "slow_shed": self.slow_shed,
            "batch_queries": self.batch_queries,
            "not_modified": self.not_modified,
            "clients": len(self._buckets),
            "endpoints": {
                path: endpoint.snapshot()
                for path, endpoint in self._endpoints.items()
            },
            "frontend": self.frontend.stats(),
            "watch": {
                "connections": self.watch_connections,
                "events_sent": self.watch_events,
            },
        }
        if self.startup is not None:
            payload["startup"] = {
                stage: round(seconds, 4)
                for stage, seconds in self.startup.items()
            }
        if self.replica is not None:
            try:
                payload["replica"] = self.replica.stats()
            except Exception as exc:
                payload["replica"] = {
                    "error": f"{type(exc).__name__}: {exc}"
                }
        if self._stats_board is not None:
            # Publish first so the aggregate includes this request.
            self._stats_board.publish(self.worker_id, self._board_counters())
            payload["cluster"] = self._stats_board.aggregate()
        return payload


def _error_body(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


class BackgroundServer:
    """A :class:`SpotLightServer` on a daemon thread, for blocking
    callers::

        with BackgroundServer(frontend) as server:
            client = SpotLightClient(*server.address)
            ...

    The thread owns a private event loop; ``stop()`` performs the same
    graceful shutdown as the foreground server and joins the thread.
    """

    def __init__(
        self,
        frontend: QueryFrontend | None = None,
        server: SpotLightServer | None = None,
        **server_kwargs: object,
    ) -> None:
        if server is not None:
            if frontend is not None or server_kwargs:
                raise ValueError(
                    "pass either a prebuilt server or frontend+kwargs, not both"
                )
            self.server = server
        else:
            if frontend is None:
                raise ValueError("a frontend is required to build a server")
            self.server = SpotLightServer(frontend, **server_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="spotlight-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("server did not start within 30s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # bind failure, bad args
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        done = asyncio.run_coroutine_threadsafe(self.server.stop(), loop)
        done.result(timeout=self.server.shutdown_grace + 30.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


async def serve(
    frontend: QueryFrontend,
    host: str = "127.0.0.1",
    port: int = 0,
    shutdown: "asyncio.Event | None" = None,
    on_start: Callable[[SpotLightServer], object] | None = None,
    **server_kwargs: object,
) -> SpotLightServer:
    """Start a server, optionally run until ``shutdown`` is set, and
    shut down gracefully.  Returns the (stopped) server for its stats."""
    server = SpotLightServer(frontend, host=host, port=port, **server_kwargs)
    await server.start()
    if on_start is not None:
        result = on_start(server)
        if isinstance(result, Awaitable):
            await result
    if shutdown is not None:
        await shutdown.wait()
        await server.stop()
    return server
