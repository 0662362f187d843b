"""Multi-process serving: the wire tier scaled across cores.

One :class:`~repro.server.SpotLightServer` is a single asyncio event
loop — one Python process, one core.  :class:`WorkerPool` pre-forks
``N`` worker processes that each load the same read-only datastore
snapshot, build their own frontend + read index, and bind the same
``(host, port)`` with ``SO_REUSEPORT``, so the kernel spreads incoming
connections across the workers and throughput grows with cores instead
of saturating one event loop.

Pieces:

* :class:`StatsBoard` — a tiny shared-memory counter board.  Each
  worker owns one row and republishes its running totals after every
  request; any worker answering ``GET /stats`` folds all rows into a
  ``"cluster"`` aggregate, so one request sees fleet-wide traffic even
  though it landed on a single worker.  A separate **health row**,
  written by the parent's supervisor, tells every worker how many of
  its siblings are alive — which is how a ``/healthz`` answered by a
  perfectly healthy worker still reports a ``degraded`` pool.
* :func:`_worker_main` — the (spawn-safe, module-level) worker entry
  point: load snapshot, prime the read index, serve until
  SIGINT/SIGTERM, drain gracefully, report.
* :class:`WorkerPool` — the parent-side controller: reserves the port
  (a bound, never-listening ``SO_REUSEPORT`` placeholder socket held
  for the pool's lifetime, so ``port=0`` resolves race-free), spawns
  the workers, waits for readiness, forwards shutdown, and checks that
  every worker drained cleanly.

**Supervision** (on by default): a parent-side thread watches the
worker sentinels; a worker that dies — segfault, OOM kill, a chaos
plan's ``kill-worker`` — is re-spawned with capped exponential backoff
(``respawn_backoff * 2**(n-1)``, capped at ``backoff_cap``) up to
``max_respawns`` per slot.  While a slot is down the health row shows
``alive < workers`` (handlers answer ``degraded``); when a slot
exhausts its budget the pool is marked failed and :meth:`WorkerPool.wait`
returns so the caller can drain.  See RELIABILITY.md.

Workers use the ``spawn`` start method: forking a parent that already
runs threads or an event loop (pytest, benchmarks) is a deadlock
lottery, and spawn keeps the workers' state exactly what
``_worker_main`` builds.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import multiprocessing.connection
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Sequence

from repro.core.frontend import DEFAULT_CACHE_TTL, QueryFrontend
from repro.server import (
    CLUSTER_COUNTER_FIELDS,
    CLUSTER_GAUGE_FIELDS,
    SpotLightServer,
)

#: One row per worker; SpotLightServer._board_counters produces the
#: values, repro.server owns the schema.  The schema includes the wire
#: hot-path counters (``batch_queries``, ``not_modified``) so cluster
#: aggregates report batch and 304 traffic without a board change here.
BOARD_FIELDS = CLUSTER_COUNTER_FIELDS

#: The supervisor-written health row (see StatsBoard.set_health).
HEALTH_FIELDS = ("workers", "alive", "respawns", "failed")

DEFAULT_READY_TIMEOUT = 120.0
DEFAULT_STOP_TIMEOUT = 60.0

#: Supervision defaults: respawn budget per worker slot, and the capped
#: exponential backoff between a death and its respawn.
DEFAULT_MAX_RESPAWNS = 8
DEFAULT_RESPAWN_BACKOFF = 0.25
DEFAULT_BACKOFF_CAP = 5.0


class StatsBoard:
    """Shared-memory per-worker counter rows plus a pool health row.

    Lock-free by construction: each worker is the only writer of its
    row (aligned 8-byte stores), the supervisor is the only writer of
    the health row, readers sum whatever totals are currently visible —
    stats are allowed to trail by a request.
    """

    def __init__(
        self, ctx: multiprocessing.context.BaseContext, workers: int
    ) -> None:
        self.workers = workers
        self._cells = ctx.Array("d", workers * len(BOARD_FIELDS), lock=False)
        self._health = ctx.Array("d", len(HEALTH_FIELDS), lock=False)

    def publish(self, worker_id: int, counters: dict[str, float]) -> None:
        base = worker_id * len(BOARD_FIELDS)
        for offset, field in enumerate(BOARD_FIELDS):
            # counters[field], not .get: a schema mismatch must fail
            # loudly rather than silently publish zeros.
            self._cells[base + offset] = float(counters[field])

    def row(self, worker_id: int) -> dict[str, int]:
        base = worker_id * len(BOARD_FIELDS)
        return {
            field: int(self._cells[base + offset])
            for offset, field in enumerate(BOARD_FIELDS)
        }

    def aggregate(self) -> dict[str, int]:
        totals = dict.fromkeys(BOARD_FIELDS, 0)
        for worker_id in range(self.workers):
            for field, value in self.row(worker_id).items():
                if field in CLUSTER_GAUGE_FIELDS:
                    # Gauges (cache generation, replica lag) are
                    # point-in-time per worker: summing rows would
                    # scale them by the worker count.  Max reports the
                    # worst/newest worker, which is what an operator
                    # alerting on lag wants.
                    totals[field] = max(totals[field], value)
                else:
                    totals[field] += value
        totals["workers"] = self.workers
        return totals

    def set_health(
        self, workers: int, alive: int, respawns: int, failed: int
    ) -> None:
        for offset, value in enumerate((workers, alive, respawns, failed)):
            self._health[offset] = float(value)

    def health(self) -> dict[str, int]:
        return {
            field: int(self._health[offset])
            for offset, field in enumerate(HEALTH_FIELDS)
        }


@dataclass
class _WorkerSpec:
    """Everything a spawned worker needs (must stay picklable)."""

    worker_id: int
    snapshot: str
    host: str
    port: int
    rate_per_second: float
    burst: float
    cache_ttl: float
    follow: bool
    max_lag: int
    poll_interval: float
    board: StatsBoard
    ready: object  # multiprocessing Event


def _snapshot_frontend(snapshot: str, cache_ttl: float):
    """``(frontend, datastore)`` over a read-only snapshot (same
    resolution rule as ``python -m repro query``: prices against the
    full default catalog)."""
    from repro.core.datastore import SnapshotDatastore
    from repro.core.query import SpotLightQuery
    from repro.ec2.catalog import default_catalog

    datastore = SnapshotDatastore(snapshot, append_log=False, must_exist=True)
    frontend = QueryFrontend(
        SpotLightQuery(datastore, default_catalog()), cache_ttl=cache_ttl
    )
    return frontend, datastore


async def _worker_serve(
    spec: _WorkerSpec,
    frontend: QueryFrontend,
    startup: dict[str, float],
    replica: "object | None" = None,
) -> None:
    shutdown = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, shutdown.set)
    server = SpotLightServer(
        frontend,
        host=spec.host,
        port=spec.port,
        rate_per_second=spec.rate_per_second,
        burst=spec.burst,
        reuse_port=True,
        worker_id=spec.worker_id,
        stats_board=spec.board,
        replica=replica,
        frontend_lock=replica.lock if replica is not None else None,
        startup=startup,
    )
    shard_count = getattr(spec, "shard_count", 0)
    if shard_count:
        # Shard workers stamp the shard-map epoch (which defaults to
        # the shard count) on every response, so a direct-routing
        # client can detect a topology change without a round trip
        # through the router.
        server._extra_headers = (
            f"X-Shard-Epoch: {shard_count}\r\n".encode("latin-1")
        )
    await server.start()
    if replica is not None:
        replica.start()
    spec.ready.set()
    await shutdown.wait()
    await server.stop()
    if replica is not None:
        replica.stop()
    queries = server.stats()["endpoints"]["/query"]["requests"]
    print(
        f"worker {spec.worker_id} drained: {queries} queries, "
        f"{server.coalesced} coalesced, {server.throttled} throttled",
        flush=True,
    )


def prepare_to_serve(
    frontend: QueryFrontend,
    datastore,
    follow: bool = False,
    max_lag: int = 0,
    poll_interval: float = 0.0,
) -> tuple[dict[str, float], "object | None"]:
    """Prime ``frontend`` (the first cold query must not pay the index
    build) and, with ``follow``, seed a replica tailer over
    ``datastore``.  Returns the start-up stage times for ``/stats``
    (the datastore's load timings, ``prime_s`` and ``replica_seed_s``)
    and the tailer, or None."""
    startup = dict(datastore.load_timings)
    started = time.perf_counter()
    frontend.prime()
    startup["prime_s"] = time.perf_counter() - started
    if not follow:
        return startup, None
    from repro.ec2.catalog import default_catalog
    from repro.replication import ReplicaTailer

    started = time.perf_counter()
    replica = ReplicaTailer(
        datastore,
        frontend,
        catalog=default_catalog(),
        max_lag=max_lag,
        poll_interval=poll_interval,
    )
    startup["replica_seed_s"] = time.perf_counter() - started
    return startup, replica


def _worker_main(spec: _WorkerSpec) -> None:
    """Entry point of one pre-forked worker process."""
    # Hold off SIGINT/SIGTERM until the event loop's graceful handlers
    # are in place (a signal racing the snapshot load should not leave
    # a half-started worker with the default die-now disposition).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    frontend, datastore = _snapshot_frontend(spec.snapshot, spec.cache_ttl)
    startup, replica = prepare_to_serve(
        frontend, datastore, spec.follow, spec.max_lag, spec.poll_interval
    )
    asyncio.run(_worker_serve(spec, frontend, startup, replica))


@dataclass
class _ShardSpec(_WorkerSpec):
    """A worker spec plus the shard topology: the worker id doubles as
    the shard index into ``ShardMap(shard_count)``."""

    shard_count: int = 1


def _shard_worker_main(spec: _ShardSpec) -> None:
    """Entry point of one shard worker: load the snapshot *filtered* to
    this shard's slice of the catalog, prime a read index over only
    those markets, and serve on the shard's own port."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    from repro.core.datastore import SnapshotDatastore
    from repro.core.query import SpotLightQuery
    from repro.core.shard import ShardMap
    from repro.ec2.catalog import default_catalog

    shard_map = ShardMap(spec.shard_count)
    datastore = SnapshotDatastore(
        spec.snapshot,
        append_log=False,
        must_exist=True,
        market_filter=shard_map.filter(spec.worker_id),
    )
    frontend = QueryFrontend(
        SpotLightQuery(datastore, default_catalog()), cache_ttl=spec.cache_ttl
    )
    startup, _replica = prepare_to_serve(frontend, datastore)
    print(
        f"shard {spec.worker_id}/{spec.shard_count} primed "
        f"{len(datastore.markets)} markets in {startup['prime_s']:.3f}s",
        flush=True,
    )
    asyncio.run(_worker_serve(spec, frontend, startup))


def _reserve_port(host: str, port: int) -> tuple[socket.socket, int]:
    """Bind (but never listen on) an ``SO_REUSEPORT`` placeholder.

    Resolves ``port=0`` to a concrete port no other process can take,
    without ever receiving connections itself: the kernel only
    balances across *listening* members of a reuseport group.
    """
    placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        placeholder.bind((host, port))
    except BaseException:
        placeholder.close()
        raise
    return placeholder, placeholder.getsockname()[1]


class WorkerPool:
    """``N`` pre-forked SO_REUSEPORT workers over one snapshot::

        with WorkerPool("./state", workers=4) as pool:
            client = SpotLightClient(*pool.address)
            ...

    ``start()`` returns once every worker is accepting connections;
    ``stop()`` drains them gracefully, returns a drain summary, and
    raises if a worker that was alive at stop time had to be killed or
    exited nonzero.  With ``supervise`` (the default) dead workers are
    re-spawned with capped exponential backoff until ``max_respawns``.
    """

    def __init__(
        self,
        snapshot: str,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_per_second: float = 500.0,
        burst: float = 1000.0,
        cache_ttl: float = DEFAULT_CACHE_TTL,
        follow: bool = False,
        max_lag: int = 512,
        poll_interval: float = 0.2,
        ready_timeout: float = DEFAULT_READY_TIMEOUT,
        supervise: bool = True,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
        respawn_backoff: float = DEFAULT_RESPAWN_BACKOFF,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker: {workers}")
        self.snapshot = str(snapshot)
        self.workers = workers
        self.host = host
        self.ready_timeout = ready_timeout
        self.supervise = supervise
        self.max_respawns = max_respawns
        self.respawn_backoff = respawn_backoff
        self.backoff_cap = backoff_cap
        self._ctx = multiprocessing.get_context("spawn")
        self._spec = dict(
            rate_per_second=rate_per_second,
            burst=burst,
            cache_ttl=cache_ttl,
            follow=follow,
            max_lag=max_lag,
            poll_interval=poll_interval,
        )
        self.board = StatsBoard(self._ctx, workers)
        self._placeholder, self.port = _reserve_port(host, port)
        self.respawns = 0
        #: (worker_id, exitcode) of every unexpected worker death.
        self.exit_history: list[tuple[int, int | None]] = []
        self.drain_summary: dict[str, object] | None = None
        self._respawn_counts = [0] * workers
        self._recorded_exits: set[int] = set()  # id(proc) already logged
        self._no_respawn: set[int] = set()  # slots chaos wants left dead
        self._stopping = threading.Event()
        self._failed = threading.Event()
        self._supervisor: threading.Thread | None = None
        self._procs: list[multiprocessing.process.BaseProcess] = []
        self._ready: list[object] = []
        for worker_id in range(workers):
            proc, ready = self._make_proc(worker_id)
            self._procs.append(proc)
            self._ready.append(ready)

    def _make_proc(self, worker_id: int):
        ready = self._ctx.Event()
        spec = _WorkerSpec(
            worker_id=worker_id,
            snapshot=self.snapshot,
            host=self.host,
            port=self.port,
            board=self.board,
            ready=ready,
            **self._spec,
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(spec,),
            name=f"spotlight-worker-{worker_id}",
            daemon=True,
        )
        return proc, ready

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    @property
    def sentinels(self) -> Sequence[int]:
        """Process sentinels (for ``multiprocessing.connection.wait``)."""
        return [proc.sentinel for proc in self._procs]

    @property
    def failed(self) -> bool:
        """True once a worker slot exhausted its respawn budget."""
        return self._failed.is_set()

    def worker_pids(self) -> dict[int, int]:
        """Live workers: ``{worker_id: pid}`` (chaos harness target)."""
        return {
            worker_id: proc.pid
            for worker_id, proc in enumerate(self._procs)
            if proc.is_alive() and proc.pid is not None
        }

    def alive_workers(self) -> int:
        return sum(1 for proc in self._procs if proc.is_alive())

    def disable_respawn(self, worker_id: int) -> None:
        """Leave this slot dead when it exits (chaos ``kill-shard``):
        the supervisor records the death and publishes degraded health
        but neither respawns the slot nor marks the pool failed."""
        self._no_respawn.add(worker_id)

    def start(self) -> "WorkerPool":
        for proc in self._procs:
            proc.start()
        for worker_id, event in enumerate(self._ready):
            remaining = self.ready_timeout
            while not event.wait(timeout=min(0.25, remaining)):
                proc = self._procs[worker_id]
                if not proc.is_alive():
                    code = proc.exitcode
                    self.terminate()
                    raise RuntimeError(
                        f"worker {worker_id} exited with code {code} before "
                        f"becoming ready (snapshot {self.snapshot!r})"
                    )
                remaining -= 0.25
                if remaining <= 0:
                    self.terminate()
                    raise RuntimeError(
                        f"worker {worker_id} not ready within "
                        f"{self.ready_timeout:.0f}s"
                    )
        self._publish_health()
        if self.supervise:
            self._supervisor = threading.Thread(
                target=self._supervise, name="spotlight-supervisor",
                daemon=True,
            )
            self._supervisor.start()
        return self

    # -- supervision --------------------------------------------------------
    def _publish_health(self) -> None:
        self.board.set_health(
            workers=self.workers,
            alive=self.alive_workers(),
            respawns=self.respawns,
            failed=1 if self._failed.is_set() else 0,
        )

    def _record_exit(self, worker_id: int, proc) -> None:
        if id(proc) not in self._recorded_exits:
            self._recorded_exits.add(id(proc))
            self.exit_history.append((worker_id, proc.exitcode))

    def _supervise(self) -> None:
        """Detect dead workers; re-spawn with capped exponential
        backoff; give up (and release :meth:`wait`) once a slot
        exhausts ``max_respawns``."""
        try:
            while not self._stopping.is_set():
                for worker_id, proc in enumerate(self._procs):
                    if proc.is_alive() or self._stopping.is_set():
                        continue
                    proc.join(timeout=1.0)
                    self._record_exit(worker_id, proc)
                    self._publish_health()
                    if worker_id in self._no_respawn:
                        continue  # deliberately dead (chaos kill-shard)
                    self._respawn_counts[worker_id] += 1
                    count = self._respawn_counts[worker_id]
                    if count > self.max_respawns:
                        print(
                            f"worker {worker_id} exhausted its respawn "
                            f"budget ({self.max_respawns}); pool failed",
                            flush=True,
                        )
                        # Publish the failed health row *before* the
                        # event releases wait()ing callers, so they
                        # never observe a healthy-looking board.
                        self.board.set_health(
                            workers=self.workers,
                            alive=self.alive_workers(),
                            respawns=self.respawns,
                            failed=1,
                        )
                        self._failed.set()
                        return
                    delay = min(
                        self.backoff_cap,
                        self.respawn_backoff * (2.0 ** (count - 1)),
                    )
                    print(
                        f"worker {worker_id} exited with code "
                        f"{proc.exitcode}; respawning in {delay:.2f}s "
                        f"(attempt {count}/{self.max_respawns})",
                        flush=True,
                    )
                    if self._stopping.wait(delay):
                        return
                    replacement, ready = self._make_proc(worker_id)
                    self._procs[worker_id] = replacement
                    self._ready[worker_id] = ready
                    replacement.start()
                    self.respawns += 1
                    self._publish_health()
                    while not ready.wait(timeout=0.25):
                        if (
                            self._stopping.is_set()
                            or not replacement.is_alive()
                        ):
                            break  # death-before-ready: next sweep sees it
                    if ready.is_set():
                        print(
                            f"respawned worker {worker_id} "
                            f"(pid {replacement.pid})",
                            flush=True,
                        )
                    self._publish_health()
                live = [p.sentinel for p in self._procs if p.is_alive()]
                if live:
                    multiprocessing.connection.wait(live, timeout=0.5)
        except Exception as exc:  # pragma: no cover - defensive
            print(f"supervisor crashed: {type(exc).__name__}: {exc}",
                  flush=True)
            self._failed.set()
            self._publish_health()
            raise

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the pool permanently fails (supervised) or any
        worker exits (unsupervised).  Returns :attr:`failed`.

        Never hangs on workers that are *already* dead: their sentinels
        are skipped, and an all-dead unsupervised pool returns
        immediately.
        """
        if self._supervisor is not None:
            self._failed.wait(timeout)
            return self.failed
        live = [proc.sentinel for proc in self._procs if proc.is_alive()]
        if live:
            multiprocessing.connection.wait(live, timeout=timeout)
        return self.failed

    def stop(self, timeout: float = DEFAULT_STOP_TIMEOUT) -> dict[str, object]:
        """Graceful shutdown: stop supervising, SIGTERM every live
        worker, join, verify clean drains.

        Returns a drain summary (exit codes per slot, respawn totals,
        the full unexpected-exit history).  Raises ``RuntimeError`` if
        a worker that was alive at stop time had to be killed or exited
        nonzero; workers that were already dead are reported in the
        summary, not raised — their deaths were either supervised
        (and respawned) or the very reason the caller is stopping.
        """
        self._stopping.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10.0)
        try:
            # A startup interrupt can leave part of the pool unspawned;
            # only ever-started workers can be signalled or joined.
            started = [proc for proc in self._procs if proc.pid is not None]
            draining = [proc for proc in started if proc.is_alive()]
            for proc in draining:
                proc.terminate()  # SIGTERM -> worker drains
            killed = []
            for proc in draining:
                proc.join(timeout=timeout)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)
                    killed.append(proc.name)
            for worker_id, proc in enumerate(self._procs):
                if proc in started and not proc.is_alive():
                    # Pre-dead workers land in the history too (their
                    # exit codes belong in the drain summary).
                    if proc not in draining:
                        self._record_exit(worker_id, proc)
            unclean = [
                f"{proc.name} (exit {proc.exitcode})"
                for proc in draining
                if proc.exitcode != 0
            ]
            self.drain_summary = {
                "workers": self.workers,
                "respawns": self.respawns,
                "failed": self.failed,
                "exit_codes": {
                    proc.name: proc.exitcode for proc in started
                },
                "unexpected_exits": list(self.exit_history),
                "killed": killed,
                "unclean": unclean,
            }
            if killed or unclean:
                raise RuntimeError(
                    f"workers did not drain cleanly: "
                    f"killed={killed} unclean={unclean}"
                )
            return self.drain_summary
        finally:
            self._publish_health()
            self._placeholder.close()

    def terminate(self) -> None:
        """Hard stop (startup-failure cleanup; no drain guarantees)."""
        self._stopping.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
        for proc in self._procs:
            if proc.pid is not None:
                proc.join(timeout=5.0)
        self._placeholder.close()

    def aggregate(self) -> dict[str, int]:
        return self.board.aggregate()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class ShardCluster(WorkerPool):
    """``N`` shard workers, each serving one :class:`~repro.core.shard.ShardMap`
    slice of the snapshot on its *own* port (a router tier scatters
    across them — unlike :class:`WorkerPool` the shards are not
    interchangeable, so SO_REUSEPORT load-spreading across one port
    would route queries to workers that do not own the data).

    Supervision is inherited: a dead shard is respawned on its original
    port (each port is held by a bound ``SO_REUSEPORT`` placeholder for
    the cluster's lifetime, so the respawn rebinds race-free) unless
    :meth:`disable_respawn` marked the slot as deliberately dead.

    Shards run with effectively unlimited admission by default — the
    router in front enforces per-client rate limits, and every shard
    request arrives from the router's address, which a per-client
    bucket would throttle as a single hot client.
    """

    def __init__(
        self,
        snapshot: str,
        shards: int,
        host: str = "127.0.0.1",
        cache_ttl: float = DEFAULT_CACHE_TTL,
        rate_per_second: float = 1e9,
        burst: float = 1e9,
        ready_timeout: float = DEFAULT_READY_TIMEOUT,
        supervise: bool = True,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
        respawn_backoff: float = DEFAULT_RESPAWN_BACKOFF,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard: {shards}")
        self.shard_count = shards
        self._shard_placeholders: list[socket.socket] = []
        self.shard_ports: list[int] = []
        try:
            for _ in range(shards):
                placeholder, port = _reserve_port(host, 0)
                self._shard_placeholders.append(placeholder)
                self.shard_ports.append(port)
        except BaseException:
            self._close_shard_placeholders()
            raise
        # port=0 reserves the base-class placeholder too; unused, but
        # keeps the base lifecycle (stop/terminate close it) intact.
        super().__init__(
            snapshot,
            workers=shards,
            host=host,
            port=0,
            rate_per_second=rate_per_second,
            burst=burst,
            cache_ttl=cache_ttl,
            follow=False,
            ready_timeout=ready_timeout,
            supervise=supervise,
            max_respawns=max_respawns,
            respawn_backoff=respawn_backoff,
            backoff_cap=backoff_cap,
        )

    def _make_proc(self, worker_id: int):
        # During super().__init__ the shard ports are already reserved;
        # each slot (and its respawns) binds its own fixed port.
        ready = self._ctx.Event()
        spec = _ShardSpec(
            worker_id=worker_id,
            snapshot=self.snapshot,
            host=self.host,
            port=self.shard_ports[worker_id],
            board=self.board,
            ready=ready,
            shard_count=self.shard_count,
            **self._spec,
        )
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(spec,),
            name=f"spotlight-shard-{worker_id}",
            daemon=True,
        )
        return proc, ready

    @property
    def shard_addresses(self) -> list[tuple[str, int]]:
        """One ``(host, port)`` per shard, indexed by shard id."""
        return [(self.host, port) for port in self.shard_ports]

    def _close_shard_placeholders(self) -> None:
        while self._shard_placeholders:
            self._shard_placeholders.pop().close()

    def stop(self, timeout: float = DEFAULT_STOP_TIMEOUT) -> dict[str, object]:
        try:
            return super().stop(timeout)
        finally:
            self._close_shard_placeholders()

    def terminate(self) -> None:
        try:
            super().terminate()
        finally:
            self._close_shard_placeholders()
