"""Serving throughput: how fast the network tier answers.

Drives a :class:`~repro.server.SpotLightServer` with many concurrent
blocking clients over a mixed query workload (every query family the
frontend serves, across a multi-market probe database), then records
throughput and latency quantiles into ``BENCH_server.json`` at the
repository root when refreshed (see ``harness.py``)::

    REPRO_UPDATE_BENCH=1 PYTHONPATH=src python -m pytest benchmarks/test_server_load.py -q

Two phases are measured:

* **cold** — the first pass over the workload misses the frontend's
  result cache, so every request pays an engine computation;
* **cached** — repeated passes are served from the TTL cache; this is
  the paper's steady state (availability answers change slowly and the
  serving path is read-heavy), and the regime the ≥1,000 req/s
  acceptance floor applies to.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as pyqueue
import threading
import time

from harness import REPO_ROOT, record_result

from repro.client import SpotLightClient
from repro.core.database import ProbeDatabase
from repro.core.datastore import SnapshotDatastore
from repro.core.frontend import QueryFrontend
from repro.core.market_id import MarketID
from repro.core.query import SpotLightQuery
from repro.core.records import (
    OUTCOME_FULFILLED,
    PriceRecord,
    ProbeKind,
    ProbeRecord,
    ProbeTrigger,
)
from repro.core.shard import ShardMap
from repro.ec2.catalog import default_catalog
from repro.router import SpotLightRouter
from repro.server import BackgroundServer
from repro.server_pool import ShardCluster, WorkerPool

BENCH_PATH = REPO_ROOT / "BENCH_server.json"

WORKERS = 8
ROUNDS_PER_WORKER = 40
MIN_CACHED_RPS = 1000.0

#: The PR 6 cached-throughput baseline (http.client transport, JSON
#: re-serialized per hit) and the wire hot path's required win over it.
#: The full multiple is demanded only when client and server do not
#: have to share one core; a single-core host still must show most of
#: the win (both sides of the benchmark got cheaper).
PR6_CACHED_BASELINE_RPS = 2426.2
MIN_CACHED_SPEEDUP = 3.0
MIN_CACHED_SPEEDUP_SHARED_CORE = 2.0

#: Batch scenario shape: the whole mixed workload rides in each /batch
#: request, several rounds per driver thread.
BATCH_DRIVERS = 2
BATCH_ROUNDS = 60
#: Conditional-request scenario: pollers re-asking the same questions.
ETAG_DRIVERS = 4
ETAG_ROUNDS = 40

#: Multi-worker scenario shape: pool size, driver processes (the
#: client side runs in separate processes so its GIL cannot mask
#: server-side scaling), threads per driver, cached-phase rounds.
POOL_WORKERS = 2
DRIVER_PROCS = 2
DRIVER_THREADS = 4
POOL_ROUNDS = 12
COLD_HEAVY_PER_PROC = 300
#: The multi-worker pool must beat the single-worker pool by this much
#: on the cached phase — asserted only where the hardware can show it.
MIN_MULTI_WORKER_SCALING = 1.5

#: Sharded scenario shape: shard count, cold catalog-wide probes
#: (distinct bid multiples so every one scatters), cached-phase drivers.
SHARD_COUNT = 2
COLD_SCATTER_PROBES = 30
SHARD_DRIVERS = 4
SHARD_ROUNDS = 20

ZONES = [f"us-east-1{z}" for z in "abcde"]
TYPES = ["m3.medium", "m3.large", "m3.xlarge", "c3.large", "c3.xlarge"]


def build_database(into: ProbeDatabase | None = None) -> ProbeDatabase:
    """A 25-market probe/price log: enough series that the cold pass
    does real engine work, small enough to construct instantly."""
    db = into if into is not None else ProbeDatabase()
    rejected = "InsufficientInstanceCapacity"
    for zi, zone in enumerate(ZONES):
        for ti, itype in enumerate(TYPES):
            market = MarketID(zone, itype, "Linux/UNIX")
            base = 0.01 * (1 + zi + ti)
            for step in range(60):
                spike = 9.0 if (step + zi + ti) % 13 == 0 else 1.0
                db.insert_price(PriceRecord(200.0 * step, market, base * spike))
            for t, outcome in [
                (0.0, OUTCOME_FULFILLED),
                (700.0 + 50.0 * (zi + ti), rejected),
                (1400.0 + 50.0 * (zi + ti), OUTCOME_FULFILLED),
            ]:
                db.insert_probe(
                    ProbeRecord(
                        time=t, market=market, kind=ProbeKind.ON_DEMAND,
                        trigger=ProbeTrigger.RECOVERY, outcome=outcome,
                    )
                )
    return db


def build_workload() -> list[tuple[str, dict]]:
    """A mixed workload: rankings, per-market point queries, period
    scans — the request blend a SpotOn/SpotCheck fleet would generate."""
    markets = [
        str(MarketID(zone, itype, "Linux/UNIX"))
        for zone in ZONES for itype in TYPES
    ]
    workload: list[tuple[str, dict]] = [
        ("top-stable-markets", {"n": 10, "bid_multiple": 1.0}),
        ("top-stable-markets", {"n": 5, "bid_multiple": 1.5}),
        ("unavailability-periods", {"kind": "on-demand"}),
        ("rejection-rate", {}),
        ("least-unavailable-markets", {"candidates": markets[:8]}),
    ]
    for market in markets:
        workload.append(("mean-price", {"market": market}))
        workload.append(("availability", {"market": market, "kind": "on-demand"}))
        workload.append(
            ("availability-at-bid", {"market": market, "bid_price": 0.30})
        )
    return workload


def build_cold_heavy_workload(offset: int, count: int) -> list[tuple[str, dict]]:
    """``count`` pairwise-distinct requests starting at ``offset``:
    every one misses the TTL cache and defeats single-flight, so the
    engines — not the caches — absorb the load."""
    markets = [
        str(MarketID(zone, itype, "Linux/UNIX"))
        for zone in ZONES for itype in TYPES
    ]
    workload: list[tuple[str, dict]] = []
    for i in range(count):
        key = offset + i
        if i % 3 == 0:
            workload.append(
                ("top-stable-markets", {"n": 10, "bid_multiple": 0.5 + 0.002 * key})
            )
        else:
            workload.append(
                (
                    "availability-at-bid",
                    {
                        "market": markets[key % len(markets)],
                        "bid_price": round(0.001 + 0.0005 * key, 7),
                    },
                )
            )
    return workload


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _drive(
    address: tuple[str, int],
    workload: list[tuple[str, dict]],
    workers: int,
    rounds: int,
) -> tuple[float, list[float]]:
    """Hammer the server from ``workers`` threads; returns
    ``(wall_seconds, per_request_latencies)``."""
    latencies_by_worker: list[list[float]] = [[] for _ in range(workers)]
    barrier = threading.Barrier(workers + 1)

    def worker(index: int) -> None:
        # Stagger each worker's starting offset so the threads don't
        # march through the workload in lockstep.
        offset = (index * len(workload)) // workers
        order = workload[offset:] + workload[:offset]
        record = latencies_by_worker[index].append
        with SpotLightClient(*address) as client:
            barrier.wait()
            for _ in range(rounds):
                for name, params in order:
                    started = time.perf_counter()
                    client.retrying_query(name, params)
                    record(time.perf_counter() - started)

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(workers)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600.0)
    wall = time.perf_counter() - started
    return wall, sorted(
        latency for bucket in latencies_by_worker for latency in bucket
    )


def test_server_sustains_load():
    frontend = QueryFrontend(
        SpotLightQuery(build_database(), default_catalog()),
        cache_ttl=3600.0,  # steady state: no TTL churn mid-benchmark
    )
    workload = build_workload()

    with BackgroundServer(frontend, rate_per_second=1e6, burst=1e6) as background:
        # Cold phase: one worker, one pass — every request computes.
        cold_wall, cold_latencies = _drive(
            background.address, workload, workers=1, rounds=1
        )
        # Cached phase: the herd hammers the (now warm) cache.
        warm_wall, warm_latencies = _drive(
            background.address, workload, workers=WORKERS,
            rounds=ROUNDS_PER_WORKER,
        )
        stats = background.server.stats()

    cold_requests = len(cold_latencies)
    warm_requests = len(warm_latencies)
    throughput = warm_requests / warm_wall
    entry = {
        "workload_queries": len(workload),
        "workers": WORKERS,
        "cold": {
            "requests": cold_requests,
            "wall_seconds": round(cold_wall, 3),
            "throughput_rps": round(cold_requests / cold_wall, 1),
            "p50_ms": round(_quantile(cold_latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_quantile(cold_latencies, 0.99) * 1e3, 3),
        },
        "cached": {
            "requests": warm_requests,
            "wall_seconds": round(warm_wall, 3),
            "throughput_rps": round(throughput, 1),
            "p50_ms": round(_quantile(warm_latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_quantile(warm_latencies, 0.99) * 1e3, 3),
        },
        "server": {
            "coalesced": stats["coalesced"],
            "throttled": stats["throttled"],
            "frontend_hits": stats["frontend"]["hits"],
            "frontend_misses": stats["frontend"]["misses"],
            "wire_hits": stats["frontend"]["wire_hits"],
            "wire_misses": stats["frontend"]["wire_misses"],
        },
    }
    record_result(BENCH_PATH, "server_load", entry)
    print(
        f"\nserver load: {warm_requests} cached requests from {WORKERS} "
        f"clients in {warm_wall:.2f}s = {throughput:.0f} req/s "
        f"(p50 {entry['cached']['p50_ms']:.2f} ms, "
        f"p99 {entry['cached']['p99_ms']:.2f} ms); cold pass "
        f"{entry['cold']['throughput_rps']:.0f} req/s"
    )

    assert warm_requests == WORKERS * ROUNDS_PER_WORKER * len(workload)
    # The acceptance floor: cached queries at four-digit throughput.
    assert throughput >= MIN_CACHED_RPS, (
        f"cached throughput {throughput:.0f} req/s below {MIN_CACHED_RPS}"
    )
    # Nothing was throttled (admission control was configured away) and
    # every cached-phase answer was served from the wire byte cache or
    # coalesced onto an identical in-flight request (the object cache
    # only sees wire misses, so its hit counter stays near zero here).
    assert stats["throttled"] == 0
    assert (
        stats["frontend"]["wire_hits"] + stats["coalesced"]
        >= warm_requests - len(workload)
    )
    # The wire hot path's acceptance criterion: a multiple of the PR 6
    # baseline, full strength only where client and server are not
    # fighting over one core.
    cores = len(os.sched_getaffinity(0))
    speedup = (
        MIN_CACHED_SPEEDUP if cores >= 2 else MIN_CACHED_SPEEDUP_SHARED_CORE
    )
    assert throughput >= speedup * PR6_CACHED_BASELINE_RPS, (
        f"cached throughput {throughput:.0f} req/s is below "
        f"{speedup:.1f}x the PR 6 baseline of {PR6_CACHED_BASELINE_RPS} "
        f"req/s on {cores} core(s)"
    )


def test_batch_throughput():
    """``POST /batch``: the whole mixed workload per round trip.

    Amortizes HTTP framing and syscalls over the batch, so per-query
    cost approaches the byte-cache lookup itself; recorded as the
    ``server_load_batch`` scenario.
    """
    frontend = QueryFrontend(
        SpotLightQuery(build_database(), default_catalog()),
        cache_ttl=3600.0,
    )
    requests = [
        {"query": name, "params": params} for name, params in build_workload()
    ]

    with BackgroundServer(frontend, rate_per_second=1e6, burst=1e6) as background:
        with SpotLightClient(*background.address) as warmup:
            warmup.batch_response(requests)  # cold pass: fill the caches

        walls: list[float] = [0.0] * BATCH_DRIVERS
        barrier = threading.Barrier(BATCH_DRIVERS + 1)

        def driver(index: int) -> None:
            with SpotLightClient(*background.address) as client:
                barrier.wait()
                started = time.perf_counter()
                for _ in range(BATCH_ROUNDS):
                    got = client.batch_response(requests)
                    assert len(got) == len(requests)
                walls[index] = time.perf_counter() - started

        threads = [
            threading.Thread(target=driver, args=(i,))
            for i in range(BATCH_DRIVERS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join(timeout=600.0)
        wall = time.perf_counter() - started
        stats = background.server.stats()

    queries = BATCH_DRIVERS * BATCH_ROUNDS * len(requests)
    throughput = queries / wall
    entry = {
        "batch_size": len(requests),
        "drivers": BATCH_DRIVERS,
        "rounds": BATCH_ROUNDS,
        "queries": queries,
        "wall_seconds": round(wall, 3),
        "throughput_qps": round(throughput, 1),
        "round_trips": BATCH_DRIVERS * BATCH_ROUNDS,
        "batch_queries_counter": stats["batch_queries"],
    }
    record_result(BENCH_PATH, "server_load_batch", entry)
    print(
        f"\nbatch: {queries} queries in {wall:.2f}s over "
        f"{entry['round_trips']} round trips = {throughput:.0f} queries/s"
    )
    assert stats["batch_queries"] == queries + len(requests)  # + warmup
    assert stats["throttled"] == 0
    # Batching must clear the single-request acceptance floor with
    # obvious headroom — it amortizes everything but the answer.
    assert throughput >= 4 * MIN_CACHED_RPS


def test_etag_polling_throughput():
    """Conditional requests: pollers re-asking unchanged questions.

    After the first pass every answer is a bodyless 304, so the wire
    cost is one header exchange; recorded as ``server_load_etag``.
    """
    frontend = QueryFrontend(
        SpotLightQuery(build_database(), default_catalog()),
        cache_ttl=3600.0,
    )
    workload = build_workload()

    with BackgroundServer(frontend, rate_per_second=1e6, burst=1e6) as background:
        barrier = threading.Barrier(ETAG_DRIVERS + 1)

        def driver() -> int:
            with SpotLightClient(*background.address) as client:
                for name, params in workload:
                    client.poll(name, params)  # learn the tags
                barrier.wait()
                for _ in range(ETAG_ROUNDS):
                    for name, params in workload:
                        client.poll(name, params)
                return client.polls_not_modified

        not_modified: list[int] = []
        threads = [
            threading.Thread(target=lambda: not_modified.append(driver()))
            for _ in range(ETAG_DRIVERS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join(timeout=600.0)
        wall = time.perf_counter() - started
        stats = background.server.stats()

    polls = ETAG_DRIVERS * ETAG_ROUNDS * len(workload)
    throughput = polls / wall
    entry = {
        "drivers": ETAG_DRIVERS,
        "rounds": ETAG_ROUNDS,
        "polls": polls,
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(throughput, 1),
        "not_modified": stats["not_modified"],
        "client_304s": sum(not_modified),
    }
    record_result(BENCH_PATH, "server_load_etag", entry)
    print(
        f"\netag: {polls} conditional polls in {wall:.2f}s = "
        f"{throughput:.0f} req/s, {stats['not_modified']} answered 304"
    )
    # Once the tags are learned, every poll of an unchanged answer must
    # come back 304 — the timed phase re-asks known questions only.
    assert sum(not_modified) >= polls
    assert throughput >= MIN_CACHED_RPS


# -- the multi-worker scenario -------------------------------------------------

def _drive_process(address, workload, threads, rounds, barrier, results):
    """One driver process (spawn entry point): align on the barrier,
    hammer the pool, report (requests, wall_seconds)."""
    barrier.wait(timeout=120)
    wall, latencies = _drive(address, workload, threads, rounds)
    results.put((len(latencies), wall))


def _drive_multiprocess(
    address: tuple[str, int],
    per_proc_workloads: list[list[tuple[str, dict]]],
    threads: int,
    rounds: int,
) -> tuple[int, float]:
    """Drive the pool from several client *processes* (the in-process
    thread driver above is GIL-bound well below a multi-worker server's
    capacity); returns total requests and the slowest driver's wall."""
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(len(per_proc_workloads))
    results = ctx.Queue()
    procs = [
        ctx.Process(
            target=_drive_process,
            args=(address, workload, threads, rounds, barrier, results),
            daemon=True,
        )
        for workload in per_proc_workloads
    ]
    for proc in procs:
        proc.start()
    payloads: list[tuple[int, float]] = []
    deadline = time.monotonic() + 600.0
    while len(payloads) < len(procs):
        try:
            payloads.append(results.get(timeout=1.0))
        except pyqueue.Empty:
            # Fail fast with the real cause instead of timing out the
            # queue long after a driver already crashed.
            dead = [
                (proc.name, proc.exitcode)
                for proc in procs
                if proc.exitcode not in (None, 0)
            ]
            if dead:
                raise RuntimeError(f"driver process failed: {dead}") from None
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "drivers produced no result within 600s"
                ) from None
    for proc in procs:
        proc.join(timeout=60)
    requests = sum(count for count, _ in payloads)
    wall = max(wall for _, wall in payloads)
    return requests, wall


def test_multi_worker_scaling(tmp_path):
    """`serve --workers N` scaling: identical snapshot, identical
    process-based drivers, 1 worker vs POOL_WORKERS workers, a
    cold-heavy pass (all-distinct queries, engines do the work) then a
    cached pass (the steady state)."""
    snapshot = tmp_path / "state"
    store = SnapshotDatastore(snapshot)
    build_database(into=store)
    store.save()
    store.close()

    cached_workload = build_workload()
    cores = len(os.sched_getaffinity(0))
    measured: dict[int, dict] = {}
    for workers in (1, POOL_WORKERS):
        with WorkerPool(
            snapshot, workers=workers, rate_per_second=1e6, burst=1e6,
            cache_ttl=3600.0,
        ) as pool:
            cold_sets = [
                build_cold_heavy_workload(
                    proc * COLD_HEAVY_PER_PROC, COLD_HEAVY_PER_PROC
                )
                for proc in range(DRIVER_PROCS)
            ]
            cold_requests, cold_wall = _drive_multiprocess(
                pool.address, cold_sets, threads=2, rounds=1
            )
            cached_requests, cached_wall = _drive_multiprocess(
                pool.address, [cached_workload] * DRIVER_PROCS,
                threads=DRIVER_THREADS, rounds=POOL_ROUNDS,
            )
            totals = pool.aggregate()
        assert totals["workers"] == workers
        assert totals["queries"] == cold_requests + cached_requests
        assert totals["throttled"] == 0
        measured[workers] = {
            "cold_heavy": {
                "requests": cold_requests,
                "wall_seconds": round(cold_wall, 3),
                "throughput_rps": round(cold_requests / cold_wall, 1),
            },
            "cached": {
                "requests": cached_requests,
                "wall_seconds": round(cached_wall, 3),
                "throughput_rps": round(cached_requests / cached_wall, 1),
            },
            "cluster": {
                key: totals[key]
                for key in ("coalesced", "cache_hits", "cache_misses")
            },
        }

    single = measured[1]["cached"]["throughput_rps"]
    multi = measured[POOL_WORKERS]["cached"]["throughput_rps"]
    scaling = multi / single
    entry = {
        "pool_workers": POOL_WORKERS,
        "driver_processes": DRIVER_PROCS,
        "driver_threads": DRIVER_THREADS,
        "cores": cores,
        "single_worker": measured[1],
        "multi_worker": measured[POOL_WORKERS],
        "cached_scaling_x": round(scaling, 2),
    }
    record_result(BENCH_PATH, "server_load_workers", entry)
    print(
        f"\nmulti-worker: cached {single:.0f} req/s (1 worker) -> "
        f"{multi:.0f} req/s ({POOL_WORKERS} workers, {scaling:.2f}x) on "
        f"{cores} cores; cold-heavy "
        f"{measured[1]['cold_heavy']['throughput_rps']:.0f} -> "
        f"{measured[POOL_WORKERS]['cold_heavy']['throughput_rps']:.0f} req/s"
    )
    if cores >= 2 * POOL_WORKERS:
        # Enough cores for the workers *and* the drivers: demand real
        # scaling.  On smaller hosts (the 1-core dev container cannot
        # run two workers in parallel at all) just require the pool to
        # stay in the same ballpark rather than collapse.
        assert scaling >= MIN_MULTI_WORKER_SCALING, (
            f"{POOL_WORKERS}-worker cached throughput only {scaling:.2f}x "
            f"the single-worker baseline"
        )
    else:
        assert scaling >= 0.4, (
            f"multi-worker pool collapsed to {scaling:.2f}x on {cores} cores"
        )


# -- the sharded scenario ------------------------------------------------------

def test_sharded_serving(tmp_path):
    """`serve --shards N`: filtered per-shard priming, scatter-gather
    catalog-wide queries, and the router's wire cache.

    Three measurements, recorded as ``server_load_sharded``:

    * **per-shard cold prime** — each shard loads and indexes only its
      slice of the snapshot, so priming cost drops with the slice size
      (the point of sharding a much larger catalog);
    * **cold catalog-wide latency** — every probe uses a distinct bid
      multiple, so every one scatters to all shards and merges;
    * **cached throughput** — the steady state: hot answers come from
      the router's own wire cache and never re-scatter.
    """
    snapshot = tmp_path / "state"
    store = SnapshotDatastore(snapshot)
    build_database(into=store)
    store.save()
    store.close()

    # Per-shard cold prime, measured in-process (the exact load+index
    # work a shard worker does before announcing readiness).
    shard_map = ShardMap(SHARD_COUNT)
    started = time.perf_counter()
    reference_store = SnapshotDatastore(
        snapshot, append_log=False, must_exist=True
    )
    reference_frontend = QueryFrontend(
        SpotLightQuery(reference_store, default_catalog()), cache_ttl=3600.0
    )
    reference_frontend.prime()
    full_prime = time.perf_counter() - started
    total_markets = len(reference_store.markets)

    shard_primes: list[dict] = []
    for shard in range(SHARD_COUNT):
        started = time.perf_counter()
        shard_store = SnapshotDatastore(
            snapshot, append_log=False, must_exist=True,
            market_filter=shard_map.filter(shard),
        )
        shard_frontend = QueryFrontend(
            SpotLightQuery(shard_store, default_catalog()), cache_ttl=3600.0
        )
        shard_frontend.prime()
        shard_primes.append({
            "markets": len(shard_store.markets),
            "prime_seconds": round(time.perf_counter() - started, 4),
        })
        shard_store.close()
    # The shards partition the catalog: nobody loads the whole thing.
    assert sum(entry["markets"] for entry in shard_primes) == total_markets
    assert max(entry["markets"] for entry in shard_primes) < total_markets

    cores = len(os.sched_getaffinity(0))
    workload = build_workload()
    with ShardCluster(
        snapshot, shards=SHARD_COUNT, cache_ttl=3600.0
    ) as cluster:
        router = SpotLightRouter(
            cluster.shard_addresses, rate_per_second=1e6, burst=1e6
        )
        with BackgroundServer(server=router) as background:
            with SpotLightClient(*background.address) as client:
                # Cold catalog-wide probes: distinct bid multiples, so
                # every one misses the wire cache and scatters.
                cold_latencies: list[float] = []
                first_answer = None
                for probe in range(COLD_SCATTER_PROBES):
                    probe_started = time.perf_counter()
                    answer = client.top_stable_markets(
                        n=10, bid_multiple=1.0 + 0.01 * probe
                    )
                    cold_latencies.append(
                        time.perf_counter() - probe_started
                    )
                    if first_answer is None:
                        first_answer = answer
                cold_latencies.sort()
                # The distributed merge matches the single-node engine.
                expected = reference_frontend.top_stable_markets(
                    n=10, bid_multiple=1.0
                )
                assert [entry["market"] for entry in first_answer] == [
                    str(entry.market) for entry in expected
                ]
            # Cached phase: the mixed workload hammers the (now warm)
            # router wire cache.
            cached_wall, cached_latencies = _drive(
                background.address, workload,
                workers=SHARD_DRIVERS, rounds=SHARD_ROUNDS,
            )
            stats = router.stats()
    reference_store.close()

    cached_requests = len(cached_latencies)
    throughput = cached_requests / cached_wall
    scatters = stats["shards"]["scatter_queries"]
    entry = {
        "shards": SHARD_COUNT,
        "cores": cores,
        "full_prime": {
            "markets": total_markets,
            "prime_seconds": round(full_prime, 4),
        },
        "shard_prime": shard_primes,
        "cold_catalog_wide": {
            "requests": COLD_SCATTER_PROBES,
            "p50_ms": round(_quantile(cold_latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_quantile(cold_latencies, 0.99) * 1e3, 3),
        },
        "cached": {
            "requests": cached_requests,
            "wall_seconds": round(cached_wall, 3),
            "throughput_rps": round(throughput, 1),
            "p50_ms": round(_quantile(cached_latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_quantile(cached_latencies, 0.99) * 1e3, 3),
        },
        "router": dict(stats["shards"]),
    }
    record_result(BENCH_PATH, "server_load_sharded", entry)
    print(
        f"\nsharded: {SHARD_COUNT} shards "
        f"({'/'.join(str(e['markets']) for e in shard_primes)} of "
        f"{total_markets} markets each), cold catalog-wide p50 "
        f"{entry['cold_catalog_wide']['p50_ms']:.1f} ms, cached "
        f"{throughput:.0f} req/s on {cores} cores "
        f"({scatters} scatters, {stats['shards']['forwarded_queries']} "
        f"forwarded)"
    )

    # No shard ever failed mid-benchmark and nothing went partial.
    assert stats["shards"]["shard_errors"] == 0
    assert stats["shards"]["partial_answers"] == 0
    # Hot answers never re-scatter: the scatter count is bounded by the
    # cold probes plus the catalog-wide entries of the first workload
    # pass, not by the tens of thousands of cached-phase requests.
    assert scatters <= COLD_SCATTER_PROBES + 2 * len(workload)
    # Cores-gated floors: the cached phase is router-local dict lookups
    # and must clear the standard floor when the router and drivers do
    # not share one core with the (idle) shard workers.
    if cores >= 2:
        assert throughput >= MIN_CACHED_RPS, (
            f"sharded cached throughput {throughput:.0f} req/s below "
            f"{MIN_CACHED_RPS} on {cores} cores"
        )
        assert entry["cold_catalog_wide"]["p50_ms"] <= 250.0
    else:
        assert throughput >= 0.4 * MIN_CACHED_RPS
        assert entry["cold_catalog_wide"]["p50_ms"] <= 500.0
