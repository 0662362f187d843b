"""Command-line interface.

The subcommands mirror the ways the paper's prototype was used, plus
the layered-service workflows:

* ``study`` — deploy SpotLight on a simulated fleet, monitor for N
  days, and print the availability report (optionally exporting the
  probe log to CSV and/or saving a datastore snapshot);
* ``trace`` — generate a synthetic spot-price trace CSV from a named
  profile;
* ``figures`` — run a monitoring deployment and print the Chapter 5
  figure series;
* ``replay`` — run a (passive) SpotLight over a recorded price CSV —
  no simulator — and print the top-N stable markets;
* ``query`` — reload a datastore snapshot in a fresh process and serve
  one frontend request against it, printing the JSON response (with
  ``--stats``, the frontend's cache counters ride along;
  ``--batch-file`` serves a whole file of requests in one batch pass);
* ``serve`` — put a datastore snapshot on the wire: an asyncio HTTP
  server answering ``POST /query`` (plus ``/healthz`` and ``/stats``)
  until SIGINT/SIGTERM, shutting down gracefully.  ``--workers N``
  pre-forks N ``SO_REUSEPORT`` worker processes over the snapshot so
  throughput scales across cores; a parent-side supervisor re-spawns
  workers that die (``--max-respawns``/``--respawn-backoff`` tune the
  budget, ``--no-supervise`` disables it).  ``--chaos-plan plan.json``
  runs a seeded fault schedule (worker kills, slow-loris, socket
  resets — see RELIABILITY.md) against the pool while it serves.
  ``--follow`` turns the server into a live *replica*: a tailer thread
  follows the snapshot directory's WAL as a ``record`` process appends
  to it, applying committed increments without a restart and serving a
  resumable ``GET /watch`` change feed;
* ``record`` — run a live monitoring study that *streams* into a
  snapshot directory: increments are appended to the WAL and committed
  (fsync + watermark) every ``--commit-interval`` of simulated time,
  so concurrent ``serve --follow`` replicas stay within a bounded lag
  of the recorder.  ``--resume`` continues into a directory that
  already holds observations; ``kill -9`` mid-run loses at most the
  uncommitted tail, which the next run trims and re-records;
* ``watch`` — subscribe to a ``serve --follow`` replica's change feed
  and print one JSON event per line (spikes, revocations,
  availability transitions), reconnecting with a resume cursor.

Examples::

    python -m repro study --days 3 --regions us-east-1 sa-east-1 --seed 7
    python -m repro trace --profile c3.2xlarge-us-east-1d --days 14 -o trace.csv
    python -m repro figures --days 5 --seed 11
    python -m repro study --days 2 --snapshot ./spotlight-state
    python -m repro replay --prices prices.csv --top 10
    python -m repro query --snapshot ./spotlight-state \\
        --name top-stable-markets --params '{"n": 10}'
    python -m repro serve --snapshot ./spotlight-state --port 8080
    python -m repro serve --snapshot ./spotlight-state --port 8080 --workers 4
    python -m repro serve --snapshot ./spotlight-state --workers 2 \\
        --chaos-plan chaos.json
    python -m repro record --snapshot ./live-state --days 30 --pace 0.05
    python -m repro serve --snapshot ./live-state --follow --port 8080
    python -m repro watch --host 127.0.0.1 --port 8080 --since 0
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys
import time

from repro import (
    EC2Simulator,
    FleetConfig,
    SnapshotDatastore,
    SpotLight,
    SpotLightConfig,
    SpotLightQuery,
    TraceReplayProvider,
)
from repro.analysis import availability as av
from repro.analysis import duration as du
from repro.analysis import related as rel
from repro.analysis.context import AnalysisContext
from repro.analysis.spikes import bucket_label
from repro.core.frontend import QueryFrontend
from repro.core.records import ProbeKind
from repro.ec2.catalog import default_catalog, small_catalog
from repro.traces import SpotPriceTraceGenerator, profile, save_trace_csv

DEFAULT_REGIONS = ["us-east-1", "sa-east-1", "ap-southeast-2"]
DEFAULT_FAMILIES = ["c3", "m3"]


def _fresh_snapshot_store(path: str) -> SnapshotDatastore:
    """Open a snapshot directory for a *new* recording run.

    A monitoring run starts its clock at t=0, so it cannot append to a
    directory that already holds observations (their timestamps would
    collide); refuse loudly instead of crashing mid-run.
    """
    datastore = SnapshotDatastore(path)
    if len(datastore) or datastore.price_count():
        datastore.close()
        raise SystemExit(
            f"error: snapshot directory {path!r} already holds a recording "
            f"({datastore.price_count()} prices, {len(datastore)} probes); "
            f"use a fresh directory (or `query` to read this one)"
        )
    return datastore


def _deploy(args) -> tuple[EC2Simulator, SpotLight]:
    catalog = small_catalog(regions=args.regions, families=args.families)
    simulator = EC2Simulator(
        FleetConfig(catalog=catalog, seed=args.seed, tick_interval=300.0)
    )
    datastore = None
    if getattr(args, "snapshot", None):
        datastore = _fresh_snapshot_store(args.snapshot)
    spotlight = SpotLight(
        simulator,
        SpotLightConfig(
            threshold_multiple=args.threshold,
            sampling_probability=args.sampling,
            spot_probe_interval=4 * 3600.0,
        ),
        datastore=datastore,
    )
    spotlight.start()
    print(
        f"monitoring {len(spotlight.markets)} markets for {args.days} "
        f"simulated day(s)...",
        file=sys.stderr,
    )
    simulator.run_for(args.days * 86400.0)
    return simulator, spotlight


def cmd_study(args) -> int:
    simulator, spotlight = _deploy(args)
    stats = spotlight.stats()
    print(f"probes issued:      {stats['probes_logged']}")
    print(f"detections:         {stats['unavailability_detections']}")
    print(f"probing spend:      ${stats['budget_spent']:.2f}")

    periods = spotlight.query.unavailability_periods(kind=ProbeKind.ON_DEMAND)
    print(f"unavailability periods: {len(periods)}")
    by_region: dict[str, float] = {}
    for period in periods:
        by_region[period.market.region] = (
            by_region.get(period.market.region, 0.0) + period.duration
        )
    for region, total in sorted(by_region.items(), key=lambda kv: -kv[1]):
        print(f"  {region:<18} {total / 3600:8.1f} market-hours unavailable")

    if args.export:
        rows = spotlight.database.export_probes_csv(args.export)
        print(f"exported {rows} probe records to {args.export}")
    if args.report:
        from pathlib import Path

        from repro.analysis.report import render_study_report

        Path(args.report).write_text(render_study_report(spotlight))
        print(f"wrote study report to {args.report}")
    if args.snapshot:
        spotlight.save()
        print(f"saved datastore snapshot to {args.snapshot}")
    return 0


def _print_top_stable(frontend: QueryFrontend, n: int) -> None:
    response = frontend.handle(
        {"query": "top-stable-markets", "params": {"n": n, "bid_multiple": 1.0}}
    )
    print(f"top {n} most stable markets (bid = 1x on-demand):")
    for entry in response["result"]:
        print(
            f"  {entry['market']:<44} "
            f"mttr {entry['mean_time_to_revocation'] / 3600:8.1f} h  "
            f"avail {entry['availability_at_bid']:.1%}  "
            f"mean ${entry['mean_price']:.4f}/h"
        )


def cmd_replay(args) -> int:
    provider = TraceReplayProvider.from_prices_csv(args.prices)
    datastore = _fresh_snapshot_store(args.snapshot) if args.snapshot else None
    spotlight = SpotLight(provider, SpotLightConfig(), datastore=datastore)
    spotlight.start()
    print(
        f"replaying {len(spotlight.markets)} markets to "
        f"t={provider.end_time:.0f}s...",
        file=sys.stderr,
    )
    provider.replay_all()
    stats = spotlight.stats()
    print(f"price samples replayed: {spotlight.database.price_count()}")
    print(f"passive mode:           {stats['passive']}")
    _print_top_stable(spotlight.frontend, args.top)
    if args.snapshot:
        spotlight.save()
        print(f"saved datastore snapshot to {args.snapshot}")
    return 0


def _open_snapshot_frontend(
    path: str, vectorized: bool = True
) -> tuple[QueryFrontend, SnapshotDatastore]:
    # Prices are resolved against the full default catalog.  Snapshots
    # recorded by this CLI always price identically (study/replay use
    # subsets of the same 2015 price table); snapshots built in-library
    # against a *custom* catalog should be queried in-library instead.
    # The datastore rides along so `serve --follow` can hand it to a
    # replica tailer.
    datastore = SnapshotDatastore(path, append_log=False, must_exist=True)
    frontend = QueryFrontend(
        SpotLightQuery(datastore, default_catalog(), vectorized=vectorized)
    )
    return frontend, datastore


def cmd_query(args) -> int:
    try:
        frontend, _datastore = _open_snapshot_frontend(
            args.snapshot, vectorized=args.engine == "vectorized"
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.batch_file:
        return _run_batch_file(frontend, args.batch_file)
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        print(f"--params is not valid JSON: {exc}", file=sys.stderr)
        return 2
    response = frontend.handle({"query": args.name, "params": params})
    if args.repeat > 1:
        for _ in range(args.repeat - 1):
            response = frontend.handle({"query": args.name, "params": params})
    if args.stats:
        response = {**response, "frontend_stats": frontend.stats()}
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response["ok"] else 1


def _run_batch_file(frontend: QueryFrontend, path: str) -> int:
    """``query --batch-file``: serve N schema requests in one pass.

    The file holds either a JSON array of requests or JSON Lines (one
    request object per line).  Output is one batch response — the same
    wire body ``POST /batch`` would return, duplicates answered from
    the byte cache.  Exits 0 only if every sub-query succeeded.
    """
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        stripped = text.lstrip()
        if stripped.startswith("["):
            requests = json.loads(text)
        else:
            requests = [
                json.loads(line) for line in text.splitlines() if line.strip()
            ]
    except json.JSONDecodeError as exc:
        print(f"--batch-file is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(requests, list) or not requests:
        print("--batch-file must hold a non-empty list of requests",
              file=sys.stderr)
        return 2
    body = frontend.handle_wire_batch(requests)
    decoded = json.loads(body)
    print(json.dumps(decoded, indent=2, sort_keys=True))
    return 0 if all(sub.get("ok") for sub in decoded["results"]) else 1


def _serve_pool(args) -> int:
    """``serve --workers N``: pre-forked SO_REUSEPORT worker processes
    over the snapshot, one event loop per core, supervised by default
    (dead workers re-spawn with capped exponential backoff)."""
    from repro.server_pool import WorkerPool

    chaos_plan = None
    if getattr(args, "chaos_plan", None):
        from repro.chaos import ChaosPlan

        try:
            chaos_plan = ChaosPlan.load(args.chaos_plan)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    pool = WorkerPool(
        args.snapshot,
        workers=args.workers,
        host=args.host,
        port=args.port,
        rate_per_second=args.rate,
        burst=args.burst,
        supervise=not args.no_supervise,
        max_respawns=args.max_respawns,
        respawn_backoff=args.respawn_backoff,
        follow=args.follow,
        max_lag=args.max_lag,
        poll_interval=args.poll_interval,
    )
    harness = None

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    # Install both handlers explicitly and *before* the workers spawn:
    # a non-interactive shell starts background jobs with SIGINT
    # ignored (Python then skips its KeyboardInterrupt handler), and a
    # signal racing the pool startup must still reach cleanup code —
    # never leave orphaned workers holding the port.
    previous = {
        signum: signal.signal(signum, _interrupt)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        started = False
        try:
            pool.start()
            started = True
            host, port = pool.address
            print(
                f"serving on http://{host}:{port} with "
                f"{args.workers} workers",
                flush=True,
            )
            if chaos_plan is not None:
                from repro.chaos import ChaosHarness

                harness = ChaosHarness(chaos_plan, pool=pool).start()
            # Supervised: blocks until a worker slot exhausts its
            # respawn budget.  Unsupervised: any worker death ends the
            # run so the rest shut down too.
            pool.wait()
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            pool.terminate()
            return 2
        except KeyboardInterrupt:
            if not started:
                pool.terminate()
                print("interrupted during startup; workers stopped",
                      file=sys.stderr)
                return 1
            # Started and interrupted: fall through to the graceful stop.
        try:
            if harness is not None:
                harness.stop()
            pool.stop()
        except KeyboardInterrupt:
            # A second signal mid-drain: stop waiting politely.
            pool.terminate()
            print("error: interrupted during drain; workers killed",
                  file=sys.stderr)
            return 1
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    totals = pool.aggregate()
    print(
        f"shutdown complete: {totals['queries']} queries served across "
        f"{totals['workers']} workers, {totals['coalesced']} coalesced, "
        f"{totals['throttled']} throttled",
        flush=True,
    )
    if pool.respawns:
        print(f"supervisor respawned {pool.respawns} worker(s)", flush=True)
    if pool.failed:
        print("error: a worker exhausted its respawn budget",
              file=sys.stderr)
        return 1
    return 0


def _serve_shards(args) -> int:
    """``serve --shards N``: a :class:`~repro.server_pool.ShardCluster`
    of catalog-filtered shard workers plus a scatter-gather
    :class:`~repro.router.SpotLightRouter` in this process."""
    from repro.router import SpotLightRouter
    from repro.server_pool import ShardCluster

    if args.follow:
        print("error: --follow is not supported with --shards",
              file=sys.stderr)
        return 2
    chaos_plan = None
    if getattr(args, "chaos_plan", None):
        from repro.chaos import ChaosPlan

        try:
            chaos_plan = ChaosPlan.load(args.chaos_plan)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    cluster = ShardCluster(
        args.snapshot,
        shards=args.shards,
        host=args.host,
        supervise=not args.no_supervise,
        max_respawns=args.max_respawns,
        respawn_backoff=args.respawn_backoff,
    )

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    # Same discipline as _serve_pool: interrupts must reach cleanup
    # code even while the shards are still spawning.
    previous = {
        signum: signal.signal(signum, _interrupt)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    harness = None
    router_stats: dict = {}

    async def _run_router() -> None:
        nonlocal router_stats
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, shutdown.set)
        router = SpotLightRouter(
            cluster.shard_addresses,
            host=args.host,
            port=args.port,
            rate_per_second=args.rate,
            burst=args.burst,
        )
        await router.start()
        host, port = router.address
        print(
            f"serving on http://{host}:{port} "
            f"(router over {args.shards} shards)",
            flush=True,
        )

        async def _watch_cluster() -> None:
            # Mirror pool.wait(): a cluster that permanently fails (a
            # slot exhausted its respawn budget) ends the run.
            while not shutdown.is_set():
                if cluster.failed:
                    print(
                        "error: a shard exhausted its respawn budget; "
                        "shutting down",
                        file=sys.stderr,
                    )
                    shutdown.set()
                    return
                await asyncio.sleep(0.5)

        watcher = asyncio.ensure_future(_watch_cluster())
        await shutdown.wait()
        watcher.cancel()
        await asyncio.gather(watcher, return_exceptions=True)
        await router.stop()
        router_stats = router.stats()

    try:
        started = False
        try:
            cluster.start()
            started = True
            if chaos_plan is not None:
                from repro.chaos import ChaosHarness

                harness = ChaosHarness(chaos_plan, pool=cluster).start()
            asyncio.run(_run_router())
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            cluster.terminate()
            return 2
        except KeyboardInterrupt:
            if not started:
                cluster.terminate()
                print("interrupted during startup; shards stopped",
                      file=sys.stderr)
                return 1
        # Drain under the plain interrupt handlers again (the router's
        # loop-scoped handlers died with its event loop).
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, _interrupt)
        try:
            if harness is not None:
                harness.stop()
            cluster.stop()
        except KeyboardInterrupt:
            cluster.terminate()
            print("error: interrupted during drain; shards killed",
                  file=sys.stderr)
            return 1
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    totals = cluster.aggregate()
    shard_stats = router_stats.get("shards", {})
    endpoints = router_stats.get("endpoints", {})
    queries = endpoints.get("/query", {}).get("requests", 0)
    print(
        f"shutdown complete: {queries} queries through the router "
        f"({shard_stats.get('forwarded_queries', 0)} forwarded, "
        f"{shard_stats.get('scatter_queries', 0)} scattered, "
        f"{totals['queries']} shard-side), "
        f"{totals['coalesced']} coalesced",
        flush=True,
    )
    if cluster.respawns:
        print(f"supervisor respawned {cluster.respawns} shard(s)",
              flush=True)
    if cluster.failed:
        print("error: a shard exhausted its respawn budget",
              file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    from repro.server import serve

    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    shards = getattr(args, "shards", 1)
    if shards < 1:
        print(f"error: --shards must be >= 1, got {shards}",
              file=sys.stderr)
        return 2
    if shards > 1:
        if args.workers > 1:
            print("error: --shards and --workers are mutually exclusive",
                  file=sys.stderr)
            return 2
        return _serve_shards(args)
    # A chaos plan always runs against a supervised pool (kill-worker
    # needs worker processes to kill), even at --workers 1.
    if args.workers > 1 or args.chaos_plan:
        return _serve_pool(args)
    try:
        frontend, datastore = _open_snapshot_frontend(args.snapshot)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.server_pool import prepare_to_serve

    # Start-up stages, reported in /stats (never on stdout: the first
    # stdout line is the "serving on" announcement).
    startup, replica = prepare_to_serve(
        frontend, datastore, args.follow, args.max_lag, args.poll_interval
    )
    serve_kwargs: dict = {"startup": startup}
    if replica is not None:
        # The server serializes replicated inserts and engine reads on
        # the tailer's lock; /watch and /healthz see the tailer itself.
        serve_kwargs.update(replica=replica, frontend_lock=replica.lock)

    async def _run() -> None:
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, shutdown.set)

        def announce(server) -> None:
            host, port = server.address
            mode = " (following the recorder's WAL)" if replica else ""
            print(f"serving on http://{host}:{port}{mode}", flush=True)
            if replica is not None:
                replica.start()

        server = await serve(
            frontend,
            host=args.host,
            port=args.port,
            rate_per_second=args.rate,
            burst=args.burst,
            shutdown=shutdown,
            on_start=announce,
            **serve_kwargs,
        )
        if replica is not None:
            replica.stop()
        stats = server.stats()
        queries = stats["endpoints"]["/query"]["requests"]
        print(
            f"shutdown complete: {queries} queries served, "
            f"{stats['coalesced']} coalesced, {stats['throttled']} throttled",
            flush=True,
        )
        if replica is not None:
            health = replica.health()
            print(
                f"replica: applied_seq {health['applied_seq']} / committed "
                f"{health['committed_seq']} (lag {health['lag']})",
                flush=True,
            )

    asyncio.run(_run())
    return 0


def cmd_record(args) -> int:
    """``record``: a live study streaming into a replicated snapshot.

    Unlike ``study`` (which saves once at the end), every
    ``--commit-interval`` of simulated time the recorder fsyncs the WAL
    and publishes the watermark, so a concurrent ``serve --follow``
    replica applies the increments live.  ``--save-interval`` rolls the
    WAL generation over with a full snapshot; ``--pace`` sleeps between
    commits so wall-clock observers (replicas, chaos harnesses) get a
    window to act in.
    """
    from repro.replication import (
        Recorder,
        TimeShiftedDatastore,
        latest_record_time,
    )

    datastore = SnapshotDatastore(args.snapshot)
    resuming = bool(len(datastore) or datastore.price_count())
    if resuming and not args.resume:
        datastore.close()
        print(
            f"error: snapshot directory {args.snapshot!r} already holds a "
            f"recording; pass --resume to append to it",
            file=sys.stderr,
        )
        return 2
    recorder = Recorder(datastore)
    recorder.bootstrap()

    sink = datastore
    if resuming:
        # The fresh simulator's clock restarts at zero; shift appended
        # record times past everything already recorded (plus one tick)
        # so per-market time order survives the resume.
        offset = latest_record_time(datastore) + 300.0
        sink = TimeShiftedDatastore(datastore, offset)
        print(f"resuming: shifting new records by +{offset:.0f}s",
              file=sys.stderr)

    catalog = small_catalog(regions=args.regions, families=args.families)
    simulator = EC2Simulator(
        FleetConfig(catalog=catalog, seed=args.seed, tick_interval=300.0)
    )
    spotlight = SpotLight(
        simulator,
        SpotLightConfig(
            threshold_multiple=args.threshold,
            sampling_probability=args.sampling,
            spot_probe_interval=4 * 3600.0,
        ),
        datastore=sink,
    )
    spotlight.start()

    total = args.days * 86400.0
    step = max(float(args.commit_interval), 1.0)
    print(
        f"recording {len(spotlight.markets)} markets for {args.days} "
        f"simulated day(s) into {args.snapshot} "
        f"(commit every {step:.0f}s of simulated time)...",
        file=sys.stderr,
    )
    elapsed = 0.0
    since_save = 0.0
    try:
        while elapsed < total:
            chunk = min(step, total - elapsed)
            simulator.run_for(chunk)
            elapsed += chunk
            since_save += chunk
            if args.save_interval and since_save >= args.save_interval:
                recorder.save()
                since_save = 0.0
            else:
                recorder.commit()
            if args.pace:
                time.sleep(args.pace)
    except KeyboardInterrupt:
        watermark = recorder.commit()
        print(
            f"interrupted at t={elapsed:.0f}s; committed seq "
            f"{watermark['seq']}",
            file=sys.stderr,
        )
        return 1
    watermark = recorder.save()
    print(
        f"recorded {len(datastore)} probes and {datastore.price_count()} "
        f"prices (committed seq {watermark['seq']}, "
        f"generation {watermark['generation']})"
    )
    return 0


def cmd_watch(args) -> int:
    """``watch``: print a replica's change feed, one JSON event/line."""
    from repro.client import QueryError, SpotLightClient, TransportError

    client = SpotLightClient(args.host, args.port, timeout=args.timeout)
    count = 0
    try:
        for event in client.watch(
            since_seq=args.since,
            heartbeats=True,
            heartbeat_interval=args.heartbeat,
            max_attempts=args.max_attempts,
        ):
            if event.get("heartbeat"):
                if args.idle_exit and count >= args.idle_exit:
                    break
                continue
            print(json.dumps(event, sort_keys=True), flush=True)
            count += 1
            if args.max_events and count >= args.max_events:
                break
    except (QueryError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass
    finally:
        client.close()
    print(f"{count} event(s)", file=sys.stderr)
    return 0


def cmd_trace(args) -> int:
    config = profile(args.profile)
    events = SpotPriceTraceGenerator(config, seed=args.seed).generate(
        args.days * 86400.0
    )
    count = save_trace_csv(args.output, events, market=args.profile)
    above = sum(1 for _, p in events if p > config.on_demand_price)
    print(f"wrote {count} price events to {args.output} "
          f"({above} above the on-demand price)")
    return 0


def cmd_figures(args) -> int:
    simulator, spotlight = _deploy(args)
    context = AnalysisContext(spotlight.database, simulator.catalog)

    print("\n[Fig 5.4] P(on-demand unavailable) vs spike size (900 s window):")
    row = av.unavailability_vs_spike(context, windows=(900.0,))[900.0]
    for bucket in sorted(row):
        print(f"  {bucket_label(bucket):>5}: {row[bucket]:.2%}")

    print("\n[Fig 5.6] per-region P(unavailable) at >1x:")
    for region, values in sorted(av.unavailability_by_region(context).items()):
        print(f"  {region:<18} {values.get(1.0, 0.0):.2%}")

    attribution = rel.rejection_attribution(context)
    share = attribution["by_related_markets"].get(0.0, 0.0)
    print(f"\n[Fig 5.7] related-market share of rejections: {share:.0%}")

    summary = du.duration_summary(du.unavailability_durations(context))
    print(f"[Fig 5.9] {summary['count']} periods, "
          f"{summary['fraction_under_1h']:.0%} under 1 h, "
          f"max {summary['max_hours']:.1f} h")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SpotLight reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_deploy_args(p):
        p.add_argument("--days", type=float, default=2.0)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--regions", nargs="+", default=DEFAULT_REGIONS)
        p.add_argument("--families", nargs="+", default=DEFAULT_FAMILIES)
        p.add_argument("--threshold", type=float, default=1.0,
                       help="spike threshold T in multiples of on-demand")
        p.add_argument("--sampling", type=float, default=1.0,
                       help="sampling ratio p")

    study = sub.add_parser("study", help="run a monitoring study")
    add_deploy_args(study)
    study.add_argument("--export", help="write the probe log to this CSV path")
    study.add_argument("--report", help="write a markdown study report here")
    study.add_argument("--snapshot",
                       help="persist the datastore to this directory")
    study.set_defaults(func=cmd_study)

    replay = sub.add_parser(
        "replay", help="run SpotLight over a recorded price CSV (no simulator)"
    )
    replay.add_argument("--prices", required=True,
                        help="multi-market price CSV (export_prices_csv format)")
    replay.add_argument("--top", type=int, default=10,
                        help="print the N most stable markets")
    replay.add_argument("--snapshot",
                        help="persist the datastore to this directory")
    replay.set_defaults(func=cmd_replay)

    query = sub.add_parser(
        "query", help="serve one frontend request over a saved snapshot"
    )
    query.add_argument("--snapshot", required=True,
                       help="datastore snapshot directory to load")
    query.add_argument("--name", default="top-stable-markets",
                       help="query name (frontend schema)")
    query.add_argument("--params", default="{}",
                       help="query parameters as a JSON object")
    query.add_argument("--repeat", type=int, default=1,
                       help="serve the request N times (exercises the cache)")
    query.add_argument("--batch-file",
                       help="serve every request in this file (JSON array "
                            "or JSON Lines of schema requests) in one "
                            "batch; prints the /batch-format response")
    query.add_argument("--stats", action="store_true",
                       help="include the frontend's cache counters in the "
                            "printed response")
    query.add_argument("--engine", choices=["vectorized", "reference"],
                       default="vectorized",
                       help="query execution path (the scalar reference "
                            "path exists for debugging and equivalence "
                            "checks)")
    query.set_defaults(func=cmd_query)

    serve_cmd = sub.add_parser(
        "serve", help="serve a saved snapshot over HTTP (asyncio)"
    )
    serve_cmd.add_argument("--snapshot", required=True,
                           help="datastore snapshot directory to load")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8080,
                           help="listen port (0 picks a free one)")
    serve_cmd.add_argument("--rate", type=float, default=500.0,
                           help="per-client admitted queries per second")
    serve_cmd.add_argument("--burst", type=float, default=1000.0,
                           help="per-client admission burst size")
    serve_cmd.add_argument("--workers", type=int, default=1,
                           help="worker processes; >1 pre-forks "
                                "SO_REUSEPORT workers so throughput "
                                "scales across cores")
    serve_cmd.add_argument("--shards", type=int, default=1,
                           help="catalog shards; >1 spawns a worker per "
                                "shard (each loading only its slice of "
                                "the snapshot) behind a scatter-gather "
                                "router on --port")
    serve_cmd.add_argument("--chaos-plan",
                           help="JSON fault schedule to run against the "
                                "pool while serving (see RELIABILITY.md); "
                                "implies the pool path even at --workers 1")
    serve_cmd.add_argument("--no-supervise", action="store_true",
                           help="disable the supervisor (a dead worker "
                                "ends the run instead of respawning)")
    serve_cmd.add_argument("--max-respawns", type=int, default=8,
                           help="respawn budget per worker slot before "
                                "the pool is declared failed")
    serve_cmd.add_argument("--respawn-backoff", type=float, default=0.25,
                           help="base respawn delay, doubled per "
                                "consecutive death (capped at 5s)")
    serve_cmd.add_argument("--follow", action="store_true",
                           help="tail the snapshot directory's WAL and "
                                "apply increments committed by a live "
                                "`record` process; enables GET /watch "
                                "and the replica staleness gauge")
    serve_cmd.add_argument("--max-lag", type=int, default=512,
                           help="committed-but-unapplied rows before "
                                "/healthz reports degraded (with --follow)")
    serve_cmd.add_argument("--poll-interval", type=float, default=0.2,
                           help="replica watermark poll interval in "
                                "seconds (with --follow)")
    serve_cmd.set_defaults(func=cmd_serve)

    record = sub.add_parser(
        "record",
        help="run a live study streaming into a replicated snapshot",
    )
    add_deploy_args(record)
    record.add_argument("--snapshot", required=True,
                        help="snapshot directory to record into")
    record.add_argument("--resume", action="store_true",
                        help="append to a directory that already holds "
                             "observations (record times are shifted "
                             "past the existing ones)")
    record.add_argument("--commit-interval", type=float, default=1800.0,
                        help="simulated seconds between WAL commits "
                             "(fsync + watermark publish)")
    record.add_argument("--save-interval", type=float, default=0.0,
                        help="simulated seconds between full snapshots "
                             "(WAL generation rollovers); 0 saves only "
                             "at the end")
    record.add_argument("--pace", type=float, default=0.0,
                        help="wall-clock sleep after each commit, so "
                             "live followers can observe the run")
    record.set_defaults(func=cmd_record)

    watch = sub.add_parser(
        "watch", help="stream a follower replica's change feed as JSON lines"
    )
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=8080)
    watch.add_argument("--since", type=int, default=None,
                       help="resume cursor: replay retained events after "
                            "this sequence number (0 = from the oldest "
                            "retained; default = new events only)")
    watch.add_argument("--heartbeat", type=float, default=1.0,
                       help="server heartbeat interval in seconds")
    watch.add_argument("--timeout", type=float, default=10.0,
                       help="socket timeout in seconds")
    watch.add_argument("--max-events", type=int, default=0,
                       help="exit after printing N events (0 = no limit)")
    watch.add_argument("--idle-exit", type=int, default=0,
                       help="exit on the first heartbeat that arrives "
                            "after at least N events (0 = keep waiting)")
    watch.add_argument("--max-attempts", type=int, default=None,
                       help="give up after N consecutive failed "
                            "reconnects (default: retry forever)")
    watch.set_defaults(func=cmd_watch)

    trace = sub.add_parser("trace", help="generate a synthetic price trace")
    trace.add_argument("--profile", default="c3.2xlarge-us-east-1d")
    trace.add_argument("--days", type=float, default=14.0)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("-o", "--output", default="trace.csv")
    trace.set_defaults(func=cmd_trace)

    figures = sub.add_parser("figures", help="print the Chapter 5 series")
    add_deploy_args(figures)
    figures.set_defaults(func=cmd_figures)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
