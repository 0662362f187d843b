"""The three workloads.  Each returns ``(metrics, tally)``.

Why each workload exists — the layer it loads, and the workloads that
bypass that layer (where a change to it should move nothing):

* ``hot_read`` — ~400 popular keys with Zipf popularity, 20% of them
  conditional polls: SpotOn/SpotCheck fleets re-asking the same
  questions.  The working set fits the frontend's 1,024-entry wire
  cache, so the server, the wire cache and the client do the work and
  the query engine idles.
* ``live_ingest`` — ``hot_read``'s reads against ``serve --follow``
  while a ``Recorder`` commits rows beside them: the only workload where
  replication, WAL fsync and per-market read-index invalidation work.
* ``study`` — SpotLight probing a simulated fleet into a snapshot: the
  only workload where ``repro.ec2``, ``repro.providers`` and
  ``repro.core.service`` work; every serving layer is bypassed.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.datastore import SnapshotDatastore
from repro.core.frontend import QueryFrontend, QueryRequest, wire_encode
from repro.core.query import SpotLightQuery
from repro.ec2.catalog import default_catalog
from repro.replication import Recorder, ReplicaTailer
from repro.server import LATENCY_BUCKETS

from perfbench import study, traffic
from perfbench.ingest import Ingest
from perfbench.serving import FAILURES, ServerProcess, closed_loop, request_stream
from perfbench.snapshot import write_snapshot

#: Server start-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
WARMUP_S = 1.0
#: Wire answers compared with the in-process reference after the loop.
SAMPLE_CHECKS = 150
#: Requests replayed in-process through ``handle_wire`` when traced.
REPLAY_REQUESTS = 1500
#: live_ingest's reader is paced: every commit makes the replica drop
#: its caches, and an unpaced reader then spends most of the run in
#: ranking recomputes, so its throughput and tail swing with how many
#: land per run.  At a fixed rate the share of reads that recompute is
#: fixed, and p99 measures read latency beside the writes.
LIVE_READ_RATE = 300.0
STUDY_MIN_REPS = 3
#: Extra study set-ups timed before each repetition.
SETUPS_PER_STUDY = 6


@dataclass
class Tally:
    """Operations attempted and failed.  Offered = completed + failed +
    pending, and a closed loop ends with nothing pending, so every
    operation sent is either a success or a failure here."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


@dataclass
class Context:
    src: Path
    out: Path
    workload: str
    seed: int
    seconds: float
    children: object
    tracer: object = None

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.workload}/{purpose}/{self.seed}")


def masked(response: dict) -> dict:
    return {k: v for k, v in response.items() if k not in ("served_at", "cached")}


def reference_answer(frontend: QueryFrontend, name: str, params: dict) -> dict:
    """What the wire must carry, as the SDK decodes it."""
    response = frontend.handle({"query": name, "params": params})
    return masked(json.loads(wire_encode(response)))


def check_sample(client, frontend: QueryFrontend, requests, tally: Tally) -> None:
    """Wire answers vs in-process ``QueryFrontend.handle`` on the same
    data; a mismatch or an error is a failed operation."""
    for _mode, name, params in requests:
        tally.attempted += 1
        try:
            got = masked(client.query_response(name, params))
        except FAILURES as exc:
            tally.fail(f"check {name}: {exc}")
            continue
        if got != reference_answer(frontend, name, params):
            tally.fail(f"check {name} {params}: answer differs from reference")


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def start_server(
    ctx: Context, snapshot: Path, first, expected: dict, tally: Tally,
    follow: bool,
) -> tuple[ServerProcess, float]:
    """Start ``serve``, timed from spawn to its first correct answer."""
    server = ServerProcess(
        ctx.children, ctx.src, snapshot, ctx.out / "serve.log", follow
    )
    with server.client() as client:
        tally.attempted += 1
        answer = masked(client.query_response(*first))
    elapsed = time.perf_counter() - server.started
    if answer != expected:
        tally.fail("first answer differs from reference")
    return server, elapsed


@contextlib.contextmanager
def running(ingest, warmup_s: float):
    """Run the live_ingest writer/observer (if any) for the block."""
    if ingest is None:
        yield
        return
    ingest.start(measure_from=time.perf_counter() + warmup_s)
    try:
        yield
    finally:
        ingest.stop()


def server_counters(client, server: ServerProcess) -> dict:
    stats = client.stats()
    endpoint = stats["endpoints"]["/query"]
    return {
        "stats": stats,
        "requests": endpoint["requests"],
        "buckets": list(endpoint["latency"]["buckets"].values()),
        "cpu_s": server.cpu_seconds(),
    }


def bucket_p50_ms(before: list[int], after: list[int]) -> float:
    """Median of the server's own /query histogram over an interval
    (the upper bound of the bucket holding it)."""
    counts = [b - a for a, b in zip(before, after)]
    total = sum(counts)
    seen = 0
    for bound, count in zip((*LATENCY_BUCKETS, float("inf")), counts):
        seen += count
        if total and seen >= total / 2:
            return bound * 1000.0
    return 0.0


class TracedEngine:
    """A ``SpotLightQuery`` whose query calls are spans: rankings as
    ``query.rank``, everything else as ``query.point``."""

    def __init__(self, inner: SpotLightQuery, tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str):
        value = getattr(self._inner, name)
        if name.startswith("_") or name in ("prime", "rebind") or not callable(value):
            return value
        span = "query.rank" if name == "top_stable_markets" else "query.point"
        tracer = self._tracer

        def traced(*args, **kwargs):
            return tracer.call(span, value, *args, **kwargs)
        return traced


def load_in_process(ctx: Context, snapshot: Path) -> tuple:
    """Load (span ``datastore.load``) and prime (span
    ``read_index.prime``) the snapshot the way ``serve`` does."""
    tracer = ctx.tracer
    store = tracer.call(
        "datastore.load", SnapshotDatastore, snapshot,
        append_log=False, must_exist=True,
    )
    frontend = QueryFrontend(TracedEngine(
        SpotLightQuery(store, default_catalog()), tracer
    ))
    tracer.call("read_index.prime", frontend.prime)
    return store, frontend


def replay(ctx: Context, frontend: QueryFrontend, requests, prefill) -> dict:
    """Replay requests through ``handle_wire``; the engine calls are its
    child spans, so the rest of each span is the frontend's own work
    (cache lookup, encode, ETag, insert)."""
    tracer = ctx.tracer
    for name, params in prefill:
        frontend.handle_wire({"query": name, "params": params})
    first = len(tracer.spans)
    for _mode, name, params in requests:
        request = QueryRequest.from_dict({"query": name, "params": params})
        tracer.call("frontend.handle_wire", frontend.handle_wire, request)
    spans = tracer.spans[first:]
    inner: dict[int, float] = {}
    for span in spans:
        if span[3] >= first:
            inner[span[3]] = inner.get(span[3], 0.0) + span[2] - span[1]
    hit_us, miss_us = [], []
    wire_total = engine_total = 0.0
    for offset, (name, start, end, _parent, _request) in enumerate(spans):
        if name != "frontend.handle_wire":
            continue
        engine = inner.get(first + offset, 0.0)
        wire_total += end - start
        engine_total += engine
        (miss_us if engine else hit_us).append((end - start - engine) * 1e6)
    return {
        "frontend.hit_us": statistics.median(hit_us) if hit_us else 0.0,
        "frontend.miss_us": statistics.median(miss_us) if miss_us else 0.0,
        "query.self_share": engine_total / wire_total if wire_total else 0.0,
    }


def traced_loop(ctx: Context, server, streams, rate: float) -> tuple[object, dict]:
    """Alternate untraced and traced quarters of the run: the traced
    quarters give the per-request spans, the difference in mean round
    trip between the two kinds of quarter the tracing overhead."""
    ids = itertools.count(1)
    quarter = ctx.seconds / 4
    latencies: dict[bool, list[float]] = {False: [], True: []}
    sent = 0
    merged = None
    cpu0 = time.process_time()
    for index in range(4):
        traced = index % 2 == 1
        loop = closed_loop(
            server, streams, WARMUP_S if index == 0 else 0.2, quarter,
            tracer=ctx.tracer if traced else None, request_ids=ids, rate=rate,
        )
        latencies[traced].extend(loop.latencies)
        sent += loop.sent
        if merged is None:
            merged = loop
        else:
            merged.merge(loop)
    return merged, {
        "client.cpu_us_per_req": (time.process_time() - cpu0) / sent * 1e6,
        "trace.overhead": (
            statistics.fmean(latencies[True]) / statistics.fmean(latencies[False])
            - 1.0
        ),
    }


def serving_layers(ctx: Context, before: dict, after: dict) -> dict:
    """Per-layer counters from ``/stats`` and the spans recorded."""
    tracer = ctx.tracer
    stats0, stats1 = before["stats"], after["stats"]
    front0, front1 = stats0["frontend"], stats1["frontend"]
    hits = front1["wire_hits"] - front0["wire_hits"]
    misses = front1["wire_misses"] - front0["wire_misses"]
    requests = after["requests"] - before["requests"]
    replica0, replica1 = stats0.get("replica", {}), stats1.get("replica", {})
    index0 = replica0.get("read_index", {})
    index1 = replica1.get("read_index", {})
    steps = replica1.get("steps", 0) - replica0.get("steps", 0)
    useful = replica1.get("invalidations", 0) - replica0.get("invalidations", 0)
    return {
        "datastore.load_s": sum(tracer.durations("datastore.load")),
        "read_index.prime_s": sum(tracer.durations("read_index.prime")),
        "query.rank_us": median_scaled(tracer.durations("query.rank"), 1e6),
        "query.point_us": median_scaled(tracer.durations("query.point"), 1e6),
        "frontend.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "frontend.evictions": front1["evictions"] - front0["evictions"],
        "frontend.generation": front1["generation"] - front0["generation"],
        "server.p50_ms": bucket_p50_ms(before["buckets"], after["buckets"]),
        "server.cpu_us_per_req": (
            (after["cpu_s"] - before["cpu_s"]) / requests * 1e6 if requests else 0.0
        ),
        "server.not_modified": stats1["not_modified"] - stats0["not_modified"],
        "server.throttled": stats1["throttled"] - stats0["throttled"],
        "sdk.roundtrip_us": median_scaled(tracer.durations("sdk.roundtrip"), 1e6),
        "replication.commit_ms": median_scaled(
            tracer.durations("replication.commit"), 1e3
        ),
        "replication.step_ms": median_scaled(
            tracer.durations("replication.step"), 1e3
        ),
        "replication.useful_step_ratio": useful / steps if steps else 0.0,
        "read_index.price_invalidations": (
            index1.get("price_invalidations", 0) - index0.get("price_invalidations", 0)
        ),
        "read_index.probe_invalidations": (
            index1.get("probe_invalidations", 0) - index0.get("probe_invalidations", 0)
        ),
    }


def median_scaled(values: list[float], scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def run_serving(ctx: Context) -> tuple[dict, Tally]:
    """``hot_read`` and ``live_ingest``."""
    tally = Tally()
    live = ctx.workload == "live_ingest"
    traced = ctx.tracer is not None
    snapshot_dir = ctx.out / "snapshot"
    snap, store = write_snapshot(snapshot_dir, ctx.seed, append_log=live)
    reference = QueryFrontend(SpotLightQuery(store, default_catalog()))
    rng = ctx.rng("keys")
    keys, hot = traffic.hot_keys(rng, snap.markets, snap.on_demand)
    first_market = rng.choice(snap.markets)
    first = ("mean-price", {"market": str(first_market)})
    make = traffic.hot_maker(keys)
    recorder = None
    if live:
        recorder = Recorder(store)
        recorder.bootstrap()
    local = load_in_process(ctx, snapshot_dir) if traced else None
    expected_first = reference_answer(reference, *first)
    server, setup = start_server(
        ctx, snapshot_dir, first, expected_first, tally, follow=live
    )
    setups = [setup]
    try:
        with server.client() as client:
            for name, params in keys:  # fill the caches before timing
                tally.attempted += 1
                try:
                    client.query_response(name, params)
                except FAILURES as exc:
                    tally.fail(f"prefill {name}: {exc}")
            before = server_counters(client, server)
        # Two closed-loop connections in all; on live_ingest the writer/
        # observer thread holds the second.
        threads = 1 if live else 2
        streams = [
            request_stream(ctx.rng(f"stream-{i}"), make) for i in range(threads)
        ]
        ingest = None
        if live:
            tailer = None
            if traced:
                tailer = ReplicaTailer(
                    local[0], local[1], catalog=default_catalog()
                )
            ingest = Ingest(
                server, recorder, store, snap, ctx.rng("ingest"), hot,
                exclude={first_market}, tracer=ctx.tracer, tailer=tailer,
            )
        if traced:
            with running(ingest, WARMUP_S):
                loop, loop_layers = traced_loop(
                    ctx, server, streams, LIVE_READ_RATE if live else 0.0
                )
        else:
            # The measured time is cut into SETUPS slices with the other
            # server start-ups between them, so a run's figures average
            # the host over most of the run, not one stretch of it.
            loop = None
            for index in range(SETUPS):
                warmup = WARMUP_S if index == 0 else 0.2
                with running(ingest, warmup):
                    part = closed_loop(
                        server, streams, warmup, ctx.seconds / SETUPS,
                        rate=LIVE_READ_RATE if live else 0.0,
                    )
                loop = part if loop is None else (loop.merge(part) or loop)
                if index < SETUPS - 1:
                    extra, setup = start_server(
                        ctx, snapshot_dir, first, expected_first, tally, follow=live
                    )
                    extra.stop()
                    setups.append(setup)
        tally.attempted += loop.sent
        tally.failed += loop.failed
        tally.errors.extend(loop.errors[:5])
        with server.client() as client:
            if live:
                tally.attempted += ingest.commits
                for error in ingest.errors:
                    tally.fail(error)
                ingest.sync(client)
            after = server_counters(client, server)
            if live:
                check_frontend = Ingest.fresh_frontend(snapshot_dir)
                requests = ingest.check_requests(keys)
            else:
                check_frontend = reference
                check_rng = ctx.rng("check")
                requests = [make(check_rng) for _ in range(SAMPLE_CHECKS)]
            check_sample(client, check_frontend, requests, tally)
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    if traced:
        layers = dict(loop_layers)
        # hot_read's replay starts with the keys cached, as its loop does;
        # live_ingest's starts cold, so the engine's share of a miss shows.
        replay_rng = ctx.rng("stream-0")
        layers.update(replay(
            ctx, local[1], [make(replay_rng) for _ in range(REPLAY_REQUESTS)],
            [] if live else keys,
        ))
        layers.update(serving_layers(ctx, before, after))  # reads the replay's spans
        if live:
            layers["replication.visible_p50_ms"] = quantile(ingest.lags, 0.50) * 1e3
            layers["replication.visible_p90_ms"] = quantile(ingest.lags, 0.90) * 1e3
        return layers, tally
    rows = len(store) + store.price_count()
    size = sum(p.stat().st_size for p in snapshot_dir.iterdir() if p.is_file())
    metrics = {
        "setup_s": statistics.median(setups),
        "p99_ms": quantile(loop.latencies, 0.99) * 1e3,
        "rss_mb": rss_mb,
        # The snapshot served (hot_read) or the replica's directory
        # after the last commit (live_ingest).
        "bytes_per_row": size / rows,
        "p50_ms": quantile(loop.latencies, 0.50) * 1e3,
        "rps": loop.completed / ctx.seconds,
        "samples.latency": len(loop.latencies),
        "samples.setup": len(setups),
    }
    if live:
        metrics["visible_p50_ms"] = quantile(ingest.lags, 0.50) * 1e3
        metrics["visible_p90_ms"] = quantile(ingest.lags, 0.90) * 1e3
        metrics["samples.visible"] = len(ingest.lags)
    return metrics, tally


# -- the study ------------------------------------------------------------------

def run_study(ctx: Context) -> tuple[dict, Tally]:
    """Repeat the seeded study until the run's time is up; every
    repetition must write the same rows and snapshot bytes."""
    tally = Tally()
    root = ctx.out / "study"
    traced = ctx.tracer is not None
    reps = []
    deadline = time.perf_counter() + ctx.seconds
    setups = []
    while len(reps) < STUDY_MIN_REPS or time.perf_counter() < deadline:
        if not traced:
            # Set-up takes ~30 ms, short enough to land inside one of
            # the host's slow spells, so take many samples spread over
            # the whole run.
            setups += [study.time_setup(root, ctx.seed) for _ in range(SETUPS_PER_STUDY)]
        # Traced runs alternate plain and traced repetitions, so the
        # difference between them is the tracing overhead.
        tracer = ctx.tracer if traced and len(reps) % 2 else None
        rep = study.run_once(root, ctx.seed, tracer)
        rep["traced"] = tracer is not None
        reps.append(rep)
        if traced and len(reps) >= 4:
            break
    tally.attempted = len(reps)
    expected = reps[0]
    if expected["markets"] != 270 or expected["rows"] <= 0:
        tally.fail(f"study monitored {expected['markets']} markets, "
                   f"wrote {expected['rows']} rows")
    for rep in reps[1:]:
        if (rep["rows"], rep["digest"]) != (expected["rows"], expected["digest"]):
            tally.fail("study repetition wrote different rows or bytes")
    rates = [study.STUDY_SECONDS / rep["study_s"] for rep in reps if not rep["traced"]]
    if traced:
        return study_layers(ctx, reps, rates), tally
    setups += [rep["setup_s"] for rep in reps]
    ticks = [tick for rep in reps for tick in rep["ticks"]]
    study_s = sum(rep["study_s"] for rep in reps)
    return {
        "samples.setup": len(setups),
        "samples.latency": len(ticks),
        "setup_s": statistics.median(setups),
        "p99_ms": quantile(ticks, 0.99) * 1e3,
        "rss_mb": peak_rss_mb_self(),
        "bytes_per_row": expected["bytes"] / expected["rows"],
        # All repetitions' simulated time over their wall time, saves
        # included.
        "sim_s_per_s": len(reps) * study.STUDY_SECONDS / study_s,
    }, tally


def study_layers(ctx: Context, reps: list[dict], rates: list[float]) -> dict:
    tracer = ctx.tracer
    traced_reps = [rep for rep in reps if rep["traced"]]
    traced_rate = statistics.fmean(
        study.STUDY_SECONDS / rep["study_s"] for rep in traced_reps
    )
    self_s = tracer.self_times()
    count = len(traced_reps)
    return {
        "ec2.self_s": self_s.get("ec2.run_for", 0.0) / count,
        "service.callback_us": median_scaled(tracer.durations("service.callback"), 1e6),
        "service.self_s": self_s.get("service.callback", 0.0) / count,
        "providers.call_us": median_scaled(tracer.durations("providers.call"), 1e6),
        "providers.calls": len(tracer.durations("providers.call")) / count,
        "datastore.insert_us": median_scaled(tracer.durations("datastore.insert"), 1e6),
        "datastore.save_s": median_scaled(tracer.durations("datastore.save"), 1.0),
        "trace.overhead": 1.0 - traced_rate / statistics.fmean(rates),
    }


RUNNERS = {
    "hot_read": run_serving,
    "live_ingest": run_serving,
    "study": run_study,
}
