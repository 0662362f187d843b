"""``live_ingest``'s writer and freshness observer.

One thread appends seeded rows — price steps, spikes, and on-demand
probe rejection/recovery runs — to a rotating set of markets (a third
of them from the hot read set) and commits them through ``Recorder``
at seeded, jittered gaps, so commits never phase-lock with the
tailer's poll-and-back-off schedule and their number per run is set by
the gaps, not by how fast the replica keeps up.  Between commits the
same thread polls the replica over the wire: a commit is visible when
``mean-price`` of the last market it wrote equals what the recorder's
own rows give.  Its lag runs from ``Recorder.commit()`` returning to
the reply that showed it.

Traced, each ``Recorder.commit`` is a span, and an in-process
``ReplicaTailer`` over the same directory is stepped (and timed) after
every commit.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.core.datastore import SnapshotDatastore
from repro.core.frontend import QueryFrontend
from repro.core.query import SpotLightQuery
from repro.core.records import (
    OUTCOME_FULFILLED,
    PriceRecord,
    ProbeKind,
    ProbeRecord,
    ProbeTrigger,
)
from repro.ec2.catalog import default_catalog

from perfbench.serving import FAILURES
from perfbench.snapshot import REJECTED

COMMIT_GAP_S = (0.03, 0.10)
VISIBLE_TIMEOUT_S = 10.0
OBSERVE_EVERY_S = 0.002
SYNC_TIMEOUT_S = 30.0
POOL = 24
POOL_HOT = 8
PER_COMMIT = 3
ROW_SPACING_S = 30.0


class Ingest:
    """The writer/observer thread of ``live_ingest``."""

    def __init__(
        self, server, recorder, store, snap, rng, hot_markets, exclude,
        tracer=None, tailer=None,
    ) -> None:
        self.server = server
        self.recorder = recorder
        self.store = store
        self.snap = snap
        self.rng = rng
        self.tracer = tracer
        self.tailer = tailer
        # ``exclude``: markets whose answers must not change (the
        # start-up check asks one of them).
        hot = set(hot_markets) - exclude
        pool = rng.sample(sorted(hot), POOL_HOT)
        others = [m for m in snap.markets if m not in hot and m not in exclude]
        pool += rng.sample(others, POOL - POOL_HOT)
        rng.shuffle(pool)
        self.pool = pool
        self.touched: set = set()
        self.outage = {m: False for m in pool}
        self.clock = snap.horizon + 600.0
        # What the replica must answer, from the recorder's own rows.
        self.engine = SpotLightQuery(store, default_catalog())
        # Commits not yet seen over the wire: (market, expected, time).
        self.pending: deque[tuple[str, float, float]] = deque()
        self.commits = 0
        self.lags: list[float] = []
        self.errors: list[str] = []
        self.measure_from = float("inf")
        self._awake = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- writing -------------------------------------------------------------
    def _append(self) -> tuple[str, float]:
        """Append one commit's rows; returns the market to observe and
        the ``mean-price`` it must show once the rows are applied."""
        rng = self.rng
        for j in range(PER_COMMIT):
            market = self.pool[(self.commits * PER_COMMIT + j) % len(self.pool)]
            self.touched.add(market)
            self.clock += ROW_SPACING_S
            od = self.snap.on_demand[market]
            spike = rng.random() < 0.25
            price = od * (rng.uniform(1.5, 3.0) if spike else rng.uniform(0.15, 0.45))
            self.store.insert_price(PriceRecord(self.clock, market, round(price, 6)))
            # Rejection runs: an outage persists with probability 0.6.
            self.outage[market] = rng.random() < (0.6 if self.outage[market] else 0.3)
            self.store.insert_probe(ProbeRecord(
                time=self.clock, market=market, kind=ProbeKind.ON_DEMAND,
                trigger=ProbeTrigger.RECOVERY,
                outcome=REJECTED if self.outage[market] else OUTCOME_FULFILLED,
            ))
        return str(market), self.engine.mean_price(market)

    def _commit(self) -> float:
        if self.tracer is None:
            self.recorder.commit()
        else:
            self.tracer.call("replication.commit", self.recorder.commit)
        return time.perf_counter()

    # -- observing -----------------------------------------------------------
    def _observe(self, client) -> bool:
        """Poll the oldest pending commit once; True when it (and maybe
        later ones: a step applies everything committed) became visible."""
        market, _expected, committed = self.pending[0]
        try:
            shown = client.query("mean-price", {"market": market})
        except FAILURES as exc:
            self.errors.append(f"observe: {exc}")
            self.pending.popleft()
            return True
        now = time.perf_counter()
        # A later commit may have written the same market again.
        newest = max(
            (i for i, (m, expected, _t) in enumerate(self.pending)
             if m == market and expected == shown),
            default=None,
        )
        if newest is None:
            if now - committed > VISIBLE_TIMEOUT_S:
                self.errors.append(f"commit to {market} not visible in time")
                self.pending.popleft()
                return True
            return False
        for _ in range(newest + 1):
            _m, _e, at = self.pending.popleft()
            # The first commit after a pause finds the tailer asleep in
            # its idle back-off (up to 2 s); lags count from the first
            # commit it applied, once it polls at its working rate.
            if self._awake and at >= self.measure_from:
                self.lags.append(now - at)
        self._awake = True
        return True

    def _run(self) -> None:
        with self.server.client() as client:
            next_commit = time.perf_counter() + self.rng.uniform(*COMMIT_GAP_S)
            while not self._stop.is_set():
                if time.perf_counter() >= next_commit:
                    market, expected = self._append()
                    committed = self._commit()
                    self.commits += 1
                    self.pending.append((market, expected, committed))
                    if self.tailer is not None:
                        self.tracer.call("replication.step", self.tailer.step)
                    next_commit = committed + self.rng.uniform(*COMMIT_GAP_S)
                elif not (self.pending and self._observe(client)):
                    time.sleep(OBSERVE_EVERY_S)
            # Stop committing, but see every commit made through (or
            # time it out) so slow ones are not dropped from the lags.
            while self.pending:
                if not self._observe(client):
                    time.sleep(OBSERVE_EVERY_S)

    def start(self, measure_from: float) -> None:
        self.measure_from = measure_from
        self._awake = False
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=VISIBLE_TIMEOUT_S + 30.0)
        if self._thread.is_alive():
            raise RuntimeError("ingest thread did not stop")

    # -- after the run -------------------------------------------------------
    def sync(self, client) -> None:
        """Commit the tail and wait until the replica has applied it."""
        target = self.recorder.commit()["seq"]
        deadline = time.monotonic() + SYNC_TIMEOUT_S
        while client.stats()["replica"]["applied_seq"] < target:
            if time.monotonic() > deadline:
                raise RuntimeError("replica did not catch up after the run")
            time.sleep(0.05)

    def check_requests(self, hot_keys) -> list[tuple[str, str, dict]]:
        """Every hot key plus point queries on every market written."""
        requests = [("query", name, params) for name, params in hot_keys]
        requests.append(("query", "rejection-counts", {}))
        requests.append(("query", "top-stable-markets", {"n": 50}))
        for market in sorted(self.touched):
            name = str(market)
            requests += [
                ("query", "rejection-counts", {"market": name}),
                ("query", "mean-price", {"market": name}),
                ("query", "availability", {"market": name, "kind": "on-demand"}),
            ]
        return requests

    @staticmethod
    def fresh_frontend(root) -> QueryFrontend:
        store = SnapshotDatastore(root, append_log=False, must_exist=True)
        return QueryFrontend(SpotLightQuery(store, default_catalog()))
