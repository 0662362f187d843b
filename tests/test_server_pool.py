"""Integration tests for the multi-process SO_REUSEPORT worker pool."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.client import SpotLightClient
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
from repro.ec2.catalog import default_catalog
from repro.server_pool import BOARD_FIELDS, ShardCluster, WorkerPool

MARKETS = [
    MarketID(zone, itype, "Linux/UNIX")
    for zone in ("us-east-1a", "us-east-1b")
    for itype in ("m3.medium", "c3.large")
]


def _record_snapshot(path) -> None:
    store = SnapshotDatastore(path)
    for i, market in enumerate(MARKETS):
        base = 0.02 * (1 + i)
        for step in range(40):
            spike = 8.0 if (step + i) % 11 == 0 else 1.0
            store.insert_price(PriceRecord(300.0 * step, market, base * spike))
        for t, outcome in [
            (0.0, OUTCOME_FULFILLED),
            (600.0 + 100.0 * i, "InsufficientInstanceCapacity"),
            (1500.0 + 100.0 * i, OUTCOME_FULFILLED),
        ]:
            store.insert_probe(
                ProbeRecord(
                    time=t, market=market, kind=ProbeKind.ON_DEMAND,
                    trigger=ProbeTrigger.RECOVERY, outcome=outcome,
                )
            )
    store.save()
    store.close()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "state"
    _record_snapshot(path)
    return path


@pytest.fixture(scope="module")
def pool(snapshot):
    with WorkerPool(
        snapshot, workers=2, rate_per_second=1e6, burst=1e6
    ) as running:
        yield running


def test_pool_answers_like_a_direct_frontend(pool, snapshot):
    reference = QueryFrontend(
        SpotLightQuery(
            SnapshotDatastore(snapshot, append_log=False, must_exist=True),
            default_catalog(),
        )
    )
    with SpotLightClient(*pool.address) as client:
        assert client.healthz()["status"] == "serving"
        assert client.top_stable_markets(n=3) == [
            {
                "market": str(entry.market),
                "availability_zone": entry.market.availability_zone,
                "instance_type": entry.market.instance_type,
                "product": entry.market.product,
                "mean_time_to_revocation": pytest.approx(
                    entry.mean_time_to_revocation
                ),
                "availability_at_bid": pytest.approx(entry.availability_at_bid),
                "mean_price": pytest.approx(entry.mean_price),
            }
            for entry in reference.top_stable_markets(n=3)
        ]
        for market in MARKETS:
            assert client.availability(market) == pytest.approx(
                reference.availability(market)
            )


def test_stats_carry_worker_id_and_cluster_aggregate(pool):
    # Fresh connections so SO_REUSEPORT can spread them; each client
    # still observes the *cluster* totals regardless of which worker
    # its connection landed on.
    queries = 0
    workers_seen = set()
    for round_number in range(6):
        with SpotLightClient(*pool.address) as client:
            client.rejection_rate()
            queries += 1
            stats = client.stats()
            workers_seen.add(stats["worker"])
            cluster = client.cluster_stats()
    assert workers_seen <= {0, 1}
    assert cluster["workers"] == 2
    assert set(BOARD_FIELDS) <= set(cluster)
    assert cluster["queries"] >= queries
    # The aggregate is the sum of the per-worker rows.
    board = pool.board
    assert cluster["queries"] <= (
        board.row(0)["queries"] + board.row(1)["queries"] + queries
    )


def test_board_rows_sum_to_aggregate(pool):
    board = pool.board
    aggregate = board.aggregate()
    for field in BOARD_FIELDS:
        assert aggregate[field] == board.row(0)[field] + board.row(1)[field]


STARTUP_STAGES = {"verify_s", "load_s", "prime_s"}


def _startup_by_worker(address, workers: int) -> dict[int, dict]:
    """Each worker's ``/stats`` ``startup`` block, over fresh
    connections until every worker has answered one."""
    seen: dict[int, dict] = {}
    for _ in range(400):
        with SpotLightClient(*address) as client:
            stats = client.stats()
        seen[stats["worker"]] = stats["startup"]
        if len(seen) == workers:
            break
    return seen


@pytest.mark.parametrize("follow", [False, True])
def test_every_worker_reports_startup_stages(snapshot, follow):
    with WorkerPool(snapshot, workers=2, follow=follow) as running:
        seen = _startup_by_worker(running.address, 2)
    assert seen.keys() == {0, 1}
    stages = STARTUP_STAGES | {"replica_seed_s"} if follow else STARTUP_STAGES
    for startup in seen.values():
        assert startup.keys() == stages
        assert all(
            isinstance(seconds, float) and seconds >= 0.0
            for seconds in startup.values()
        )


def test_every_shard_reports_startup_stages(snapshot):
    with ShardCluster(snapshot, shards=2) as cluster:
        for shard, address in enumerate(cluster.shard_addresses):
            startup = _startup_by_worker(address, 1)[shard]
            assert startup.keys() == STARTUP_STAGES
            assert all(seconds >= 0.0 for seconds in startup.values())


def test_pool_rejects_missing_snapshot(tmp_path):
    pool = WorkerPool(tmp_path / "nowhere", workers=2)
    with pytest.raises(RuntimeError, match="exited with code"):
        pool.start()


def test_pool_drains_cleanly(snapshot):
    with WorkerPool(snapshot, workers=2) as running:
        with SpotLightClient(*running.address) as client:
            client.top_stable_markets(n=2)
    # __exit__ ran stop(): it raises unless every worker exited 0.
    assert all(proc.exitcode == 0 for proc in running._procs)
    summary = running.drain_summary
    assert summary["unclean"] == [] and summary["killed"] == []
    assert set(summary["exit_codes"].values()) == {0}


def _wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestSupervision:
    def test_killed_worker_is_respawned_and_pool_recovers(self, snapshot):
        pool = WorkerPool(
            snapshot, workers=2, rate_per_second=1e6, burst=1e6,
            respawn_backoff=0.05, backoff_cap=0.2,
        )
        with pool:
            pids = pool.worker_pids()
            assert sorted(pids) == [0, 1]
            os.kill(pids[0], signal.SIGKILL)
            assert _wait_until(
                lambda: pool.respawns >= 1 and pool.alive_workers() == 2
                and pool.board.health()["alive"] == 2
            ), "killed worker was not respawned"
            replacement = pool.worker_pids()
            assert replacement[0] != pids[0]  # a new process in slot 0
            assert replacement[1] == pids[1]  # the survivor untouched
            with SpotLightClient(*pool.address) as client:
                assert client.rejection_rate() >= 0.0  # replacement serves
            health = pool.board.health()
            assert health == {
                "workers": 2, "alive": 2, "respawns": pool.respawns,
                "failed": 0,
            }
        assert (0, -signal.SIGKILL) in pool.exit_history
        assert pool.drain_summary["respawns"] >= 1
        assert not pool.failed

    def test_healthz_reports_degraded_while_a_worker_is_down(self, snapshot):
        # A long respawn backoff keeps the pool one-worker for a
        # window wide enough to observe the degraded health report.
        pool = WorkerPool(
            snapshot, workers=2, rate_per_second=1e6, burst=1e6,
            respawn_backoff=20.0, backoff_cap=20.0,
        )
        with pool:
            os.kill(pool.worker_pids()[1], signal.SIGKILL)
            assert _wait_until(
                lambda: pool.board.health()["alive"] == 1, timeout=10.0
            )
            with SpotLightClient(*pool.address) as client:
                payload = client.healthz()
            assert payload["status"] == "degraded"
            assert payload["pool"]["alive"] == 1
            assert payload["pool"]["workers"] == 2

    def test_unsupervised_wait_and_stop_never_hang_on_dead_workers(
        self, snapshot
    ):
        pool = WorkerPool(
            snapshot, workers=2, supervise=False,
            rate_per_second=1e6, burst=1e6,
        )
        pool.start()
        try:
            for pid in pool.worker_pids().values():
                os.kill(pid, signal.SIGKILL)
            assert _wait_until(lambda: pool.alive_workers() == 0, timeout=10.0)
            started = time.monotonic()
            pool.wait()  # every sentinel is dead: must return immediately
            assert time.monotonic() - started < 5.0
        finally:
            summary = pool.stop()  # nothing alive to drain: must not raise
        assert summary["exit_codes"] == {
            "spotlight-worker-0": -signal.SIGKILL,
            "spotlight-worker-1": -signal.SIGKILL,
        }
        assert sorted(summary["unexpected_exits"]) == [
            (0, -signal.SIGKILL), (1, -signal.SIGKILL),
        ]

    def test_respawn_budget_exhaustion_marks_the_pool_failed(self, snapshot):
        pool = WorkerPool(
            snapshot, workers=2, max_respawns=0,
            rate_per_second=1e6, burst=1e6,
        )
        pool.start()
        try:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            assert pool.wait(timeout=15.0), "wait() did not report failure"
            assert pool.failed
            assert pool.board.health()["failed"] == 1
        finally:
            summary = pool.stop()
        assert summary["failed"] is True
