"""Chaos tests: seeded fault injection driven end-to-end.

The unit half pins down the :mod:`repro.chaos` building blocks (fault
points, plans, file-tail corruption).  The integration half is the
point of the module: a chaos plan kills a pool worker under live client
load and the service recovers with zero failed calls, slow-loris
connections are shed while real requests keep flowing, and abortive
socket resets leave the server standing.
"""

from __future__ import annotations

import json
import random
import socket
import time

import pytest

from repro.chaos import (
    ChaosHarness,
    ChaosPlan,
    FaultError,
    FaultEvent,
    FaultInjector,
    garble_tail,
    truncate_tail,
)
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
from repro.server import BackgroundServer
from repro.server_pool import WorkerPool

MARKET = MarketID("us-east-1a", "m3.medium", "Linux/UNIX")


# -- fault points ------------------------------------------------------------
class TestFaultInjector:
    def test_unarmed_injector_is_a_no_op(self):
        faults = FaultInjector()
        faults.fire("datastore.save.commit")  # nothing armed, nothing raised
        assert faults.checked == {}  # the fast path doesn't even count

    def test_exact_point_fires(self):
        faults = FaultInjector().arm("datastore.save.commit")
        with pytest.raises(FaultError, match="datastore.save.commit"):
            faults.fire("datastore.save.commit")
        assert faults.fired == {"datastore.save.commit": 1}

    def test_prefix_rule_covers_dotted_children(self):
        faults = FaultInjector().arm("datastore.wal")
        with pytest.raises(FaultError):
            faults.fire("datastore.wal.fsync")
        faults.fire("datastore.save.commit")  # a sibling subsystem: untouched

    def test_times_bounds_the_budget(self):
        faults = FaultInjector().arm("io", times=2)
        for _ in range(2):
            with pytest.raises(FaultError):
                faults.fire("io")
        faults.fire("io")  # budget spent
        assert faults.fired["io"] == 2

    def test_probability_is_seeded_and_reproducible(self):
        def run(seed: int) -> list[bool]:
            faults = FaultInjector(seed=seed).arm("io", probability=0.5)
            outcomes = []
            for _ in range(32):
                try:
                    faults.fire("io")
                    outcomes.append(False)
                except FaultError:
                    outcomes.append(True)
            return outcomes

        assert run(7) == run(7)  # same seed, same failure schedule
        assert run(7) != run(8)
        assert any(run(7)) and not all(run(7))

    def test_custom_error_and_disarm(self):
        boom = PermissionError("no fsync for you")
        faults = FaultInjector().arm("io.fsync", error=boom)
        with pytest.raises(PermissionError):
            faults.fire("io.fsync")
        faults.disarm("io.fsync")
        faults.fire("io.fsync")

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("io", probability=1.5)
        with pytest.raises(ValueError):
            FaultInjector().arm("io", times=0)


# -- file-tail helpers -------------------------------------------------------
class TestTailCorruption:
    def test_truncate_tail_shears_exact_bytes(self, tmp_path):
        path = tmp_path / "wal.csv"
        path.write_bytes(b"a" * 100)
        assert truncate_tail(path, 30) == 70
        assert path.stat().st_size == 70
        assert truncate_tail(path, 1000) == 0  # never negative

    def test_garble_tail_is_seeded_and_newline_free(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        original = b"header\n" + b"1,2,3\n" * 5
        a.write_bytes(original)
        b.write_bytes(original)
        garble_tail(a, 10, seed=3)
        garble_tail(b, 10, seed=3)
        assert a.read_bytes() == b.read_bytes()  # same seed, same junk
        assert a.read_bytes() != original
        assert b"\n" not in a.read_bytes()[-10:]  # no fake row boundary


# -- plans -------------------------------------------------------------------
class TestChaosPlan:
    def test_events_sort_by_time(self):
        plan = ChaosPlan(
            [FaultEvent(5.0, "kill-worker"), FaultEvent(1.0, "reset-sockets")]
        )
        assert [e.action for e in plan.events] == [
            "reset-sockets", "kill-worker",
        ]

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosPlan([FaultEvent(0.0, "set-on-fire")])

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="does not take"):
            ChaosPlan([FaultEvent(0.0, "kill-worker", {"blast_radius": 3})])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ChaosPlan([FaultEvent(-1.0, "kill-worker")])

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 42,
            "events": [
                {"at": 2.0, "action": "kill-worker", "worker": 1},
                {"at": 4.0, "action": "slow-loris", "connections": 3},
            ],
        }))
        plan = ChaosPlan.load(path)
        assert plan.seed == 42
        assert plan.events[0].params == {"worker": 1}
        assert ChaosPlan.from_dict(plan.to_dict()).to_dict() == plan.to_dict()

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{ nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            ChaosPlan.load(path)


# -- integration fixtures ----------------------------------------------------
def _record_snapshot(path) -> None:
    store = SnapshotDatastore(path)
    for step in range(30):
        spike = 6.0 if step % 9 == 0 else 1.0
        store.insert_price(PriceRecord(300.0 * step, MARKET, 0.02 * spike))
    for t, outcome in [
        (0.0, OUTCOME_FULFILLED),
        (600.0, "InsufficientInstanceCapacity"),
        (1500.0, OUTCOME_FULFILLED),
    ]:
        store.insert_probe(ProbeRecord(
            time=t, market=MARKET, kind=ProbeKind.ON_DEMAND,
            trigger=ProbeTrigger.RECOVERY, outcome=outcome,
        ))
    store.save()
    store.close()


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "state"
    _record_snapshot(path)
    return path


@pytest.fixture()
def frontend(snapshot):
    return QueryFrontend(SpotLightQuery(
        SnapshotDatastore(snapshot, append_log=False, must_exist=True),
        default_catalog(),
    ))


# -- the acceptance scenario: kill -9 a worker under load --------------------
class TestWorkerKillUnderLoad:
    def test_pool_recovers_with_zero_failed_calls(self, snapshot):
        plan = ChaosPlan(
            [FaultEvent(0.3, "kill-worker", {"worker": 0})], seed=7
        )
        pool = WorkerPool(
            snapshot, workers=2, rate_per_second=1e6, burst=1e6,
            respawn_backoff=0.05, backoff_cap=0.2,
        )
        with pool:
            harness = ChaosHarness(plan, pool=pool).start()
            rng = random.Random(11)
            succeeded = 0
            seen_respawn_at: int | None = None
            deadline = time.monotonic() + 30.0
            with SpotLightClient(*pool.address) as client:
                while time.monotonic() < deadline:
                    # Every call must succeed: in-flight failures are
                    # absorbed by the client's jittered transport retry,
                    # anything beyond that raises and fails the test.
                    client.retrying_query(
                        "rejection-rate", {}, max_attempts=8,
                        deadline=10.0, rng=rng,
                    )
                    succeeded += 1
                    if seen_respawn_at is None and pool.respawns >= 1:
                        seen_respawn_at = succeeded
                    elif (
                        seen_respawn_at is not None
                        and succeeded >= seen_respawn_at + 25
                    ):
                        break
            results = harness.join(timeout=10.0)

        assert results == [
            {"at": 0.3, "action": "kill-worker", "worker": 0,
             "pid": results[0]["pid"], "signal": 9}
        ]
        assert seen_respawn_at is not None, "worker was never respawned"
        # Throughput recovered: a healthy batch of queries landed
        # *after* the respawn, all without a client-visible failure.
        assert succeeded >= seen_respawn_at + 25
        assert pool.respawns >= 1
        assert not pool.failed
        assert (0, -9) in pool.exit_history


def _raw_query(
    address: tuple[str, int], request: dict, extra: bytes = b""
) -> tuple[int, dict[str, str], bytes]:
    """One fresh-connection /query round trip at the byte level (the
    SDK hides status codes and ETags; these assertions need them)."""
    body = json.dumps(request).encode()
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(
            b"POST /query HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            + extra + b"\r\n" + body
        )
        rfile = sock.makefile("rb")
        status_line = rfile.readline()
        if not status_line:
            # A worker killed after accepting the connection closes it
            # with no reply: a transport failure, like a reset.
            raise ConnectionResetError("connection closed before a reply")
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while True:
            line = rfile.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = rfile.read(int(headers.get("content-length", "0")))
    return status, headers, payload


def _raw_query_retrying(
    address: tuple[str, int], request: dict, extra: bytes = b""
) -> tuple[int, dict[str, str], bytes]:
    """Ride out connections that land on a worker mid-kill."""
    last: Exception | None = None
    for _ in range(20):
        try:
            return _raw_query(address, request, extra)
        except (ConnectionError, OSError) as exc:
            last = exc
            time.sleep(0.1)
    raise AssertionError(f"query never succeeded: {last}")


class TestWireCacheAcrossRespawn:
    REQUEST = {"query": "rejection-rate", "params": {}}

    def test_etags_and_304s_stay_correct_across_worker_kill(self, snapshot):
        """Kill a worker holding a warm wire cache.  The respawned
        worker reloads the same snapshot at generation 0, so its
        content-hashed ETags must equal the pre-kill tags: held tags
        keep earning 304s, wrong tags never do, and every fresh 200
        carries the same tag the client started with — zero stale 304s.
        """
        plan = ChaosPlan(
            [FaultEvent(0.3, "kill-worker", {"worker": 0})], seed=7
        )
        pool = WorkerPool(
            snapshot, workers=2, rate_per_second=1e6, burst=1e6,
            respawn_backoff=0.05, backoff_cap=0.2,
        )
        with pool:
            # Warm both workers' wire caches and pin the baseline tag.
            status, headers, _ = _raw_query_retrying(pool.address, self.REQUEST)
            assert status == 200
            etag = headers["etag"]
            match = b"If-None-Match: " + etag.encode() + b"\r\n"
            status, headers, payload = _raw_query_retrying(
                pool.address, self.REQUEST, match
            )
            # Either worker may answer; both serve the same content, so
            # a conditional hit is a bodyless 304 with the same tag.
            assert status == 304
            assert payload == b""
            assert headers["etag"] == etag

            harness = ChaosHarness(plan, pool=pool).start()
            deadline = time.monotonic() + 30.0
            while pool.respawns < 1 and time.monotonic() < deadline:
                # Conditional polling straight through the kill window:
                # every answer must be a valid 304 (same tag) or a full
                # 200 (same content) — never an error, never a stale tag.
                status, headers, payload = _raw_query_retrying(
                    pool.address, self.REQUEST, match
                )
                assert status in (200, 304)
                assert headers["etag"] == etag
                if status == 200:
                    assert json.loads(payload)["ok"] is True
            results = harness.join(timeout=10.0)
            assert pool.respawns >= 1, "worker was never respawned"
            assert results[0]["action"] == "kill-worker"

            # Hammer fresh connections until both workers (including
            # the respawned slot) have answered: unconditional requests
            # re-derive the SAME tag, correct tags still 304, and a
            # wrong tag is never confirmed.
            for _ in range(20):
                status, headers, payload = _raw_query_retrying(
                    pool.address, self.REQUEST
                )
                assert status == 200
                assert headers["etag"] == etag  # fresh tag, same content
                assert json.loads(payload)["ok"] is True
                status, headers, _ = _raw_query_retrying(
                    pool.address, self.REQUEST, match
                )
                assert status == 304
                assert headers["etag"] == etag
                status, _, payload = _raw_query_retrying(
                    pool.address, self.REQUEST,
                    b'If-None-Match: "g0-feedfacedeadbeef0000"\r\n',
                )
                assert status == 200  # a wrong tag is never a 304
                assert json.loads(payload)["ok"] is True
        assert not pool.failed


# -- socket-level attacks ----------------------------------------------------
class TestSocketAttacks:
    def test_slow_loris_is_shed_while_real_clients_are_served(self, frontend):
        with BackgroundServer(
            frontend, request_timeout=5.0, read_deadline=0.8
        ) as server:
            plan = ChaosPlan([FaultEvent(
                0.0, "slow-loris",
                {"connections": 3, "interval": 0.1, "hold": 15.0},
            )], seed=7)
            harness = ChaosHarness(plan, address=server.address,
                                   log=lambda line: None).start()
            # Mid-attack, a well-behaved client still gets answers.
            time.sleep(0.3)
            with SpotLightClient(*server.address) as client:
                assert client.healthz()["ok"] is True
                assert client.query("rejection-rate", {}) >= 0.0
            results = harness.join(timeout=30.0)

        record = results[0]
        assert record["shed_by_server"] == 3  # nobody held us for 15s
        assert server.server.slow_shed >= 3
        assert server.server.stats()["slow_shed"] >= 3

    def test_reset_sockets_leave_the_server_standing(self, frontend):
        with BackgroundServer(frontend) as server:
            plan = ChaosPlan([FaultEvent(
                0.0, "reset-sockets", {"connections": 6},
            )])
            results = ChaosHarness(
                plan, address=server.address, log=lambda line: None
            ).run()
            assert results == [
                {"at": 0.0, "action": "reset-sockets", "connections": 6}
            ]
            with SpotLightClient(*server.address) as client:
                assert client.query("rejection-rate", {}) >= 0.0


# -- WAL attacks through the harness -----------------------------------------
class TestWalAttacks:
    def _store_with_wal(self, root) -> SnapshotDatastore:
        store = SnapshotDatastore(root)
        for t in (10.0, 20.0, 30.0, 40.0):
            store.insert_probe(ProbeRecord(
                time=t, market=MARKET, kind=ProbeKind.ON_DEMAND,
                trigger=ProbeTrigger.MANUAL, outcome=OUTCOME_FULFILLED,
            ))
        store.close()
        return store

    def test_truncate_wal_event_tears_the_tail_recoverably(self, tmp_path):
        root = tmp_path / "state"
        store = self._store_with_wal(root)
        plan = ChaosPlan([FaultEvent(
            0.0, "truncate-wal",
            {"root": str(root), "kind": "probes", "bytes": 7},
        )])
        results = ChaosHarness(
            plan, address=("127.0.0.1", 0), log=lambda line: None
        ).run()
        assert results[0]["path"].endswith("probes.wal.0.csv")

        reloaded = SnapshotDatastore(root)
        assert reloaded.probes() == store.probes()[:-1]
        assert reloaded.recovery_report["probes_wal"]["dropped"] == 1

    def test_garble_wal_event_is_seeded_by_the_plan(self, tmp_path):
        roots = []
        for name in ("a", "b"):
            root = tmp_path / name
            self._store_with_wal(root)
            plan = ChaosPlan([FaultEvent(
                0.0, "garble-wal",
                {"root": str(root), "kind": "probes", "bytes": 9},
            )], seed=13)
            ChaosHarness(
                plan, address=("127.0.0.1", 0), log=lambda line: None
            ).run()
            roots.append(root)
        # Same plan seed => byte-identical corruption: replayable chaos.
        assert (roots[0] / "probes.wal.0.csv").read_bytes() == \
            (roots[1] / "probes.wal.0.csv").read_bytes()
        reloaded = SnapshotDatastore(roots[0])
        assert reloaded.recovery_report["probes_wal"]["dropped"] == 1

    def test_missing_wal_reports_an_error_not_a_crash(self, tmp_path):
        plan = ChaosPlan([FaultEvent(
            0.0, "truncate-wal", {"root": str(tmp_path), "kind": "probes"},
        )])
        results = ChaosHarness(
            plan, address=("127.0.0.1", 0), log=lambda line: None
        ).run()
        assert "error" in results[0]


class TestHarnessScheduling:
    def test_stop_abandons_unfired_events(self, tmp_path):
        plan = ChaosPlan([FaultEvent(
            60.0, "truncate-wal", {"root": str(tmp_path)},
        )])
        harness = ChaosHarness(
            plan, address=("127.0.0.1", 0), log=lambda line: None
        ).start()
        harness.stop()
        assert harness.results == []
