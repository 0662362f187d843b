"""Tests for live replication: the recorder commit protocol, the WAL
tailer, bounded staleness, the resumable change feed, and the chaos
acceptance run (recorder killed mid-append under live query load)."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_datastore import _assert_same_store

from repro.chaos import ChaosHarness, ChaosPlan, FaultEvent
from repro.client import (
    DeadlineError,
    QueryError,
    SpotLightClient,
    ThrottledError,
)
from repro.core import datastore
from repro.core.database import ProbeDatabase
from repro.core.datastore import SnapshotDatastore, WalCursor
from repro.core.frontend import QueryFrontend
from repro.core.market_id import MarketID
from repro.core.query import SpotLightQuery
from repro.core.records import (
    OUTCOME_FULFILLED,
    PROBE_CSV_FIELDS,
    PriceRecord,
    ProbeKind,
    ProbeRecord,
    ProbeTrigger,
)
from repro.ec2.catalog import default_catalog
from repro.replication import (
    ChangeFeed,
    Recorder,
    ReplicaTailer,
    TimeShiftedDatastore,
    _wal_path,
    latest_record_time,
    read_watermark,
    write_watermark,
)
from repro.server import BackgroundServer

REJ = "InsufficientInstanceCapacity"

M1 = MarketID("us-east-1a", "m3.large", "Linux/UNIX")
M2 = MarketID("us-east-1b", "c3.large", "Linux/UNIX")


def _probe(
    t: float,
    market: MarketID = M1,
    outcome: str = OUTCOME_FULFILLED,
    trigger: ProbeTrigger = ProbeTrigger.RECOVERY,
    kind: ProbeKind = ProbeKind.ON_DEMAND,
) -> ProbeRecord:
    return ProbeRecord(
        time=t, market=market, kind=kind, trigger=trigger, outcome=outcome
    )


def _pair(root, **tailer_kwargs):
    """A recorder and a tailer over the same directory."""
    writer = SnapshotDatastore(root)
    recorder = Recorder(writer)
    recorder.bootstrap()
    reader = SnapshotDatastore(root, append_log=False, must_exist=True)
    tailer = ReplicaTailer(reader, **tailer_kwargs)
    return writer, recorder, tailer


# -- watermark sidecar -------------------------------------------------------
class TestWatermark:
    def test_round_trip(self, tmp_path):
        write_watermark(
            tmp_path, generation=3, probe_rows=7, price_rows=11, seq=42,
            previous={"generation": 2, "probe_rows": 1, "price_rows": 2},
        )
        wm = read_watermark(tmp_path)
        assert wm["generation"] == 3
        assert wm["probe_rows"] == 7
        assert wm["price_rows"] == 11
        assert wm["seq"] == 42
        assert wm["previous"]["generation"] == 2

    def test_missing_and_garbage_read_as_none(self, tmp_path):
        assert read_watermark(tmp_path) is None
        (tmp_path / "watermark.json").write_text("{not json")
        assert read_watermark(tmp_path) is None


# -- change feed -------------------------------------------------------------
class TestChangeFeed:
    def test_dense_sequence_numbers(self):
        feed = ChangeFeed()
        for index in range(5):
            event = feed.publish({"type": "spike", "n": index})
            assert event["seq"] == index + 1
        events, gap = feed.since(0)
        assert not gap
        assert [e["seq"] for e in events] == [1, 2, 3, 4, 5]
        assert feed.latest_seq == 5

    def test_cursor_resume_and_limit(self):
        feed = ChangeFeed()
        for index in range(10):
            feed.publish({"n": index})
        events, gap = feed.since(7)
        assert not gap
        assert [e["seq"] for e in events] == [8, 9, 10]
        events, _ = feed.since(0, limit=4)
        assert [e["seq"] for e in events] == [1, 2, 3, 4]

    def test_overflowed_cursor_reports_a_gap(self):
        feed = ChangeFeed(capacity=4)
        for index in range(10):
            feed.publish({"n": index})
        events, gap = feed.since(2)
        assert gap  # seqs 3..6 fell off the ring
        assert [e["seq"] for e in events] == [7, 8, 9, 10]
        assert feed.oldest_seq == 7
        assert feed.stats()["dropped"] == 6


# -- WAL cursor --------------------------------------------------------------
class TestWalCursor:
    def _wal_with_rows(self, tmp_path, times):
        store = SnapshotDatastore(tmp_path / "state")
        for t in times:
            store.insert_probe(_probe(t))
        store.flush()
        return store, _wal_path(
            tmp_path / "state", "probes", store.generation
        )

    def test_reads_complete_verified_rows(self, tmp_path):
        store, wal = self._wal_with_rows(tmp_path, [1.0, 2.0, 3.0])
        cursor = WalCursor(wal)
        header, rows = cursor.read(10)
        assert header == PROBE_CSV_FIELDS  # the crc column stripped
        assert [float(r[0]) for r in rows] == [1.0, 2.0, 3.0]
        assert cursor.rows == 3
        assert cursor.read(10) == (header, [])  # nothing new
        store.close()

    def test_torn_tail_holds_without_advancing(self, tmp_path):
        store, wal = self._wal_with_rows(tmp_path, [1.0, 2.0])
        with open(wal, "ab") as handle:
            handle.write(b"3.0,half-a-row-with-no-newline")
        cursor = WalCursor(wal)
        assert [float(r[0]) for r in cursor.read(10)[1]] == [1.0, 2.0]
        held_offset = cursor.offset
        assert cursor.read(10)[1] == []
        assert cursor.offset == held_offset
        # The writer finishes the record: the cursor picks it up.
        store.insert_probe(_probe(4.0))
        store.flush()
        store.close()

    def test_garbled_row_is_not_yet_written(self, tmp_path):
        store, wal = self._wal_with_rows(tmp_path, [1.0])
        row = _probe(9.0).to_row()
        cells = [str(row[field]) for field in PROBE_CSV_FIELDS]
        cells.append("deadbeef")  # wrong crc
        with open(wal, "ab") as handle:
            handle.write((",".join(cells) + "\n").encode())
        cursor = WalCursor(wal)
        assert len(cursor.read(10)[1]) == 1  # stops before the bad crc
        assert cursor.holds >= 1  # a complete line it cannot verify
        assert cursor.read(10)[1] == []
        store.close()

    def test_survives_a_writer_side_trim(self, tmp_path):
        """A torn tail the cursor held at is trimmed by the recorder's
        restart (an atomic replace); the cursor keeps tailing the new
        inode without re-delivering anything."""
        root = tmp_path / "state"
        store, wal = self._wal_with_rows(tmp_path, [1.0, 2.0, 3.0])
        with open(wal, "ab") as handle:
            handle.write(b"junk-torn-tail")
        cursor = WalCursor(wal)
        assert len(cursor.read(10)[1]) == 3
        store.close()
        # Restart trims the junk (append_log=True replays + trims).
        resumed = SnapshotDatastore(root)
        assert resumed.recovery_report["probes_wal"]["dropped"] == 1
        assert cursor.read(10)[1] == []  # nothing new, nothing repeated
        resumed.insert_probe(_probe(4.0))
        resumed.flush()
        assert [float(r[0]) for r in cursor.read(10)[1]] == [4.0]
        resumed.close()

    def test_legacy_wal_without_crc_column(self, tmp_path):
        import csv

        wal = tmp_path / "probes.wal.1.csv"
        with wal.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(PROBE_CSV_FIELDS)
            for t in (1.0, 2.0):
                row = _probe(t).to_row()
                writer.writerow([row[field] for field in PROBE_CSV_FIELDS])
        cursor = WalCursor(wal)
        header, rows = cursor.read(10)
        assert header == PROBE_CSV_FIELDS
        assert [float(r[0]) for r in rows] == [1.0, 2.0]
        assert not cursor.has_crc

    def test_a_wal_longer_than_a_poll_loads_and_tails_completely(
        self, tmp_path, monkeypatch
    ):
        """With a poll window of a few hundred bytes, a load replays a
        WAL of many windows in full, and a tailer drains it across
        polls: windows that end inside a multi-line row, and a row
        longer than a whole window, are read, not held at."""
        monkeypatch.setattr(datastore, "_MAX_POLL_BYTES", 300)
        root = tmp_path / "state"
        writer, recorder, tailer = _pair(root)
        ids = [f"r-{t}\nline-2" for t in range(30)]
        ids[17] = "long-" + "x" * 1000
        for t, request_id in enumerate(ids):
            writer.insert_probe(replace(_probe(float(t)), request_id=request_id))
            writer.insert_price(PriceRecord(float(t), M2, 0.01 * t))
        recorder.commit()
        wal = _wal_path(root, "probes", writer.generation)
        assert wal.stat().st_size > 10 * 300
        reads = []
        cursor_read = WalCursor.read
        monkeypatch.setattr(
            WalCursor, "read",
            lambda self, *a: reads.append(1) or cursor_read(self, *a),
        )
        assert tailer.step() == 60
        assert len(reads) > 20
        assert [p.request_id for p in tailer.store.probes(M1)] == ids
        stats = tailer.stats()
        assert stats["tail_holds"] == stats["apply_errors"] == 0
        fresh = SnapshotDatastore(root, append_log=False, must_exist=True)
        assert fresh.recovery_report == {}
        assert fresh.wal_row_counts == {"probes": 30, "prices": 30}
        _assert_same_store(tailer.store, fresh)
        writer.close()


# -- the recorder ------------------------------------------------------------
class TestRecorder:
    def test_requires_an_appending_store(self, tmp_path):
        store = SnapshotDatastore(tmp_path / "state")
        store.save()
        reader = SnapshotDatastore(
            tmp_path / "state", append_log=False, must_exist=True
        )
        with pytest.raises(ValueError):
            Recorder(reader)
        store.close()

    def test_commit_publishes_only_durable_counts(self, tmp_path):
        store = SnapshotDatastore(tmp_path / "state")
        recorder = Recorder(store)
        recorder.bootstrap()
        store.insert_probe(_probe(1.0))
        store.insert_price(PriceRecord(1.0, M1, 0.05))
        # Appended but not committed: the watermark still says zero.
        wm = read_watermark(tmp_path / "state")
        assert wm["probe_rows"] == 0 and wm["price_rows"] == 0
        recorder.commit()
        wm = read_watermark(tmp_path / "state")
        assert wm["probe_rows"] == 1 and wm["price_rows"] == 1
        assert wm["seq"] == 2 == recorder.committed_seq
        store.close()

    def test_save_announces_the_retired_generation(self, tmp_path):
        store = SnapshotDatastore(tmp_path / "state")
        recorder = Recorder(store)
        recorder.bootstrap()
        for t in (1.0, 2.0, 3.0):
            store.insert_probe(_probe(t))
        recorder.commit()
        recorder.save()
        wm = read_watermark(tmp_path / "state")
        assert wm["generation"] == store.generation
        assert wm["probe_rows"] == 0  # fresh WAL
        assert wm["previous"] == {
            "generation": store.generation - 1,
            "probe_rows": 3,
            "price_rows": 0,
        }
        assert wm["seq"] == 3  # cumulative, not reset by the rollover
        store.close()

    def test_restart_resumes_the_cumulative_sequence(self, tmp_path):
        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        recorder = Recorder(store)
        recorder.bootstrap()
        for t in (1.0, 2.0):
            store.insert_probe(_probe(t))
        recorder.commit()
        store.close()  # crash/stop

        resumed_store = SnapshotDatastore(root)
        resumed = Recorder(resumed_store)
        resumed.bootstrap()
        assert resumed.committed_seq == 2
        resumed_store.insert_probe(_probe(3.0))
        assert resumed.commit()["seq"] == 3
        resumed_store.close()


class TestTimeShiftedDatastore:
    def test_shifts_inserts_and_delegates_reads(self, tmp_path):
        store = SnapshotDatastore(tmp_path / "state")
        store.insert_probe(_probe(100.0))
        assert latest_record_time(store) == 100.0
        shifted = TimeShiftedDatastore(store, offset=1000.0)
        shifted.insert_probe(_probe(5.0))
        shifted.insert_price(PriceRecord(5.0, M1, 0.05))
        times = [p.time for p in store.probes(M1)]
        assert times == [100.0, 1005.0]
        t, _p = store.price_arrays(M1)
        assert list(t) == [1005.0]
        assert latest_record_time(store) == 1005.0
        assert len(shifted) == len(store)  # delegation
        store.close()


SEED_MARKETS = [
    MarketID(zone, itype, product)
    for zone, itype, product in sorted(default_catalog().iter_markets())[:4]
]


def _scanned_baselines(store, tailer) -> tuple[dict, dict]:
    """The per-market scan the replica's seed used to run: every probe
    record and a copied price array per market."""
    avail: dict = {}
    above: dict = {}
    for market in list(store.markets):
        for record in store.probes(market):
            avail[(market, record.kind)] = record.rejected
        _times, prices = store.price_arrays(market)
        if len(prices):
            above[market] = tailer._is_spike(market, float(prices[-1]))
    return avail, above


def _scanned_latest_time(store) -> float:
    latest = 0.0
    for market in store.markets:
        times, _prices = store.price_arrays(market)
        if len(times):
            latest = max(latest, float(times[-1]))
        probes = store.probes(market)
        if probes:
            latest = max(latest, max(p.time for p in probes))
    return latest


class TestReplicaSeed:
    """The replica's start-up baselines, read off the packed columns,
    equal the per-market scan over a generated store."""

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, len(SEED_MARKETS) - 1),
                st.sampled_from([0.0, 1.0, 60.0]),
                st.sampled_from(["probe", "price"]),
                st.sampled_from(list(ProbeKind)),
                st.sampled_from([OUTCOME_FULFILLED, REJ]),
                st.sampled_from([0.2, 0.9, 1.0, 2.5]),  # x on-demand
            ),
            max_size=40,
        ),
        saved=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_seeded_baselines_equal_the_scan(self, rows, saved):
        catalog = default_catalog()
        clock = dict.fromkeys(SEED_MARKETS, 0.0)
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch) / "state"
            writer = SnapshotDatastore(root)
            for i, gap, what, kind, outcome, multiple in rows:
                market = SEED_MARKETS[i]
                clock[market] += gap
                if what == "probe":
                    writer.insert_probe(
                        _probe(clock[market], market, outcome, kind=kind)
                    )
                else:
                    od = catalog.on_demand_price(
                        market.instance_type, market.region, market.product
                    )
                    writer.insert_price(
                        PriceRecord(clock[market], market, od * multiple)
                    )
            if saved:
                writer.save()  # else the load replays the WAL alone
            writer.close()
            store = SnapshotDatastore(root, append_log=False)
            tailer = ReplicaTailer(store, catalog=catalog)
            assert (tailer._avail, tailer._above) == (
                _scanned_baselines(store, tailer)
            )
            assert latest_record_time(store) == _scanned_latest_time(store)


# -- the replica tailer ------------------------------------------------------
class TestReplicaTailer:
    def test_refuses_an_appending_store(self, tmp_path):
        store = SnapshotDatastore(tmp_path / "state")
        with pytest.raises(ValueError):
            ReplicaTailer(store)
        store.close()

    def test_applies_only_committed_rows(self, tmp_path):
        writer, recorder, tailer = _pair(tmp_path / "state")
        writer.insert_probe(_probe(1.0, outcome=REJ))
        writer.flush()  # durable but NOT committed
        assert tailer.step() == 0
        assert len(tailer.store) == 0
        recorder.commit()
        assert tailer.step() == 1
        assert [p.time for p in tailer.store.probes(M1)] == [1.0]
        assert tailer.health()["caught_up"]
        writer.close()

    def test_emits_availability_transitions_and_revocations(self, tmp_path):
        writer, recorder, tailer = _pair(tmp_path / "state")
        writer.insert_probe(_probe(1.0, outcome=REJ))
        writer.insert_probe(
            _probe(2.0, trigger=ProbeTrigger.REVOCATION, outcome=REJ,
                   kind=ProbeKind.SPOT)
        )
        writer.insert_probe(_probe(3.0))  # fulfilled again
        recorder.commit()
        tailer.step()
        events, gap = tailer.feed.since(0)
        assert not gap
        kinds = [e["type"] for e in events]
        # Availability is tracked per (market, kind): the spot-side
        # revocation probe also opens a spot "unavailable".
        assert kinds == [
            "unavailable", "revocation", "unavailable", "available",
        ]
        assert [e["seq"] for e in events] == [1, 2, 3, 4]
        # Baselines: a second fulfilled probe is not a transition.
        writer.insert_probe(_probe(4.0))
        recorder.commit()
        tailer.step()
        assert tailer.feed.latest_seq == 4
        writer.close()

    def test_emits_spike_events_against_the_catalog(self, tmp_path):
        catalog = default_catalog()
        writer, recorder, tailer = _pair(
            tmp_path / "state", catalog=catalog, threshold_multiple=1.0
        )
        od = catalog.on_demand_price(
            M1.instance_type, M1.region, M1.product
        )
        writer.insert_price(PriceRecord(1.0, M1, 0.2 * od))
        writer.insert_price(PriceRecord(2.0, M1, 2.0 * od))
        writer.insert_price(PriceRecord(3.0, M1, 0.5 * od))
        recorder.commit()
        tailer.step()
        events, _ = tailer.feed.since(0)
        assert [e["type"] for e in events] == ["spike", "spike-cleared"]
        assert events[0]["market"] == str(M1)
        writer.close()

    def test_follows_a_generation_rollover(self, tmp_path):
        writer, recorder, tailer = _pair(tmp_path / "state")
        for t in (1.0, 2.0):
            writer.insert_probe(_probe(t, outcome=REJ))
        recorder.commit()
        tailer.step()
        # Rows committed in the old generation but applied only after
        # the rollover must still arrive via the `previous` block.
        writer.insert_probe(_probe(3.0))
        recorder.save()
        applied = tailer.step()
        assert applied == 1
        assert tailer.generation == writer.generation
        assert tailer.rollovers == 1
        assert [p.time for p in tailer.store.probes(M1)] == [1.0, 2.0, 3.0]
        writer.close()

    def test_resyncs_when_left_generations_behind(self, tmp_path):
        writer, recorder, tailer = _pair(tmp_path / "state")
        writer.insert_probe(_probe(1.0))
        recorder.save()  # generation 2
        writer.insert_probe(_probe(2.0))
        recorder.save()  # generation 3: tailer's WAL is swept
        tailer.step()
        assert tailer.resyncs == 1
        assert tailer.generation == writer.generation
        assert [p.time for p in tailer.store.probes(M1)] == [1.0, 2.0]
        events, _ = tailer.feed.since(0)
        assert events[-1]["type"] == "resync"
        # And the tailer keeps following after the resync.
        writer.insert_probe(_probe(3.0))
        recorder.commit()
        assert tailer.step() == 1
        writer.close()

    def test_staleness_contract(self, tmp_path):
        writer, recorder, tailer = _pair(tmp_path / "state", max_lag=5)
        for t in range(8):
            writer.insert_probe(_probe(float(t)))
        recorder.commit()
        # Not yet applied: lag exceeds the bound, health degrades.
        health = tailer.health()
        assert health["lag"] == 8
        assert health["stale"] is True
        assert health["applied_seq"] == 0
        assert health["committed_seq"] == 8
        tailer.step()
        health = tailer.health()
        assert health["lag"] == 0 and not health["stale"]
        assert health["applied_seq"] == health["committed_seq"] == 8
        writer.close()

    def test_torn_tail_never_crashes_the_replica(self, tmp_path):
        root = tmp_path / "state"
        writer, recorder, tailer = _pair(root)
        writer.insert_probe(_probe(1.0))
        recorder.commit()
        tailer.step()
        # A recorder dying mid-write() leaves a partial row beyond the
        # committed watermark: invisible, not an error.
        with open(_wal_path(root, "probes", writer.generation), "ab") as f:
            f.write(b"2.0,torn")
        for _ in range(3):
            assert tailer.step() == 0
        assert tailer.health()["caught_up"]
        assert tailer.loop_errors == 0
        writer.close()

    def test_tailed_appends_splice_the_read_index(self, tmp_path):
        """A commit touching three markets is spliced into the primed
        catalog-wide views: the next ranking and rejection count build
        nothing anew, the ranking reruns just those three markets, and
        ``stats()`` reports it."""
        markets = [M1, M2, MarketID("sa-east-1a", "c3.large", "Linux/UNIX")]
        writer, recorder, tailer = _pair(tmp_path / "state")
        for market in markets:
            for t in (1.0, 2.0):
                writer.insert_price(PriceRecord(t, market, 0.1 * t))
                writer.insert_probe(_probe(t, market, outcome=REJ))
        recorder.commit()
        tailer.step()
        engine = SpotLightQuery(tailer.store, default_catalog())
        engine.prime()
        engine.top_stable_markets(n=3)
        before = tailer.stats()["read_index"]
        for market in markets:
            writer.insert_price(PriceRecord(3.0, market, 0.5))
            writer.insert_probe(_probe(3.0, market))
        recorder.commit()
        assert tailer.step() == 6
        assert len(engine.top_stable_markets(n=3)) == 3
        assert engine.rejection_counts() == (6, 9)
        after = tailer.stats()["read_index"]
        assert before["price_stack_builds"] == before["probe_columns_builds"] == 1
        assert after["price_stack_builds"] == after["probe_columns_builds"] == 1
        assert after["price_stack_splices"] == before["price_stack_splices"] + 1
        assert after["probe_columns_splices"] == (
            before["probe_columns_splices"] + 1
        )
        assert after["price_invalidations"] - before["price_invalidations"] == 3
        assert after["ranking_full_passes"] == before["ranking_full_passes"] == 1
        assert after["ranking_segments_recomputed"] == (
            before["ranking_segments_recomputed"] + 3
        )
        writer.close()


# -- replica-mode datastore loading (satellite: legacy + recovery) -----------
class TestReplicaModeLoading:
    def _legacy_v1_directory(self, root):
        """A pre-checksum, pre-generation directory (format 1)."""
        import csv

        from repro.core.records import PROBE_CSV_FIELDS

        store = SnapshotDatastore(root)
        store.insert_probe(_probe(1.0))
        store.insert_probe(_probe(2.0))
        store.save()
        store.close()
        manifest = json.loads((root / "manifest.json").read_text())
        for key in ("checksums", "previous"):
            manifest.pop(key)
        manifest["format_version"] = 1
        (root / "manifest.json").write_text(json.dumps(manifest))
        (root / "manifest.prev.json").unlink(missing_ok=True)
        with (root / "probes.wal.1.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(PROBE_CSV_FIELDS)
            row = _probe(99.0).to_row()
            writer.writerow([row[field] for field in PROBE_CSV_FIELDS])

    def test_replica_mode_loads_a_legacy_format1_directory(self, tmp_path):
        root = tmp_path / "state"
        self._legacy_v1_directory(root)
        replica = SnapshotDatastore(root, append_log=False, must_exist=True)
        assert len(replica) == 3
        assert replica.recovery_report == {}  # read-only: no trims
        # A tailer over it is inert but healthy (no watermark yet).
        tailer = ReplicaTailer(replica)
        assert tailer.step() == 0
        assert tailer.health()["lag"] == 0

    def test_recovery_trim_is_transparent_to_a_live_tailer(self, tmp_path):
        root = tmp_path / "state"
        writer, recorder, tailer = _pair(root)
        for t in (1.0, 2.0, 3.0):
            writer.insert_probe(_probe(t))
        recorder.commit()
        tailer.step()
        writer.close()
        # Crash shape: a torn row past the committed tail.
        with open(_wal_path(root, "probes", 1), "ab") as handle:
            handle.write(b"garbage-torn-row\n")
        resumed_store = SnapshotDatastore(root)  # trims on load
        report = resumed_store.recovery_report["probes_wal"]
        assert report["recovered"] == 3
        assert report["dropped"] == 1
        # The tailer watched the trim happen under its feet: no loss,
        # no duplicates, still caught up.
        assert tailer.step() == 0
        assert tailer.health()["caught_up"]
        resumed = Recorder(resumed_store)
        resumed.bootstrap()
        resumed_store.insert_probe(_probe(4.0))
        resumed.commit()
        assert tailer.step() == 1
        assert [p.time for p in tailer.store.probes(M1)] == [
            1.0, 2.0, 3.0, 4.0,
        ]
        resumed_store.close()


# -- one reader, one append path -----------------------------------------------
def _canonical(db) -> ProbeDatabase:
    """``db``'s records re-inserted market by market, in sorted order:
    the same columns, with market order and outcome codes made
    independent of arrival order (a replica that rolled over keeps
    first-seen order, a fresh load the snapshot's)."""
    out = ProbeDatabase()
    for market in db.markets:
        for record in db.probes(market):
            out.insert_probe(record)
        for record in db.prices(market):
            out.insert_price(record)
    return out


class _FeedOracle:
    """The change feed, computed plainly from the committed records in
    the order a tailer applies them: per step, each generation's
    probes, then its prices."""

    def __init__(self, catalog, baseline_probes, baseline_prices) -> None:
        self.catalog = catalog
        self.events: list[dict] = []
        self.avail = {}
        self.above = {}
        for record in baseline_probes:
            self.avail[(record.market, record.kind)] = record.rejected
        for record in baseline_prices:
            self.above[record.market] = self.spike(record)
        self.pending: dict[int, dict[str, list]] = {}

    def spike(self, record: PriceRecord) -> bool:
        market = record.market
        on_demand = self.catalog.on_demand_price(
            market.instance_type, market.region, market.product
        )
        return on_demand > 0 and record.price >= on_demand

    def committed(self, generation: int, records: list) -> None:
        batch = self.pending.setdefault(
            generation, {"probes": [], "prices": []}
        )
        for record in records:
            kind = "probes" if isinstance(record, ProbeRecord) else "prices"
            batch[kind].append(record)

    def publish(self, event: dict) -> None:
        self.events.append({**event, "seq": len(self.events) + 1})

    def step(self) -> None:
        for generation in sorted(self.pending):
            batch = self.pending[generation]
            for record in batch["probes"]:
                self.probe(record)
            for record in batch["prices"]:
                self.price(record)
        self.pending.clear()

    def probe(self, record: ProbeRecord) -> None:
        event = {
            "market": str(record.market),
            "kind": record.kind.value,
            "time": record.time,
        }
        if record.trigger is ProbeTrigger.REVOCATION:
            self.publish({"type": "revocation", **event})
        key = (record.market, record.kind)
        if record.rejected and self.avail.get(key) is not True:
            self.publish({"type": "unavailable", **event})
        if not record.rejected and self.avail.get(key) is True:
            self.publish({"type": "available", **event})
        self.avail[key] = record.rejected

    def price(self, record: PriceRecord) -> None:
        above = self.spike(record)
        if above != self.above.get(record.market, False):
            self.publish({
                "type": "spike" if above else "spike-cleared",
                "market": str(record.market),
                "time": record.time,
                "price": record.price,
            })
        self.above[record.market] = above


_RECORD_OPS = st.one_of(
    st.tuples(
        st.just("probe"),
        st.integers(0, len(SEED_MARKETS) - 1),
        st.sampled_from([0.0, 1.0, 60.0]),
        st.sampled_from(list(ProbeKind)),
        st.sampled_from(list(ProbeTrigger)),
        st.sampled_from([OUTCOME_FULFILLED, REJ]),
    ),
    st.tuples(
        st.just("price"),
        st.integers(0, len(SEED_MARKETS) - 1),
        st.sampled_from([0.0, 1.0, 60.0]),
        st.sampled_from([0.2, 0.9, 1.0, 2.5]),  # x on-demand
    ),
)
# Mostly records, so that commits and steps cover runs of several.
_HISTORY_OPS = st.one_of(
    _RECORD_OPS,
    _RECORD_OPS,
    _RECORD_OPS,
    st.sampled_from([("commit",), ("save",), ("step",)]),
)


class TestOneAppendPath:
    """The replica reads the WAL with the load's reader and applies it
    through the load's column appenders."""

    def test_quoted_newlines_in_a_cell_do_not_wedge_the_replica(
        self, tmp_path
    ):
        root = tmp_path / "state"
        writer, recorder, tailer = _pair(root)
        ids = ["a\nb", "x\r\ny"]
        for t, request_id in zip((1.0, 2.0), ids):
            writer.insert_probe(replace(_probe(t), request_id=request_id))
        recorder.commit()
        assert tailer.step() == 2
        stats = tailer.stats()
        assert stats["tail_holds"] == 0
        assert stats["lag"] == 0 and not stats["stale"]
        assert [p.request_id for p in tailer.store.probes(M1)] == ids
        _assert_same_store(
            tailer.store,
            SnapshotDatastore(root, append_log=False, must_exist=True),
        )
        writer.close()

    def test_rows_that_do_not_apply_are_counted_and_skipped(self, tmp_path):
        root = tmp_path / "state"
        writer, recorder, tailer = _pair(root)

        def bad_row(record: ProbeRecord, **cells) -> None:
            # A well-formed, CRC-verified row the appender rejects.
            row = {**record.to_row(), **cells}
            writer._probe_wal.append([row[f] for f in PROBE_CSV_FIELDS])
            writer._bump_wal_count("probes")

        writer.insert_probe(_probe(1.0, outcome=REJ))
        bad_row(_probe(1.5), kind="no-such-kind")
        writer.insert_probe(_probe(2.0))
        bad_row(_probe(2.5, trigger=ProbeTrigger.REVOCATION), time="x")
        writer.insert_probe(
            _probe(3.0, outcome=REJ, trigger=ProbeTrigger.REVOCATION)
        )
        recorder.commit()
        assert tailer.step() == 5
        assert tailer.apply_errors == 2
        assert tailer.loop_errors == 0
        assert [p.time for p in tailer.store.probes(M1)] == [1.0, 2.0, 3.0]
        events, _ = tailer.feed.since(0)
        assert [(e["type"], e["time"]) for e in events] == [
            ("unavailable", 1.0),
            ("available", 2.0),
            ("revocation", 3.0),
            ("unavailable", 3.0),
        ]
        assert tailer.health()["caught_up"]
        writer.close()

    @given(
        prefix=st.lists(_RECORD_OPS, max_size=12),
        prefix_saved=st.booleans(),
        ops=st.lists(_HISTORY_OPS, min_size=10, max_size=60),
        batch_rows=st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_replica_equals_a_fresh_load_and_the_feed_oracle(
        self, prefix, prefix_saved, ops, batch_rows
    ):
        catalog = default_catalog()
        clock = dict.fromkeys(SEED_MARKETS, 0.0)

        def record(op):
            what, index, gap, *rest = op
            market = SEED_MARKETS[index]
            clock[market] += gap
            if what == "probe":
                kind, trigger, outcome = rest
                return _probe(clock[market], market, outcome, trigger, kind)
            od = catalog.on_demand_price(
                market.instance_type, market.region, market.product
            )
            return PriceRecord(clock[market], market, od * rest[0])

        def write(record) -> None:
            if isinstance(record, ProbeRecord):
                writer.insert_probe(record)
            else:
                writer.insert_price(record)

        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch) / "state"
            writer = SnapshotDatastore(root)
            recorder = Recorder(writer)
            recorder.bootstrap()
            seeded = [record(op) for op in prefix]
            for rec in seeded:
                write(rec)
            if prefix_saved:
                recorder.save()
            else:
                recorder.commit()
            tailer = ReplicaTailer(
                SnapshotDatastore(root, append_log=False, must_exist=True),
                catalog=catalog,
                batch_rows=batch_rows,
            )
            oracle = _FeedOracle(
                catalog,
                [r for r in seeded if isinstance(r, ProbeRecord)],
                [r for r in seeded if isinstance(r, PriceRecord)],
            )
            uncommitted: list = []
            rolled = saved = False

            def step() -> None:
                nonlocal rolled
                tailer.step()
                oracle.step()
                rolled = False

            for op in ops:
                if op == ("commit",):
                    recorder.commit()
                    oracle.committed(writer.generation, uncommitted)
                    uncommitted = []
                elif op == ("save",):
                    if rolled:
                        step()  # two rollovers unseen would force a resync
                    retired = writer.generation
                    recorder.save()
                    oracle.committed(retired, uncommitted)
                    uncommitted = []
                    rolled = saved = True
                elif op == ("step",):
                    step()
                else:
                    rec = record(op)
                    write(rec)
                    uncommitted.append(rec)
            recorder.commit()
            oracle.committed(writer.generation, uncommitted)
            step()

            stats = tailer.stats()
            assert stats["lag"] == 0
            assert stats["resyncs"] == 0
            assert stats["tail_holds"] == stats["apply_errors"] == 0
            assert stats["loop_errors"] == 0
            fresh = SnapshotDatastore(root, append_log=False, must_exist=True)
            _assert_same_store(_canonical(tailer.store), _canonical(fresh))
            if not saved:
                _assert_same_store(tailer.store, fresh)
            events, gap = tailer.feed.since(0, limit=1 << 20)
            assert not gap
            assert events == oracle.events
            writer.close()


# -- satellite: Retry-After honored within the deadline budget ---------------
class TestRetryAfterBudget:
    def test_sleeps_exactly_the_servers_hint(self, monkeypatch):
        client = SpotLightClient("127.0.0.1", 1)
        attempts = []

        def fake_query(name, params=None):
            if len(attempts) < 2:
                attempts.append(name)
                raise ThrottledError("slow down", retry_after=0.07)
            return {"fine": True}

        sleeps: list[float] = []
        monkeypatch.setattr(client, "query", fake_query)
        monkeypatch.setattr(
            "repro.client.time.sleep", lambda s: sleeps.append(s)
        )
        assert client.retrying_query("x", {}) == {"fine": True}
        assert sleeps == [0.07, 0.07]

    def test_hint_that_cannot_fit_the_deadline_fails_fast(self, monkeypatch):
        client = SpotLightClient("127.0.0.1", 1)

        def always_throttled(name, params=None):
            raise ThrottledError("busy", retry_after=30.0)

        sleeps: list[float] = []
        monkeypatch.setattr(client, "query", always_throttled)
        monkeypatch.setattr(
            "repro.client.time.sleep", lambda s: sleeps.append(s)
        )
        with pytest.raises(DeadlineError):
            client.retrying_query("x", {}, max_attempts=10, deadline=0.5)
        # The 30s hint never fit the 0.5s budget: no oversleeping.
        assert sleeps == []

    def test_last_attempt_reraises_the_throttle(self, monkeypatch):
        client = SpotLightClient("127.0.0.1", 1)
        monkeypatch.setattr(
            client,
            "query",
            lambda name, params=None: (_ for _ in ()).throw(
                ThrottledError("busy", retry_after=0.001)
            ),
        )
        monkeypatch.setattr("repro.client.time.sleep", lambda s: None)
        with pytest.raises(ThrottledError):
            client.retrying_query("x", {}, max_attempts=3)


# -- satellite: cluster gauges -----------------------------------------------
class TestClusterGauges:
    def test_stats_board_takes_the_max_of_gauges(self):
        from repro.server import CLUSTER_COUNTER_FIELDS
        from repro.server_pool import StatsBoard

        ctx = multiprocessing.get_context()
        board = StatsBoard(ctx, workers=2)
        zero = dict.fromkeys(CLUSTER_COUNTER_FIELDS, 0.0)
        board.publish(0, {**zero, "queries": 5, "replica_lag": 3,
                          "wire_generation": 9})
        board.publish(1, {**zero, "queries": 7, "replica_lag": 40,
                          "wire_generation": 2})
        totals = board.aggregate()
        assert totals["queries"] == 12           # counters still sum
        assert totals["replica_lag"] == 40       # gauges take the max
        assert totals["wire_generation"] == 9

    def test_single_server_fallback_carries_the_gauges(self, tmp_path):
        writer, recorder, tailer = _pair(tmp_path / "state")
        frontend = QueryFrontend(
            SpotLightQuery(tailer.store, default_catalog())
        )
        tailer.frontend = frontend
        with BackgroundServer(
            frontend, replica=tailer, frontend_lock=tailer.lock
        ) as background:
            with SpotLightClient(*background.address) as client:
                cluster = client.cluster_stats()
                assert cluster["workers"] == 1
                assert "wire_generation" in cluster
                assert cluster["replica_lag"] == 0
                stats = client.stats()
                assert stats["replica"]["caught_up"]
                assert "watch" in stats
        writer.close()


# -- /healthz detail: worker-dead vs replica-stale ---------------------------
class TestHealthDetail:
    class _Board:
        def __init__(self, workers, alive, failed):
            self._row = {
                "workers": workers, "alive": alive,
                "respawns": 0, "failed": failed,
            }

        def health(self):
            return dict(self._row)

        def publish(self, worker_id, counters):
            pass

    class _StaleReplica:
        lock = threading.Lock()
        feed = None

        def health(self, fresh=True):
            return {"lag": 99, "stale": True, "applied_seq": 1,
                    "committed_seq": 100, "caught_up": False}

        def stats(self):
            return self.health()

    def test_detail_distinguishes_the_failure_modes(self, tmp_path):
        from repro.core.database import ProbeDatabase
        from repro.server import SpotLightServer

        frontend = QueryFrontend(
            SpotLightQuery(ProbeDatabase(), default_catalog())
        )
        dead = SpotLightServer(
            frontend, stats_board=self._Board(workers=4, alive=2, failed=1)
        )
        payload = dead._healthz()
        assert payload["status"] == "degraded"
        assert payload["detail"] == ["worker-dead", "worker-failed"]

        stale = SpotLightServer(frontend, replica=self._StaleReplica())
        payload = stale._healthz()
        assert payload["status"] == "degraded"
        assert payload["detail"] == ["replica-stale"]
        assert payload["replica"]["lag"] == 99

        healthy = SpotLightServer(
            frontend, stats_board=self._Board(workers=4, alive=4, failed=0)
        )
        payload = healthy._healthz()
        assert payload["status"] == "serving" and payload["detail"] == []


# -- /watch over the wire ----------------------------------------------------
class TestWatchEndpoint:
    def _served(self, tmp_path, **tailer_kwargs):
        writer, recorder, tailer = _pair(tmp_path / "state", **tailer_kwargs)
        frontend = QueryFrontend(
            SpotLightQuery(tailer.store, default_catalog())
        )
        tailer.frontend = frontend
        background = BackgroundServer(
            frontend, replica=tailer, frontend_lock=tailer.lock
        ).start()
        return writer, recorder, tailer, background

    def test_404_without_a_replica(self, tmp_path):
        from repro.core.database import ProbeDatabase

        frontend = QueryFrontend(
            SpotLightQuery(ProbeDatabase(), default_catalog())
        )
        with BackgroundServer(frontend) as background:
            with SpotLightClient(*background.address) as client:
                with pytest.raises(QueryError) as excinfo:
                    next(client.watch(since_seq=0))
                assert excinfo.value.status == 404

    def test_replays_retained_events_from_a_cursor(self, tmp_path):
        writer, recorder, tailer, background = self._served(tmp_path)
        try:
            for index in range(4):
                outcome = REJ if index % 2 == 0 else OUTCOME_FULFILLED
                writer.insert_probe(_probe(float(index), outcome=outcome))
            recorder.commit()
            tailer.step()  # 4 transitions -> seqs 1..4
            with SpotLightClient(*background.address) as client:
                stream = client.watch(since_seq=0, heartbeat_interval=0.3)
                events = [next(stream) for _ in range(4)]
                stream.close()
                assert [e["seq"] for e in events] == [1, 2, 3, 4]
                # Resume mid-stream: only the events after the cursor.
                stream = client.watch(
                    since_seq=events[1]["seq"], heartbeat_interval=0.3
                )
                resumed = [next(stream) for _ in range(2)]
                stream.close()
                assert [e["seq"] for e in resumed] == [3, 4]
        finally:
            background.stop()
            writer.close()

    def test_live_events_and_heartbeats_stream_through(self, tmp_path):
        writer, recorder, tailer, background = self._served(tmp_path)
        try:
            with SpotLightClient(*background.address) as client:
                received: list[dict] = []
                ready = threading.Event()
                done = threading.Event()

                def subscribe():
                    stream = client.watch(
                        since_seq=0, heartbeats=True,
                        heartbeat_interval=0.25,
                    )
                    ready.set()
                    for frame in stream:
                        received.append(frame)
                        events = [f for f in received if "type" in f]
                        if frame.get("heartbeat") and len(events) >= 2:
                            break
                    stream.close()
                    done.set()

                thread = threading.Thread(target=subscribe, daemon=True)
                thread.start()
                ready.wait(5.0)
                writer.insert_probe(_probe(1.0, outcome=REJ))
                writer.insert_probe(_probe(2.0))
                recorder.commit()
                tailer.step()
                assert done.wait(15.0), "watch subscriber never finished"
                thread.join(5.0)
                types = [f["type"] for f in received if "type" in f]
                assert types == ["unavailable", "available"]
                assert any(f.get("heartbeat") for f in received)
                assert background.server.stats()["watch"]["events_sent"] >= 2
        finally:
            background.stop()
            writer.close()

    def test_fallen_off_cursor_gets_an_explicit_gap(self, tmp_path):
        writer, recorder, tailer, background = self._served(
            tmp_path, feed_capacity=3
        )
        try:
            for index in range(8):
                outcome = REJ if index % 2 == 0 else OUTCOME_FULFILLED
                writer.insert_probe(_probe(float(index), outcome=outcome))
            recorder.commit()
            tailer.step()  # 8 events, ring keeps the last 3
            with SpotLightClient(*background.address) as client:
                stream = client.watch(since_seq=0, heartbeat_interval=0.3)
                frames = [next(stream) for _ in range(4)]
                stream.close()
            assert frames[0].get("gap") is True
            assert [f["seq"] for f in frames[1:]] == [6, 7, 8]
        finally:
            background.stop()
            writer.close()


# -- chaos actions -----------------------------------------------------------
class TestRecorderChaosActions:
    def test_plan_validation_knows_the_new_actions(self):
        plan = ChaosPlan([
            FaultEvent(0.0, "pause-recorder", {"hold": 1.0}),
            FaultEvent(0.0, "kill-recorder", {"signal": 9}),
            FaultEvent(0.0, "lag-replica", {"hold": 1.0}),
        ])
        assert len(plan.events) == 3
        with pytest.raises(ValueError):
            ChaosPlan([FaultEvent(0.0, "kill-recorder", {"worker": 1})])

    def test_kill_recorder_signals_the_process(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"]
        )
        try:
            plan = ChaosPlan([FaultEvent(0.0, "kill-recorder", {})])
            results = ChaosHarness(
                plan, recorder=lambda: proc.pid, log=lambda line: None
            ).run()
            assert results[0]["pid"] == proc.pid
            assert proc.wait(timeout=10.0) == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_pause_recorder_stops_and_continues(self):
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"]
        )
        try:
            plan = ChaosPlan(
                [FaultEvent(0.0, "pause-recorder", {"hold": 0.2})]
            )
            results = ChaosHarness(
                plan, recorder=proc.pid, log=lambda line: None
            ).run()
            assert results[0]["resumed"] is True
            assert proc.poll() is None  # alive and running again
        finally:
            proc.kill()
            proc.wait(timeout=10.0)

    def test_lag_replica_pauses_the_tailer(self, tmp_path):
        writer, recorder, tailer = _pair(tmp_path / "state")
        plan = ChaosPlan([FaultEvent(0.0, "lag-replica", {"hold": 0.1})])
        harness = ChaosHarness(plan, replica=tailer, log=lambda line: None)
        harness.start()
        deadline = time.monotonic() + 5.0
        while not tailer.health()["paused"]:
            assert time.monotonic() < deadline, "never paused"
            time.sleep(0.005)
        results = harness.join(timeout=10.0)
        assert results[0]["hold"] == 0.1
        assert not tailer.health()["paused"]
        writer.close()


# -- the acceptance run ------------------------------------------------------
def _record_argv(root, days, *extra):
    return [
        sys.executable, "-m", "repro", "record",
        "--snapshot", str(root), "--days", str(days),
        "--regions", "us-east-1", "--families", "c3", "--seed", "3",
        *extra,
    ]


def _wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


class TestChaosAcceptance:
    def test_healthz_degrades_and_recovers_around_a_lag_window(self, tmp_path):
        """ok -> degraded (replica held past max_lag) -> ok."""
        writer, recorder, tailer = _pair(
            tmp_path / "state", max_lag=5, poll_interval=0.02
        )
        frontend = QueryFrontend(
            SpotLightQuery(tailer.store, default_catalog())
        )
        tailer.frontend = frontend
        tailer.start()
        try:
            with BackgroundServer(
                frontend, replica=tailer, frontend_lock=tailer.lock
            ) as background:
                with SpotLightClient(*background.address) as client:
                    assert client.healthz()["status"] == "serving"
                    tailer.pause()  # the lag-replica chaos action
                    for t in range(20):
                        writer.insert_probe(_probe(float(t)))
                    recorder.commit()
                    _wait_for(
                        lambda: client.healthz()["status"] == "degraded",
                        10.0, "healthz to degrade",
                    )
                    assert "replica-stale" in client.healthz()["detail"]
                    tailer.resume()
                    _wait_for(
                        lambda: client.healthz()["status"] == "serving",
                        10.0, "healthz to recover",
                    )
                    assert client.healthz()["replica"]["caught_up"]
        finally:
            tailer.stop()
            writer.close()

    def test_recorder_killed_mid_append_loses_nothing_committed(
        self, tmp_path
    ):
        """The tentpole acceptance: a recorder process is killed -9
        mid-append under live query load; the replica holds at the
        committed watermark, the restarted recorder trims the torn
        tail and records on, the replica resumes without loss or
        double-apply, and a /watch subscriber sees a dense, exactly-
        once event sequence throughout."""
        root = tmp_path / "live"
        recorder_proc = subprocess.Popen(
            _record_argv(root, 30, "--commit-interval", "600",
                         "--pace", "0.05"),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            _wait_for(
                lambda: (read_watermark(root) or {}).get("seq", 0) > 0,
                60.0, "the recorder's first commit",
            )
            reader = SnapshotDatastore(root, append_log=False,
                                       must_exist=True)
            frontend = QueryFrontend(
                SpotLightQuery(reader, default_catalog())
            )
            tailer = ReplicaTailer(
                reader, frontend, catalog=default_catalog(),
                poll_interval=0.02,
            )
            tailer.start()
            background = BackgroundServer(
                frontend, replica=tailer, frontend_lock=tailer.lock
            ).start()

            stop = threading.Event()
            query_failures: list[str] = []

            def query_load():
                with SpotLightClient(*background.address) as client:
                    while not stop.is_set():
                        try:
                            client.retrying_query("rejection-rate", {})
                        except Exception as exc:  # noqa: BLE001
                            query_failures.append(repr(exc))
                            return
                        time.sleep(0.01)

            watched: list[dict] = []

            def watch_load():
                with SpotLightClient(*background.address) as client:
                    stream = client.watch(
                        since_seq=0, heartbeats=True,
                        heartbeat_interval=0.25,
                    )
                    for frame in stream:
                        if frame.get("heartbeat"):
                            if stop.is_set():
                                break
                            continue
                        watched.append(frame)
                    stream.close()

            threads = [
                threading.Thread(target=query_load, daemon=True),
                threading.Thread(target=watch_load, daemon=True),
            ]
            for thread in threads:
                thread.start()

            # Let replication run live until real change-feed traffic
            # exists (so the exactly-once check below is not vacuous).
            _wait_for(
                lambda: tailer.applied_rows > 0
                and tailer.feed.latest_seq >= 3,
                120.0, "the replica to apply live increments and events",
            )
            committed_before = read_watermark(root)["seq"]
            assert committed_before > 0

            # ...then kill the recorder and leave a torn mid-append
            # record beyond the committed tail.
            recorder_proc.send_signal(signal.SIGKILL)
            assert recorder_proc.wait(timeout=30.0) == -signal.SIGKILL
            wal = _wal_path(root, "probes", read_watermark(root)["generation"])
            with open(wal, "ab") as handle:
                handle.write(b"999.0,torn-mid-append")

            # The replica holds at the watermark: caught up, no crash,
            # still serving queries.
            _wait_for(
                lambda: tailer.health()["caught_up"], 30.0,
                "the replica to hold at the committed watermark",
            )
            assert tailer.loop_errors == 0
            assert not query_failures, query_failures[:1]

            # Restart the recorder: it trims the torn tail and records
            # on to completion (ending in a snapshot rollover).
            resumed = subprocess.run(
                _record_argv(root, 0.05, "--resume",
                             "--commit-interval", "600"),
                capture_output=True, text=True, timeout=300,
            )
            assert resumed.returncode == 0, resumed.stderr

            final = read_watermark(root)
            assert final["seq"] > committed_before
            _wait_for(
                lambda: tailer.health()["caught_up"]
                and tailer.health()["committed_seq"] == final["seq"],
                60.0, "the replica to catch up after the restart",
            )

            # No committed increment lost or double-applied: the
            # replica's store matches a fresh load of the directory.
            fresh = SnapshotDatastore(root, append_log=False,
                                      must_exist=True)
            assert len(tailer.store) == len(fresh)
            assert tailer.store.price_count() == fresh.price_count()

            # The /watch subscriber saw every event exactly once, in
            # order, with no gaps.
            _wait_for(
                lambda: len(watched) >= tailer.feed.latest_seq
                or stop.is_set(),
                30.0, "the watch subscriber to drain the feed",
            )
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            seqs = [f["seq"] for f in watched if "seq" in f]
            assert seqs == sorted(set(seqs)), "duplicated or reordered"
            assert seqs == list(range(1, len(seqs) + 1)), "gap in the feed"
            assert len(seqs) == tailer.feed.latest_seq
            assert not any(f.get("gap") for f in watched)
            assert not query_failures, query_failures[:1]

            tailer.stop()
            background.stop()
        finally:
            if recorder_proc.poll() is None:
                recorder_proc.kill()
                recorder_proc.wait(timeout=30.0)
