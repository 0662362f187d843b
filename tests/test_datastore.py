"""Tests for the pluggable datastore backends (snapshot + WAL resume)."""

import csv
import hashlib
import json
import tempfile
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EC2Simulator,
    FleetConfig,
    InMemoryDatastore,
    MarketID,
    SnapshotDatastore,
    SpotLight,
    SpotLightConfig,
    SpotLightQuery,
)
from repro.core.database import (
    PRICE_CSV_FIELDS,
    ProbeDatabase,
    parse_price_csv_row,
    price_csv_row,
    stream_csv,
)
from repro.core.datastore import Datastore
from repro.core.records import (
    OUTCOME_FULFILLED,
    PROBE_CSV_FIELDS,
    PriceRecord,
    ProbeKind,
    ProbeRecord,
    ProbeTrigger,
)
from repro.ec2.catalog import default_catalog, small_catalog

M1 = MarketID("us-east-1a", "m3.large", "Linux/UNIX")
M2 = MarketID("us-east-1b", "m3.large", "Linux/UNIX")


def _probe(t: float, market: MarketID = M1, outcome: str = OUTCOME_FULFILLED):
    return ProbeRecord(
        time=t,
        market=market,
        kind=ProbeKind.ON_DEMAND,
        trigger=ProbeTrigger.MANUAL,
        outcome=outcome,
        spike_multiple=1.25,
        cost=0.133,
    )


def _fill(store) -> None:
    store.insert_probe(_probe(10.0))
    store.insert_probe(_probe(20.0, outcome="InsufficientInstanceCapacity"))
    store.insert_probe(_probe(30.0))
    store.insert_probe(_probe(15.0, market=M2))
    store.insert_price(PriceRecord(0.0, M1, 0.0203))
    store.insert_price(PriceRecord(100.0, M1, 0.517))
    store.insert_price(PriceRecord(50.0, M2, 0.0101))


class TestInMemoryDatastore:
    def test_is_a_probe_database_with_noop_lifecycle(self):
        store = InMemoryDatastore()
        _fill(store)
        assert isinstance(store, Datastore)
        assert len(store) == 4
        assert store.price_count() == 3
        store.save()
        store.close()
        assert len(store) == 4  # nothing happened


class TestSnapshotDatastore:
    def test_save_and_reload_round_trips_exactly(self, tmp_path):
        store = SnapshotDatastore(tmp_path / "state")
        _fill(store)
        store.save()
        store.close()

        reloaded = SnapshotDatastore(tmp_path / "state")
        assert reloaded.probes() == store.probes()
        for market in (M1, M2):
            t0, p0 = store.price_arrays(market)
            t1, p1 = reloaded.price_arrays(market)
            assert t0.tolist() == t1.tolist()
            assert p0.tolist() == p1.tolist()

    def test_wal_recovers_unsnapshotted_inserts(self, tmp_path):
        store = SnapshotDatastore(tmp_path / "state")
        store.insert_probe(_probe(10.0))
        store.save()
        # Inserts after the snapshot land in the write-ahead log only.
        store.insert_probe(_probe(20.0))
        store.insert_price(PriceRecord(5.0, M1, 0.02))
        store.close()  # flush, but no snapshot

        reloaded = SnapshotDatastore(tmp_path / "state")
        assert len(reloaded) == 2
        assert reloaded.price_count(M1) == 1
        assert [p.time for p in reloaded.probes(market=M1)] == [10.0, 20.0]

    def test_wal_alone_recovers_without_any_snapshot(self, tmp_path):
        store = SnapshotDatastore(tmp_path / "state")
        _fill(store)
        store.close()  # never snapshotted
        reloaded = SnapshotDatastore(tmp_path / "state")
        assert reloaded.probes() == store.probes()
        assert reloaded.price_count() == 3

    def test_save_compacts_the_wal(self, tmp_path):
        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        _fill(store)
        store.flush()
        assert list(root.glob("*.wal.*.csv"))
        store.save()
        # The superseded generation's WAL is *retained* (it is the
        # fallback should the new snapshot fail verification) but the
        # live generation starts with no WAL at all.
        assert not list(root.glob(f"*.wal.{store._generation}.csv"))
        assert (root / "manifest.json").exists()
        # The next save retires the old fallback generation entirely.
        store.insert_probe(_probe(40.0))
        store.save()
        store.close()
        assert not list(root.glob("*.wal.0.csv"))

    def test_superseded_wal_is_retained_but_not_replayed(self, tmp_path):
        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        _fill(store)
        store.flush()
        wal = root / "probes.wal.0.csv"
        assert wal.exists()
        store.save()  # generation 1 commits; its snapshot holds the rows

        reloaded = SnapshotDatastore(root)
        assert len(reloaded) == len(store)  # no double replay
        assert wal.exists()  # kept as the fallback generation's WAL

    def test_append_log_can_be_disabled(self, tmp_path):
        root = tmp_path / "state"
        store = SnapshotDatastore(root, append_log=False)
        _fill(store)
        store.close()
        assert not list(root.glob("*.wal.*.csv"))
        # Without a snapshot either, nothing survives.
        assert len(SnapshotDatastore(root)) == 0

    def test_save_fsyncs_data_before_the_manifest_commit(self, tmp_path, monkeypatch):
        """Durability: every new-generation file (both snapshots and
        the manifest) must be fsync'd before the manifest rename that
        commits the save — otherwise a crash right after "commit" could
        leave a manifest pointing at torn snapshot data."""
        import repro.core.datastore as ds

        events: list[str] = []
        real_fsync, real_replace = ds.os.fsync, ds.Path.replace

        def spy_fsync(fd):
            events.append("fsync")
            return real_fsync(fd)

        def spy_replace(self, target):
            if str(target).endswith("manifest.json"):
                events.append("manifest-commit")
            return real_replace(self, target)

        monkeypatch.setattr(ds.os, "fsync", spy_fsync)
        monkeypatch.setattr(ds.Path, "replace", spy_replace)

        store = SnapshotDatastore(tmp_path / "state")
        _fill(store)
        events.clear()
        store.save()
        store.close()

        commit = events.index("manifest-commit")
        # Probes snapshot, prices snapshot, manifest tmp, directory:
        # all made durable before the commit rename.
        assert events[:commit].count("fsync") >= 4

    def test_flush_fsyncs_the_wal(self, tmp_path, monkeypatch):
        import repro.core.datastore as ds

        synced: list[int] = []
        real_fsync = ds.os.fsync
        monkeypatch.setattr(
            ds.os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        store = SnapshotDatastore(tmp_path / "state")
        _fill(store)
        synced.clear()
        store.flush()
        assert len(synced) == 2  # probe WAL + price WAL
        store.close()

    def test_must_exist_refuses_an_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SnapshotDatastore(tmp_path / "typo", must_exist=True)
        assert not (tmp_path / "typo").exists()  # no side-effect mkdir
        store = SnapshotDatastore(tmp_path / "real")
        store.save()
        assert len(SnapshotDatastore(tmp_path / "real", must_exist=True)) == 0

    def test_unsupported_format_version_rejected(self, tmp_path):
        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        _fill(store)
        store.save()
        manifest = root / "manifest.json"
        manifest.write_text(manifest.read_text().replace(
            '"format_version": 2', '"format_version": 99'
        ))
        with pytest.raises(ValueError):
            SnapshotDatastore(root)

    def test_legacy_v1_manifest_still_loads(self, tmp_path):
        """Directories written before checksums existed (format 1, no
        ``checksums``/``previous`` blocks, plain WAL rows) must load."""
        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        _fill(store)
        store.save()
        manifest = json.loads((root / "manifest.json").read_text())
        for key in ("checksums", "previous"):
            manifest.pop(key)
        manifest["format_version"] = 1
        (root / "manifest.json").write_text(json.dumps(manifest))
        (root / "manifest.prev.json").unlink(missing_ok=True)
        # A legacy WAL: no crc column.
        with (root / "probes.wal.1.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(PROBE_CSV_FIELDS)
            row = _probe(99.0).to_row()
            writer.writerow([row[field] for field in PROBE_CSV_FIELDS])

        reloaded = SnapshotDatastore(root)
        assert len(reloaded) == len(store) + 1
        assert reloaded.probes()[-1].time == 99.0
        assert reloaded.recovery_report == {}

    def test_reopening_appends_after_reload(self, tmp_path):
        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        store.insert_probe(_probe(10.0))
        store.close()
        resumed = SnapshotDatastore(root)
        resumed.insert_probe(_probe(20.0))
        resumed.close()
        final = SnapshotDatastore(root)
        assert [p.time for p in final.probes(market=M1)] == [10.0, 20.0]


class TestCrashRecovery:
    """Chaos-grade recovery: torn WAL tails, corrupted snapshots, and
    faults injected mid-save (see RELIABILITY.md for the failure
    model these encode)."""

    def _times(self, store) -> list[float]:
        return [p.time for p in store.probes()]

    def test_truncated_wal_tail_recovers_every_complete_record(self, tmp_path):
        from repro.chaos import truncate_tail

        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        for t in (10.0, 20.0, 30.0, 40.0, 50.0):
            store.insert_probe(_probe(t))
        store.close()
        truncate_tail(root / "probes.wal.0.csv", 7)  # shear the last row

        reloaded = SnapshotDatastore(root)
        # Record-for-record: everything except the torn final record.
        assert reloaded.probes() == store.probes()[:-1]
        report = reloaded.recovery_report["probes_wal"]
        assert report == {"generation": 0, "recovered": 4, "dropped": 1}

    def test_garbled_wal_tail_recovers_every_complete_record(self, tmp_path):
        from repro.chaos import garble_tail

        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        for t in (10.0, 20.0, 30.0):
            store.insert_probe(_probe(t))
        store.insert_price(PriceRecord(5.0, M1, 0.02))
        store.close()
        garble_tail(root / "probes.wal.0.csv", 9)  # corrupt in place

        reloaded = SnapshotDatastore(root)
        assert reloaded.probes() == store.probes()[:-1]
        assert reloaded.recovery_report["probes_wal"]["dropped"] == 1
        # The untouched price WAL replays in full, and silently.
        assert reloaded.price_count() == 1
        assert "prices_wal" not in reloaded.recovery_report

    def test_torn_tail_is_trimmed_so_the_next_load_is_clean(self, tmp_path):
        from repro.chaos import truncate_tail

        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        for t in (10.0, 20.0, 30.0):
            store.insert_probe(_probe(t))
        store.close()
        truncate_tail(root / "probes.wal.0.csv", 5)

        first = SnapshotDatastore(root)  # writer mode: trims the tail
        assert first.recovery_report["probes_wal"]["dropped"] == 1
        first.close()
        second = SnapshotDatastore(root)
        assert self._times(second) == [10.0, 20.0]
        assert second.recovery_report == {}  # nothing left to repair

    def test_corrupt_snapshot_falls_back_to_previous_generation(self, tmp_path):
        from repro.chaos import garble_tail

        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        _fill(store)
        store.save()                        # generation 1
        store.insert_probe(_probe(40.0))    # -> WAL generation 1
        store.save()                        # generation 2
        store.insert_probe(_probe(50.0))    # -> WAL generation 2
        store.close()
        garble_tail(root / "probes.2.csv", 12)  # live snapshot now lies

        reloaded = SnapshotDatastore(root)
        # snapshot(1) + WAL(1) + WAL(2) = everything ever committed.
        assert reloaded.probes() == store.probes()
        assert reloaded.price_count() == store.price_count()
        fallback = reloaded.recovery_report["fallback"]
        assert fallback["reason"] == "snapshot failed verification"
        assert fallback["recovered_from"] == 1
        assert fallback["wal_generations_replayed"] == [1, 2]

    def test_saving_after_a_fallback_load_supersedes_the_damage(self, tmp_path):
        from repro.chaos import garble_tail

        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        _fill(store)
        store.save()
        store.insert_probe(_probe(40.0))
        store.save()
        store.close()
        garble_tail(root / "probes.2.csv", 12)

        recovered = SnapshotDatastore(root)
        assert "fallback" in recovered.recovery_report
        recovered.insert_probe(_probe(60.0))
        recovered.save()  # must not collide with the damaged generation
        recovered.close()

        clean = SnapshotDatastore(root)
        assert clean.probes() == recovered.probes()
        assert clean.recovery_report == {}

    def test_garbled_manifest_recovers_via_the_retained_copy(self, tmp_path):
        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        _fill(store)
        store.save()
        store.insert_probe(_probe(40.0))
        store.save()
        store.close()
        (root / "manifest.json").write_text("{ not json at all")

        reloaded = SnapshotDatastore(root)
        assert reloaded.probes() == store.probes()
        fallback = reloaded.recovery_report["fallback"]
        assert fallback["reason"] == "manifest unreadable"

    def test_unrecoverable_directory_raises_corrupt_snapshot_error(
        self, tmp_path
    ):
        from repro.chaos import garble_tail
        from repro.core.datastore import CorruptSnapshotError

        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        _fill(store)
        store.save()
        store.insert_probe(_probe(40.0))
        store.save()
        store.close()
        garble_tail(root / "probes.2.csv", 12)  # live generation bad
        garble_tail(root / "probes.1.csv", 12)  # ...and its fallback too

        with pytest.raises(CorruptSnapshotError, match="failed verification"):
            SnapshotDatastore(root)

    def test_crash_at_the_commit_point_loses_nothing_committed(self, tmp_path):
        from repro.chaos import FaultError, FaultInjector

        root = tmp_path / "state"
        faults = FaultInjector(seed=7)
        store = SnapshotDatastore(root, fault_injector=faults)
        _fill(store)
        store.save()
        store.insert_probe(_probe(40.0))
        store.flush()

        faults.arm("datastore.save.commit", times=1)
        with pytest.raises(FaultError):
            store.save()  # "crashes" right before the manifest replace

        # A fresh process sees the last *committed* state: the gen-1
        # snapshot plus its WAL — the orphaned gen-2 files are ignored.
        reloaded = SnapshotDatastore(root)
        assert reloaded.probes() == store.probes()
        assert reloaded.recovery_report == {}
        # And the next save moves past the orphaned generation.
        reloaded.insert_probe(_probe(60.0))
        reloaded.save()
        reloaded.close()
        assert SnapshotDatastore(root).probes() == reloaded.probes()

    def test_crash_while_writing_the_snapshot_is_harmless(self, tmp_path):
        from repro.chaos import FaultError, FaultInjector

        root = tmp_path / "state"
        faults = FaultInjector(seed=7)
        store = SnapshotDatastore(root, fault_injector=faults)
        _fill(store)
        faults.arm("datastore.save.snapshot", times=1)
        with pytest.raises(FaultError):
            store.save()
        reloaded = SnapshotDatastore(root)  # WAL replay carries it all
        assert reloaded.probes() == store.probes()

    def test_fsync_faults_surface_as_io_errors(self, tmp_path):
        from repro.chaos import FaultError, FaultInjector

        faults = FaultInjector(seed=7)
        store = SnapshotDatastore(tmp_path / "state", fault_injector=faults)
        store.insert_probe(_probe(10.0))
        faults.arm("datastore.wal.fsync", times=1)
        with pytest.raises(FaultError):
            store.flush()
        store.flush()  # the budgeted fault is spent; IO works again
        store.close()


class TestServiceStopResume:
    """The acceptance scenario: one service run snapshots its state; a
    fresh service (new objects, as a second process would build) answers
    the flagship query identically."""

    def test_snapshot_resume_answers_top_stable_identically(self, tmp_path):
        root = tmp_path / "spotlight-state"
        catalog = small_catalog(regions=["sa-east-1"], families=["c3"])
        sim = EC2Simulator(FleetConfig(catalog=catalog, seed=7, tick_interval=300.0))
        spotlight = SpotLight(
            sim, SpotLightConfig(), datastore=SnapshotDatastore(root)
        )
        spotlight.start()
        sim.run_for(12 * 3600.0)
        spotlight.save()
        original = spotlight.frontend.top_stable_markets(n=10, bid_multiple=1.0)
        assert original  # the run must produce data for this test to mean anything
        spotlight.datastore.close()

        reloaded = SnapshotDatastore(root)
        engine = SpotLightQuery(reloaded, default_catalog())
        resumed = engine.top_stable_markets(n=10, bid_multiple=1.0)
        assert resumed == original

    def test_resume_without_final_save_uses_wal(self, tmp_path):
        root = tmp_path / "spotlight-state"
        catalog = small_catalog(regions=["sa-east-1"], families=["c3"])
        sim = EC2Simulator(FleetConfig(catalog=catalog, seed=7, tick_interval=300.0))
        spotlight = SpotLight(
            sim, SpotLightConfig(), datastore=SnapshotDatastore(root)
        )
        sim.run_for(2 * 3600.0)
        spotlight.datastore.close()  # "crash": no snapshot written

        reloaded = SnapshotDatastore(root)
        assert reloaded.price_count() == spotlight.database.price_count()


# -- the bulk (column-at-a-time) load path -----------------------------------
BULK_MARKETS = [
    MarketID("us-east-1a", "m3.large", "Linux/UNIX"),
    MarketID("us-east-1a", "c3.large", "Linux/UNIX"),
    MarketID("us-east-1b", "m3.large", "Windows"),
    MarketID("sa-east-1a", "c3.xlarge", "SUSE Linux"),
    MarketID("sa-east-1b", "m3.large", "Linux/UNIX"),
]
SHARD = set(BULK_MARKETS[::2])

_index = st.integers(0, len(BULK_MARKETS) - 1)
_gap = st.sampled_from([0.0, 0.0, 0.5, 1.0, 300.0, 1234.5678])
_probe_row = st.tuples(
    _index,
    _gap,
    st.sampled_from(list(ProbeKind)),
    st.sampled_from(list(ProbeTrigger)),
    st.sampled_from([
        OUTCOME_FULFILLED,
        "InsufficientInstanceCapacity",
        "capacity-not-available",
        "price-too-low",
    ]),
    st.floats(0.0, 5.0),
    st.sampled_from([0.0, 0.031]),
    st.sampled_from([0.0, 0.133]),
    st.text(alphabet="ab,\"' ", max_size=6),  # request ids with , and quotes
)
_price_row = st.tuples(_index, _gap, st.floats(0.001, 10.0))


def _histories(probe_rows, price_rows):
    """Records with per-market non-decreasing times, in draw order."""
    clock = dict.fromkeys(BULK_MARKETS, 0.0)
    probes = []
    for i, gap, kind, trigger, outcome, spike, bid, cost, request_id in probe_rows:
        market = BULK_MARKETS[i]
        clock[market] += gap
        probes.append(ProbeRecord(
            clock[market], market, kind, trigger, outcome, spike, bid, cost,
            request_id,
        ))
    clock = dict.fromkeys(BULK_MARKETS, 0.0)
    prices = []
    for i, gap, price in price_rows:
        market = BULK_MARKETS[i]
        clock[market] += gap
        prices.append(PriceRecord(clock[market], market, price))
    return probes, prices


def _write_rows(path, kind, records, columns=None, crc=False) -> None:
    """Records as a probe or price CSV (optionally with the columns in
    another order, or with a WAL-style trailing crc column)."""
    fields = PROBE_CSV_FIELDS if kind == "probes" else PRICE_CSV_FIELDS
    columns = columns or fields
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*columns, "crc"] if crc else columns)
        for record in records:
            if kind == "probes":
                row = record.to_row()
            else:
                row = dict(zip(
                    fields, price_csv_row(record.time, record.market, record.price)
                ))
            cells = [row[field] for field in columns]
            writer.writerow([*cells, "0"] if crc else cells)


def _per_row_load(files, market_filter=None) -> ProbeDatabase:
    """The reference: every file row through ``csv.DictReader`` and the
    per-row ``insert_probe``/``insert_price``."""
    db = ProbeDatabase(market_filter)
    for kind, path in files:
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                if kind == "probes":
                    db.insert_probe(ProbeRecord.from_row(row))
                else:
                    db.insert_price(parse_price_csv_row(row))
    return db


def _bulk_load(files, db: ProbeDatabase) -> ProbeDatabase:
    for kind, path in files:
        stream_csv(
            path,
            db.append_probe_rows if kind == "probes" else db.append_price_rows,
        )
    return db


def _assert_same_block(got, want) -> None:
    """Two probe column blocks hold equal columns of equal types (the
    packed arrays, their typecodes, and the request-id list)."""
    assert got.__slots__ == want.__slots__
    for name in want.__slots__:
        column = getattr(want, name)
        loaded = getattr(got, name)
        assert type(loaded) is type(column), name
        if isinstance(column, array):
            assert loaded.typecode == column.typecode, name
        assert loaded == column, name


def _assert_same_store(got: ProbeDatabase, want: ProbeDatabase) -> None:
    assert list(got._prices_by_market) == list(want._prices_by_market)
    for market, column in want._prices_by_market.items():
        loaded = got._prices_by_market[market]
        for name in ("times", "values"):
            assert getattr(loaded, name).typecode == "d"
            assert getattr(loaded, name) == getattr(column, name), name
    assert list(got._probe_blocks) == list(want._probe_blocks)
    for market, block in want._probe_blocks.items():
        assert got.probes(market) == want.probes(market)
        _assert_same_block(got._probe_blocks[market], block)
    assert got._outcome_names == want._outcome_names
    assert got._outcome_codes == want._outcome_codes
    assert len(got) == len(want)
    assert got.markets == want.markets
    assert got.price_count() == want.price_count()
    assert got.probes() == want.probes()


def _assert_views_fresh(db: ProbeDatabase) -> None:
    """The read index's (spliced) views equal fresh builds."""
    index = db.read_index
    pairs = [
        (index.price_stack(), index._build_stack(tuple(sorted(db._prices_by_market)))),
        (index.probe_columns(), index._build_probe_columns()),
    ]
    for got, want in pairs:
        assert got.markets == want.markets
        for name in want.__slots__:
            column = getattr(want, name, None)
            if isinstance(column, np.ndarray):
                assert np.array_equal(getattr(got, name), column), name


def _rewrite_snapshot_file(root: Path, name: str, transform) -> None:
    """Rewrite one snapshot file's data rows and re-stamp its checksum,
    so the load gets past verification to the rows themselves."""
    path = root / name
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1] + transform(lines[1:])))
    manifest = json.loads((root / "manifest.json").read_text())
    kind = name.split(".", 1)[0]
    manifest["checksums"][kind] = hashlib.sha256(path.read_bytes()).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))


class TestBulkLoad:
    """The column-at-a-time load path equals per-row inserts over the
    same rows: every column, record, outcome code and error."""

    @given(
        probe_rows=st.lists(_probe_row, max_size=40),
        price_rows=st.lists(_price_row, max_size=40),
        split=st.floats(0.0, 1.0),
        sharded=st.booleans(),
        primed=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_bulk_load_equals_per_row_inserts(
        self, probe_rows, price_rows, split, sharded, primed
    ):
        probes, prices = _histories(probe_rows, price_rows)
        market_filter = SHARD.__contains__ if sharded else None
        cut_probes = int(len(probes) * split)
        cut_prices = int(len(prices) * split)
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch)
            # A snapshot-shaped first part, then a WAL-shaped second
            # part (trailing crc column, columns in another order)
            # appended onto the loaded columns.
            first = [("probes", root / "p1.csv"), ("prices", root / "q1.csv")]
            second = [("probes", root / "p2.csv"), ("prices", root / "q2.csv")]
            _write_rows(first[0][1], "probes", probes[:cut_probes])
            _write_rows(first[1][1], "prices", prices[:cut_prices])
            _write_rows(
                second[0][1], "probes", probes[cut_probes:],
                columns=PROBE_CSV_FIELDS[::-1], crc=True,
            )
            _write_rows(
                second[1][1], "prices", prices[cut_prices:],
                columns=PRICE_CSV_FIELDS[::-1], crc=True,
            )
            want = _per_row_load(first + second, market_filter)
            got = _bulk_load(first, ProbeDatabase(market_filter))
            if primed:
                got.read_index.prime()
            _bulk_load(second, got)
            _assert_same_store(got, want)
            if primed:
                _assert_views_fresh(got)

    def test_header_only_files_load_nothing(self, tmp_path):
        files = [
            ("probes", tmp_path / "probes.csv"), ("prices", tmp_path / "prices.csv")
        ]
        for kind, path in files:
            _write_rows(path, kind, [])
        empty = _bulk_load(files, ProbeDatabase())
        _assert_same_store(empty, _per_row_load(files))
        store = ProbeDatabase()
        _fill(store)
        before = store.probes(), store.price_count()
        _bulk_load(files, store)
        assert (store.probes(), store.price_count()) == before

    @pytest.mark.parametrize("name", ["probes.1.csv", "prices.1.csv"])
    def test_out_of_order_snapshot_raises(self, tmp_path, name):
        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        store.insert_probe(_probe(10.0))
        store.insert_probe(_probe(20.0))
        store.insert_price(PriceRecord(10.0, M1, 0.1))
        store.insert_price(PriceRecord(20.0, M1, 0.2))
        store.save()
        store.close()
        _rewrite_snapshot_file(root, name, lambda rows: rows[::-1])
        kind = name.split(".", 1)[0][:-1]
        with pytest.raises(ValueError, match=f"{kind} records must arrive in time order"):
            SnapshotDatastore(root)

    def test_a_rejected_run_leaves_the_store_unchanged(self, tmp_path):
        store = ProbeDatabase()
        _fill(store)
        before = store.probes(), list(store._outcome_names)
        stale = tmp_path / "stale.csv"
        # M2's row is fine; M1's starts before M1's stored tail (30.0).
        _write_rows(stale, "probes", [
            _probe(40.0, market=M2, outcome="new-outcome"), _probe(25.0),
        ])
        with pytest.raises(ValueError, match="time order"):
            stream_csv(stale, store.append_probe_rows)
        assert (store.probes(), store._outcome_names) == before

    def test_fallback_replays_wal_generations_onto_the_bulk_snapshot(
        self, tmp_path
    ):
        from repro.chaos import garble_tail

        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        _fill(store)
        store.save()                                   # generation 1
        store.insert_probe(_probe(40.0, outcome="price-too-low"))
        store.insert_price(PriceRecord(200.0, M1, 0.3))
        store.save()                                   # generation 2
        store.insert_probe(_probe(50.0, market=M2, outcome="capacity-oversubscribed"))
        store.insert_price(PriceRecord(300.0, M2, 0.4))
        store.close()
        garble_tail(root / "probes.2.csv", 12)

        reloaded = SnapshotDatastore(root)
        assert reloaded.recovery_report["fallback"]["wal_generations_replayed"] == [1, 2]
        want = _per_row_load([
            ("probes", root / "probes.1.csv"),
            ("prices", root / "prices.1.csv"),
            ("probes", root / "probes.wal.1.csv"),
            ("prices", root / "prices.wal.1.csv"),
            ("probes", root / "probes.wal.2.csv"),
            ("prices", root / "prices.wal.2.csv"),
        ])
        _assert_same_store(reloaded, want)
        assert reloaded.probes() == store.probes()

    def test_legacy_layout_equals_the_per_row_load(self, tmp_path):
        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        _fill(store)
        store.save()
        manifest = json.loads((root / "manifest.json").read_text())
        for key in ("checksums", "previous"):
            manifest.pop(key)
        manifest["format_version"] = 1
        (root / "manifest.json").write_text(json.dumps(manifest))
        (root / "manifest.prev.json").unlink(missing_ok=True)
        legacy_wal = root / "prices.wal.1.csv"  # no crc column
        _write_rows(legacy_wal, "prices", [PriceRecord(500.0, M2, 0.07)])

        reloaded = SnapshotDatastore(root)
        assert reloaded.recovery_report == {}
        want = _per_row_load([
            ("probes", root / "probes.1.csv"),
            ("prices", root / "prices.1.csv"),
            ("prices", legacy_wal),
        ])
        _assert_same_store(reloaded, want)

    def test_one_market_id_object_per_market(self, tmp_path):
        root = tmp_path / "state"
        store = SnapshotDatastore(root)
        _fill(store)
        store.save()
        store.insert_probe(_probe(60.0, market=M2))
        store.insert_price(PriceRecord(400.0, M1, 0.2))
        store.close()

        reloaded = SnapshotDatastore(root)
        objects: dict[MarketID, set[int]] = {}
        holders = [
            *reloaded._prices_by_market,
            *reloaded._probe_blocks,
            *(market for market, _kind in reloaded.last_probe_states()),
            *(record.market for record in reloaded.probes()),
        ]
        for market in holders:
            objects.setdefault(market, set()).add(id(market))
        assert objects.keys() == {M1, M2}
        assert all(len(ids) == 1 for ids in objects.values())
