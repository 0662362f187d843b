"""Cold start: loading a full-catalog snapshot, then priming its index.

Every ``serve`` process, ``--follow`` replica and pool or shard worker
starts by rebuilding the probe database from a snapshot's CSVs.  This
benchmark writes a 4,134-market snapshot (the ``test_query_cold``
history: ~149k price rows, ~98k probe rows), loads it through
``SnapshotDatastore``'s column-at-a-time path, and checks the result
against the per-row reference — ``csv.DictReader`` rows through
``insert_probe``/``insert_price`` — in every column, record and code.

It asserts no time floor; refresh the recorded stage times with::

    REPRO_UPDATE_BENCH=1 PYTHONPATH=src python -m pytest benchmarks/test_snapshot_load.py -q
"""

from __future__ import annotations

import csv
import time

from harness import REPO_ROOT, record_result
from test_query_cold import build_full_catalog_database

from repro.core.database import ProbeDatabase, parse_price_csv_row
from repro.core.datastore import SnapshotDatastore
from repro.core.query import SpotLightQuery
from repro.core.records import ProbeRecord
from repro.ec2.catalog import default_catalog

BENCH_PATH = REPO_ROOT / "BENCH_query.json"


def _per_row_load(root, generation: int) -> ProbeDatabase:
    db = ProbeDatabase()
    with (root / f"probes.{generation}.csv").open(newline="") as handle:
        for row in csv.DictReader(handle):
            db.insert_probe(ProbeRecord.from_row(row))
    with (root / f"prices.{generation}.csv").open(newline="") as handle:
        for row in csv.DictReader(handle):
            db.insert_price(parse_price_csv_row(row))
    return db


def test_full_catalog_snapshot_load(tmp_path):
    source, markets = build_full_catalog_database()
    root = tmp_path / "state"
    writer = SnapshotDatastore(root, append_log=False)
    for record in source.probes():
        writer.insert_probe(record)
    for _market, series in source.iter_price_series():
        for record in series:
            writer.insert_price(record)
    writer.save()

    started = time.perf_counter()
    store = SnapshotDatastore(root, append_log=False, must_exist=True)
    load_s = time.perf_counter() - started
    started = time.perf_counter()
    SpotLightQuery(store, default_catalog()).prime()
    prime_s = time.perf_counter() - started

    started = time.perf_counter()
    reference = _per_row_load(root, store.generation)
    per_row_s = time.perf_counter() - started

    assert len(store.markets) == len(markets) == 4134
    assert store.markets == reference.markets
    assert len(store) == len(reference) == len(source)
    assert store.price_count() == reference.price_count() == source.price_count()
    assert store.probes() == reference.probes()
    assert store._outcome_names == reference._outcome_names
    for market, column in reference._prices_by_market.items():
        loaded = store._prices_by_market[market]
        assert (loaded.times, loaded.values) == (column.times, column.values)
    assert list(store._probe_blocks) == list(reference._probe_blocks)
    for market, block in reference._probe_blocks.items():
        assert store.probes(market) == reference.probes(market)
        loaded = store._probe_blocks[market]
        for name in block.__slots__:
            assert getattr(loaded, name) == getattr(block, name), name

    record_result(BENCH_PATH, "snapshot_load", {
        "markets": len(markets),
        "price_rows": store.price_count(),
        "probe_rows": len(store),
        "verify_s": round(store.load_timings["verify_s"], 4),
        "load_s": round(load_s, 4),
        "prime_s": round(prime_s, 4),
        "per_row_load_s": round(per_row_s, 4),
    })
    print(
        f"\nsnapshot of {len(markets)} markets: load {load_s:.3f}s "
        f"(per-row reference {per_row_s:.3f}s), prime {prime_s:.3f}s"
    )
