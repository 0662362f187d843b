"""Unit tests for the probe database."""

import csv
import heapq
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import ProbeDatabase
from repro.core.market_id import MarketID
from repro.core.records import (
    OUTCOME_FULFILLED,
    PROBE_CSV_FIELDS,
    PriceRecord,
    ProbeKind,
    ProbeRecord,
    ProbeTrigger,
    UnavailabilityPeriod,
)

M1 = MarketID("us-east-1a", "m3.large", "Linux/UNIX")
M2 = MarketID("sa-east-1a", "c3.large", "Linux/UNIX")


def probe(t, market=M1, outcome=OUTCOME_FULFILLED, kind=ProbeKind.ON_DEMAND):
    return ProbeRecord(
        time=t,
        market=market,
        kind=kind,
        trigger=ProbeTrigger.PRICE_SPIKE,
        outcome=outcome,
    )


REJ = "InsufficientInstanceCapacity"


@pytest.fixture()
def db():
    return ProbeDatabase()


def test_insert_and_filter(db):
    db.insert_probe(probe(1.0))
    db.insert_probe(probe(2.0, outcome=REJ))
    db.insert_probe(probe(3.0, market=M2))
    assert len(db) == 3
    assert len(db.probes(market=M1)) == 2
    assert len(db.probes(rejected=True)) == 1
    assert len(db.probes(start=2.5)) == 1
    assert len(db.probes(end=1.5)) == 1


def test_out_of_order_probe_rejected(db):
    db.insert_probe(probe(5.0))
    with pytest.raises(ValueError):
        db.insert_probe(probe(4.0))


def test_out_of_order_allowed_across_markets(db):
    db.insert_probe(probe(5.0, market=M1))
    db.insert_probe(probe(4.0, market=M2))  # different market: fine


def test_prices_range_query(db):
    for t in [0.0, 100.0, 200.0, 300.0]:
        db.insert_price(PriceRecord(t, M1, 0.1 + t / 1000))
    records = db.prices(M1, start=100.0, end=200.0)
    assert [r.time for r in records] == [100.0, 200.0]


def test_price_at_is_step_function(db):
    db.insert_price(PriceRecord(100.0, M1, 0.5))
    db.insert_price(PriceRecord(200.0, M1, 0.9))
    assert db.price_at(M1, 50.0) is None
    assert db.price_at(M1, 150.0) == 0.5
    assert db.price_at(M1, 200.0) == 0.9


def test_unavailability_periods_basic(db):
    db.insert_probe(probe(0.0))
    db.insert_probe(probe(100.0, outcome=REJ))
    db.insert_probe(probe(200.0, outcome=REJ))
    db.insert_probe(probe(300.0))
    periods = db.unavailability_periods(M1)
    assert len(periods) == 1
    period = periods[0]
    assert period.start == 100.0
    assert period.end == 300.0
    assert period.probe_count == 2
    assert period.end_observed


def test_open_period_capped_by_horizon(db):
    db.insert_probe(probe(100.0, outcome=REJ))
    periods = db.unavailability_periods(M1, horizon=500.0)
    assert len(periods) == 1
    assert periods[0].end == 500.0
    assert not periods[0].end_observed


def test_periods_separate_kinds(db):
    db.insert_probe(probe(0.0, outcome=REJ, kind=ProbeKind.ON_DEMAND))
    db.insert_probe(probe(1.0, outcome="capacity-not-available", kind=ProbeKind.SPOT))
    assert len(db.unavailability_periods(M1, kind=ProbeKind.ON_DEMAND)) == 1
    assert len(db.unavailability_periods(M1, kind=ProbeKind.SPOT)) == 1


def test_rejection_rate(db):
    db.insert_probe(probe(0.0))
    db.insert_probe(probe(1.0, outcome=REJ))
    assert db.rejection_rate() == 0.5
    assert db.rejection_rate(market=M2) == 0.0


def test_csv_roundtrip(db, tmp_path):
    db.insert_probe(probe(0.0))
    db.insert_probe(probe(1.0, outcome=REJ))
    db.insert_probe(probe(2.0, market=M2, kind=ProbeKind.SPOT))
    path = tmp_path / "probes.csv"
    assert db.export_probes_csv(path) == 3
    restored = ProbeDatabase.import_probes_csv(path)
    assert len(restored) == 3
    assert restored.probes(rejected=True)[0].outcome == REJ


def test_prices_json_export(db, tmp_path):
    db.insert_price(PriceRecord(1.0, M1, 0.1))
    db.insert_price(PriceRecord(2.0, M1, 0.2))
    count = db.export_prices_json(tmp_path / "prices.json")
    assert count == 2


def test_csv_roundtrip_probes_and_prices(db, tmp_path):
    """Full persistence round-trip over both record kinds.

    Covers the columnar price path: prices go in through the packed
    columns, out through CSV, and back in; a probe-only market and a
    price-only market must both survive the trip.
    """
    db.insert_probe(probe(0.0))
    db.insert_probe(probe(1.0, outcome=REJ))
    db.insert_probe(probe(0.5, market=M2, kind=ProbeKind.SPOT))
    db.insert_price(PriceRecord(10.0, M2, 0.123456))
    db.insert_price(PriceRecord(20.0, M2, 0.2))
    db.insert_price(PriceRecord(20.0, M2, 0.2))  # duplicate sample survives

    probes_path = tmp_path / "probes.csv"
    prices_path = tmp_path / "prices.csv"
    assert db.export_probes_csv(probes_path) == 3
    assert db.export_prices_csv(prices_path) == 3

    restored_probes = ProbeDatabase.import_probes_csv(probes_path)
    restored_prices = ProbeDatabase.import_prices_csv(prices_path)

    assert len(restored_probes) == 3
    assert [r.time for r in restored_probes.probes()] == [0.0, 0.5, 1.0]
    assert restored_probes.probes(market=M2)[0].kind is ProbeKind.SPOT
    # M1 has probes but no prices; M2 has prices in the restored DB.
    assert restored_prices.prices(M1) == []
    assert restored_prices.prices(M2) == db.prices(M2)
    times, prices = restored_prices.price_arrays(M2)
    assert list(times) == [10.0, 20.0, 20.0]
    assert prices[0] == 0.123456


def test_csv_roundtrip_empty_database(tmp_path):
    db = ProbeDatabase()
    probes_path = tmp_path / "probes.csv"
    prices_path = tmp_path / "prices.csv"
    assert db.export_probes_csv(probes_path) == 0
    assert db.export_prices_csv(prices_path) == 0
    assert len(ProbeDatabase.import_probes_csv(probes_path)) == 0
    restored = ProbeDatabase.import_prices_csv(prices_path)
    assert restored.markets == []


def test_price_arrays_views_and_counts(db):
    assert db.price_count() == 0
    times, prices = db.price_arrays(M1)
    assert len(times) == 0 and len(prices) == 0
    for t in [0.0, 100.0, 200.0]:
        db.insert_price(PriceRecord(t, M1, t / 1000))
    times, prices = db.price_arrays(M1, start=50.0)
    assert list(times) == [100.0, 200.0]
    assert list(prices) == [0.1, 0.2]
    assert db.price_count(M1) == 3
    assert db.price_count() == 3


def test_global_probe_order_is_time_ordered(db):
    """The global view merges per-market logs by time (the per-market
    duplicate list is gone; order across markets is by timestamp)."""
    db.insert_probe(probe(5.0, market=M1))
    db.insert_probe(probe(1.0, market=M2))
    db.insert_probe(probe(3.0, market=M2, outcome=REJ))
    assert [r.time for r in db.probes()] == [1.0, 3.0, 5.0]
    # Cache invalidates on insert (times stay non-decreasing per market).
    db.insert_probe(probe(4.0, market=M2))
    assert [r.time for r in db.probes()] == [1.0, 3.0, 4.0, 5.0]


def test_total_probe_cost(db):
    db.insert_probe(
        ProbeRecord(
            time=0.0, market=M1, kind=ProbeKind.ON_DEMAND,
            trigger=ProbeTrigger.PRICE_SPIKE, outcome=OUTCOME_FULFILLED, cost=0.5,
        )
    )
    assert db.total_probe_cost() == 0.5


def test_markets_lists_everything(db):
    db.insert_probe(probe(0.0, market=M1))
    db.insert_price(PriceRecord(0.0, M2, 0.1))
    assert db.markets == sorted([M1, M2])


# -- the column-built readers against a list-of-records reference ------------
PROPERTY_MARKETS = [
    MarketID("us-east-1a", "m3.large", "Linux/UNIX"),
    MarketID("us-east-1a", "c3.large", "Linux/UNIX"),
    MarketID("sa-east-1a", "c3.xlarge", "SUSE Linux"),
    MarketID("sa-east-1b", "m3.large", "Windows"),
]
#: The shard predicate of the sharded histories.
PROPERTY_SHARD = set(PROPERTY_MARKETS[1::2])

_row = st.tuples(
    st.integers(0, len(PROPERTY_MARKETS) - 1),
    # Small gaps from a shared origin make cross-market time ties common.
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 300.0]),
    st.sampled_from(list(ProbeKind)),
    st.sampled_from(list(ProbeTrigger)),
    st.sampled_from([OUTCOME_FULFILLED, REJ, "price-too-low", "held,by \"x\""]),
    st.floats(0.0, 5.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),  # costs whose float sum depends on the order
    st.text(alphabet="ab,\"'\n\r ", max_size=5),  # request ids
)
#: A history: batches of rows, each written per row through
#: ``insert_probe`` or as one CSV through ``append_probe_rows``.
_batches = st.lists(
    st.tuples(st.booleans(), st.lists(_row, max_size=12)), max_size=5
)


def _csv_text(records) -> str:
    """Records as a probe CSV, written the way exports write them."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=PROBE_CSV_FIELDS)
    writer.writeheader()
    writer.writerows(record.to_row() for record in records)
    return out.getvalue()


def _reference_export(per_market) -> bytes:
    """The list-of-records export: ``DictWriter`` over ``to_row()`` in
    ``heapq.merge`` order (an empty file when there are no records)."""
    ordered = list(heapq.merge(
        *(per_market[market] for market in sorted(per_market)),
        key=lambda record: record.time,
    ))
    return _csv_text(ordered).encode() if ordered else b""


def _reference_periods(per_market, market, kind, horizon):
    """Rejection runs walked over record lists."""
    periods = []
    for mkt in [market] if market is not None else sorted(per_market):
        run_start, run_count, last_time = None, 0, 0.0
        for record in per_market.get(mkt, []):
            if record.kind is not kind:
                continue
            last_time = record.time
            if record.rejected:
                if run_start is None:
                    run_start, run_count = record.time, 0
                run_count += 1
            elif run_start is not None:
                periods.append(UnavailabilityPeriod(
                    mkt, kind, run_start, record.time, run_count
                ))
                run_start = None
        if run_start is not None:
            end = horizon if horizon is not None else last_time
            periods.append(UnavailabilityPeriod(
                mkt, kind, run_start, max(end, run_start), run_count,
                end_observed=False,
            ))
    periods.sort(key=lambda p: (p.start, p.market))
    return periods


class TestReadersAgainstRecordLists:
    """Every probe reader built from the packed columns equals the same
    reader over plain lists of ``ProbeRecord`` objects."""

    @given(
        batches=_batches,
        sharded=st.booleans(),
        bounds=st.tuples(st.floats(0.0, 1500.0), st.floats(0.0, 1500.0)),
    )
    @settings(max_examples=80, deadline=None)
    def test_readers_equal_the_record_list_reference(
        self, batches, sharded, bounds
    ):
        owned = PROPERTY_SHARD.__contains__ if sharded else None
        db = ProbeDatabase(owned)
        per_market: dict[MarketID, list[ProbeRecord]] = {}
        clock = dict.fromkeys(PROPERTY_MARKETS, 0.0)
        for bulk, rows in batches:
            records = []
            for i, gap, kind, trigger, outcome, spike, bid, cost, rid in rows:
                market = PROPERTY_MARKETS[i]
                clock[market] += gap
                records.append(ProbeRecord(
                    clock[market], market, kind, trigger, outcome, spike,
                    bid, cost, rid,
                ))
            if bulk:
                reader = csv.reader(io.StringIO(_csv_text(records), newline=""))
                db.append_probe_rows(next(reader), reader)
            else:
                for record in records:
                    db.insert_probe(record)
            for record in records:
                if owned is None or owned(record.market):
                    per_market.setdefault(record.market, []).append(record)

        everything = list(heapq.merge(
            *(per_market[market] for market in sorted(per_market)),
            key=lambda record: record.time,
        ))
        assert len(db) == len(everything)
        for market in [None, *PROPERTY_MARKETS]:
            source = everything if market is None else per_market.get(market, [])
            for kind in (None, *ProbeKind):
                for rejected in (None, True, False):
                    for start in (None, min(bounds)):
                        for end in (None, max(bounds)):
                            assert db.probes(
                                market, kind, rejected, start, end
                            ) == [
                                record for record in source
                                if (kind is None or record.kind is kind)
                                and (rejected is None or record.rejected == rejected)
                                and (start is None or record.time >= start)
                                and (end is None or record.time <= end)
                            ]

        assert db.last_probe_states() == {
            (market, record.kind): (record.time, record.rejected)
            for market, records in per_market.items()
            for record in records
        }
        for market in [None, *PROPERTY_MARKETS]:
            for kind in ProbeKind:
                for horizon in (None, max(bounds) + 2000.0):
                    assert db.unavailability_periods(
                        market, kind, horizon
                    ) == _reference_periods(per_market, market, kind, horizon)
        assert db.total_probe_cost() == sum(
            record.cost for records in per_market.values() for record in records
        )
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "probes.csv"
            assert db.export_probes_csv(path) == len(everything)
            assert path.read_bytes() == _reference_export(per_market)
