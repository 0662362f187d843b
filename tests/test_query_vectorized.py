"""Golden equivalence tests for the vectorized read path.

Mirrors the PR-1 contract for the simulation core: the columnar
read-side index must answer exactly what the scalar reference path
answers.

* **Single-market queries** (availability, periods, point lookups,
  price metrics, rejection rates) must be **byte-equal**: the
  vectorized path runs the same formulas over the same floats, just
  read from cached columnar snapshots.
* **The stacked ranking kernel** must produce the identical market
  ordering, with metric values equal to float round-off (its segment
  reductions sum in a different — segment-local — order than the
  per-market reference reductions, which can move the last ulp).
* **Incremental invalidation**: appending records refreshes the index;
  a stale view is never served.
* **Splice-on-append**: over generated insert histories, every
  catalog-wide view the index splices forward equals a fresh build,
  views held across later inserts never change, and answers equal an
  engine over a freshly loaded database.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.timeseries import TimeSeries
from repro.core.database import ProbeDatabase
from repro.core.market_id import MarketID
from repro.core.query import SpotLightQuery
from repro.core.read_index import stability_metrics
from repro.core.records import (
    OUTCOME_FULFILLED,
    PriceRecord,
    ProbeKind,
    ProbeRecord,
    ProbeTrigger,
)
from repro.ec2.catalog import default_catalog

REJECTED = "InsufficientInstanceCapacity"

ZONES = ["us-east-1a", "us-east-1b", "sa-east-1a", "ap-southeast-2a"]
TYPES = ["m3.medium", "m3.large", "c3.large"]

#: The stacked kernel reduces per segment (np.add.reduceat) while the
#: reference reduces per market (pairwise np.sum / BLAS dot); both are
#: correct to the ulp, so ranking *metrics* are compared at round-off
#: tolerance while ranking *order* must match exactly.
KERNEL_REL_TOL = 1e-9
KERNEL_ABS_TOL = 1e-12


def kernel_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=KERNEL_REL_TOL, abs_tol=KERNEL_ABS_TOL)


def build_database(seed: int) -> tuple[ProbeDatabase, list[MarketID]]:
    """A randomized probe/price log covering the edge shapes: price-only
    markets, probe-only markets, single-sample series, flat series that
    tie exactly, open trailing rejection runs, and both probe kinds."""
    rng = np.random.default_rng(seed)
    catalog = default_catalog()
    db = ProbeDatabase()
    markets = [
        MarketID(zone, itype, "Linux/UNIX") for zone in ZONES for itype in TYPES
    ]
    for i, market in enumerate(markets):
        od = catalog.on_demand_price(
            market.instance_type, market.region, market.product
        )
        # Price series; markets i % 5 == 0 record no prices at all, and
        # the last two markets share one flat series (an exact tie).
        if i % 5:
            if i >= len(markets) - 2:
                samples = [(600.0 * s, od * 0.31) for s in range(10)]
            else:
                count = int(rng.integers(1, 45))
                t = 0.0
                samples = []
                for _ in range(count):
                    t += float(rng.exponential(700.0))
                    samples.append((t, od * float(rng.uniform(0.08, 2.6))))
            for t, price in samples:
                db.insert_price(PriceRecord(t, market, price))
        # Probe sequences; markets i % 4 == 0 record none.
        if i % 4:
            t = 0.0
            for _ in range(int(rng.integers(1, 30))):
                t += float(rng.exponential(900.0))
                kind = (
                    ProbeKind.ON_DEMAND
                    if rng.random() < 0.7
                    else ProbeKind.SPOT
                )
                outcome = (
                    REJECTED if rng.random() < 0.45 else OUTCOME_FULFILLED
                )
                db.insert_probe(
                    ProbeRecord(
                        time=t, market=market, kind=kind,
                        trigger=ProbeTrigger.RECOVERY, outcome=outcome,
                    )
                )
    return db, markets


@pytest.fixture(params=[0, 1, 2])
def engines(request):
    db, markets = build_database(request.param)
    catalog = default_catalog()
    return (
        SpotLightQuery(db, catalog, vectorized=True),
        SpotLightQuery(db, catalog, vectorized=False),
        db,
        markets,
    )


WINDOWS = [(0.0, None), (0.0, 6000.0), (1500.0, 20000.0), (3000.0, None)]


def test_single_market_queries_byte_equal(engines):
    vectorized, reference, _, markets = engines
    for market in markets:
        for kind in ProbeKind:
            for start, end in WINDOWS:
                assert vectorized.availability(market, kind, start, end) == (
                    reference.availability(market, kind, start, end)
                )
            for horizon in (None, 50000.0):
                assert vectorized.unavailability_periods(
                    market, kind, horizon
                ) == reference.unavailability_periods(market, kind, horizon)
            for when in (400.0, 2500.0, 9000.0, 1e6):
                assert vectorized.is_unavailable_at(market, when, kind) == (
                    reference.is_unavailable_at(market, when, kind)
                )
            assert vectorized.rejection_rate(market, kind) == (
                reference.rejection_rate(market, kind)
            )
        for bid in (0.02, 0.15, 0.9):
            assert vectorized.availability_at_bid(market, bid) == (
                reference.availability_at_bid(market, bid)
            )
            assert vectorized.mean_time_to_revocation(market, bid) == (
                reference.mean_time_to_revocation(market, bid)
            )
        for start, end in WINDOWS:
            assert vectorized.mean_price(market, start, end) == (
                reference.mean_price(market, start, end)
            )
        assert vectorized.spike_multiples(market) == (
            reference.spike_multiples(market)
        )
    assert vectorized.rejection_rate() == reference.rejection_rate()


def test_global_period_list_and_rankings_match(engines):
    vectorized, reference, _, markets = engines
    for kind in ProbeKind:
        assert vectorized.unavailability_periods(kind=kind) == (
            reference.unavailability_periods(kind=kind)
        )
    assert vectorized.least_unavailable_markets(markets) == (
        reference.least_unavailable_markets(markets)
    )
    assert vectorized.least_unavailable_markets(markets, horizon=40000.0) == (
        reference.least_unavailable_markets(markets, horizon=40000.0)
    )


def test_duration_stack_matches_period_objects(engines):
    _, _, db, _ = engines
    for kind in ProbeKind:
        for horizon in (None, 60000.0):
            expected = [
                p.duration
                for p in db.unavailability_periods(kind=kind, horizon=horizon)
            ]
            got = db.unavailability_durations(kind, horizon).tolist()
            assert got == expected


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 1000},
        {"n": 1000, "bid_multiple": 0.4},
        {"n": 1000, "bid_multiple": 1.5, "start": 2000.0, "end": 15000.0},
        {"n": 1000, "region": "sa-east-1"},
    ],
)
def test_ranking_kernel_matches_reference(engines, kwargs):
    vectorized, reference, _, _ = engines
    fast = vectorized.top_stable_markets(**kwargs)
    slow = reference.top_stable_markets(**kwargs)
    assert [e.market for e in fast] == [e.market for e in slow]
    for a, b in zip(fast, slow):
        assert kernel_close(a.mean_time_to_revocation, b.mean_time_to_revocation)
        assert kernel_close(a.availability_at_bid, b.availability_at_bid)
        assert kernel_close(a.mean_price, b.mean_price)


def test_monitored_run_equivalence(monitored_run):
    """Realism check: a seeded simulator study answers identically on
    both paths (the synthetic logs above cannot stand in for the
    simulator's time/price distributions)."""
    simulator, spotlight = monitored_run
    db = spotlight.database
    vectorized = SpotLightQuery(db, simulator.catalog, vectorized=True)
    reference = SpotLightQuery(db, simulator.catalog, vectorized=False)
    fast = vectorized.top_stable_markets(n=10_000)
    slow = reference.top_stable_markets(n=10_000)
    assert [e.market for e in fast] == [e.market for e in slow]
    for a, b in zip(fast, slow):
        assert kernel_close(a.mean_time_to_revocation, b.mean_time_to_revocation)
        assert kernel_close(a.availability_at_bid, b.availability_at_bid)
        assert kernel_close(a.mean_price, b.mean_price)
    for market in list(db.markets)[::7]:
        assert vectorized.availability(market) == reference.availability(market)
        assert vectorized.unavailability_periods(market) == (
            reference.unavailability_periods(market)
        )


def test_availability_fetches_periods_once(engines, monkeypatch):
    """The reference path used to derive the default end from one fetch
    and then loop over a second; both paths now fetch at most once."""
    vectorized, reference, db, markets = engines
    calls = []
    original = type(db).unavailability_periods

    def counting(self, *args, **kwargs):
        calls.append((args, kwargs))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(type(db), "unavailability_periods", counting)
    market = markets[1]
    reference.availability(market)
    assert len(calls) == 1
    calls.clear()
    reference.availability(market, end=5000.0)
    assert len(calls) == 1
    calls.clear()
    vectorized.availability(market)  # index path: no object fetch at all
    assert calls == []


class TestIncrementalInvalidation:
    def test_appends_refresh_views_and_results(self):
        db, markets = build_database(3)
        catalog = default_catalog()
        vectorized = SpotLightQuery(db, catalog, vectorized=True)
        market = markets[1]

        stack_before = db.read_index.price_stack()
        assert db.read_index.price_stack() is stack_before  # cached
        periods_before = db.read_index.period_columns(
            market, ProbeKind.ON_DEMAND
        )
        vectorized.top_stable_markets(n=5)
        vectorized.availability(market)

        horizon = 10_000_000.0
        db.insert_price(PriceRecord(horizon, market, 123.0))
        db.insert_probe(
            ProbeRecord(
                time=horizon, market=market, kind=ProbeKind.ON_DEMAND,
                trigger=ProbeTrigger.RECOVERY, outcome=REJECTED,
            )
        )

        stack_after = db.read_index.price_stack()
        assert stack_after is not stack_before
        assert len(stack_after.times) == len(stack_before.times) + 1
        periods_after = db.read_index.period_columns(
            market, ProbeKind.ON_DEMAND
        )
        assert periods_after is not periods_before
        assert periods_after.open_start == horizon

        # Results after the append equal a freshly built reference
        # engine: nothing stale is served.
        reference = SpotLightQuery(db, catalog, vectorized=False)
        assert vectorized.availability(market) == reference.availability(market)
        assert vectorized.unavailability_periods(market) == (
            reference.unavailability_periods(market)
        )
        fast = vectorized.top_stable_markets(n=1000)
        slow = reference.top_stable_markets(n=1000)
        assert [e.market for e in fast] == [e.market for e in slow]

    def test_unrelated_market_entries_stay_cached(self):
        db, markets = build_database(4)
        index = db.read_index
        untouched = markets[2]
        cached = index.period_columns(untouched, ProbeKind.ON_DEMAND)
        prices_cached = index.market_price_arrays(untouched)
        db.insert_probe(
            ProbeRecord(
                time=10_000_000.0, market=markets[1],
                kind=ProbeKind.ON_DEMAND, trigger=ProbeTrigger.RECOVERY,
                outcome=OUTCOME_FULFILLED,
            )
        )
        db.insert_price(PriceRecord(10_000_000.0, markets[1], 1.0))
        # Per-market entries of other markets survive the append ...
        assert index.period_columns(untouched, ProbeKind.ON_DEMAND) is cached
        assert index.market_price_arrays(untouched) is prices_cached
        # ... while the touched market's entries were dropped.
        assert index.period_columns(
            markets[1], ProbeKind.ON_DEMAND
        ).last_time == 10_000_000.0

    def test_probe_columns_track_appends(self):
        db, markets = build_database(5)
        columns = db.probe_columns()
        assert db.probe_columns() is columns  # cached until a write
        db.insert_probe(
            ProbeRecord(
                time=10_000_000.0, market=markets[0], kind=ProbeKind.SPOT,
                trigger=ProbeTrigger.PERIODIC, outcome="capacity-not-available",
            )
        )
        refreshed = db.probe_columns()
        assert refreshed is not columns
        assert len(refreshed) == len(columns) + 1
        assert refreshed.outcome_code("capacity-not-available") >= 0


def _loop_bounds(stack, start, end):
    """The per-market bisection ``PriceStack.bounds`` replaced."""
    lo = stack.offsets[:-1].copy()
    hi = stack.offsets[1:].copy()
    for i in range(len(stack.markets)):
        segment = stack.times[stack.offsets[i]:stack.offsets[i + 1]]
        lo[i] = stack.offsets[i] + np.searchsorted(segment, start, side="left")
        if end is not None:
            hi[i] = stack.offsets[i] + np.searchsorted(segment, end, side="right")
    return lo, hi


class TestStackBounds:
    #: Four markets: a tied-sample series, an empty segment, a single
    #: sample, and a late series.
    SERIES = [
        [100.0, 200.0, 200.0, 300.0],
        [],
        [250.0],
        [400.0, 500.0, 600.0],
    ]

    def stack(self):
        db = ProbeDatabase()
        markets = [
            MarketID(zone, "m3.large", "Linux/UNIX")
            for zone in ("us-east-1a", "us-east-1b", "sa-east-1a",
                         "ap-southeast-2a")
        ]
        for market, times in zip(markets, self.SERIES):
            for t in times:
                db.insert_price(PriceRecord(t, market, 1.0))
        return db.read_index.price_stack(markets)

    @pytest.mark.parametrize(
        "start, end",
        [
            (0.0, None),           # the whole catalog
            (200.0, None),         # start exactly on (tied) samples
            (100.0, 500.0),        # both edges exactly on samples
            (200.0, 200.0),        # a zero-width window on a tie
            (150.0, 450.0),        # edges between samples
            (0.0, 50.0),           # a window before the first sample
            (700.0, None),         # a window after the last sample
            (500.0, 250.0),        # end < start
            (300.0, 299.0),        # end < start, inside one segment
        ],
    )
    def test_counts_match_the_bisection_loop(self, start, end):
        stack = self.stack()
        lo, hi = stack.bounds(start, end)
        want_lo, want_hi = _loop_bounds(stack, start, end)
        assert lo.tolist() == want_lo.tolist()
        assert hi.tolist() == want_hi.tolist()

    def test_empty_stack(self):
        stack = ProbeDatabase().read_index.price_stack()
        lo, hi = stack.bounds(100.0, 200.0)
        assert lo.tolist() == [] and hi.tolist() == []


# -- splice-on-append, against fresh builds over generated histories -------

SPLICE_MARKETS = [
    MarketID("us-east-1a", "m3.medium", "Linux/UNIX"),
    MarketID("us-east-1b", "m3.large", "Linux/UNIX"),
    MarketID("sa-east-1a", "c3.large", "Linux/UNIX"),
    MarketID("ap-southeast-2a", "m3.medium", "Linux/UNIX"),
    MarketID("us-east-1a", "c3.large", "Linux/UNIX"),   # no data before prime()
    MarketID("sa-east-1a", "m3.large", "Linux/UNIX"),   # no data before prime()
]
PRIMED = 4  # markets [0, PRIMED) get history before prime()

_gap = st.sampled_from([0.0, 1.0, 300.0, 1200.0])
_market = st.integers(0, len(SPLICE_MARKETS) - 1)
_op = st.one_of(
    st.tuples(
        st.just("price"), _market, _gap,
        st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.0, 2.5]),
    ),
    st.tuples(
        st.just("probe"), _market, _gap, st.sampled_from(list(ProbeKind)),
        st.sampled_from([OUTCOME_FULFILLED, REJECTED, "capacity-not-available"]),
    ),
    st.tuples(st.just("substack"), st.sets(_market)),
    st.tuples(
        st.just("rank"),
        st.sampled_from([0.2, 1.0, 4.0]),  # bid multiple
        st.sampled_from([(0.0, None), (300.0, 2500.0), (1200.0, None),
                         (5000.0, 100.0)]),
        st.sampled_from([None, "us-east-1", "sa-east-1", "eu-west-1"]),
        st.sampled_from([-1, 0, 1, 3, 100]),
    ),
    st.tuples(st.just("hold")),
    st.tuples(st.just("check")),
    st.tuples(st.just("reset")),
)


def _snapshot(view) -> dict:
    return {
        name: getattr(view, name).copy()
        for name in view.__slots__
        if not name.startswith("_")
        and isinstance(getattr(view, name), np.ndarray)
    }


def _assert_same_columns(got, want) -> None:
    assert got.markets == want.markets
    fields = _snapshot(want)
    assert fields.keys() == _snapshot(got).keys()
    for name, column in fields.items():
        assert getattr(got, name).dtype == column.dtype, name
        assert np.array_equal(getattr(got, name), column), name


class TestSplicedViews:
    @given(
        seed_rows=st.lists(st.tuples(st.integers(0, PRIMED - 1), _gap), max_size=12),
        ops=st.lists(_op, max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_spliced_views_equal_fresh_builds(self, seed_rows, ops):
        catalog = default_catalog()
        db = ProbeDatabase()
        log: list = []
        clock = dict.fromkeys(SPLICE_MARKETS, 0.0)

        def insert(record) -> None:
            log.append(record)
            if isinstance(record, PriceRecord):
                db.insert_price(record)
            else:
                db.insert_probe(record)

        def probe(market, t, kind, outcome) -> ProbeRecord:
            return ProbeRecord(
                time=t, market=market, kind=kind,
                trigger=ProbeTrigger.RECOVERY, outcome=outcome,
            )

        for i, gap in seed_rows:
            market = SPLICE_MARKETS[i]
            clock[market] += gap
            insert(PriceRecord(clock[market], market, 0.3))
            insert(probe(market, clock[market], ProbeKind.ON_DEMAND, REJECTED))
        engine = SpotLightQuery(db, catalog)
        engine.prime()
        reference = SpotLightQuery(db, catalog, vectorized=False)
        index = db.read_index
        # Views held across later inserts, and their bytes when taken.
        held: list = []
        held_before: list[dict] = []

        def check() -> None:
            stack = index.price_stack()
            _assert_same_columns(
                stack, index._build_stack(tuple(sorted(db._prices_by_market)))
            )
            columns = index.probe_columns()
            fresh_columns = index._build_probe_columns()
            _assert_same_columns(columns, fresh_columns)
            assert columns.outcomes == fresh_columns.outcomes
            # Answers equal an engine over a database rebuilt from the log.
            fresh_db = ProbeDatabase()
            for record in log:
                if isinstance(record, PriceRecord):
                    fresh_db.insert_price(record)
                else:
                    fresh_db.insert_probe(record)
            fresh = SpotLightQuery(fresh_db, catalog)
            for kwargs in (
                {"n": 100},
                {"n": 100, "bid_multiple": 0.4, "start": 300.0, "end": 2500.0},
                {"n": 100, "region": "sa-east-1"},
            ):
                assert engine.top_stable_markets(**kwargs) == (
                    fresh.top_stable_markets(**kwargs)
                )
            bids = {m: 0.1 * (i + 1) for i, m in enumerate(SPLICE_MARKETS)}
            assert engine.point_stats_batch(bids, 0.0, 3000.0) == (
                fresh.point_stats_batch(bids, 0.0, 3000.0)
            )
            assert engine.rejection_counts() == fresh.rejection_counts()
            for market in SPLICE_MARKETS:
                for kind in (None, *ProbeKind):
                    assert engine.rejection_counts(market, kind) == (
                        fresh.rejection_counts(market, kind)
                    )

        for op in ops:
            if op[0] == "price":
                _, i, gap, price = op
                market = SPLICE_MARKETS[i]
                clock[market] += gap
                insert(PriceRecord(clock[market], market, price))
            elif op[0] == "probe":
                _, i, gap, kind, outcome = op
                market = SPLICE_MARKETS[i]
                clock[market] += gap
                insert(probe(market, clock[market], kind, outcome))
            elif op[0] == "substack":
                # Any subset, markets without prices (empty segments) too.
                key = tuple(SPLICE_MARKETS[i] for i in sorted(op[1]))
                view = index.price_stack(key)
                _assert_same_columns(view, index._build_stack(key))
                held.append(view)
                held_before.append(_snapshot(view))
            elif op[0] == "rank":
                _, bid_multiple, (start, end), region, n = op
                kwargs = dict(bid_multiple=bid_multiple, start=start,
                              end=end, region=region)
                got = engine.top_stable_markets(n, **kwargs)
                want = reference.top_stable_markets(n, **kwargs)
                assert [e.market for e in got] == [e.market for e in want]
                for a, b in zip(got, want):
                    assert kernel_close(
                        a.mean_time_to_revocation, b.mean_time_to_revocation
                    )
                    assert kernel_close(a.availability_at_bid, b.availability_at_bid)
                    assert kernel_close(a.mean_price, b.mean_price)
                # Every ranking cached on any view, brought current, is
                # the bits of a full pass over a freshly built stack.
                index.price_stack()  # a rebuild here retires the substacks
                views = [(None, index._stack), *index._substacks.items()]
                for markets, entry in views:
                    for key in list(entry.rankings):
                        on_demand, multiple, lo, hi = key
                        stack, ranking = index.stability_ranking(
                            on_demand, multiple, lo, hi, markets
                        )
                        bids = multiple * np.asarray(
                            [on_demand(m) for m in stack.markets]
                        )
                        full = stability_metrics(
                            index._build_stack(stack.markets), bids, lo, hi
                        )
                        cached = (ranking.mttr, ranking.avail, ranking.mean_price)
                        for got_vector, want in zip(cached, full, strict=True):
                            assert got_vector.tobytes() == want.tobytes()
                        assert ranking.order.tolist() == np.lexsort(
                            (full[2], -full[1], -full[0])
                        ).tolist()
            elif op[0] == "hold":
                held.extend((index.price_stack(), index.probe_columns()))
                held_before.extend(_snapshot(view) for view in held[-2:])
            elif op[0] == "check":
                check()
            else:
                index.reset()
        check()
        for view, before in zip(held, held_before, strict=True):
            after = _snapshot(view)
            assert all(np.array_equal(after[k], before[k]) for k in before)

    def test_rankings_rerun_only_the_grown_segments(self):
        """Commits of three markets each: every cached ranking reruns
        just the grown segments in its view, and answers what a full
        pass over the same records does, to the bit."""
        db, _ = build_database(4)
        catalog = default_catalog()
        engine = SpotLightQuery(db, catalog)
        engine.prime()
        index = db.read_index
        rankings = [
            {},
            {"bid_multiple": 0.4, "start": 1500.0, "end": 20000.0},
            {"region": "sa-east-1"},
        ]
        for kwargs in rankings:
            engine.top_stable_markets(n=100, **kwargs)
        priced = index.price_stack().markets
        rng = np.random.default_rng(4)
        for _ in range(6):
            chosen = [priced[i] for i in rng.choice(len(priced), 3, replace=False)]
            for market in chosen:
                when, price = db.last_prices()[market]
                db.insert_price(PriceRecord(
                    when + float(rng.exponential(700.0)), market,
                    price * float(rng.uniform(0.3, 3.0)),
                ))
            before = index.stats()
            for kwargs in rankings:
                full_pass = SpotLightQuery(db, catalog)  # no cached ranking
                assert engine.top_stable_markets(n=100, **kwargs) == (
                    full_pass.top_stable_markets(n=100, **kwargs)
                )
            after = index.stats()
            assert after["ranking_full_passes"] - before["ranking_full_passes"] == 3
            in_region = sum(m.region == "sa-east-1" for m in chosen)
            assert after["ranking_segments_recomputed"] - (
                before["ranking_segments_recomputed"]
            ) == 3 + 3 + in_region

    def test_tails_of_segments_ending_together_keep_segment_order(self):
        """Empty segments end where their predecessor does; markets that
        all grow at once must land in segment order."""
        db = ProbeDatabase()
        index = db.read_index
        key = tuple(SPLICE_MARKETS)
        db.insert_price(PriceRecord(1.0, key[0], 0.5))
        index.price_stack(key)  # one priced segment, five empty ones
        for i, market in enumerate(reversed(key)):
            db.insert_price(PriceRecord(10.0 + i, market, float(i)))
        spliced = index.price_stack(key)
        _assert_same_columns(spliced, index._build_stack(key))
        assert index.stats()["price_stack_splices"] == 1

    def test_a_series_shorter_than_its_segment_rebuilds(self):
        db, markets = build_database(6)
        index = db.read_index
        stack = index.price_stack()
        market = stack.markets[0]
        # A store reloaded underneath the index: the series lost rows.
        db._prices_by_market[market] = TimeSeries()
        db._prices_by_market[market].append(1.0, 0.25)
        index.invalidate_prices(market)
        rebuilt = index.price_stack()
        _assert_same_columns(rebuilt, index._build_stack(stack.markets))
        assert index.stats()["price_stack_builds"] == 2
        assert index.stats()["price_stack_splices"] == 0

    def test_new_market_and_reset_rebuild(self):
        db, markets = build_database(7)
        index = db.read_index
        index.prime()
        newcomer = MarketID("eu-west-1a", "m3.large", "Linux/UNIX")
        db.insert_price(PriceRecord(1.0, newcomer, 0.2))
        db.insert_probe(
            ProbeRecord(
                time=1.0, market=newcomer, kind=ProbeKind.SPOT,
                trigger=ProbeTrigger.PERIODIC, outcome=OUTCOME_FULFILLED,
            )
        )
        assert newcomer in index.price_stack().markets
        assert newcomer in index.probe_columns().markets
        index.reset()
        index.price_stack()
        index.probe_columns()
        stats = index.stats()
        assert stats["price_stack_builds"] == stats["probe_columns_builds"] == 3
        assert stats["price_stack_splices"] == stats["probe_columns_splices"] == 0
