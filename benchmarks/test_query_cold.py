"""Cold read-path throughput: the query engine at full catalog scale.

The serving benchmark (``test_server_load.py``) is dominated by the
frontend's TTL cache; this one measures what happens *under* the cache
— the first, cold evaluation of the paper's flagship queries over the
full ~4,100-market catalog — for both engine paths:

* **reference** — the scalar per-market loop (``vectorized=False``);
* **vectorized cold** — the columnar read-side index, including the
  lazy index build (what the first query after a snapshot load pays
  when the server skipped ``prime()``);
* **vectorized warm** — the index already built, caches hot at the
  engine level; the index keeps each ranking's metrics on its price
  view, so a repeat ranking over unchanged data reruns no kernel and
  only materializes the top entries (nothing is memoized above the
  index).

Results merge into ``BENCH_query.json`` at the repository root when
refreshed (see ``harness.py``)::

    REPRO_UPDATE_BENCH=1 PYTHONPATH=src python -m pytest benchmarks/test_query_cold.py -q

The acceptance floor: the vectorized cold ranking must beat the scalar
reference by at least ``MIN_RANKING_SPEEDUP`` on the full catalog.
"""

from __future__ import annotations

import time

from harness import REPO_ROOT, record_result

from repro.core.database import ProbeDatabase
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

BENCH_PATH = REPO_ROOT / "BENCH_query.json"

SAMPLES_PER_MARKET = 36
MIN_RANKING_SPEEDUP = 5.0
#: CI floor for the vectorized cold ranking itself (queries/second) —
#: generous: the dev container clears it by more than an order of
#: magnitude, but a rebuilt-per-request index would not.
MIN_COLD_RANKINGS_PER_SECOND = 2.0

REJECTED = "InsufficientInstanceCapacity"


def build_full_catalog_database() -> tuple[ProbeDatabase, list[MarketID]]:
    """A deterministic probe/price log over every catalog market.

    Price patterns vary by market (different base fractions and spike
    cadences) so the ranking has real work to do; every market also
    carries one closed rejection run and every third an open one, so
    the availability sweep touches period logic everywhere.
    """
    catalog = default_catalog()
    db = ProbeDatabase()
    markets = sorted(
        MarketID(zone, itype, product)
        for zone, itype, product in catalog.iter_markets()
    )
    for i, market in enumerate(markets):
        od = catalog.on_demand_price(
            market.instance_type, market.region, market.product
        )
        base = od * (0.18 + 0.04 * (i % 7))
        spike_every = 5 + i % 11
        for step in range(SAMPLES_PER_MARKET):
            price = base if (step + i) % spike_every else od * 2.4
            db.insert_price(PriceRecord(900.0 * step + (i % 90), market, price))
        # A study-shaped probe log: ~30 probes per market in rejection
        # runs of varying length (a real deployment re-probes every few
        # minutes during an outage, so records far outnumber periods).
        t = 0.0
        for run in range(6):
            run_length = 1 + (i + run) % 5
            for _ in range(run_length):
                t += 400.0 + (i % 7) * 50.0
                db.insert_probe(
                    ProbeRecord(
                        time=t, market=market, kind=ProbeKind.ON_DEMAND,
                        trigger=ProbeTrigger.RECOVERY, outcome=REJECTED,
                    )
                )
            if run < 5 or i % 3:  # every third market ends mid-outage
                t += 300.0
                db.insert_probe(
                    ProbeRecord(
                        time=t, market=market, kind=ProbeKind.ON_DEMAND,
                        trigger=ProbeTrigger.RECOVERY,
                        outcome=OUTCOME_FULFILLED,
                    )
                )
    return db, markets


def _best_of(rounds: int, run) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_cold_query_speedups():
    db, markets = build_full_catalog_database()
    catalog = default_catalog()
    reference = SpotLightQuery(db, catalog, vectorized=False)
    vectorized = SpotLightQuery(db, catalog, vectorized=True)

    # -- the flagship ranking ------------------------------------------------
    ranking_args = dict(n=10, bid_multiple=1.0)
    scalar_s, scalar_top = _best_of(
        2, lambda: reference.top_stable_markets(**ranking_args)
    )

    def cold_ranking():
        db.read_index.reset()  # re-measure the lazy index build too
        return vectorized.top_stable_markets(**ranking_args)

    cold_s, cold_top = _best_of(3, cold_ranking)
    warm_s, warm_top = _best_of(5, lambda: vectorized.top_stable_markets(
        **ranking_args
    ))

    assert [e.market for e in cold_top] == [e.market for e in scalar_top]
    assert [e.market for e in warm_top] == [e.market for e in scalar_top]

    # -- the availability sweep ----------------------------------------------
    def sweep(engine):
        return [engine.availability(market) for market in markets]

    scalar_sweep_s, scalar_sweep = _best_of(1, lambda: sweep(reference))

    def cold_sweep():
        db.read_index.reset()
        return sweep(vectorized)

    cold_sweep_s, cold_sweep_result = _best_of(2, cold_sweep)
    warm_sweep_s, warm_sweep_result = _best_of(3, lambda: sweep(vectorized))
    assert cold_sweep_result == scalar_sweep
    assert warm_sweep_result == scalar_sweep

    ranking_speedup = scalar_s / cold_s
    entry = {
        "markets": len(markets),
        "price_samples": db.price_count(),
        "top_stable_markets": {
            "reference_s": round(scalar_s, 4),
            "vectorized_cold_s": round(cold_s, 4),
            "vectorized_warm_s": round(warm_s, 4),
            "speedup_cold": round(ranking_speedup, 1),
            "speedup_warm": round(scalar_s / warm_s, 1),
        },
        "availability_sweep": {
            "reference_s": round(scalar_sweep_s, 4),
            "vectorized_cold_s": round(cold_sweep_s, 4),
            "vectorized_warm_s": round(warm_sweep_s, 4),
            "speedup_cold": round(scalar_sweep_s / cold_sweep_s, 1),
            "speedup_warm": round(scalar_sweep_s / warm_sweep_s, 1),
        },
    }
    record_result(BENCH_PATH, "query_cold", entry)
    print(
        f"\ncold ranking over {len(markets)} markets: reference {scalar_s:.3f}s,"
        f" vectorized cold {cold_s:.3f}s ({ranking_speedup:.1f}x),"
        f" warm {warm_s:.3f}s; availability sweep"
        f" {scalar_sweep_s:.3f}s -> {warm_sweep_s:.3f}s warm"
    )

    assert ranking_speedup >= MIN_RANKING_SPEEDUP, (
        f"cold ranking speedup {ranking_speedup:.1f}x below "
        f"{MIN_RANKING_SPEEDUP}x"
    )
    assert 1.0 / cold_s >= MIN_COLD_RANKINGS_PER_SECOND, (
        f"cold ranking ran at {1.0 / cold_s:.1f}/s, below the "
        f"{MIN_COLD_RANKINGS_PER_SECOND}/s floor"
    )
    # The warm sweep must actually beat the per-call reference path.
    assert warm_sweep_s < scalar_sweep_s
