"""The seeded full-catalog snapshot every serving workload reads.

Shape: every market of the default catalog (4,134) carries a
study-like history — a spot price stepping around a market-specific
fraction of on-demand with periodic spikes, and on-demand probe runs of
rejections ending in a recovery (every third market still mid-outage at
the end).  About 150k price rows and 100k probe rows, written through
``SnapshotDatastore``'s public insert/save API so the on-disk format is
always the one the program under test writes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro.core.datastore import SnapshotDatastore
from repro.core.market_id import MarketID
from repro.core.records import (
    OUTCOME_FULFILLED,
    PriceRecord,
    ProbeKind,
    ProbeRecord,
    ProbeTrigger,
)
from repro.ec2.catalog import default_catalog

PRICE_STEP_S = 900.0
PRICE_SAMPLES = 36
PROBE_RUNS = 6
REJECTED = "InsufficientInstanceCapacity"


@dataclass
class Snapshot:
    """What a workload needs to know about the snapshot it serves."""

    markets: list[MarketID]
    on_demand: dict[MarketID, float]
    horizon: float  # last record time in the snapshot


def market_list() -> tuple[list[MarketID], dict[MarketID, float]]:
    catalog = default_catalog()
    markets = sorted(
        MarketID(zone, itype, product)
        for zone, itype, product in catalog.iter_markets()
    )
    on_demand = {
        m: catalog.on_demand_price(m.instance_type, m.region, m.product)
        for m in markets
    }
    return markets, on_demand


def write_snapshot(
    root: Path, seed: int, append_log: bool = False
) -> tuple[Snapshot, SnapshotDatastore]:
    """Write a fresh snapshot directory for ``seed``; returns its
    description and the store it was saved from (opened with
    ``append_log`` so a ``Recorder`` can keep writing to it)."""
    rng = random.Random(f"snapshot/{seed}")
    markets, on_demand = market_list()
    store = SnapshotDatastore(root, append_log=append_log)
    horizon = 0.0
    for market in markets:
        od = on_demand[market]
        base = od * rng.uniform(0.15, 0.45)
        spike_every = rng.randint(5, 15)
        offset = rng.uniform(0.0, 90.0)
        for step in range(PRICE_SAMPLES):
            spiking = step % spike_every == spike_every - 1
            price = od * rng.uniform(1.5, 3.0) if spiking else base
            if not spiking and rng.random() < 0.2:
                base = od * rng.uniform(0.15, 0.45)  # a price step
            store.insert_price(
                PriceRecord(PRICE_STEP_S * step + offset, market, round(price, 6))
            )
        t = rng.uniform(0.0, 600.0)
        open_outage = rng.random() < 1 / 3
        for run in range(PROBE_RUNS):
            for _ in range(rng.randint(1, 5)):
                t += rng.uniform(300.0, 700.0)
                store.insert_probe(ProbeRecord(
                    time=t, market=market, kind=ProbeKind.ON_DEMAND,
                    trigger=ProbeTrigger.RECOVERY, outcome=REJECTED,
                ))
            if run < PROBE_RUNS - 1 or not open_outage:
                t += rng.uniform(200.0, 400.0)
                store.insert_probe(ProbeRecord(
                    time=t, market=market, kind=ProbeKind.ON_DEMAND,
                    trigger=ProbeTrigger.RECOVERY, outcome=OUTCOME_FULFILLED,
                ))
        horizon = max(horizon, t, PRICE_STEP_S * (PRICE_SAMPLES - 1) + offset)
    store.save()
    return Snapshot(markets, on_demand, horizon), store
