"""Substrate throughput: how fast the simulated platform runs.

Not a paper figure, but the property that makes the reproduction
practical: a 270-market fleet must simulate days of platform time in
seconds of wall time, and the full ~4,100-market catalog must simulate
a complete platform-day — the unit the paper's 3-month study is made
of.

Each benchmark can record its wall time into ``BENCH_simulator.json``
at the repository root, so successive changes accumulate a performance
trajectory.  Refresh the checked-in baseline (see ``harness.py``) by
running::

    REPRO_UPDATE_BENCH=1 PYTHONPATH=src python -m pytest benchmarks/test_simulator_scale.py -q

and committing the updated JSON.
"""

from __future__ import annotations

import time

from harness import REPO_ROOT, record_result

from repro import EC2Simulator, FleetConfig
from repro.ec2.catalog import default_catalog, small_catalog

BENCH_PATH = REPO_ROOT / "BENCH_simulator.json"
SIMULATED_DAY = 86400.0


def _record_result(name: str, wall_seconds: float, **extra: object) -> None:
    """Merge one benchmark result into BENCH_simulator.json."""
    entry = {"wall_seconds": round(wall_seconds, 3), **extra}
    entry["simulated_seconds_per_wall_second"] = (
        round(float(extra["simulated_seconds"]) / wall_seconds)
        if wall_seconds > 0 and "simulated_seconds" in extra
        else None
    )
    record_result(BENCH_PATH, name, entry)


def test_mid_fleet_day_throughput(benchmark):
    """Simulate one platform-day on a 270-market fleet per round."""
    catalog = small_catalog(
        regions=["us-east-1", "sa-east-1", "ap-southeast-2"], families=["c3", "m3"]
    )
    timings: list[float] = []

    def one_day():
        started = time.perf_counter()
        sim = EC2Simulator(FleetConfig(catalog=catalog, seed=1, tick_interval=300.0))
        sim.run_for(SIMULATED_DAY)
        timings.append(time.perf_counter() - started)
        return sim

    sim = benchmark.pedantic(one_day, rounds=3, iterations=1)
    assert any(m.price_history() for m in sim.markets.values())
    _record_result(
        "mid_fleet_day",
        min(timings),
        markets=len(sim.markets),
        pools=len(sim.pools),
        simulated_seconds=SIMULATED_DAY,
        rounds=len(timings),
    )


def test_full_catalog_day_throughput(benchmark):
    """One full platform-day over the paper-scale catalog.

    The paper's study monitors ~4,100 markets across 9 regions for
    three months; a practical reproduction has to chew through whole
    days of that fleet, not just construct it and step twice.
    """
    catalog = default_catalog()
    timings: list[float] = []

    def construct_and_run_day():
        started = time.perf_counter()
        sim = EC2Simulator(FleetConfig(catalog=catalog, seed=1, tick_interval=600.0))
        sim.run_for(SIMULATED_DAY)
        timings.append(time.perf_counter() - started)
        return sim

    sim = benchmark.pedantic(construct_and_run_day, rounds=1, iterations=1)
    assert len(sim.markets) > 4000
    assert all(m.price_history() for m in sim.markets.values())
    _record_result(
        "full_catalog_day",
        min(timings),
        markets=len(sim.markets),
        pools=len(sim.pools),
        regions=len(sim.catalog.regions),
        simulated_seconds=SIMULATED_DAY,
        rounds=len(timings),
    )
    print(
        f"\nfull catalog: {len(sim.markets)} markets, {len(sim.pools)} pools "
        f"across {len(sim.catalog.regions)} regions; one day in "
        f"{min(timings):.1f}s wall"
    )
