"""The ``study`` workload: SpotLight's data-collection path, no server.

SpotLight monitors the 270-market mid fleet (us-east-1, sa-east-1,
ap-southeast-2 x c3, m3) over ``EC2Simulator`` for a fixed simulated
span, recording into a ``SnapshotDatastore`` and ending with
``save()``.  A run repeats the same seeded study until its time is up:
every repetition gives one set-up sample and a wall-time sample per
simulator tick, and must write the same rows and the same snapshot
bytes.

Traced, the provider and the datastore are wrapped (benchmark-side) so
each call into ``repro.providers``, each ``repro.core.service``
callback and each datastore write becomes a span under the
``ec2.run_for`` root.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path

from repro import EC2Simulator, FleetConfig, SpotLight, SpotLightConfig
from repro.core.datastore import SnapshotDatastore
from repro.ec2.catalog import small_catalog
from repro.providers.simulator import SimulatorProvider

REGIONS = ["us-east-1", "sa-east-1", "ap-southeast-2"]
FAMILIES = ["c3", "m3"]
#: Simulated span of one repetition (half a day: about 2 s on a 2-vCPU
#: Xeon, so a 26-s run holds about a dozen repetitions).
STUDY_SECONDS = 43200.0
#: The simulator's tick; a repetition runs one tick at a time, and each
#: tick (SpotLight's probing and recording included) is one operation.
TICK_SECONDS = 300.0
PROVIDER_CALLS = (
    "run_instances", "request_spot_instances", "terminate_instances",
    "terminate_spot_instance", "cancel_spot_request",
)


class TracedProvider:
    """A ``CloudProvider`` that times calls into the provider layer and
    the service callbacks the provider fires back."""

    def __init__(self, inner: SimulatorProvider, tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        for name in PROVIDER_CALLS:
            setattr(self, name, self._timed("providers.call", getattr(inner, name)))

    def _timed(self, span: str, fn):
        tracer = self._tracer

        def timed(*args, **kwargs):
            return tracer.call(span, fn, *args, **kwargs)
        return timed

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def schedule_in(self, delay, callback, label: str = "") -> None:
        self._inner.schedule_in(
            delay, self._timed("service.callback", callback), label=label
        )

    def subscribe_prices(self, observer) -> None:
        self._inner.subscribe_prices(self._timed("service.callback", observer))

    def run_for(self, duration: float) -> int:
        return self._tracer.call("ec2.run_for", self._inner.run_for, duration)


class TracedDatastore:
    """A datastore that times the writes SpotLight makes."""

    def __init__(self, inner: SnapshotDatastore, tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __len__(self) -> int:
        return len(self._inner)

    def insert_probe(self, record) -> None:
        self._tracer.call("datastore.insert", self._inner.insert_probe, record)

    def insert_price(self, record) -> None:
        self._tracer.call("datastore.insert", self._inner.insert_price, record)

    def save(self) -> None:
        self._tracer.call("datastore.save", self._inner.save)


def _snapshot_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.glob("*.csv")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def build(root: Path, seed: int, tracer=None) -> tuple:
    """Construct simulator, datastore and SpotLight through ``start()``
    over an empty ``root``; returns ``(provider, spotlight, store)``."""
    simulator = EC2Simulator(FleetConfig(
        catalog=small_catalog(regions=REGIONS, families=FAMILIES),
        seed=seed, tick_interval=TICK_SECONDS,
    ))
    provider = SimulatorProvider(simulator)
    store = SnapshotDatastore(root)
    datastore = store
    if tracer is not None:
        provider = TracedProvider(provider, tracer)
        datastore = TracedDatastore(store, tracer)
    spotlight = SpotLight(
        provider,
        SpotLightConfig(
            threshold_multiple=1.0, sampling_probability=1.0,
            spot_probe_interval=4 * 3600.0,
        ),
        datastore=datastore,
    )
    spotlight.start()
    return provider, spotlight, store


def time_setup(root: Path, seed: int) -> float:
    shutil.rmtree(root, ignore_errors=True)
    started = time.perf_counter()
    _provider, _spotlight, store = build(root, seed)
    elapsed = time.perf_counter() - started
    store.close()
    return elapsed


def run_once(root: Path, seed: int, tracer=None) -> dict:
    """One repetition: set up, study one tick at a time, save.  Returns
    its samples."""
    shutil.rmtree(root, ignore_errors=True)
    started = time.perf_counter()
    provider, spotlight, store = build(root, seed, tracer)
    ready = time.perf_counter()
    ticks = []
    for _ in range(round(STUDY_SECONDS / TICK_SECONDS)):
        tick_started = time.perf_counter()
        provider.run_for(TICK_SECONDS)
        ticks.append(time.perf_counter() - tick_started)
    spotlight.save()
    done = time.perf_counter()
    store.close()
    return {
        "setup_s": ready - started,
        "study_s": done - ready,
        "ticks": ticks,
        "rows": len(store) + store.price_count(),
        "bytes": sum(p.stat().st_size for p in root.iterdir() if p.is_file()),
        "digest": _snapshot_digest(root),
        "markets": len(spotlight.markets),
    }
