"""Live replication: one recorder's WAL, tailed by replica servers.

The paper's questions are about *now* — spike risk, revocation odds,
availability — so the serving tier cannot stop at frozen snapshots.
This module turns a :class:`~repro.core.datastore.SnapshotDatastore`
directory into a single-writer / many-reader replication channel with
exactly the crash-safety the format-2 layout already guarantees:

* :class:`Recorder` owns the write side.  It appends increments through
  the normal WAL path and periodically *commits*: WAL fsync, then an
  atomic replace of a ``watermark.json`` sidecar naming how many
  complete rows of the live generation are durable (plus a cumulative
  ``seq``).  Because rows are fsync'd strictly before the watermark
  that names them, a reader that trusts the watermark can never read a
  row that a crash might take back.
* :class:`ReplicaTailer` owns a read side.  It polls the watermark and
  tails the WAL files with the datastore's own WAL reader,
  :class:`~repro.core.datastore.WalCursor` (per-row CRC32 validation,
  the same reader a load replays with), applying only rows at or below
  the committed counts.  A torn or garbled tail is "not yet written":
  the cursor holds position (bounded retry with backoff, never a
  crash) until the writer finishes the record or trims the tail on
  restart.  Applied rows go through the store's bulk column appenders
  (``append_*_rows``, as a load's do) and so through the read index's
  per-market invalidation: warm query views for untouched markets stay
  warm.
* WAL **generation rollover** (the recorder's ``save()``) is announced
  in the watermark's ``previous`` block: a lagging tailer drains the
  retired generation's WAL — retained on disk until the *next* save —
  to its final row count, then switches cursors to the new generation.
  A tailer more than one generation behind reloads from the live
  snapshot instead (``resync``).
* :class:`ChangeFeed` is a bounded ring of replication events (price
  spikes, revocations, availability transitions) with dense sequence
  numbers, backing the server's ``GET /watch`` chunked change feed and
  its resumable ``since_seq`` cursor.

Staleness is a first-class measurement: ``ReplicaTailer.health()``
reports ``applied_seq`` vs the recorder's ``committed_seq`` and flips
``stale`` past a configurable lag bound, which the serving tier
surfaces through ``/stats`` and degrades ``/healthz`` on.

Format note: a WAL cell may contain a newline (a probe's
``request_id`` is free text, which ``csv.writer`` quotes across
lines), so the cursor frames rows with a ``csv.reader`` over complete
lines and lets the CRC column arbitrate torn or garbled rows.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import deque
from dataclasses import replace
from pathlib import Path

from repro.core.database import PRICE_CSV_FIELDS, pick_columns
from repro.core.datastore import SnapshotDatastore, WalCursor, _fsync_path
from repro.core.records import OUTCOME_FULFILLED, PROBE_CSV_FIELDS, ProbeKind
from repro.core.records import PriceRecord, ProbeRecord, ProbeTrigger

WATERMARK_FILE = "watermark.json"


# -- the committed watermark ------------------------------------------------
def read_watermark(root: str | Path) -> dict | None:
    """The recorder's committed watermark, or ``None`` when missing or
    unreadable (a torn sidecar cannot happen — it is written with the
    same tmp-fsync-replace dance as the manifest — but a reader must
    still survive finding garbage)."""
    path = Path(root) / WATERMARK_FILE
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict):
        return None
    try:
        return {
            "generation": int(data["generation"]),
            "probe_rows": int(data["probe_rows"]),
            "price_rows": int(data["price_rows"]),
            "seq": int(data["seq"]),
            "previous": data.get("previous"),
        }
    except (KeyError, TypeError, ValueError):
        return None


def write_watermark(
    root: str | Path,
    *,
    generation: int,
    probe_rows: int,
    price_rows: int,
    seq: int,
    previous: dict | None = None,
) -> None:
    """Atomically publish a committed watermark (tmp + fsync + replace
    + directory fsync, the snapshot manifest's own commit discipline)."""
    root = Path(root)
    payload = {
        "generation": generation,
        "probe_rows": probe_rows,
        "price_rows": price_rows,
        "seq": seq,
        "previous": previous,
    }
    tmp = root / (WATERMARK_FILE + ".tmp")
    with tmp.open("w") as handle:
        json.dump(payload, handle)
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(root / WATERMARK_FILE)
    _fsync_path(root)


# -- the change feed ---------------------------------------------------------
class ChangeFeed:
    """A bounded ring of replication events with dense sequence numbers.

    Sequence numbers start at 1 and never skip, so a ``/watch``
    subscriber can prove exactly-once delivery by checking density.
    The ring is per-replica-process: a replica restart resets it, which
    is why resumability is *bounded* — a subscriber whose cursor fell
    off the ring gets an explicit gap marker, never silent loss.
    """

    def __init__(self, capacity: int = 8192) -> None:
        self._events: deque[dict] = deque(maxlen=max(int(capacity), 1))
        self._lock = threading.Lock()
        self._next_seq = 1
        self.published = 0
        self.dropped = 0

    def publish(self, event: dict) -> dict:
        with self._lock:
            event = {**event, "seq": self._next_seq}
            self._next_seq += 1
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(event)
            self.published += 1
        return event

    @property
    def latest_seq(self) -> int:
        return self._next_seq - 1

    @property
    def oldest_seq(self) -> int:
        """Oldest retained seq (``latest_seq + 1`` when empty)."""
        with self._lock:
            return self._events[0]["seq"] if self._events else self._next_seq

    def since(self, cursor: int, limit: int = 256) -> tuple[list[dict], bool]:
        """``(events, gap)``: events with ``seq > cursor`` (up to
        ``limit``), and whether the ring has already dropped events the
        cursor never saw."""
        with self._lock:
            if not self._events:
                return [], False
            gap = cursor + 1 < self._events[0]["seq"]
            out = [e for e in self._events if e["seq"] > cursor]
        return out[:limit], gap

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "latest_seq": self._next_seq - 1,
                "retained": len(self._events),
                "published": self.published,
                "dropped": self.dropped,
            }


# -- tailing a WAL file ------------------------------------------------------
def _wal_path(root: Path, kind: str, generation: int) -> Path:
    return root / f"{kind}.wal.{generation}.csv"


def _count_wal_rows(root: Path, kind: str, generation: int) -> int:
    """Verified rows in a (closed) WAL file — the final row count of a
    retired generation, used when resuming after a crash lost the
    watermark that would have recorded it."""
    return WalCursor(_wal_path(root, kind, generation)).advance(sys.maxsize)


# -- the write side ----------------------------------------------------------
class Recorder:
    """The single writer of a replicated snapshot directory.

    Wraps a :class:`SnapshotDatastore` opened with ``append_log=True``
    and adds the commit protocol replicas rely on:

    * :meth:`commit` — fsync the WALs, then atomically publish the
      watermark naming the durable row counts (rows first, watermark
      second: the watermark can never run ahead of the data).
    * :meth:`save` — roll the WAL generation via the datastore's
      snapshot machinery, then publish a watermark whose ``previous``
      block tells tailers where the retired WAL ends.
    * :meth:`bootstrap` — first-run setup: an initial ``save()`` so
      follower replicas (which require a manifest) can open the
      directory; on a resumed directory it re-commits instead, which
      also promotes any rows the crash recovery verified beyond the
      last watermark.
    """

    def __init__(
        self,
        store: SnapshotDatastore,
        fault_injector: "object | None" = None,
    ) -> None:
        if not getattr(store, "_append_log", False):
            raise ValueError(
                "Recorder needs a datastore opened with append_log=True"
            )
        self.store = store
        self._faults = (
            fault_injector
            if fault_injector is not None
            else getattr(store, "_faults", None)
        )
        self.commits = 0
        self.saves = 0
        self._previous: dict | None = None
        self._seq_base = 0
        watermark = read_watermark(store.root)
        if watermark is not None:
            if watermark["generation"] == store.generation:
                self._seq_base = (
                    watermark["seq"]
                    - watermark["probe_rows"]
                    - watermark["price_rows"]
                )
                self._previous = watermark.get("previous")
            else:
                # The watermark names a retired generation: a crash hit
                # between save()'s manifest commit and the fresh
                # watermark.  Everything it committed is in the live
                # snapshot; re-announce the retired WAL's *actual*
                # final row counts so a mid-rollover tailer can still
                # drain it completely.
                self._seq_base = watermark["seq"]
                root = Path(store.root)
                self._previous = {
                    "generation": watermark["generation"],
                    "probe_rows": _count_wal_rows(
                        root, "probes", watermark["generation"]
                    ),
                    "price_rows": _count_wal_rows(
                        root, "prices", watermark["generation"]
                    ),
                }
        self.committed: dict | None = watermark

    @property
    def committed_seq(self) -> int:
        return int(self.committed["seq"]) if self.committed else 0

    def bootstrap(self) -> dict:
        if not (Path(self.store.root) / "manifest.json").exists():
            return self.save()
        return self.commit()

    def commit(self) -> dict:
        """Make every appended row durable, then publish the watermark."""
        if self._faults is not None:
            self._faults.fire("replication.commit")
        self.store.flush()
        counts = self.store.wal_row_counts
        watermark = {
            "generation": self.store.generation,
            "probe_rows": counts["probes"],
            "price_rows": counts["prices"],
            "seq": self._seq_base + counts["probes"] + counts["prices"],
            "previous": self._previous,
        }
        write_watermark(self.store.root, **watermark)
        self.commits += 1
        self.committed = watermark
        return watermark

    def save(self) -> dict:
        """Snapshot + WAL generation rollover, announced to tailers.

        The datastore's ``save()`` fsyncs and retires the live WALs
        before its manifest commit, so the retired generation's final
        row counts — captured here and published in the new watermark's
        ``previous`` block — are durable by the time any tailer can
        observe the rollover.
        """
        retired_generation = self.store.generation
        retired = self.store.wal_row_counts
        self.store.save()
        self._seq_base += retired["probes"] + retired["prices"]
        self._previous = {
            "generation": retired_generation,
            "probe_rows": retired["probes"],
            "price_rows": retired["prices"],
        }
        self.saves += 1
        return self.commit()


class TimeShiftedDatastore:
    """Delegating datastore wrapper that shifts record times forward by
    a fixed offset — how ``record --resume`` keeps per-market time
    order when the fresh simulator's clock restarts at zero over a
    directory that already holds earlier observations."""

    def __init__(self, store: SnapshotDatastore, offset: float) -> None:
        self._store = store
        self.offset = float(offset)

    def insert_probe(self, record: ProbeRecord) -> None:
        self._store.insert_probe(
            replace(record, time=record.time + self.offset)
        )

    def insert_price(self, record: PriceRecord) -> None:
        self._store.insert_price(
            PriceRecord(record.time + self.offset, record.market, record.price)
        )

    def __len__(self) -> int:
        return len(self._store)

    def __getattr__(self, name: str):
        return getattr(self._store, name)


def latest_record_time(store) -> float:
    """The largest observation timestamp anywhere in a store (0.0 when
    empty) — the base for a resume offset."""
    return max([
        0.0,
        *(when for when, _price in store.last_prices().values()),
        *(when for when, _rejected in store.last_probe_states().values()),
    ])


# -- the read side -----------------------------------------------------------
class ReplicaTailer:
    """Follow a recorder's directory, applying committed rows live.

    Owns a read-only :class:`SnapshotDatastore` (``append_log=False``)
    over the same directory the recorder writes, plus a pair of
    :class:`WalCursor` tails.  Each :meth:`step` reads the watermark
    and applies WAL rows *up to the committed counts only* — rows
    beyond the watermark are invisible until the recorder commits, so
    a recorder crash can never make the replica apply something the
    restart might trim.  Each drained batch is one call into the
    store's bulk column appenders (``append_*_rows``, the path a load
    takes) under :attr:`lock` (share it with the serving tier as its
    frontend lock), so the read index invalidates only the touched
    markets and the query cache generation bumps once per step.

    Never raises from the tailing loop: torn tails hold position, a
    vanished file is retried, rollover drains the retired WAL, and a
    tailer left more than one generation behind resyncs from the live
    snapshot.
    """

    def __init__(
        self,
        store: SnapshotDatastore,
        frontend: "object | None" = None,
        *,
        catalog: "object | None" = None,
        threshold_multiple: float = 1.0,
        max_lag: int = 512,
        poll_interval: float = 0.2,
        max_poll_interval: float = 2.0,
        batch_rows: int = 4096,
        feed_capacity: int = 8192,
        lock: "threading.Lock | None" = None,
    ) -> None:
        if getattr(store, "_append_log", True):
            raise ValueError(
                "ReplicaTailer needs a datastore opened with "
                "append_log=False (a tailer must never write the WAL "
                "it follows)"
            )
        self.store = store
        self.frontend = frontend
        self.root = Path(store.root)
        self.catalog = catalog
        self.threshold_multiple = float(threshold_multiple)
        self.max_lag = int(max_lag)
        self.poll_interval = float(poll_interval)
        self.max_poll_interval = float(max_poll_interval)
        self.batch_rows = int(batch_rows)
        self.lock = lock if lock is not None else threading.Lock()
        self.feed = ChangeFeed(feed_capacity)
        self.applied_rows = 0
        self.applied_probes = 0
        self.applied_prices = 0
        self.apply_errors = 0
        self.invalidations = 0
        self.steps = 0
        self.rollovers = 0
        self.resyncs = 0
        self.loop_errors = 0
        self.last_applied_at = 0.0
        self._committed = read_watermark(self.root)
        self._generation = store.generation
        self._od: dict = {}
        self._avail: dict = {}
        self._above: dict = {}
        self._cursors = self._fresh_cursors(
            store.generation, store.wal_row_counts
        )
        self._seed_baselines()
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def generation(self) -> int:
        return self._generation

    def _fresh_cursors(
        self, generation: int, loaded: dict[str, int] | None = None
    ) -> dict[str, WalCursor]:
        """Cursors over ``generation``'s WALs, past the rows ``loaded``."""
        cursors = {}
        for kind in ("probes", "prices"):
            cursors[kind] = WalCursor(_wal_path(self.root, kind, generation))
            cursors[kind].advance((loaded or {}).get(kind, 0))
        return cursors

    # -- one tailing poll ----------------------------------------------------
    def step(self) -> int:
        """Apply whatever the recorder has committed since the last
        poll; returns rows applied (0 = nothing new, or holding at a
        torn tail)."""
        self.steps += 1
        watermark = read_watermark(self.root)
        if watermark is None:
            return 0
        applied = 0
        if watermark["generation"] != self._generation:
            applied += self._handle_rollover(watermark)
        if watermark["generation"] == self._generation:
            self._committed = watermark
            applied += self._drain(
                {
                    "probes": watermark["probe_rows"],
                    "prices": watermark["price_rows"],
                }
            )
        if applied:
            self._after_apply()
        return applied

    def _drain(self, targets: dict[str, int]) -> int:
        applied = 0
        for kind, cursor in self._cursors.items():
            need = targets.get(kind, 0) - cursor.rows
            while need > 0:
                header, rows = cursor.read(min(need, self.batch_rows))
                if not rows:
                    break  # torn or not-yet-durable tail: hold position
                self._apply(kind, header, rows)
                applied += len(rows)
                need -= len(rows)
        return applied

    def _handle_rollover(self, watermark: dict) -> int:
        if watermark["generation"] < self._generation:
            return 0  # a stale watermark (recorder mid-restart): ignore
        previous = watermark.get("previous") or {}
        try:
            prev_generation = int(previous.get("generation", -1))
        except (TypeError, ValueError):
            prev_generation = -1
        if prev_generation != self._generation:
            # More than one generation behind — the WAL we were tailing
            # may already be swept.  Rebuild from the live snapshot.
            self._resync()
            return 0
        targets = {
            "probes": int(previous.get("probe_rows", 0)),
            "prices": int(previous.get("price_rows", 0)),
        }
        applied = self._drain(targets)
        if all(
            self._cursors[kind].rows >= targets[kind] for kind in targets
        ):
            self._generation = watermark["generation"]
            self._cursors = self._fresh_cursors(self._generation)
            self.rollovers += 1
        return applied

    def _resync(self) -> None:
        fresh = SnapshotDatastore(self.root, append_log=False, must_exist=True)
        with self.lock:
            engine = getattr(self.frontend, "engine", None)
            if engine is not None and hasattr(engine, "rebind"):
                engine.rebind(fresh)
            self.store = fresh
            if self.frontend is not None:
                self.frontend.invalidate()
        self._generation = fresh.generation
        self._cursors = self._fresh_cursors(
            self._generation, fresh.wal_row_counts
        )
        self._seed_baselines()
        self.resyncs += 1
        self.feed.publish({"type": "resync", "generation": self._generation})

    # -- applying rows -------------------------------------------------------
    def _apply(self, kind: str, header: list[str], rows: list[list[str]]) -> None:
        """One bulk append per drained batch.  An appender installs
        nothing when any row is bad, so a rejected batch is re-applied
        row by row: a CRC-verified row that does not apply (a writer
        bug) is counted in ``apply_errors`` and skipped."""
        if kind == "probes":
            append = self.store.append_probe_rows
        else:
            append = self.store.append_price_rows
        applied = rows
        with self.lock:
            try:
                append(header, rows)
            except ValueError:
                applied = []
                for row in rows:
                    try:
                        append(header, [row])
                    except ValueError:
                        self.apply_errors += 1
                    else:
                        applied.append(row)
        if kind == "probes":
            self._emit_probes(header, applied)
            self.applied_probes += len(rows)
        else:
            self._emit_prices(header, applied)
            self.applied_prices += len(rows)
        self.applied_rows += len(rows)

    def _after_apply(self) -> None:
        if self.frontend is not None:
            with self.lock:
                self.frontend.invalidate()
            self.invalidations += 1
        self.last_applied_at = time.time()

    # -- change-feed events --------------------------------------------------
    def _seed_baselines(self) -> None:
        """Derive the per-market event state from the loaded store so
        the first tailed row emits a *transition*, not a replay of
        history."""
        self._avail = {
            key: rejected
            for key, (_when, rejected) in self.store.last_probe_states().items()
        }
        self._above = {
            market: self._is_spike(market, price)
            for market, (_when, price) in self.store.last_prices().items()
        }

    def _is_spike(self, market, price: float) -> bool:
        if self.catalog is None:
            return False
        on_demand = self._od.get(market)
        if on_demand is None:
            try:
                on_demand = float(
                    self.catalog.on_demand_price(
                        market.instance_type, market.region, market.product
                    )
                )
            except (KeyError, AttributeError):
                on_demand = 0.0
            self._od[market] = on_demand
        return on_demand > 0 and price >= self.threshold_multiple * on_demand

    def _emit_prices(self, header: list[str], rows: list[list[str]]) -> None:
        """Spike transitions of applied price rows, in row order."""
        market_of = self.store.owned_market
        pick = pick_columns(header, PRICE_CSV_FIELDS)
        for time, zone, itype, product, price in map(pick, rows):
            market = market_of((zone, itype, product))
            if market is None:
                continue  # outside this store's shard
            price = float(price)
            above = self._is_spike(market, price)
            if above != self._above.get(market, False):
                self.feed.publish(
                    {
                        "type": "spike" if above else "spike-cleared",
                        "market": str(market),
                        "time": float(time),
                        "price": price,
                    }
                )
            self._above[market] = above

    def _emit_probes(self, header: list[str], rows: list[list[str]]) -> None:
        """Revocations and per-``(market, kind)`` availability
        transitions of applied probe rows, in row order."""
        market_of = self.store.owned_market
        pick = pick_columns(header, PROBE_CSV_FIELDS)
        for time, zone, itype, product, kind, trigger, outcome, *_ in map(
            pick, rows
        ):
            market = market_of((zone, itype, product))
            if market is None:
                continue  # outside this store's shard
            event = {"market": str(market), "kind": kind, "time": float(time)}
            if trigger == ProbeTrigger.REVOCATION.value:
                self.feed.publish({"type": "revocation", **event})
            key = (market, ProbeKind(kind))
            rejected = outcome != OUTCOME_FULFILLED
            seen = self._avail.get(key)
            if rejected and seen is not True:
                self.feed.publish({"type": "unavailable", **event})
            elif not rejected and seen is True:
                self.feed.publish({"type": "available", **event})
            self._avail[key] = rejected

    # -- staleness -----------------------------------------------------------
    def lag(self, watermark: dict | None = None) -> int:
        """Committed-but-unapplied rows (0 when fully caught up)."""
        if watermark is None:
            watermark = self._committed
        if watermark is None:
            return 0
        applied = sum(cursor.rows for cursor in self._cursors.values())
        committed_here = watermark["probe_rows"] + watermark["price_rows"]
        if watermark["generation"] == self._generation:
            return max(0, committed_here - applied)
        if watermark["generation"] < self._generation:
            return 0
        previous = watermark.get("previous") or {}
        try:
            prev_generation = int(previous.get("generation", -1))
        except (TypeError, ValueError):
            prev_generation = -1
        if prev_generation == self._generation:
            behind = (
                int(previous.get("probe_rows", 0))
                + int(previous.get("price_rows", 0))
                - applied
            )
            return max(0, behind) + committed_here
        # Two or more generations behind: the true distance is unknown
        # until the pending resync; report at least past the staleness
        # bound so health degrades rather than lies.
        return max(committed_here, self.max_lag + 1)

    def health(self, fresh: bool = True) -> dict:
        """The staleness contract: ``applied_seq`` vs ``committed_seq``
        and the ``stale`` flag past :attr:`max_lag`.  ``fresh=True``
        re-reads the watermark (one small file read) so lag keeps
        growing even while the tailer itself is paused or wedged;
        ``fresh=False`` is the cheap per-request gauge."""
        watermark = None
        if fresh:
            watermark = read_watermark(self.root)
        if watermark is None:
            watermark = self._committed
        lag = self.lag(watermark)
        committed_seq = int(watermark["seq"]) if watermark else 0
        return {
            "generation": self._generation,
            "committed_seq": committed_seq,
            "applied_seq": max(0, committed_seq - lag),
            "lag": lag,
            "max_lag": self.max_lag,
            "stale": lag > self.max_lag,
            "caught_up": watermark is not None and lag == 0,
            "paused": self._paused.is_set(),
        }

    def stats(self) -> dict:
        info = self.health()
        info.update(
            {
                "applied_rows": self.applied_rows,
                "applied_probes": self.applied_probes,
                "applied_prices": self.applied_prices,
                "apply_errors": self.apply_errors,
                "invalidations": self.invalidations,
                "steps": self.steps,
                "rollovers": self.rollovers,
                "resyncs": self.resyncs,
                "loop_errors": self.loop_errors,
                "tail_holds": sum(c.holds for c in self._cursors.values()),
                "feed": self.feed.stats(),
            }
        )
        index = getattr(self.store, "read_index", None)
        if index is not None and hasattr(index, "stats"):
            info["read_index"] = index.stats()
        return info

    # -- the tailing loop ----------------------------------------------------
    def start(self) -> "ReplicaTailer":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="spotlight-replica", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        delay = self.poll_interval
        while not self._stop.is_set():
            if self._paused.is_set():
                self._stop.wait(0.05)
                continue
            try:
                applied = self.step()
            except Exception:
                # Tailing must never take the serving process down; a
                # persistent failure shows up as growing lag instead.
                self.loop_errors += 1
                applied = 0
            if applied:
                delay = self.poll_interval
            else:
                delay = min(delay * 1.5, self.max_poll_interval)
            self._stop.wait(delay)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def pause(self) -> None:
        """Suspend applying (the ``lag-replica`` chaos action): lag
        grows against the live watermark until :meth:`resume`."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()
