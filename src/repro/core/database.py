"""SpotLight's probe/price database.

The prototype logged every request, status change, and price sample to
a database through a dedicated manager to avoid write conflicts between
concurrent markets; here the database is an in-memory, indexed store
with CSV export/import.  Everything the analysis chapter needs is
derived from it: rejected-probe sets, unavailability periods, and price
series.

Price series are stored **column-wise**: per market, two packed
``array('d')`` columns (times, prices) instead of one ``PriceRecord``
object per sample.  A paper-scale run logs millions of samples, and the
columnar layout keeps them compact, lets range queries bisect the time
column directly, and gives the analysis readers numpy snapshots
(:meth:`ProbeDatabase.price_arrays`).  ``PriceRecord`` objects are
materialized lazily, only when a caller asks for them.

Probe records are stored the same way: per market, one block of
**packed probe columns** (times, spike multiples, bid prices and costs
as ``array('d')``; kind/trigger/outcome codes and rejection flags as
integer ``array`` columns; request ids as a list).  The blocks are the
only probe storage.  ``ProbeRecord`` objects are built from them one
row at a time, only when a caller asks for them; the global,
time-ordered view is a stable sort of the concatenated time columns.
The same columns feed the :class:`~repro.core.read_index.ReadIndex` —
the lazily-built, incrementally-invalidated columnar views the
vectorized query engine and the analysis readers scan — without a
per-record Python pass at read time.
"""

from __future__ import annotations

import csv
import json
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, islice
from operator import gt, itemgetter
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.common.timeseries import TimeSeries
from repro.core.market_id import MarketID
from repro.core.read_index import (
    KIND_CODES,
    TRIGGER_CODES,
    ReadIndex,
    _joined,
    _offsets,
)
from repro.core.records import (
    OUTCOME_FULFILLED,
    PROBE_CSV_FIELDS,
    PriceRecord,
    ProbeKind,
    ProbeRecord,
    UnavailabilityPeriod,
)


#: Column order of the price-CSV schema, shared by exports, imports,
#: and the snapshot datastore's write-ahead log.
PRICE_CSV_FIELDS = ["time", "availability_zone", "instance_type", "product", "price"]


def price_csv_row(time: float, market: MarketID, price: float) -> list[str]:
    """One price sample as a CSV row (``repr`` floats round-trip exactly)."""
    return [
        repr(time),
        market.availability_zone,
        market.instance_type,
        market.product,
        repr(price),
    ]


def parse_price_csv_row(row: dict[str, str]) -> PriceRecord:
    """Inverse of :func:`price_csv_row` over a ``csv.DictReader`` row."""
    market = MarketID(
        row["availability_zone"], row["instance_type"], row["product"]
    )
    return PriceRecord(float(row["time"]), market, float(row["price"]))


#: Kinds and triggers by their packed code (the codes number the enums
#: in declaration order), and the codes by CSV value: a dict lookup per
#: row on the bulk-load path instead of an ``Enum.__call__``.
_KIND_OF = list(KIND_CODES)
_TRIGGER_OF = list(TRIGGER_CODES)
_KIND_CODE_OF = {kind.value: code for kind, code in KIND_CODES.items()}
_TRIGGER_CODE_OF = {
    trigger.value: code for trigger, code in TRIGGER_CODES.items()
}

#: Each kind's code as the one byte it occupies in a packed kind column.
_KIND_BYTES = [(kind, bytes([code])) for kind, code in KIND_CODES.items()]

_UNSEEN = object()


def pick_columns(header: Sequence[str], fields: Sequence[str]) -> itemgetter:
    """A getter returning a row's ``fields`` cells, located by header
    name (WAL files carry a trailing ``crc`` column; legacy files may
    order or extend the columns differently)."""
    missing = [field for field in fields if field not in header]
    if missing:
        raise ValueError(f"CSV header lacks column(s) {missing}")
    return itemgetter(*(header.index(field) for field in fields))


def _out_of_order(times: Sequence[float], after: float | None) -> bool:
    """Whether ``times`` ever steps backwards, or starts before
    ``after`` (the last time already stored) — exactly the per-row
    ``new < last`` check, applied to a whole run at once."""
    if after is not None and times and times[0] < after:
        return True
    return any(map(gt, times, islice(times, 1, None)))


def stream_csv(
    path: str | Path,
    append: Callable[[list[str], Iterable[list[str]]], None],
) -> None:
    """Stream a CSV file into a bulk ``append_*_rows`` method: its
    header, then its rows straight off the file handle (an empty file
    appends nothing)."""
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header:
            append(header, reader)


def _materialize_prices(
    column: TimeSeries,
    market: MarketID,
    start: float | None = None,
    end: float | None = None,
) -> list[PriceRecord]:
    lo, hi = column.bounds(start, end)
    return [
        PriceRecord(t, market, p)
        for t, p in zip(column.times[lo:hi], column.values[lo:hi])
    ]


class _ProbeColumnBlock:
    """One market's probe log as packed columns, in arrival order.

    These columns are the only probe storage.  The read index builds
    its numpy views from them with array passes; ``ProbeRecord``
    objects are built one row at a time (:meth:`record`), only when a
    caller asks for them.  Kinds, triggers and outcomes are stored as
    codes, and ``rejected`` caches ``outcome != OUTCOME_FULFILLED``.
    """

    __slots__ = (
        "times", "spike_multiples", "bid_prices", "costs", "kinds",
        "triggers", "rejected", "outcomes", "request_ids",
    )

    def __init__(self) -> None:
        self.times = array("d")
        self.spike_multiples = array("d")
        self.bid_prices = array("d")
        self.costs = array("d")
        self.kinds = array("b")
        self.triggers = array("b")
        self.rejected = array("b")
        self.outcomes = array("i")
        self.request_ids: list[str] = []

    def append(self, record: ProbeRecord, outcome_code: int) -> None:
        self.times.append(record.time)
        self.spike_multiples.append(record.spike_multiple)
        self.bid_prices.append(record.bid_price)
        self.costs.append(record.cost)
        self.kinds.append(KIND_CODES[record.kind])
        self.triggers.append(TRIGGER_CODES[record.trigger])
        self.rejected.append(1 if record.rejected else 0)
        self.outcomes.append(outcome_code)
        self.request_ids.append(record.request_id)

    def extend(self, other: "_ProbeColumnBlock") -> None:
        """Append another block's rows, a column at a time."""
        for name in self.__slots__:
            getattr(self, name).extend(getattr(other, name))

    def select(
        self,
        kind: ProbeKind | None,
        rejected: bool | None,
        start: float | None,
        end: float | None,
    ) -> Sequence[int]:
        """Indices of the rows that pass the filters, in order; the
        time range is bisected off the sorted ``times`` column."""
        lo = 0 if start is None else bisect_left(self.times, start)
        hi = len(self.times) if end is None else bisect_right(self.times, end)
        rows: Sequence[int] = range(lo, hi)
        if kind is not None:
            code, kinds = KIND_CODES[kind], self.kinds
            rows = [at for at in rows if kinds[at] == code]
        if rejected is not None:
            flag, flags = 1 if rejected else 0, self.rejected
            rows = [at for at in rows if flags[at] == flag]
        return rows

    def record(
        self, market: MarketID, at: int, outcome_names: list[str]
    ) -> ProbeRecord:
        """Row ``at`` as a ``ProbeRecord``."""
        return ProbeRecord(
            self.times[at], market, _KIND_OF[self.kinds[at]],
            _TRIGGER_OF[self.triggers[at]], outcome_names[self.outcomes[at]],
            self.spike_multiples[at], self.bid_prices[at], self.costs[at],
            self.request_ids[at],
        )


class ProbeDatabase:
    """Indexed in-memory store of probe and price records."""

    def __init__(
        self, market_filter: Callable[[MarketID], bool] | None = None
    ) -> None:
        #: Optional shard predicate: records for markets it rejects are
        #: silently dropped at insert time, so a shard worker ingesting
        #: the full snapshot (or tailing a full WAL) indexes only its
        #: slice of the catalog.
        self._market_filter = market_filter
        self._probe_blocks: dict[MarketID, _ProbeColumnBlock] = {}
        self._probe_count = 0
        self._prices_by_market: dict[MarketID, TimeSeries] = {}
        self._outcome_codes: dict[str, int] = {}
        self._outcome_names: list[str] = []
        #: One ``MarketID`` per ``(zone, type, product)`` key seen by the
        #: bulk path, so loaded records share their market objects.
        self._market_ids: dict[tuple[str, str, str], MarketID] = {}
        self._read_index: ReadIndex | None = None

    @property
    def read_index(self) -> ReadIndex:
        """The columnar read-side index (built lazily, invalidated
        incrementally as records arrive)."""
        if self._read_index is None:
            self._read_index = ReadIndex(self)
        return self._read_index

    # -- ingestion -----------------------------------------------------------
    def owns(self, market: MarketID) -> bool:
        """Whether this store keeps records for ``market`` (shard filter)."""
        return self._market_filter is None or self._market_filter(market)

    def insert_probe(self, record: ProbeRecord) -> None:
        """Append a probe record (times must be non-decreasing per market)."""
        if not self.owns(record.market):
            return
        block = self._probe_blocks.get(record.market)
        if block is None:
            block = self._probe_blocks[record.market] = _ProbeColumnBlock()
        elif block.times and record.time < block.times[-1]:
            raise ValueError(
                f"probe records must arrive in time order for {record.market}"
            )
        code = self._outcome_codes.get(record.outcome)
        if code is None:
            code = len(self._outcome_names)
            self._outcome_codes[record.outcome] = code
            self._outcome_names.append(record.outcome)
        block.append(record, code)
        self._probe_count += 1
        if self._read_index is not None:
            self._read_index.invalidate_probes(record.market, record.kind)

    def insert_price(self, record: PriceRecord) -> None:
        if not self.owns(record.market):
            return
        column = self._prices_by_market.setdefault(record.market, TimeSeries())
        if column.times and record.time < column.times[-1]:
            raise ValueError(
                f"price records must arrive in time order for {record.market}"
            )
        column.append(record.time, record.price)
        if self._read_index is not None:
            self._read_index.invalidate_prices(record.market)

    # -- bulk ingestion ------------------------------------------------------
    # The load path: snapshot files, WAL replay and CSV imports hand over
    # whole files of rows.  Each call equals ``insert_*`` over the same
    # rows in order, appending onto whatever the store already holds,
    # but parses straight into per-market columns.  Every market's run
    # is checked before anything is installed, so a rejected file
    # leaves the store as it was.  Nothing here writes a WAL.
    def owned_market(self, key: tuple[str, str, str]) -> MarketID | None:
        """The interned ``MarketID`` for ``key``, or None if the shard
        filter rejects it."""
        market = self._market_ids.get(key)
        if market is None:
            market = MarketID(*key)
            if not self.owns(market):
                return None
            self._market_ids[key] = market
        return market

    def append_price_rows(
        self, header: Sequence[str], rows: Iterable[Sequence[str]]
    ) -> None:
        """Bulk :meth:`insert_price` over price-CSV rows."""
        pick = pick_columns(header, PRICE_CSV_FIELDS)
        runs: dict[tuple[str, str, str], tuple | None] = {}
        for time, zone, itype, product, price in map(pick, filter(None, rows)):
            key = (zone, itype, product)
            run = runs.get(key, _UNSEEN)
            if run is _UNSEEN:
                market = self.owned_market(key)
                run = runs[key] = (
                    None if market is None
                    else (market, array("d"), array("d"))
                )
            if run is not None:
                run[1].append(float(time))
                run[2].append(float(price))
        owned = [run for run in runs.values() if run is not None]
        for market, times, _values in owned:
            column = self._prices_by_market.get(market)
            if _out_of_order(times, column.times[-1] if column else None):
                raise ValueError(
                    f"price records must arrive in time order for {market}"
                )
        for market, times, values in owned:
            column = self._prices_by_market.get(market)
            if column is None:
                column = self._prices_by_market[market] = TimeSeries()
            column.times.extend(times)
            column.values.extend(values)
            if self._read_index is not None:
                self._read_index.invalidate_prices(market)

    def append_probe_rows(
        self, header: Sequence[str], rows: Iterable[Sequence[str]]
    ) -> None:
        """Bulk :meth:`insert_probe` over probe-CSV rows.  Outcome codes
        are assigned in row order, as per-row inserts would."""
        pick = pick_columns(header, PROBE_CSV_FIELDS)
        codes = dict(self._outcome_codes)
        names = list(self._outcome_names)
        runs: dict[tuple[str, str, str], tuple | None] = {}
        try:
            for (
                time, zone, itype, product, kind, trigger, outcome,
                spike_multiple, bid_price, cost, request_id,
            ) in map(pick, filter(None, rows)):
                key = (zone, itype, product)
                run = runs.get(key, _UNSEEN)
                if run is _UNSEEN:
                    market = self.owned_market(key)
                    run = runs[key] = (
                        None if market is None
                        else (market, _ProbeColumnBlock())
                    )
                if run is None:
                    continue
                code = codes.get(outcome)
                if code is None:
                    code = codes[outcome] = len(names)
                    names.append(outcome)
                block = run[1]
                block.times.append(float(time))
                block.spike_multiples.append(float(spike_multiple))
                block.bid_prices.append(float(bid_price))
                block.costs.append(float(cost))
                block.kinds.append(_KIND_CODE_OF[kind])
                block.triggers.append(_TRIGGER_CODE_OF[trigger])
                block.outcomes.append(code)
                block.request_ids.append(request_id)
        except KeyError as exc:
            raise ValueError(f"unknown probe kind or trigger {exc}") from None
        owned = [run for run in runs.values() if run is not None]
        for market, run in owned:
            block = self._probe_blocks.get(market)
            if _out_of_order(run.times, block.times[-1] if block else None):
                raise ValueError(
                    f"probe records must arrive in time order for {market}"
                )
        self._outcome_codes, self._outcome_names = codes, names
        rejected = [0 if name == OUTCOME_FULFILLED else 1 for name in names]
        for market, run in owned:
            run.rejected.fromlist([rejected[code] for code in run.outcomes])
            block = self._probe_blocks.get(market)
            if block is None:
                self._probe_blocks[market] = run
            else:
                block.extend(run)
            self._probe_count += len(run.times)
            if self._read_index is not None:
                for code in set(run.kinds):
                    self._read_index.invalidate_probes(market, _KIND_OF[code])

    # -- raw queries -----------------------------------------------------------
    def __len__(self) -> int:
        return self._probe_count

    @property
    def markets(self) -> list[MarketID]:
        """All markets with at least one probe or price record."""
        return sorted(set(self._probe_blocks) | set(self._prices_by_market))

    def _ordered_rows(
        self,
        kind: ProbeKind | None = None,
        rejected: bool | None = None,
        start: float | None = None,
        end: float | None = None,
    ) -> list[tuple[MarketID, _ProbeColumnBlock, int]]:
        """Every probe row passing the filters as ``(market, block,
        index)``, globally time-ordered: a stable sort by time over the
        blocks concatenated in sorted-market order, so ties go to the
        lower market, then to arrival order."""
        markets = sorted(self._probe_blocks)
        blocks = [self._probe_blocks[market] for market in markets]
        counts = [len(block.times) for block in blocks]
        times = _joined((block.times for block in blocks), np.float64)
        keep = np.ones(len(times), dtype=bool)
        if kind is not None:
            kinds = _joined((block.kinds for block in blocks), np.int8)
            keep &= kinds == KIND_CODES[kind]
        if rejected is not None:
            flags = _joined((block.rejected for block in blocks), np.int8)
            keep &= flags == (1 if rejected else 0)
        if start is not None:
            keep &= times >= start
        if end is not None:
            keep &= times <= end
        rows = np.flatnonzero(keep)
        rows = rows[np.argsort(times[rows], kind="stable")]
        owners = np.repeat(np.arange(len(blocks)), counts)[rows]
        ats = rows - _offsets(counts)[owners]
        return [
            (markets[owner], blocks[owner], at)
            for owner, at in zip(owners.tolist(), ats.tolist())
        ]

    def probes(
        self,
        market: MarketID | None = None,
        kind: ProbeKind | None = None,
        rejected: bool | None = None,
        start: float | None = None,
        end: float | None = None,
    ) -> list[ProbeRecord]:
        """Probe records filtered by market/kind/outcome/time range,
        built from the columns (one market's in arrival order, all
        markets' globally time-ordered, ties by market)."""
        names = self._outcome_names
        if market is None:
            return [
                block.record(mkt, at, names)
                for mkt, block, at in self._ordered_rows(kind, rejected, start, end)
            ]
        block = self._probe_blocks.get(market)
        if block is None:
            return []
        return [
            block.record(market, at, names)
            for at in block.select(kind, rejected, start, end)
        ]

    def prices(
        self,
        market: MarketID,
        start: float | None = None,
        end: float | None = None,
    ) -> list[PriceRecord]:
        """Price records for one market, time-ordered (materialized)."""
        column = self._prices_by_market.get(market)
        if column is None:
            return []
        return _materialize_prices(column, market, start, end)

    def price_arrays(
        self,
        market: MarketID,
        start: float | None = None,
        end: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar snapshot of one market's price series: ``(times,
        prices)`` as numpy arrays (copies — safe to hold across further
        inserts)."""
        column = self._prices_by_market.get(market)
        if column is None:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty
        return column.arrays(start, end)

    def price_count(self, market: MarketID | None = None) -> int:
        """Number of price samples (for one market or in total)."""
        if market is not None:
            return len(self._prices_by_market.get(market, ()))
        return sum(len(c) for c in self._prices_by_market.values())

    def last_prices(self) -> dict[MarketID, tuple[float, float]]:
        """Each market's latest price sample as ``(time, price)``, read
        off the packed columns (no per-market array copies)."""
        return {
            market: (column.times[-1], column.values[-1])
            for market, column in self._prices_by_market.items()
            if column.times
        }

    def last_probe_states(
        self,
    ) -> dict[tuple[MarketID, ProbeKind], tuple[float, bool]]:
        """Each ``(market, kind)``'s latest probe as ``(time, rejected)``,
        located in the packed kind column and read off the ``times`` and
        ``rejected`` columns (no record objects)."""
        latest: dict[tuple[MarketID, ProbeKind], tuple[float, bool]] = {}
        for market, block in self._probe_blocks.items():
            kinds = block.kinds.tobytes()
            for kind, code in _KIND_BYTES:
                at = kinds.rfind(code)
                if at >= 0:
                    latest[(market, kind)] = (
                        block.times[at], block.rejected[at] == 1
                    )
        return latest

    def price_at(self, market: MarketID, when: float) -> float | None:
        """The last observed price at or before ``when`` (None if unseen)."""
        column = self._prices_by_market.get(market)
        if column is None:
            return None
        return column.value_at_or_before(when)

    # -- derived data -------------------------------------------------------------
    def unavailability_periods(
        self,
        market: MarketID | None = None,
        kind: ProbeKind = ProbeKind.ON_DEMAND,
        horizon: float | None = None,
    ) -> list[UnavailabilityPeriod]:
        """Contiguous rejection runs, per market.

        A period starts at the first rejected probe after a fulfilled
        one and ends at the next fulfilled probe.  ``horizon`` caps
        still-open periods (monitoring end time).
        """
        markets = [market] if market is not None else self.markets
        periods: list[UnavailabilityPeriod] = []
        code = KIND_CODES[kind]
        for mkt in markets:
            block = self._probe_blocks.get(mkt)
            if block is None:
                continue
            run_start: float | None = None
            run_count = 0
            last_time = 0.0
            for time, probe_kind, rejected in zip(
                block.times, block.kinds, block.rejected
            ):
                if probe_kind != code:
                    continue
                last_time = time
                if rejected:
                    if run_start is None:
                        run_start = time
                        run_count = 0
                    run_count += 1
                elif run_start is not None:
                    periods.append(
                        UnavailabilityPeriod(mkt, kind, run_start, time, run_count)
                    )
                    run_start = None
            if run_start is not None:
                end = horizon if horizon is not None else last_time
                periods.append(
                    UnavailabilityPeriod(
                        mkt, kind, run_start, max(end, run_start), run_count,
                        end_observed=False,
                    )
                )
        periods.sort(key=lambda p: (p.start, p.market))
        return periods

    def probe_columns(self):
        """Every probe record as flat columns (see
        :meth:`~repro.core.read_index.ReadIndex.probe_columns`) — the
        view the analysis readers tally over instead of materializing
        record objects per call."""
        return self.read_index.probe_columns()

    def unavailability_durations(
        self,
        kind: ProbeKind = ProbeKind.ON_DEMAND,
        horizon: float | None = None,
    ) -> np.ndarray:
        """All period durations as one array, ordered like
        :meth:`unavailability_periods` (by start, ties by market)."""
        return self.read_index.durations_stack(kind, horizon)

    def total_probe_cost(self) -> float:
        return sum(chain.from_iterable(
            block.costs for block in self._probe_blocks.values()
        ))

    def rejection_rate(
        self, market: MarketID | None = None, kind: ProbeKind | None = None
    ) -> float:
        """Fraction of probes rejected (0.0 when there are no probes)."""
        records = self.probes(market=market, kind=kind)
        if not records:
            return 0.0
        return sum(1 for r in records if r.rejected) / len(records)

    # -- persistence --------------------------------------------------------------------
    def export_probes_csv(self, path: str | Path) -> int:
        """Write all probe records to CSV (time-ordered); returns the row
        count.  A store without probes writes an empty file."""
        rows = self._ordered_rows()
        names = self._outcome_names
        with Path(path).open("w", newline="") as handle:
            if not rows:
                return 0
            writer = csv.writer(handle)
            writer.writerow(PROBE_CSV_FIELDS)
            writer.writerows(
                (
                    block.times[at], market.availability_zone,
                    market.instance_type, market.product,
                    _KIND_OF[block.kinds[at]].value,
                    _TRIGGER_OF[block.triggers[at]].value,
                    names[block.outcomes[at]], block.spike_multiples[at],
                    block.bid_prices[at], block.costs[at],
                    block.request_ids[at],
                )
                for market, block, at in rows
            )
        return len(rows)

    @classmethod
    def import_probes_csv(cls, path: str | Path) -> "ProbeDatabase":
        db = cls()
        stream_csv(path, db.append_probe_rows)
        return db

    def export_prices_csv(self, path: str | Path) -> int:
        """Write all price series to CSV; returns the sample count.

        Markets are written in sorted order, each market's samples in
        time order, so the file is deterministic and re-importable.
        """
        path = Path(path)
        count = 0
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(PRICE_CSV_FIELDS)
            for market in sorted(self._prices_by_market):
                column = self._prices_by_market[market]
                for t, p in zip(column.times, column.values):
                    writer.writerow(price_csv_row(t, market, p))
                    count += 1
        return count

    @classmethod
    def import_prices_csv(cls, path: str | Path) -> "ProbeDatabase":
        db = cls()
        stream_csv(path, db.append_price_rows)
        return db

    def export_prices_json(self, path: str | Path) -> int:
        """Write all price series to JSON; returns the sample count."""
        payload = {
            str(market): list(zip(column.times, column.values))
            for market, column in self._prices_by_market.items()
        }
        Path(path).write_text(json.dumps(payload))
        return sum(len(v) for v in payload.values())

    def iter_price_series(
        self,
    ) -> Iterator[tuple[MarketID, list[PriceRecord]]]:
        for market, column in self._prices_by_market.items():
            yield market, _materialize_prices(column, market)

    def iter_price_arrays(
        self,
    ) -> Iterator[tuple[MarketID, np.ndarray, np.ndarray]]:
        """Columnar iteration: ``(market, times, prices)`` per market."""
        for market, column in self._prices_by_market.items():
            times, prices = column.arrays()
            yield market, times, prices
