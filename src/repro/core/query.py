"""SpotLight's query engine.

The service the paper envisions: applications query availability
characteristics programmatically to continuously optimise server and
contract selection.  The flagship example from Chapter 3: "the top ten
server types with the longest mean-time-to-revocation for a bid price
equal to the corresponding on-demand price over the past week".

:class:`SpotLightQuery` is the read-only half of the serving path:
pure reads over a datastore and a catalog, no result caching, no
session state.  It does keep internal *read-through* caches (the
database's columnar read index, the per-market ranking metrics the
index keeps on its price views, and an on-demand-price table), so while
it is cheap to construct per request, **sharing one instance across
threads requires external serialization** — the serving tier runs all
engine work behind one lock, and the multi-process tier gives every
worker its own engine.  Applications normally consume it through the
cached :class:`~repro.core.frontend.QueryFrontend`.

Two execution paths answer every query:

* the **vectorized** path (default) reads the database's columnar
  :class:`~repro.core.read_index.ReadIndex`: per-market price windows
  are zero-copy slices of cached snapshots, availability comes from
  period columns, and the catalog-wide ranking is one stacked kernel
  (:func:`~repro.core.read_index.stability_metrics`) instead of an
  O(markets x samples) per-market loop — after a commit, rerun only
  over the markets it appended to
  (:meth:`~repro.core.read_index.ReadIndex.stability_ranking`);
* the **scalar reference** path (``vectorized=False``) is the original
  per-record implementation, kept as the readable specification.  The
  golden tests in ``tests/test_query_vectorized.py`` pin the two paths
  equal, so the kernel math is continuously verified against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.database import ProbeDatabase
from repro.core.market_id import MarketID
from repro.core.read_index import stability_metrics
from repro.core.records import ProbeKind, UnavailabilityPeriod
from repro.ec2.catalog import Catalog


@dataclass(frozen=True)
class MarketStability:
    """Ranking entry returned by :meth:`SpotLightQuery.top_stable_markets`."""

    market: MarketID
    mean_time_to_revocation: float
    availability_at_bid: float
    mean_price: float


def _stability_sort_key(entry: MarketStability):
    return (
        -entry.mean_time_to_revocation,
        -entry.availability_at_bid,
        entry.mean_price,
    )


class SpotLightQuery:
    """Read-only queries over the probe database."""

    def __init__(
        self,
        database: ProbeDatabase,
        catalog: Catalog,
        vectorized: bool = True,
    ) -> None:
        self._db = database
        self._catalog = catalog
        self._vectorized = vectorized and hasattr(database, "read_index")
        self._od_cache: dict[MarketID, float] = {}

    def rebind(self, database: ProbeDatabase) -> None:
        """Swap the underlying database and drop every read-through
        cache.  A replica that falls too many WAL generations behind
        reloads its datastore wholesale and rebinds the shared engine
        rather than rebuilding the serving stack around it."""
        self._db = database
        self._vectorized = self._vectorized and hasattr(database, "read_index")
        self._od_cache.clear()

    # -- pricing helpers -----------------------------------------------------
    def on_demand_price(self, market: MarketID) -> float:
        price = self._od_cache.get(market)
        if price is None:
            price = self._catalog.on_demand_price(
                market.instance_type, market.region, market.product
            )
            self._od_cache[market] = price
        return price

    def prime(self) -> None:
        """Pre-build the read-side index and the on-demand price cache
        so the first query after a data load pays nothing extra (the
        serving tier calls this before announcing readiness)."""
        if not self._vectorized:
            return
        index = self._db.read_index
        index.prime()
        for market in index.price_stack().markets:
            try:
                self.on_demand_price(market)
            except KeyError:
                pass  # a recorded market outside this catalog

    # -- availability -----------------------------------------------------------
    def unavailability_periods(
        self,
        market: MarketID | None = None,
        kind: ProbeKind = ProbeKind.ON_DEMAND,
        horizon: float | None = None,
    ) -> list[UnavailabilityPeriod]:
        if not self._vectorized:
            return self._db.unavailability_periods(market, kind, horizon)
        index = self._db.read_index
        markets = [market] if market is not None else self._db.markets
        periods: list[UnavailabilityPeriod] = []
        for mkt in markets:
            periods.extend(index.period_columns(mkt, kind).to_periods(horizon))
        periods.sort(key=lambda p: (p.start, p.market))
        return periods

    def availability(
        self,
        market: MarketID,
        kind: ProbeKind = ProbeKind.ON_DEMAND,
        start: float = 0.0,
        end: float | None = None,
    ) -> float:
        """Fraction of ``[start, end]`` the market was available.

        Derived from measured unavailability periods; time not covered
        by any period counts as available (SpotLight probes exactly
        when unavailability is suspected).
        """
        if self._vectorized:
            return self._vec_availability(market, kind, start, end)
        return self._ref_availability(market, kind, start, end)

    def _vec_availability(
        self, market: MarketID, kind: ProbeKind, start: float, end: float | None
    ) -> float:
        columns = self._db.read_index.period_columns(market, kind)
        if end is None:
            max_end = columns.max_end()
            end = start if max_end is None else max(max_end, start)
        span = end - start
        if span <= 0:
            return 1.0
        unavailable = columns.unavailable_within(start, end)
        return max(0.0, 1.0 - unavailable / span)

    def _ref_availability(
        self, market: MarketID, kind: ProbeKind, start: float, end: float | None
    ) -> float:
        # One period fetch either way: with no explicit end, the
        # horizon-free periods are what a horizon-at-max-end fetch
        # would return, so they serve both the default-end computation
        # and the overlap loop.
        if end is None:
            periods = self._db.unavailability_periods(market, kind)
            end = max((p.end for p in periods), default=start)
        else:
            periods = self._db.unavailability_periods(market, kind, horizon=end)
        span = end - start
        if span <= 0:
            return 1.0
        unavailable = 0.0
        for period in periods:
            lo = max(period.start, start)
            hi = min(period.end, end)
            if hi > lo:
                unavailable += hi - lo
        return max(0.0, 1.0 - unavailable / span)

    def is_unavailable_at(
        self, market: MarketID, when: float, kind: ProbeKind = ProbeKind.ON_DEMAND
    ) -> bool:
        """Whether ``when`` falls inside a measured unavailability period."""
        if self._vectorized:
            return self._db.read_index.period_columns(market, kind).contains(when)
        for period in self._db.unavailability_periods(market, kind):
            if period.start <= when < period.end:
                return True
        return False

    def rejection_rate(
        self, market: MarketID | None = None, kind: ProbeKind | None = None
    ) -> float:
        rejected, total = self.rejection_counts(market, kind)
        if total == 0:
            return 0.0
        return rejected / total

    def rejection_counts(
        self, market: MarketID | None = None, kind: ProbeKind | None = None
    ) -> tuple[int, int]:
        """``(rejected, total)`` probe counts — the mergeable form of
        :meth:`rejection_rate`.  A scatter-gather router sums the per-shard
        counts and divides once, reproducing the global rate exactly
        (a mean of per-shard *rates* would weight shards wrongly)."""
        if not self._vectorized:
            records = self._db.probes(market=market, kind=kind)
            return sum(1 for r in records if r.rejected), len(records)
        columns = self._db.read_index.probe_columns()
        mask = np.ones(len(columns), dtype=bool)
        if market is not None:
            ordinal = columns.market_ordinal(market)
            if ordinal is None:
                return 0, 0
            mask &= columns.market_index == ordinal
        if kind is not None:
            mask &= columns.kind_mask(kind)
        total = int(np.count_nonzero(mask))
        if total == 0:
            return 0, 0
        return int(np.count_nonzero(columns.rejected & mask)), total

    # -- price-derived metrics ----------------------------------------------------
    def _price_window(
        self, market: MarketID, start: float, end: float | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The market's ``[start, end]`` price samples: a zero-copy view
        of the index's cached snapshot (vectorized) or a fresh copy off
        the packed columns (reference)."""
        if self._vectorized:
            return self._db.read_index.price_view(market, start, end)
        return self._db.price_arrays(market, start, end)

    def availability_at_bid(
        self,
        market: MarketID,
        bid_price: float,
        start: float = 0.0,
        end: float | None = None,
    ) -> float:
        """Fraction of time the spot price sat at or below ``bid_price``
        (the spot-availability estimate the paper describes users
        computing from price history)."""
        times, prices = self._price_window(market, start, end)
        if len(times) < 2:
            return 1.0
        total = times[-1] - times[0]
        if total <= 0:
            return 1.0
        intervals = np.diff(times)
        available = intervals[prices[:-1] <= bid_price].sum()
        return float(available / total)

    def mean_time_to_revocation(
        self,
        market: MarketID,
        bid_price: float,
        start: float = 0.0,
        end: float | None = None,
    ) -> float:
        """Average run length (seconds) the spot price stays at or
        below ``bid_price`` once it is below — the expected lifetime of
        a spot instance bid at that level."""
        times, prices = self._price_window(market, start, end)
        if len(times) == 0:
            return 0.0
        below = prices <= bid_price
        # Run starts: below-samples whose predecessor was above (or the
        # first sample); run ends: the first above-sample after each
        # start, or the final sample time for a still-open run.
        previous = np.concatenate(([False], below[:-1]))
        starts = times[below & ~previous]
        if len(starts) == 0:
            return 0.0
        ends = times[~below & previous]
        if len(ends) < len(starts):  # trailing open run
            ends = np.concatenate((ends, times[-1:]))
        return float(np.mean(ends - starts))

    def mean_price(
        self, market: MarketID, start: float = 0.0, end: float | None = None
    ) -> float:
        """Time-weighted mean spot price over the window."""
        times, prices = self._price_window(market, start, end)
        if len(times) == 0:
            return 0.0
        if len(times) == 1:
            return float(prices[0])
        total = times[-1] - times[0]
        if total <= 0:
            return float(prices[-1])
        weighted = float(np.dot(prices[:-1], np.diff(times)))
        return weighted / total

    def point_stats_batch(
        self,
        assignments: dict[MarketID, float],
        start: float = 0.0,
        end: float | None = None,
    ) -> dict[MarketID, tuple[float, float, float]] | None:
        """Stacked point stats for many markets in one kernel pass.

        ``assignments`` maps each market to the bid price its queries
        use; the result maps each market *present in the price stack*
        to ``(mean_time_to_revocation, availability_at_bid,
        mean_price)`` over ``[start, end]``.  Markets absent from the
        stack are omitted — they carry the same degenerate defaults the
        per-market methods return on empty windows (0.0, 1.0, 0.0).

        This is the cold-batch kernel: a ``/batch`` of N distinct
        per-market point queries costs one :func:`stability_metrics`
        pass over the full stack instead of N per-market engine calls.
        Returns ``None`` on the scalar reference path, where no stacked
        kernel exists and callers fall back to per-query evaluation.
        """
        if not self._vectorized:
            return None
        stack = self._db.read_index.price_stack()
        if not stack.markets:
            return {}
        ordinals = {market: i for i, market in enumerate(stack.markets)}
        bids = np.zeros(len(stack.markets))
        for market, bid in assignments.items():
            i = ordinals.get(market)
            if i is not None:
                bids[i] = bid
        mttr, avail, mean_price = stability_metrics(stack, bids, start, end)
        return {
            market: (float(mttr[i]), float(avail[i]), float(mean_price[i]))
            for market, i in (
                (m, ordinals[m]) for m in assignments if m in ordinals
            )
        }

    def spike_multiples(
        self, market: MarketID, start: float = 0.0, end: float | None = None
    ) -> list[tuple[float, float]]:
        """(time, price / on-demand price) series for a market."""
        od = self.on_demand_price(market)
        times, prices = self._price_window(market, start, end)
        return list(zip(times.tolist(), (prices / od).tolist()))

    # -- rankings ------------------------------------------------------------------------
    def top_stable_markets(
        self,
        n: int = 10,
        bid_multiple: float = 1.0,
        start: float = 0.0,
        end: float | None = None,
        region: str | None = None,
    ) -> list[MarketStability]:
        """The ``n`` most stable markets: longest mean-time-to-revocation
        at a bid of ``bid_multiple x on-demand`` (the paper's flagship
        query), with availability and mean price as tie-breakers."""
        if self._vectorized:
            return self._vec_top_stable_markets(n, bid_multiple, start, end, region)
        return self._ref_top_stable_markets(n, bid_multiple, start, end, region)

    def _vec_top_stable_markets(
        self,
        n: int,
        bid_multiple: float,
        start: float,
        end: float | None,
        region: str | None,
    ) -> list[MarketStability]:
        index = self._db.read_index
        selected = None
        if region is not None:
            markets = index.price_stack().markets
            selected = [m for m in markets if m.region == region]
            if len(selected) == len(markets):
                selected = None
        stack, ranking = index.stability_ranking(
            self.on_demand_price, bid_multiple, start, end, selected
        )
        # Only the top n entries are materialized.
        return [
            MarketStability(
                market=stack.markets[i],
                mean_time_to_revocation=float(ranking.mttr[i]),
                availability_at_bid=float(ranking.avail[i]),
                mean_price=float(ranking.mean_price[i]),
            )
            for i in ranking.order[:n].tolist()  # list-slice semantics, like [:n]
        ]

    def _ref_top_stable_markets(
        self,
        n: int,
        bid_multiple: float,
        start: float,
        end: float | None,
        region: str | None,
    ) -> list[MarketStability]:
        entries: list[MarketStability] = []
        for market in self._db.markets:
            if region is not None and market.region != region:
                continue
            if not self._db.price_count(market):
                continue
            bid = bid_multiple * self.on_demand_price(market)
            entries.append(
                MarketStability(
                    market=market,
                    mean_time_to_revocation=self.mean_time_to_revocation(
                        market, bid, start, end
                    ),
                    availability_at_bid=self.availability_at_bid(
                        market, bid, start, end
                    ),
                    mean_price=self.mean_price(market, start, end),
                )
            )
        entries.sort(key=_stability_sort_key)
        return entries[:n]

    def least_unavailable_markets(
        self,
        candidates: list[MarketID],
        kind: ProbeKind = ProbeKind.ON_DEMAND,
        horizon: float | None = None,
    ) -> list[tuple[MarketID, float]]:
        """Rank candidate markets by total measured unavailable time
        (ascending) — what SpotCheck/SpotOn use to pick fail-over
        targets."""
        scored = []
        if self._vectorized:
            index = self._db.read_index
            for market in candidates:
                columns = index.period_columns(market, kind)
                scored.append((market, columns.total_duration(horizon)))
        else:
            for market in candidates:
                periods = self._db.unavailability_periods(market, kind, horizon)
                scored.append((market, sum(p.duration for p in periods)))
        scored.sort(key=lambda pair: pair[1])
        return scored
