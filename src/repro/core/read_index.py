"""The columnar read-side index.

PR 1 made the *write* side columnar (packed price columns, batched
demand ticks); this module does the same for the *read* side.  A
:class:`ReadIndex` hangs off a :class:`~repro.core.database.ProbeDatabase`
and maintains lazily-built, incrementally-invalidated numpy views of
everything the query engine scans:

* :class:`PeriodColumns` — per ``(market, kind)``, the unavailability
  periods as contiguous arrays (closed-period starts/ends/probe counts
  plus the still-open trailing run), derived from the database's packed
  per-market probe columns with a handful of array passes instead of a
  per-record Python loop;
* :class:`PriceStack` — the whole catalog's price series stacked into
  one CSR-style triple (``offsets``, ``times``, ``prices``), so
  catalog-wide rankings are segment reductions over two flat arrays;
* :class:`ProbeColumns` — every probe record as flat columns (times,
  kind/trigger/outcome codes, rejection flags, spike multiples), the
  view the analysis readers tally over.

Invalidation is **incremental and per market**: appending a probe drops
only that ``(market, kind)``'s period entry; appending a price drops
only that market's cached price snapshot.  The catalog-wide views
(price stack, region substacks, probe columns) record the appended
markets instead, and their next read *splices* those markets' new tail
rows in at the old segment ends (records are append-only per market)
rather than re-concatenating the whole catalog; only a structural
change — a market the view does not hold, a series shorter than its
segment, :meth:`ReadIndex.reset` — rebuilds from scratch.  Views handed
out are snapshot copies — a splice makes new arrays, so a view stays
valid across later inserts — and a stale view is never served.

Each price view also caches the rankings computed over it
(:meth:`ReadIndex.stability_ranking`): per ``(bid, window)`` key, the
per-market metric vectors, their order, and the view offsets they were
computed at.  After splices, only the segments whose lengths changed
are rerun and scattered into copies of the vectors — a market's metrics
depend only on its own segment, bid and window — so the answer is the
bits of a full pass; a rebuilt view starts with no rankings.

The heavy ranking kernel (:func:`stability_metrics`) computes
mean-time-to-revocation, availability-at-bid, and time-weighted mean
price for *all* markets at once.  Per-segment reductions use
``np.add.reduceat`` (segment-local summation) rather than global
prefix-sum differences, so precision matches the per-market reference
arithmetic instead of suffering catastrophic cancellation against a
catalog-wide running total.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.core.market_id import MarketID
from repro.core.records import ProbeKind, ProbeTrigger, UnavailabilityPeriod

if TYPE_CHECKING:  # friend class of ProbeDatabase; no runtime import cycle
    from repro.core.database import ProbeDatabase

#: Stable integer codes for the enum columns (enum definition order).
KIND_CODES: dict[ProbeKind, int] = {k: i for i, k in enumerate(ProbeKind)}
TRIGGER_CODES: dict[ProbeTrigger, int] = {t: i for i, t in enumerate(ProbeTrigger)}

_EMPTY_F8 = np.empty(0, dtype=np.float64)
_EMPTY_I8 = np.empty(0, dtype=np.int64)


class PeriodColumns:
    """One ``(market, kind)``'s unavailability periods as columns.

    Closed periods (``starts``/``ends``/``counts``) are in start order;
    a trailing run of rejections with no fulfilled probe after it is
    kept separately (``open_start``/``open_count``) because its end
    depends on the caller's horizon.
    """

    __slots__ = (
        "market", "kind", "starts", "ends", "counts",
        "open_start", "open_count", "last_time", "has_probes",
    )

    def __init__(
        self,
        market: MarketID,
        kind: ProbeKind,
        starts: np.ndarray,
        ends: np.ndarray,
        counts: np.ndarray,
        open_start: float | None,
        open_count: int,
        last_time: float,
        has_probes: bool,
    ) -> None:
        self.market = market
        self.kind = kind
        self.starts = starts
        self.ends = ends
        self.counts = counts
        self.open_start = open_start
        self.open_count = open_count
        self.last_time = last_time
        self.has_probes = has_probes

    def open_end(self, horizon: float | None) -> float:
        """End of the still-open period under a horizon (reference
        semantics: the horizon, or the last probe time, floored at the
        run start)."""
        end = self.last_time if horizon is None else horizon
        return max(end, self.open_start)

    def max_end(self) -> float | None:
        """Latest period end with no horizon (None when period-free)."""
        if self.open_start is not None:
            return self.open_end(None)
        if self.starts.size:
            return float(self.ends[-1])
        return None

    def unavailable_within(self, start: float, end: float) -> float:
        """Total measured-unavailable seconds clipped to ``[start, end]``.

        Accumulates period overlaps in start order with a sequential
        Python sum — the exact arithmetic of the scalar reference —
        over numpy-clipped period columns.
        """
        total = 0.0
        if self.starts.size:
            overlaps = (
                np.minimum(self.ends, end) - np.maximum(self.starts, start)
            )
            for overlap in overlaps.tolist():
                if overlap > 0.0:
                    total += overlap
        if self.open_start is not None:
            lo = max(self.open_start, start)
            hi = min(self.open_end(end), end)
            if hi > lo:
                total += hi - lo
        return total

    def total_duration(self, horizon: float | None) -> float:
        """Sum of all period durations (reference accumulation order)."""
        total = 0.0
        if self.starts.size:
            for duration in (self.ends - self.starts).tolist():
                total += duration
        if self.open_start is not None:
            total += self.open_end(horizon) - self.open_start
        return total

    def durations(self, horizon: float | None) -> np.ndarray:
        """Per-period durations, in start order (open period last)."""
        closed = self.ends - self.starts
        if self.open_start is None:
            return closed
        return np.concatenate(
            (closed, [self.open_end(horizon) - self.open_start])
        )

    def period_starts(self) -> np.ndarray:
        """Start times of every period, open period last."""
        if self.open_start is None:
            return self.starts
        return np.concatenate((self.starts, [self.open_start]))

    def contains(self, when: float) -> bool:
        """Whether ``when`` falls inside a measured period (no horizon)."""
        if self.starts.size:
            idx = int(np.searchsorted(self.starts, when, side="right")) - 1
            if idx >= 0 and when < self.ends[idx]:
                return True
        if self.open_start is not None:
            return self.open_start <= when < self.open_end(None)
        return False

    def to_periods(self, horizon: float | None) -> list[UnavailabilityPeriod]:
        """Materialize :class:`UnavailabilityPeriod` objects (reference
        field values, byte-identical floats)."""
        periods = [
            UnavailabilityPeriod(self.market, self.kind, start, end, count)
            for start, end, count in zip(
                self.starts.tolist(), self.ends.tolist(), self.counts.tolist()
            )
        ]
        if self.open_start is not None:
            periods.append(
                UnavailabilityPeriod(
                    self.market, self.kind, self.open_start,
                    self.open_end(horizon), self.open_count,
                    end_observed=False,
                )
            )
        return periods


class PriceStack:
    """Every market's price series stacked into flat CSR-style columns:
    market ``i`` owns ``times[offsets[i]:offsets[i+1]]``."""

    __slots__ = ("markets", "offsets", "times", "prices")

    def __init__(
        self,
        markets: tuple[MarketID, ...],
        offsets: np.ndarray,
        times: np.ndarray,
        prices: np.ndarray,
    ) -> None:
        self.markets = markets
        self.offsets = offsets
        self.times = times
        self.prices = prices

    def __len__(self) -> int:
        return len(self.markets)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def bounds(self, start: float, end: float | None) -> tuple[np.ndarray, np.ndarray]:
        """Per-market index ranges of samples with ``start <= t <= end``
        (absolute indices into the stacked columns).  Each segment is
        time-sorted, so its in-window range starts after the samples
        before ``start`` and ends after the samples up to ``end``: two
        per-segment counts instead of a per-market bisection loop."""
        seg_lo, seg_hi = self.offsets[:-1], self.offsets[1:]
        lo, hi = seg_lo.copy(), seg_hi.copy()
        if self.times.size == 0:
            return lo, hi
        if start > self.times.min():
            lo += _segment_sums(
                (self.times < start).astype(np.int64), seg_lo, seg_hi
            )
        if end is not None and end < self.times.max():
            hi = seg_lo + _segment_sums(
                (self.times <= end).astype(np.int64), seg_lo, seg_hi
            )
        return lo, hi


class ProbeColumns:
    """Every probe record as flat columns, market-major (markets in
    sorted order, time order within a market): market ``i`` owns rows
    ``offsets[i]:offsets[i+1]``, like :class:`PriceStack`."""

    __slots__ = (
        "markets", "outcomes", "offsets", "market_index", "times",
        "spike_multiples",
        "kind_codes", "trigger_codes", "outcome_codes", "rejected",
        "_region_cache", "_ordinal_cache",
    )

    def __init__(
        self,
        markets: tuple[MarketID, ...],
        outcomes: tuple[str, ...],
        offsets: np.ndarray,
        market_index: np.ndarray,
        times: np.ndarray,
        spike_multiples: np.ndarray,
        kind_codes: np.ndarray,
        trigger_codes: np.ndarray,
        outcome_codes: np.ndarray,
        rejected: np.ndarray,
    ) -> None:
        self.markets = markets
        self.outcomes = outcomes
        self.offsets = offsets
        self.market_index = market_index
        self.times = times
        self.spike_multiples = spike_multiples
        self.kind_codes = kind_codes
        self.trigger_codes = trigger_codes
        self.outcome_codes = outcome_codes
        self.rejected = rejected
        self._region_cache: np.ndarray | None = None
        self._ordinal_cache: dict[MarketID, int] | None = None

    def __len__(self) -> int:
        return len(self.times)

    def kind_mask(self, kind: ProbeKind) -> np.ndarray:
        return self.kind_codes == KIND_CODES[kind]

    def trigger_mask(self, *triggers: ProbeTrigger) -> np.ndarray:
        mask = np.zeros(len(self.times), dtype=bool)
        for trigger in triggers:
            mask |= self.trigger_codes == TRIGGER_CODES[trigger]
        return mask

    def outcome_code(self, outcome: str) -> int:
        """The code of an outcome string (-1 when never recorded, which
        matches no record)."""
        try:
            return self.outcomes.index(outcome)
        except ValueError:
            return -1

    def market_ordinal(self, market: MarketID) -> int | None:
        if self._ordinal_cache is None:
            self._ordinal_cache = {m: i for i, m in enumerate(self.markets)}
        return self._ordinal_cache.get(market)

    def record_regions(self) -> np.ndarray:
        """Region string per record (numpy str array)."""
        if self._region_cache is None:
            by_market = np.asarray([m.region for m in self.markets])
            self._region_cache = (
                by_market[self.market_index]
                if len(self.markets)
                else np.asarray([], dtype=str)
            )
        return self._region_cache


# -- segment reductions -------------------------------------------------------

def _segment_sums(weights: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-segment ``weights[lo:hi].sum()`` for many segments at once.

    ``np.add.reduceat`` keeps each sum segment-local (precision on par
    with the per-market reference reductions); a global cumsum-and-
    subtract would carry the whole catalog's running total into every
    segment and lose digits to cancellation.
    """
    if len(lo) == 0:
        return weights[:0].copy()
    # One zero sentinel so hi == len(weights) stays a valid boundary.
    padded = np.concatenate((weights, np.zeros(1, dtype=weights.dtype)))
    indices = np.empty(2 * len(lo), dtype=np.int64)
    indices[0::2] = lo
    indices[1::2] = hi
    sums = np.add.reduceat(padded, indices)[0::2]
    # reduceat quirk: an empty segment yields padded[lo], not 0.
    return np.where(lo < hi, sums, 0)


def stability_metrics(
    stack: PriceStack,
    bids: np.ndarray,
    start: float = 0.0,
    end: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-market ``(mean_time_to_revocation, availability_at_bid,
    time-weighted mean price)`` over ``[start, end]``, one stacked pass.

    Implements exactly the per-market reference formulas of
    :class:`~repro.core.query.SpotLightQuery` (run detection against a
    shifted below-bid mask, interval-weighted sums, the same degenerate-
    window fallbacks), evaluated for every market at once.
    """
    n_markets = len(stack.markets)
    mttr = np.zeros(n_markets)
    avail = np.ones(n_markets)
    mean_price = np.zeros(n_markets)
    if n_markets == 0 or stack.times.size == 0:
        return mttr, avail, mean_price

    times, prices, offsets = stack.times, stack.prices, stack.offsets
    total_samples = times.size
    lo, hi = stack.bounds(start, end)
    n = hi - lo
    nonempty = n > 0
    # Clamped helpers: for empty windows these indices are meaningless
    # but must stay in range; every use is masked by `n` checks.
    lo_c = np.minimum(lo, total_samples - 1)
    hi1 = np.maximum(hi - 1, lo_c)

    bid_per_sample = np.repeat(bids, np.diff(offsets))
    below = prices <= bid_per_sample
    prev = np.empty(total_samples, dtype=bool)
    prev[0] = False
    prev[1:] = below[:-1]
    prev[lo_c[nonempty]] = False  # a window's first sample has no predecessor

    # In-window membership (windows live in disjoint segments).
    delta = np.zeros(total_samples + 1, dtype=np.int64)
    np.add.at(delta, lo, 1)
    np.add.at(delta, hi, -1)
    windowed = np.cumsum(delta[:-1]) > 0

    # Interval after sample i (zero for each window's last sample via
    # the [lo, hi-1) reduction range below).
    intervals = np.empty(total_samples)
    intervals[:-1] = times[1:] - times[:-1]
    intervals[-1] = 0.0

    first_t = times[lo_c]
    last_t = times[hi1]
    total = last_t - first_t

    # availability_at_bid: time below bid / window span.
    below_time = _segment_sums(intervals * below, lo, hi1)
    spanned = (n >= 2) & (total > 0)
    avail[spanned] = below_time[spanned] / total[spanned]

    # mean_price: interval-weighted, with the reference fallbacks.
    weighted = _segment_sums(intervals * prices, lo, hi1)
    single = n == 1
    mean_price[single] = prices[lo_c][single]
    degenerate = (n >= 2) & (total <= 0)
    mean_price[degenerate] = prices[hi1][degenerate]
    mean_price[spanned] = weighted[spanned] / total[spanned]

    # mean_time_to_revocation: below-bid runs.  Run starts are below
    # samples whose predecessor was above (or the window's first
    # sample); ends are the first above sample after each start; a
    # still-open trailing run ends at the window's final sample.
    run_starts = windowed & below & ~prev
    run_ends = windowed & ~below & prev
    start_count = _segment_sums(run_starts.astype(np.int64), lo, hi)
    end_count = _segment_sums(run_ends.astype(np.int64), lo, hi)
    start_sum = _segment_sums(times * run_starts, lo, hi)
    end_sum = _segment_sums(times * run_ends, lo, hi)
    end_sum = end_sum + np.where(end_count < start_count, last_t, 0.0)
    has_runs = nonempty & (start_count > 0)
    mttr[has_runs] = (
        (end_sum[has_runs] - start_sum[has_runs]) / start_count[has_runs]
    )
    return mttr, avail, mean_price


def _splice_tails(
    offsets: np.ndarray,
    columns: tuple[np.ndarray, ...],
    tails: list[tuple[int, tuple[np.ndarray, ...]]],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Append rows to the ends of some CSR segments.

    ``tails`` pairs segment ordinals (ascending) with each segment's new
    rows, one array (or packed ``array`` slice) per column.  Returns new offsets and columns; the
    inputs are left untouched, so views already handed out stay valid.
    Ascending ordinals keep the tails of segments that end at the same
    row (an empty segment between them) in segment order, because
    ``np.insert`` places values for equal indices in the order given.
    """
    ordinals = np.fromiter((o for o, _ in tails), dtype=np.int64, count=len(tails))
    growth = np.fromiter(
        (len(rows[0]) for _, rows in tails), dtype=np.int64, count=len(tails)
    )
    shift = np.zeros(len(offsets), dtype=np.int64)
    shift[ordinals + 1] = growth
    positions = np.repeat(offsets[ordinals + 1], growth)
    return offsets + np.cumsum(shift), [
        np.insert(column, positions, np.concatenate([rows[k] for _, rows in tails]))
        for k, column in enumerate(columns)
    ]


#: Rankings cached per price view; the oldest is dropped past this.
_RANKINGS_PER_VIEW = 16


class Ranking:
    """One ranking's per-market metric vectors, their lexsort order, and
    the view offsets they were computed at (not the view itself, so the
    superseded price columns are not pinned)."""

    __slots__ = ("offsets", "mttr", "avail", "mean_price", "order")

    def __init__(self, offsets, mttr, avail, mean_price) -> None:
        self.offsets = offsets
        self.mttr = mttr
        self.avail = avail
        self.mean_price = mean_price
        # Stable lexsort == the reference's stable tuple sort: primary
        # -mttr, then -availability, then mean price, catalog order on
        # full ties.
        self.order = np.lexsort((mean_price, -avail, -mttr))


class _CachedView:
    """A cached catalog-wide view, its market ordinals, the markets
    appended to since the view was made, and (price views only) the
    rankings computed over it."""

    __slots__ = ("view", "ordinals", "dirty", "rankings")

    def __init__(self, view) -> None:
        self.view = view
        self.ordinals = {m: i for i, m in enumerate(view.markets)}
        self.dirty: set[MarketID] = set()
        self.rankings: dict[tuple, Ranking] = {}

    def grown(self, length_of) -> list[tuple[int, int, int]] | None:
        """``(ordinal, old_length, new_length)`` per appended segment, in
        ordinal order — or None when only a rebuild is right: a dirty
        market the view does not hold, or a series shorter than its
        segment."""
        offsets = self.view.offsets
        grown = []
        for market in self.dirty:
            ordinal = self.ordinals.get(market)
            if ordinal is None:
                return None
            old = int(offsets[ordinal + 1] - offsets[ordinal])
            new = length_of(market)
            if new < old:
                return None
            if new > old:
                grown.append((ordinal, old, new))
        grown.sort()
        return grown


#: The database's packed probe-block fields, in :class:`ProbeColumns`
#: column order (after ``market_index``).
_PROBE_FIELDS = (
    ("times", np.float64), ("spike_multiples", np.float64),
    ("kinds", np.int8), ("triggers", np.int8), ("outcomes", np.int32),
    ("rejected", np.int8),
)


def _joined(columns: Iterable, dtype) -> np.ndarray:
    """Packed ``array`` columns concatenated into one new numpy array:
    a single C-level copy, no per-market numpy views."""
    return np.frombuffer(bytearray().join(columns), dtype=dtype)


def _offsets(counts: list[int]) -> np.ndarray:
    """CSR segment offsets for per-segment row counts."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


# -- the index ----------------------------------------------------------------

class ReadIndex:
    """Columnar read-side views over one probe database.

    A friend of :class:`~repro.core.database.ProbeDatabase`: it reads
    the database's packed per-market columns directly and the database
    calls the ``invalidate_*`` hooks on every insert.  All views are
    built lazily on first use; the catalog-wide ones are then kept
    current by splicing in each appended market's new rows, so a view
    is never served stale.
    """

    def __init__(self, database: "ProbeDatabase") -> None:
        self._db = database
        self._periods: dict[tuple[MarketID, ProbeKind], PeriodColumns] = {}
        self._price_arrays: dict[MarketID, tuple[np.ndarray, np.ndarray]] = {}
        self._stack: _CachedView | None = None
        self._substacks: dict[tuple[MarketID, ...], _CachedView] = {}
        self._columns: _CachedView | None = None
        self.probe_invalidations = 0
        self.price_invalidations = 0
        self.price_stack_builds = 0
        self.price_stack_splices = 0
        self.probe_columns_builds = 0
        self.probe_columns_splices = 0
        self.ranking_full_passes = 0
        self.ranking_segments_recomputed = 0

    # -- invalidation hooks (called by the database on insert) --------------
    def invalidate_probes(self, market: MarketID, kind: ProbeKind) -> None:
        self.probe_invalidations += 1
        self._periods.pop((market, kind), None)
        if self._columns is not None:
            self._columns.dirty.add(market)

    def invalidate_prices(self, market: MarketID) -> None:
        self.price_invalidations += 1
        self._price_arrays.pop(market, None)
        if self._stack is not None:
            self._stack.dirty.add(market)
        for entry in self._substacks.values():
            if market in entry.ordinals:
                entry.dirty.add(market)

    def stats(self) -> dict[str, int]:
        """Invalidation counters, warm-view counts, how often the
        catalog-wide views were rebuilt versus spliced, and how many
        rankings ran over every market versus only the grown segments —
        how much of the index survives a stream of replicated inserts."""
        return {
            "probe_invalidations": self.probe_invalidations,
            "price_invalidations": self.price_invalidations,
            "warm_period_views": len(self._periods),
            "warm_price_arrays": len(self._price_arrays),
            "price_stack_builds": self.price_stack_builds,
            "price_stack_splices": self.price_stack_splices,
            "probe_columns_builds": self.probe_columns_builds,
            "probe_columns_splices": self.probe_columns_splices,
            "ranking_full_passes": self.ranking_full_passes,
            "ranking_segments_recomputed": self.ranking_segments_recomputed,
        }

    def reset(self) -> None:
        """Drop every cached view (benchmarks use this to re-measure
        the cold build path)."""
        self._periods.clear()
        self._price_arrays.clear()
        self._stack = None
        self._substacks.clear()
        self._columns = None

    # -- periods -------------------------------------------------------------
    def period_columns(self, market: MarketID, kind: ProbeKind) -> PeriodColumns:
        key = (market, kind)
        entry = self._periods.get(key)
        if entry is None:
            entry = self._build_period_columns(market, kind)
            self._periods[key] = entry
        return entry

    def _build_period_columns(
        self, market: MarketID, kind: ProbeKind
    ) -> PeriodColumns:
        block = self._db._probe_blocks.get(market)
        empty = PeriodColumns(
            market, kind, _EMPTY_F8, _EMPTY_F8, _EMPTY_I8,
            None, 0, 0.0, has_probes=False,
        )
        if block is None:
            return empty
        kinds = np.frombuffer(block.kinds, dtype=np.int8)
        selected = kinds == KIND_CODES[kind]
        matches = int(selected.sum())
        if matches == 0:
            return empty
        if matches == len(kinds):  # single-kind market: skip the gather
            times = np.frombuffer(block.times, dtype=np.float64).copy()
            rejected = (
                np.frombuffer(block.rejected, dtype=np.int8).astype(bool)
            )
        else:
            times = np.frombuffer(block.times, dtype=np.float64)[selected]
            rejected = (
                np.frombuffer(block.rejected, dtype=np.int8)[selected]
                .astype(bool)
            )
        prev = np.empty_like(rejected)
        prev[0] = False
        prev[1:] = rejected[:-1]
        start_idx = np.flatnonzero(rejected & ~prev)
        end_idx = np.flatnonzero(~rejected & prev)
        closed = len(end_idx)
        open_start: float | None = None
        open_count = 0
        if len(start_idx) > closed:  # trailing run never saw a fulfilled probe
            open_start = float(times[start_idx[-1]])
            open_count = int(times.size - start_idx[-1])
        return PeriodColumns(
            market, kind,
            times[start_idx[:closed]],
            times[end_idx],
            (end_idx - start_idx[:closed]).astype(np.int64),
            open_start, open_count,
            float(times[-1]), has_probes=True,
        )

    def durations_stack(
        self, kind: ProbeKind, horizon: float | None = None
    ) -> np.ndarray:
        """Every market's period durations, ordered like the reference
        period list (by start time, ties by market order)."""
        starts: list[np.ndarray] = []
        durations: list[np.ndarray] = []
        ordinals: list[np.ndarray] = []
        for ordinal, market in enumerate(self._db.markets):
            entry = self.period_columns(market, kind)
            d = entry.durations(horizon)
            if d.size:
                starts.append(entry.period_starts())
                durations.append(d)
                ordinals.append(np.full(d.size, ordinal, dtype=np.int64))
        if not durations:
            return _EMPTY_F8
        all_starts = np.concatenate(starts)
        all_durations = np.concatenate(durations)
        order = np.lexsort((np.concatenate(ordinals), all_starts))
        return all_durations[order]

    # -- prices --------------------------------------------------------------
    def market_price_arrays(
        self, market: MarketID
    ) -> tuple[np.ndarray, np.ndarray]:
        """One market's full price series as cached numpy snapshots."""
        cached = self._price_arrays.get(market)
        if cached is None:
            column = self._db._prices_by_market.get(market)
            if column is None:
                cached = (_EMPTY_F8, _EMPTY_F8)
            else:
                cached = column.arrays()
            self._price_arrays[market] = cached
        return cached

    def price_view(
        self, market: MarketID, start: float | None = None,
        end: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy window onto a market's cached price snapshot
        (bisected exactly like ``TimeSeries.bounds``)."""
        times, prices = self.market_price_arrays(market)
        lo = 0 if start is None else int(np.searchsorted(times, start, "left"))
        hi = (
            len(times) if end is None
            else int(np.searchsorted(times, end, "right"))
        )
        return times[lo:hi], prices[lo:hi]

    def price_stack(
        self, markets: Iterable[MarketID] | None = None
    ) -> PriceStack:
        """The stacked price columns — the full catalog or a subset
        (e.g. one region's markets).  Both are cached and spliced
        forward on price inserts, so repeated region-filtered rankings
        do not re-concatenate their segment on every call."""
        return self._stack_entry(markets).view

    def stability_ranking(
        self,
        on_demand: Callable[[MarketID], float],
        bid_multiple: float,
        start: float = 0.0,
        end: float | None = None,
        markets: Iterable[MarketID] | None = None,
    ) -> tuple[PriceStack, Ranking]:
        """:func:`stability_metrics` over :meth:`price_stack`, at a bid of
        ``bid_multiple x on_demand(market)``, with its ranking order.

        Cached on the view per ``(on_demand, bid_multiple, start, end)``.
        A market's metrics depend only on its own segment, its bid and
        the window, and segments only grow, so after a splice only the
        segments whose lengths changed are rerun (over a stack of just
        those markets) and scattered into copies of the cached vectors:
        the same bits as a full pass.  A rebuilt view starts empty.
        """
        entry = self._stack_entry(markets)
        stack = entry.view

        def metrics(part: PriceStack) -> tuple[np.ndarray, ...]:
            bids = bid_multiple * np.asarray([on_demand(m) for m in part.markets])
            return stability_metrics(part, bids, start, end)

        key = (on_demand, bid_multiple, start, end)
        cached = entry.rankings.pop(key, None)
        if cached is None:
            self.ranking_full_passes += 1
            cached = Ranking(stack.offsets, *metrics(stack))
        elif cached.offsets is not stack.offsets:
            grown = np.flatnonzero(np.diff(cached.offsets) != stack.counts)
            self.ranking_segments_recomputed += len(grown)
            part = self._build_stack(tuple(stack.markets[i] for i in grown.tolist()))
            vectors = []
            for vector, values in zip(
                (cached.mttr, cached.avail, cached.mean_price), metrics(part)
            ):
                vector = vector.copy()
                vector[grown] = values
                vectors.append(vector)
            cached = Ranking(stack.offsets, *vectors)
        if len(entry.rankings) >= _RANKINGS_PER_VIEW:
            del entry.rankings[next(iter(entry.rankings))]
        entry.rankings[key] = cached  # most recently used last
        return stack, cached

    def _stack_entry(
        self, markets: Iterable[MarketID] | None
    ) -> _CachedView:
        """The current full-catalog (or ``markets``) price view."""
        if markets is not None:
            key = tuple(markets)
            entry = self._substacks.get(key)
            if entry is None or entry.dirty:
                entry = self._substacks[key] = self._refreshed_stack(entry, key)
            return entry
        entry = self._stack
        if entry is None or entry.dirty:
            refreshed = self._refreshed_stack(entry, None)
            if refreshed is not entry:
                # Substack keys are drawn from the full stack's markets;
                # a rebuilt market set retires them.
                self._substacks.clear()
            entry = self._stack = refreshed
        return entry

    def _refreshed_stack(
        self, entry: _CachedView | None, markets: tuple[MarketID, ...] | None
    ) -> _CachedView:
        """Splice ``entry``'s appended markets into it, or build anew."""
        series = self._db._prices_by_market
        grown = None if entry is None else entry.grown(lambda m: len(series[m]))
        if grown is None:
            self.price_stack_builds += 1
            if markets is None:
                markets = tuple(sorted(series))
            return _CachedView(self._build_stack(markets))
        stack = entry.view
        if grown:
            self.price_stack_splices += 1
            tails = []
            for ordinal, old, new in grown:
                column = series[stack.markets[ordinal]]
                tails.append(
                    (ordinal, (column.times[old:new], column.values[old:new]))
                )
            offsets, (times, prices) = _splice_tails(
                stack.offsets, (stack.times, stack.prices), tails
            )
            entry.view = PriceStack(stack.markets, offsets, times, prices)
        entry.dirty.clear()
        return entry

    def _build_stack(self, markets: tuple[MarketID, ...]) -> PriceStack:
        series = self._db._prices_by_market
        columns = [series[m] for m in markets if m in series]
        return PriceStack(
            markets,
            _offsets([len(series.get(m, ())) for m in markets]),
            _joined((c.times for c in columns), np.float64),
            _joined((c.values for c in columns), np.float64),
        )

    # -- probes --------------------------------------------------------------
    def probe_columns(self) -> ProbeColumns:
        entry = self._columns
        if entry is None or entry.dirty:
            entry = self._columns = self._refreshed_columns(entry)
            entry.view._ordinal_cache = entry.ordinals
        return entry.view

    def _refreshed_columns(self, entry: _CachedView | None) -> _CachedView:
        """Splice ``entry``'s appended markets into it, or build anew."""
        blocks = self._db._probe_blocks
        grown = (
            None if entry is None
            else entry.grown(lambda m: len(blocks[m].times))
        )
        if grown is None:
            self.probe_columns_builds += 1
            return _CachedView(self._build_probe_columns())
        columns = entry.view
        if grown:
            self.probe_columns_splices += 1
            tails = []
            for ordinal, old, new in grown:
                block = blocks[columns.markets[ordinal]]
                tails.append((ordinal, (
                    np.full(new - old, ordinal, dtype=np.int32),
                    *(getattr(block, field)[old:new] for field, _ in _PROBE_FIELDS),
                )))
            offsets, spliced = _splice_tails(
                columns.offsets,
                (
                    columns.market_index, columns.times,
                    columns.spike_multiples, columns.kind_codes,
                    columns.trigger_codes, columns.outcome_codes,
                    columns.rejected,
                ),
                tails,
            )
            entry.view = ProbeColumns(
                columns.markets, tuple(self._db._outcome_names), offsets,
                *spliced,
            )
        entry.dirty.clear()
        return entry

    def _build_probe_columns(self) -> ProbeColumns:
        blocks = self._db._probe_blocks
        markets = tuple(sorted(blocks))
        counts = [len(blocks[m].times) for m in markets]
        columns = [
            _joined((getattr(blocks[m], field) for m in markets), dtype)
            for field, dtype in _PROBE_FIELDS
        ]
        columns[-1] = columns[-1].astype(bool)  # the rejection flags
        return ProbeColumns(
            markets, tuple(self._db._outcome_names), _offsets(counts),
            np.repeat(np.arange(len(markets), dtype=np.int32), counts),
            *columns,
        )

    # -- warm-up -------------------------------------------------------------
    def prime(self) -> None:
        """Build every view now (servers call this before first traffic
        so no request pays the index build)."""
        self.price_stack()
        self.probe_columns()
        for market in self._db._probe_blocks:
            for kind in ProbeKind:
                self.period_columns(market, kind)
