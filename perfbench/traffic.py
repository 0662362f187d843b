"""Seeded request streams for the serving workloads.

A request is ``(mode, query, params)`` with ``mode`` either ``"query"``
(a plain ``POST /query``) or ``"poll"`` (a conditional
``SpotLightClient.poll``, answered 304 once the client holds the tag).
Streams depend only on the seed and the snapshot's market list, so a
seed names the exact inputs the program receives.
"""

from __future__ import annotations

import itertools
import random

from repro.core.market_id import MarketID

#: Bid multiples SpotOn/SpotCheck-style callers ask the ranking for.
HOT_BID_MULTIPLES = (0.5, 0.75, 1.0, 1.5, 2.0)
HOT_MARKETS = 200
#: Zipf ranks (0-based) of the ranking keys among the hot keys.
RANKING_RANKS = (0, 2, 8, 64, 256)
#: Share of hot traffic sent as conditional polls.
POLL_SHARE = 0.2


def hot_keys(
    rng: random.Random, markets: list[MarketID], on_demand: dict
) -> tuple[list[tuple[str, dict]], list[MarketID]]:
    """The ~400 popular keys in popularity order, and their markets.

    Rankings at common bid multiples sit at fixed popularity ranks
    (``RANKING_RANKS``); the rest are two of (availability, mean-price,
    availability-at-bid) for each of ~200 popular markets, in seeded
    order.  Fixing where the expensive rankings fall keeps the cost of
    the mix the same from seed to seed."""
    points: list[tuple[str, dict]] = []
    hot = rng.sample(markets, HOT_MARKETS)
    for market in hot:
        name = str(market)
        choices = [
            ("availability", {"market": name, "kind": "on-demand"}),
            ("mean-price", {"market": name}),
            ("availability-at-bid",
             {"market": name, "bid_price": round(on_demand[market], 6)}),
        ]
        points.extend(rng.sample(choices, 2))
    rng.shuffle(points)
    keys = points
    for rank, multiple in zip(RANKING_RANKS, HOT_BID_MULTIPLES):
        keys.insert(rank, ("top-stable-markets", {"n": 10, "bid_multiple": multiple}))
    return keys, hot


def zipf_weights(count: int, exponent: float = 1.0) -> list[float]:
    return list(itertools.accumulate(
        1.0 / (rank ** exponent) for rank in range(1, count + 1)
    ))


def hot_maker(keys: list[tuple[str, dict]]):
    """``make(rng)`` drawing hot keys with Zipf popularity, a
    ``POLL_SHARE`` of them as conditional polls."""
    cumulative = zipf_weights(len(keys))

    def make(rng: random.Random) -> tuple[str, str, dict]:
        name, params = rng.choices(keys, cum_weights=cumulative)[0]
        mode = "poll" if rng.random() < POLL_SHARE else "query"
        return (mode, name, params)
    return make
