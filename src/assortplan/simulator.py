"""Sequential market simulation: arriving customers browse a slate under the
cascade model, purchase, rate, and move the public review state.

Randomness is counter-based: customer t draws from a Philox stream keyed by
the config seed at counter t * 2**128, so a policy change (say, re-ranking
mid-run) never perturbs the draws of later customers.  Within a customer the
draw order is fixed: one uniform for the attention span (random spans only),
one uniform per inspected slot, one normal for the rating on purchase.

Because the streams are counter-based, a numpy Philox4x64-10 kernel draws
the uniforms of a whole block of customers at once, equal bit for bit to
numpy's own ``Generator(Philox(key=seed, counter=t << 128)).random()``.
Frozen runs are then array code; live runs walk customers in order over the
precomputed uniforms, ask numpy for the rating draw only, and re-rank by
writing each purchase's review state into the ranking columns in place.

The trace is columnar: per customer a span index, the slots viewed and the
catalog row bought, and per rated purchase the rating and the review state
after it.  ``CustomerRecord``s are built only when ``SimTrace.records`` is
first read, and the catalog is read as columns, so a run builds no
``Product``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .assortment import (
    POLICIES,
    POLICY_STAGE1_ORDER,
    RankingColumns,
    RankingPool,
    two_stage_select,
)
from .catalog import MAX_REVIEWS, BeliefPrior, Catalog, CatalogColumns
from .demand import (
    CostModel,
    ReviewState,
    expected_utility,
    logistic,
    posterior_mean,
    update_review_state,
)
from .revenue import AttentionSpanDist


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls.

    Exactly one of ``slate`` (fixed display order) or ``rerank_every``
    (recompute the two-stage ranking every r customers, needs
    ``slot_count``) must be set.  ``freeze_beliefs`` pins review states at
    their catalog values: no ratings are drawn and demand never moves.
    ``clamp_ratings`` optionally clips drawn ratings to a display scale.
    """

    horizon: int
    seed: int
    dist: AttentionSpanDist
    prior: BeliefPrior
    cost: CostModel = CostModel()
    slate: tuple[str, ...] | None = None
    rerank_every: int | None = None
    slot_count: int | None = None
    policy: str = POLICY_STAGE1_ORDER
    freeze_beliefs: bool = False
    clamp_ratings: tuple[float, float] | None = None


class CustomerRecord(NamedTuple):
    """One arrival: span drawn, slots viewed, and the purchase outcome.

    ``post_state`` is the (count, mean) review state of the purchased
    product right after this customer, present only when the state moved.
    """

    t: int
    span: int
    viewed: int
    purchased: str | None
    rating: float | None
    post_state: tuple[int, float] | None


@dataclass(frozen=True)
class SimSummary:
    gross_revenue: float
    platform_revenue: float
    purchase_count: int
    purchase_rate: float
    per_product_purchases: dict[str, int]
    final_states: dict[str, tuple[int, float]]
    posterior_means: dict[str, float]


@dataclass(frozen=True, eq=False)
class SimTrace:
    """A run as columns.

    Per customer, customer t at index t-1: ``span_index`` into ``spans``,
    the slots ``viewed``, and the catalog row ``purchased`` (-1 for none).
    Per purchase that drew a rating, in customer order: the customer's
    index in ``rated``, the rating, and the review state right after, as
    ``post_counts`` and ``post_means``.  ``columns`` are the catalog's, for
    ids, prices and shares.  ``records`` builds the ``CustomerRecord``s on
    first read.
    """

    spans: tuple[int, ...]
    span_index: np.ndarray
    viewed: np.ndarray
    purchased: np.ndarray
    rated: list[int]
    ratings: list[float]
    post_counts: list[int]
    post_means: list[float]
    final_states: dict[str, ReviewState]
    prior: BeliefPrior
    columns: CatalogColumns

    @cached_property
    def records(self) -> tuple[CustomerRecord, ...]:
        horizon = len(self.viewed)
        ids = [*self.columns.ids, None]
        ratings: list[float | None] = [None] * horizon
        post_states: list[tuple[int, float] | None] = [None] * horizon
        rated = zip(self.rated, self.ratings, self.post_counts, self.post_means)
        for i, rating, count, mean in rated:
            ratings[i], post_states[i] = rating, (count, mean)
        return tuple(
            map(
                CustomerRecord,
                range(1, horizon + 1),
                map(self.spans.__getitem__, self.span_index.tolist()),
                self.viewed.tolist(),
                map(ids.__getitem__, self.purchased.tolist()),
                ratings,
                post_states,
            )
        )

    @cached_property
    def summary(self) -> SimSummary:
        return summarize(self)

    def _key(self) -> tuple:
        c = self.columns
        return (
            self.records, self.final_states, self.prior, c.ids, c.price.tolist(), c.share.tolist()
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()


def _validate_config(catalog: Catalog, cfg: SimConfig) -> None:
    if cfg.horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {cfg.horizon}")
    if not 0 <= cfg.seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {cfg.seed}")
    if (cfg.slate is None) == (cfg.rerank_every is None):
        raise ValueError("exactly one of slate or rerank_every must be set")
    if cfg.rerank_every is not None:
        if cfg.rerank_every < 1:
            raise ValueError(f"rerank_every must be >= 1, got {cfg.rerank_every}")
        if cfg.slot_count is None or cfg.slot_count < 1:
            raise ValueError("slot_count must be >= 1 when re-ranking")
    if cfg.policy not in POLICIES:
        raise ValueError(f"unknown ordering policy {cfg.policy!r}")
    if cfg.clamp_ratings is not None and cfg.clamp_ratings[0] > cfg.clamp_ratings[1]:
        raise ValueError(f"clamp_ratings bounds out of order: {cfg.clamp_ratings}")
    if cfg.slate is not None:
        if not cfg.slate:
            raise ValueError("fixed slate is empty")
        if len(set(cfg.slate)) != len(cfg.slate):
            raise ValueError(f"fixed slate contains duplicate ids: {list(cfg.slate)}")
        reachable = np.array([catalog.row(pid) for pid in cfg.slate], dtype=np.intp)
    else:
        reachable = np.arange(catalog.universe_size)
    if not cfg.freeze_beliefs:
        columns = catalog.columns
        unrated = (columns.demand[reachable] == 0) & (
            np.isnan(columns.true_quality[reachable]) | np.isnan(columns.rating_noise[reachable])
        )
        if unrated.any():
            raise ValueError(
                f"product {columns.ids[reachable[unrated.argmax()]]!r} needs true_quality and "
                "rating_noise for an unfrozen run with computed demand"
            )
    if cfg.rerank_every is not None and not catalog.universe_size:
        raise ValueError("catalog is empty")


# Customers per kernel call: the kernel's arrays hold this many customers'
# draws at a time, however long the horizon.
_BLOCK = 4096

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``m * x``, from 32-bit halves.

    The partial products are summed in place, in fresh arrays, to keep a
    block's temporaries few.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_hi, hi_lo = x_lo * m_hi, x_hi * m_lo
    middle, high = x_lo, x_hi
    middle *= m_lo
    middle >>= _SHIFT32
    high *= m_hi
    for part in (lo_hi, hi_lo):
        high += part >> _SHIFT32
        part &= _LOW32
        middle += part
    middle >>= _SHIFT32
    high += middle
    return high, x * np.uint64(m)


def philox_raw(seed: int, customers: np.ndarray, blocks: int) -> np.ndarray:
    """The first ``4 * blocks`` raw words of each listed customer's stream.

    Row i equals ``np.random.Philox(key=seed, counter=t << 128).random_raw``
    for customer t = customers[i]: the Philox4x64-10 blocks at counters
    ``(t << 128) + b``, b = 1..blocks, under the key (seed, 0).
    """
    shape = (len(customers), blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c3 = np.zeros(shape, dtype=np.uint64)
    c2 = np.broadcast_to(np.asarray(customers, dtype=np.uint64)[:, None], shape)
    k0, k1 = seed, 0
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % 2**64
            k1 = (k1 + _PHILOX_W[1]) % 2**64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1
        hi1 ^= np.uint64(k0)
        hi0 ^= c3
        hi0 ^= np.uint64(k1)
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(len(customers), 4 * blocks)


def _draw_blocks(seed: int, horizon: int, width: int):
    """Yield (first customer, raw words, uniforms) for blocks of ``_BLOCK`` customers.

    Each row holds at least ``width`` uniforms, in the order the customer's
    numpy ``Generator`` would return them from ``random()``.
    """
    blocks = -(-width // 4)
    for first in range(1, horizon + 1, _BLOCK):
        customers = np.arange(first, min(first + _BLOCK, horizon + 1), dtype=np.uint64)
        raw = philox_raw(seed, customers, blocks)
        yield first, raw, (raw >> np.uint64(11)) * 2.0**-53


class _SpanDraw:
    """Attention spans from each customer's first uniform (random spans only).

    The span is the first one whose running pmf sum, added up in pmf order,
    exceeds the uniform, or the last span when the float sum ends below it.
    Spans stay Python ints, however large.
    """

    def __init__(self, dist: AttentionSpanDist):
        self.values = [span for span, _ in dist.pmf]
        self.uses_uniform = dist.kind != "deterministic"
        cumulative = 0.0
        self.cumulative = []
        for _, prob in dist.pmf:
            cumulative += prob
            self.cumulative.append(cumulative)

    def index(self, uniforms: np.ndarray) -> np.ndarray:
        """Each customer's position in ``values``."""
        if not self.uses_uniform:
            return np.zeros(len(uniforms), dtype=np.intp)
        index = np.searchsorted(self.cumulative, uniforms[:, 0], side="right")
        return np.minimum(index, len(self.values) - 1)


class _RatingDraws:
    """A numpy Generator placed on a customer's stream after its used uniforms.

    The rating is drawn by numpy's own normal sampler from the words that
    follow the customer's span and slot uniforms, as the customer's
    ``Generator`` would have drawn it.
    """

    def __init__(self, seed: int):
        self._bits = np.random.Philox(key=seed)
        self._rng = np.random.Generator(self._bits)
        self._key = [seed, 0]

    def after(self, t: int, used: int, raw: np.ndarray) -> np.random.Generator:
        block, pos = divmod(used, 4)
        if pos:
            counter, buffer = block + 1, raw[4 * block : 4 * block + 4].tolist()
        else:
            # An empty buffer: numpy steps the counter to the next block first.
            counter, buffer, pos = block, [0, 0, 0, 0], 4
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": [counter, 0, t, 0], "key": self._key},
            "buffer": buffer,
            "buffer_pos": pos,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._rng


class _Reranker:
    """Two-stage re-ranking over review columns that purchases update in place."""

    def __init__(self, catalog: Catalog, cfg: SimConfig):
        self.columns = RankingColumns(catalog, cfg.policy)
        self.row = {pid: i for i, pid in enumerate(self.columns.ids.tolist())}
        self.slot_count = min(cfg.slot_count, catalog.universe_size)
        self.overflow: tuple[str, int] | None = None

    def record(self, product_id: str, state: ReviewState) -> None:
        if state.count >= MAX_REVIEWS:
            # The int64 column cannot hold the count; the next re-rank fails.
            self.overflow = self.overflow or (product_id, state.count)
            return
        self.columns.set_review_state(self.row[product_id], state.mean, state.count)

    def rank(self) -> tuple[str, ...]:
        if self.overflow is not None:
            pid, count = self.overflow
            raise ValueError(
                f"product {pid!r}: simulated review count {count} exceeds the "
                f"re-ranking limit of {MAX_REVIEWS - 1}"
            )
        pool = RankingPool(self.columns)
        return tuple(pool.take_id() for _ in range(self.slot_count))


def _purchase_chance(
    columns: CatalogColumns, row: int, state: ReviewState, position: int, cfg: SimConfig
) -> float:
    """Row ``row``'s pinned demand, or the logistic of its posterior utility."""
    demand = columns.demand.item(row)
    if demand:
        return demand
    return logistic(expected_utility(cfg.prior, state, columns.price.item(row), position, cfg.cost))


def _displayed(
    catalog: Catalog,
    states: dict[str, ReviewState],
    slate: tuple[str, ...],
    reach: int,
    cfg: SimConfig,
) -> tuple[list[int], list[float]]:
    """The catalog rows of the slate's first ``reach`` products and their purchase chances."""
    rows = [catalog.row(pid) for pid in slate[:reach]]
    chance = [
        _purchase_chance(catalog.columns, row, states[pid], j, cfg)
        for j, (row, pid) in enumerate(zip(rows, slate), start=1)
    ]
    return rows, chance


def simulate(catalog: Catalog, cfg: SimConfig) -> SimTrace:
    """Run the horizon; identical catalog and config reproduce the trace exactly.

    Customer t sees the review states left by customer t-1.  At slot j the
    purchase chance is the product's pinned override or the logistic of its
    current posterior utility; the walk stops at the first purchase or when
    the attention span runs out.  The catalog is read as columns, by row.
    """
    _validate_config(catalog, cfg)
    columns = catalog.columns
    states = dict(
        zip(columns.ids, map(ReviewState, columns.reviews.tolist(), columns.rating.tolist()))
    )
    spans = _SpanDraw(cfg.dist)
    run = _frozen_columns if cfg.freeze_beliefs else _live_columns
    return SimTrace(
        spans=tuple(spans.values),
        **run(catalog, states, cfg, spans),
        final_states=states,
        prior=cfg.prior,
        columns=columns,
    )


def _frozen_columns(
    catalog: Catalog, states: dict[str, ReviewState], cfg: SimConfig, spans: _SpanDraw
) -> dict:
    """Frozen beliefs: the slate and every slot's purchase chance never change.

    (Re-ranking unchanged review states gives the catalog's own ranking.)
    A customer buys at the first slot j within the span whose uniform falls
    below the slot's chance; no rating is drawn.  Returns the run's
    ``SimTrace`` columns.
    """
    if cfg.slate is not None:
        slate = cfg.slate
    else:
        slate = two_stage_select(catalog, cfg.slot_count, cfg.policy)[0].slots
    offset = int(spans.uses_uniform)
    reach = min(cfg.dist.max_span, len(slate))
    rows, chance = _displayed(catalog, states, slate, reach, cfg)
    chance = np.array(chance)
    bought_row = np.array([*rows, -1])
    span_limits = np.array([min(y, len(slate)) for y in spans.values])
    blocks = []
    for _, _, uniforms in _draw_blocks(cfg.seed, cfg.horizon, offset + reach):
        index = spans.index(uniforms)
        limit = span_limits[index]
        hit = (uniforms[:, offset : offset + reach] < chance) & (np.arange(reach) < limit[:, None])
        bought = hit.any(axis=1)
        slot = np.where(bought, hit.argmax(axis=1), reach)
        blocks.append((index, np.where(bought, slot + 1, limit), bought_row[slot]))
    span_index, viewed, purchased = map(np.concatenate, zip(*blocks))
    return dict(
        span_index=span_index, viewed=viewed, purchased=purchased,
        rated=[], ratings=[], post_counts=[], post_means=[],
    )


def _live_columns(
    catalog: Catalog, states: dict[str, ReviewState], cfg: SimConfig, spans: _SpanDraw
) -> dict:
    """Live beliefs: customers run in order, each purchase moving a review state.

    Slot chances are computed per slate and recomputed for the purchased
    slot whenever its product's review state moves.  Returns the run's
    ``SimTrace`` columns.
    """
    columns = catalog.columns
    reranker = _Reranker(catalog, cfg) if cfg.rerank_every is not None else None
    slate_len = len(cfg.slate) if reranker is None else reranker.slot_count
    offset = int(spans.uses_uniform)
    reach = min(cfg.dist.max_span, slate_len)
    span_limits = [min(y, slate_len) for y in spans.values]
    if reranker is None:
        rows, chance = _displayed(catalog, states, cfg.slate, reach, cfg)
    draws_after = _RatingDraws(cfg.seed)
    span_blocks: list[np.ndarray] = []
    viewed_column: list[int] = []
    purchased_column: list[int] = []
    rated: list[int] = []
    ratings: list[float] = []
    post_counts: list[int] = []
    post_means: list[float] = []
    for first, raw, uniforms in _draw_blocks(cfg.seed, cfg.horizon, offset + reach):
        index = spans.index(uniforms)
        span_blocks.append(index)
        for i, (k, draws) in enumerate(zip(index.tolist(), uniforms.tolist())):
            t = first + i
            if reranker is not None and (t - 1) % cfg.rerank_every == 0:
                rows, chance = _displayed(catalog, states, reranker.rank(), reach, cfg)
            viewed, purchased = span_limits[k], -1
            for j in range(viewed):
                if draws[offset + j] < chance[j]:
                    viewed, purchased = j + 1, rows[j]
                    quality = columns.true_quality.item(purchased)
                    noise = columns.rating_noise.item(purchased)
                    if quality == quality and noise == noise:  # both given
                        rng = draws_after.after(t, offset + viewed, raw[i])
                        rating = float(rng.normal(quality, noise))
                        if cfg.clamp_ratings is not None:
                            lo, hi = cfg.clamp_ratings
                            rating = min(max(rating, lo), hi)
                        pid = columns.ids[purchased]
                        state = states[pid] = update_review_state(states[pid], rating)
                        chance[j] = _purchase_chance(columns, purchased, state, viewed, cfg)
                        if reranker is not None:
                            reranker.record(pid, state)
                        rated.append(t - 1)
                        ratings.append(rating)
                        post_counts.append(state.count)
                        post_means.append(state.mean)
                    break
            viewed_column.append(viewed)
            purchased_column.append(purchased)
    return dict(
        span_index=np.concatenate(span_blocks),
        viewed=np.array(viewed_column, dtype=np.int64),
        purchased=np.array(purchased_column, dtype=np.intp),
        rated=rated, ratings=ratings, post_counts=post_counts, post_means=post_means,
    )


def summarize(trace: SimTrace) -> SimSummary:
    """Totals and rates over a trace; platform revenue is share-weighted.

    Revenues are added purchase by purchase, left to right, as floats.
    """
    columns = trace.columns
    bought = trace.purchased[trace.purchased >= 0]
    rows, first, counts = np.unique(bought, return_index=True, return_counts=True)
    by_first = first.argsort()
    per_product = dict(
        zip([columns.ids[row] for row in rows[by_first].tolist()], counts[by_first].tolist())
    )
    price = columns.price[bought]
    gross = 0.0
    platform = 0.0
    for p, q in zip(price.tolist(), (columns.share[bought] * price).tolist()):
        gross += p
        platform += q
    horizon = len(trace.viewed)
    final_states = {pid: (s.count, s.mean) for pid, s in trace.final_states.items()}
    posterior_means = {
        pid: posterior_mean(trace.prior, s) for pid, s in trace.final_states.items()
    }
    return SimSummary(
        gross_revenue=gross,
        platform_revenue=platform,
        purchase_count=len(bought),
        purchase_rate=len(bought) / horizon if horizon else 0.0,
        per_product_purchases=per_product,
        final_states=final_states,
        posterior_means=posterior_means,
    )


def trace_table(trace: SimTrace) -> str:
    """Columnar export: one tab-separated line per customer.

    A line without a rating depends, after ``t``, only on the customer's
    (span, viewed, purchased), so each distinct triple is formatted once;
    the lines of rated purchases are formatted one by one.
    """
    horizon = len(trace.viewed)
    ids = [*trace.columns.ids, "-"]
    keys = list(zip(trace.span_index.tolist(), trace.viewed.tolist(), trace.purchased.tolist()))
    middles = {key: f"\t{trace.spans[key[0]]}\t{key[1]}\t{ids[key[2]]}" for key in set(keys)}
    unrated = {key: middle + "\t-\t-\t-\n" for key, middle in middles.items()}
    suffixes = list(map(unrated.__getitem__, keys))
    rated = zip(trace.rated, trace.ratings, trace.post_counts, trace.post_means)
    for i, rating, count, mean in rated:
        suffixes[i] = f"{middles[keys[i]]}\t{rating!r}\t{count}\t{mean!r}\n"
    lines = chain.from_iterable(zip(range(1, horizon + 1), suffixes))
    header = "t\tspan\tviewed\tpurchased\trating\tpost_reviews\tpost_avg_rating\n"
    return header + ("%d%s" * horizon) % tuple(lines)


def summary_document(trace: SimTrace) -> dict:
    """Summary in the structured report shape used by the CLI."""
    s = trace.summary
    return {
        "gross_revenue": s.gross_revenue,
        "platform_revenue": s.platform_revenue,
        "purchase_count": s.purchase_count,
        "purchase_rate": s.purchase_rate,
        "per_product_purchases": dict(sorted(s.per_product_purchases.items())),
        "final_states": {
            pid: {"reviews": n, "avg_rating": mean}
            for pid, (n, mean) in sorted(s.final_states.items())
        },
        "posterior_means": dict(sorted(s.posterior_means.items())),
    }
