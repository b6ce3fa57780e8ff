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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .assortment import (
    POLICIES,
    POLICY_STAGE1_ORDER,
    RankingColumns,
    RankingPool,
    two_stage_select,
)
from .catalog import MAX_REVIEWS, BeliefPrior, Catalog, Product
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


@dataclass(frozen=True)
class SimTrace:
    records: tuple[CustomerRecord, ...]
    final_states: dict[str, ReviewState]
    prior: BeliefPrior
    product_params: dict[str, tuple[float, float]]

    @cached_property
    def summary(self) -> SimSummary:
        return summarize(self)


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
        reachable = [catalog.get(pid) for pid in cfg.slate]
    else:
        reachable = list(catalog.products)
    if not cfg.freeze_beliefs:
        for product in reachable:
            if product.demand_override is None and (
                product.true_quality is None or product.rating_noise is None
            ):
                raise ValueError(
                    f"product {product.id!r} needs true_quality and rating_noise "
                    "for an unfrozen run with computed demand"
                )
    if cfg.rerank_every is not None and not catalog.universe_size:
        raise ValueError("catalog is empty")


# Customers per kernel call: the kernel's arrays hold this many customers'
# draws at a time, however long the horizon.
_BLOCK = 1024

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``m * x``, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_hi, hi_lo = x_lo * m_hi, x_hi * m_lo
    middle = ((x_lo * m_lo) >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    high = x_hi * m_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (middle >> _SHIFT32)
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
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
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


def _purchase_chance(product: Product, state: ReviewState, position: int, cfg: SimConfig) -> float:
    if product.demand_override is not None:
        return product.demand_override
    return logistic(expected_utility(cfg.prior, state, product.price, position, cfg.cost))


def simulate(catalog: Catalog, cfg: SimConfig) -> SimTrace:
    """Run the horizon; identical catalog and config reproduce the trace exactly.

    Customer t sees the review states left by customer t-1.  At slot j the
    purchase chance is the product's pinned override or the logistic of its
    current posterior utility; the walk stops at the first purchase or when
    the attention span runs out.
    """
    _validate_config(catalog, cfg)
    states: dict[str, ReviewState] = {
        p.id: ReviewState(p.review_count, p.avg_rating) for p in catalog.products
    }
    spans = _SpanDraw(cfg.dist)
    if cfg.freeze_beliefs:
        records = _frozen_records(catalog, states, cfg, spans)
    else:
        records = _live_records(catalog, states, cfg, spans)
    return SimTrace(
        records=tuple(records),
        final_states=states,
        prior=cfg.prior,
        product_params={p.id: (p.price, p.revenue_share) for p in catalog.products},
    )


def _frozen_records(
    catalog: Catalog, states: dict[str, ReviewState], cfg: SimConfig, spans: _SpanDraw
) -> list[CustomerRecord]:
    """Frozen beliefs: the slate and every slot's purchase chance never change.

    (Re-ranking unchanged review states gives the catalog's own ranking.)
    A customer buys at the first slot j within the span whose uniform falls
    below the slot's chance.
    """
    if cfg.slate is not None:
        slate = cfg.slate
    else:
        slate = two_stage_select(catalog, cfg.slot_count, cfg.policy)[0].slots
    offset = int(spans.uses_uniform)
    reach = min(cfg.dist.max_span, len(slate))
    chance = np.array(
        [
            _purchase_chance(product, states[product.id], j, cfg)
            for j, product in enumerate(map(catalog.get, slate[:reach]), start=1)
        ]
    )
    ids = np.array([*slate[:reach], None], dtype=object)
    span_values = np.array(spans.values, dtype=object)
    span_limits = np.array([min(y, len(slate)) for y in spans.values])
    records: list[CustomerRecord] = []
    for first, _, uniforms in _draw_blocks(cfg.seed, cfg.horizon, offset + reach):
        index = spans.index(uniforms)
        limit = span_limits[index]
        hit = (uniforms[:, offset : offset + reach] < chance) & (np.arange(reach) < limit[:, None])
        bought = hit.any(axis=1)
        slot = np.where(bought, hit.argmax(axis=1), reach)
        viewed = np.where(bought, slot + 1, limit)
        columns = (range(first, first + len(index)), span_values[index], viewed.tolist(), ids[slot])
        records.extend(map(CustomerRecord._make, zip(*columns, repeat(None), repeat(None))))
    return records


def _live_records(
    catalog: Catalog, states: dict[str, ReviewState], cfg: SimConfig, spans: _SpanDraw
) -> list[CustomerRecord]:
    """Live beliefs: customers run in order, each purchase moving a review state.

    Slot chances are computed per slate and recomputed for the purchased
    slot whenever its product's review state moves.
    """
    reranker = _Reranker(catalog, cfg) if cfg.rerank_every is not None else None
    slate_len = len(cfg.slate) if reranker is None else reranker.slot_count
    offset = int(spans.uses_uniform)
    reach = min(cfg.dist.max_span, slate_len)

    def shown(slate: tuple[str, ...]) -> tuple[list[Product], list[float]]:
        products = [catalog.get(pid) for pid in slate[:reach]]
        chance = [
            _purchase_chance(p, states[p.id], j, cfg) for j, p in enumerate(products, start=1)
        ]
        return products, chance

    if reranker is None:
        products, chance = shown(cfg.slate)
    ratings = _RatingDraws(cfg.seed)
    records: list[CustomerRecord] = []
    for first, raw, uniforms in _draw_blocks(cfg.seed, cfg.horizon, offset + reach):
        for i, (k, draws) in enumerate(zip(spans.index(uniforms).tolist(), uniforms.tolist())):
            t = first + i
            if reranker is not None and (t - 1) % cfg.rerank_every == 0:
                products, chance = shown(reranker.rank())
            span = spans.values[k]
            limit = min(span, slate_len)
            purchased: str | None = None
            rating: float | None = None
            post_state: tuple[int, float] | None = None
            viewed = limit
            for j in range(limit):
                if draws[offset + j] < chance[j]:
                    product = products[j]
                    purchased = product.id
                    viewed = j + 1
                    if product.true_quality is not None and product.rating_noise is not None:
                        rng = ratings.after(t, offset + viewed, raw[i])
                        drawn = float(rng.normal(product.true_quality, product.rating_noise))
                        if cfg.clamp_ratings is not None:
                            lo, hi = cfg.clamp_ratings
                            drawn = min(max(drawn, lo), hi)
                        rating = drawn
                        new_state = update_review_state(states[product.id], rating)
                        states[product.id] = new_state
                        post_state = (new_state.count, new_state.mean)
                        chance[j] = _purchase_chance(product, new_state, viewed, cfg)
                        if reranker is not None:
                            reranker.record(product.id, new_state)
                    break
            records.append(CustomerRecord(t, span, viewed, purchased, rating, post_state))
    return records


def summarize(trace: SimTrace) -> SimSummary:
    """Totals and rates over a trace; platform revenue is share-weighted."""
    gross = 0.0
    platform = 0.0
    per_product: dict[str, int] = {}
    for record in trace.records:
        if record.purchased is None:
            continue
        price, share = trace.product_params[record.purchased]
        gross += price
        platform += share * price
        per_product[record.purchased] = per_product.get(record.purchased, 0) + 1
    count = sum(per_product.values())
    horizon = len(trace.records)
    final_states = {pid: (s.count, s.mean) for pid, s in trace.final_states.items()}
    posterior_means = {
        pid: posterior_mean(trace.prior, s) for pid, s in trace.final_states.items()
    }
    return SimSummary(
        gross_revenue=gross,
        platform_revenue=platform,
        purchase_count=count,
        purchase_rate=count / horizon if horizon else 0.0,
        per_product_purchases=per_product,
        final_states=final_states,
        posterior_means=posterior_means,
    )


def trace_table(trace: SimTrace) -> str:
    """Columnar export: one tab-separated line per customer record."""
    lines = ["t\tspan\tviewed\tpurchased\trating\tpost_reviews\tpost_avg_rating"]
    for r in trace.records:
        lines.append(
            "\t".join(
                (
                    str(r.t),
                    str(r.span),
                    str(r.viewed),
                    r.purchased if r.purchased is not None else "-",
                    repr(r.rating) if r.rating is not None else "-",
                    str(r.post_state[0]) if r.post_state is not None else "-",
                    repr(r.post_state[1]) if r.post_state is not None else "-",
                )
            )
        )
    return "\n".join(lines) + "\n"


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
