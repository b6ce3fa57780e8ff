"""Sequential market simulation: arriving customers browse a slate under the
cascade model, purchase, rate, and move the public review state.

Randomness is counter-based: customer t draws from a Philox stream keyed by
the config seed at counter t * 2**128, so a policy change (say, re-ranking
mid-run) never perturbs the draws of later customers.  Within a customer the
draw order is fixed: one uniform for the attention span (random spans only),
one uniform per inspected slot, one normal for the rating on purchase.

Because the streams are counter-based, a numpy Philox4x64-10 kernel
(``philox``) draws the uniforms of a whole block of customers at once,
equal bit for bit to numpy's own.  Frozen runs are then array code; live
runs walk customers in order over the precomputed uniforms, ask numpy for
the rating draw only, and re-rank after writing the review states of the
products bought since the last re-rank into the ranking columns in place.

Review states are two columns by catalog row, count and mean: a frozen
run reads the catalog's own, a live run writes each purchase into Python
lists, whose counts never wrap.  The trace is columnar: per customer a span
index, the slots viewed and the catalog row bought, per rated purchase the
rating and the review state after it, and the final review columns.
``SimTrace.records`` and ``SimTrace.final_states`` build their objects on
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
from .demand import CostModel, ReviewState, add_rating, posterior, purchase_chance
# perfbench/tracing.py wraps logistic under this module attribute, so it stays importable.
from .demand import logistic  # noqa: F401
from .philox import RatingDraws, draw_blocks
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
    """Totals of a run, and per product, in id order, its final review state
    and posterior mean; ``final_states`` and ``posterior_means`` hold the
    same as dicts, built on first read."""

    gross_revenue: float
    platform_revenue: float
    purchase_count: int
    purchase_rate: float
    per_product_purchases: dict[str, int]
    ids: list[str]
    review_counts: list[int]
    review_means: list[float]
    posterior: list[float]

    @cached_property
    def final_states(self) -> dict[str, tuple[int, float]]:
        return dict(zip(self.ids, zip(self.review_counts, self.review_means)))

    @cached_property
    def posterior_means(self) -> dict[str, float]:
        return dict(zip(self.ids, self.posterior))


@dataclass(frozen=True, eq=False)
class SimTrace:
    """A run as columns.

    Per customer, customer t at index t-1: ``span_index`` into ``spans``,
    the slots ``viewed``, and the catalog row ``purchased`` (-1 for none).
    Per purchase that drew a rating, in customer order: the customer's
    index in ``rated``, the rating, and the review state right after, as
    ``post_counts`` and ``post_means``.  Per catalog row, the final review
    state: ``review_counts`` (int64, or Python ints in an object array once
    one passes int64) and ``review_means``.  ``columns`` are the catalog's,
    for ids, prices and shares.  ``records`` and ``final_states`` are built
    on first read.
    """

    spans: tuple[int, ...]
    span_index: np.ndarray
    viewed: np.ndarray
    purchased: np.ndarray
    rated: list[int]
    ratings: list[float]
    post_counts: list[int]
    post_means: list[float]
    review_counts: np.ndarray
    review_means: np.ndarray
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
    def final_states(self) -> dict[str, ReviewState]:
        states = map(ReviewState, self.review_counts.tolist(), self.review_means.tolist())
        return dict(zip(self.columns.ids, states))

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
    if cfg.clamp_ratings is not None:
        if any(bound != bound for bound in cfg.clamp_ratings):
            raise ValueError(f"clamp_ratings bounds must be numbers, got NaN: {cfg.clamp_ratings}")
        if cfg.clamp_ratings[0] > cfg.clamp_ratings[1]:
            raise ValueError(f"clamp_ratings bounds out of order: {cfg.clamp_ratings}")
    catalog.require_unique_ids()
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


class _Reranker:
    """Two-stage re-ranking over review columns kept in step with the run's.

    A purchase notes its catalog row in ``written``; a re-rank first writes
    those rows' review states into the ranking columns, once each.
    """

    def __init__(self, catalog: Catalog, cfg: SimConfig):
        self.columns = RankingColumns(catalog, cfg.policy)
        self.column_row = np.argsort(self.columns.order)  # catalog row -> column row
        self.slot_count = min(cfg.slot_count, catalog.universe_size)
        self.written: set[int] = set()
        self.overflow: tuple[int, int] | None = None

    def record(self, row: int, count: int) -> None:
        self.written.add(row)
        if count >= MAX_REVIEWS and self.overflow is None:
            # The int64 column cannot hold the count; the next re-rank fails.
            self.overflow = (row, count)

    def rank(self, ids: tuple[str, ...], counts: list[int], means: list[float]) -> tuple[str, ...]:
        if self.overflow is not None:
            row, count = self.overflow
            raise ValueError(
                f"product {ids[row]!r}: simulated review count {count} exceeds the "
                f"re-ranking limit of {MAX_REVIEWS - 1}"
            )
        for row in self.written:
            self.columns.set_review_state(self.column_row.item(row), means[row], counts[row])
        self.written.clear()
        pool = RankingPool(self.columns)
        return tuple(pool.take_id() for _ in range(self.slot_count))


def _displayed(catalog: Catalog, slate: tuple[str, ...], reach: int, count_of, mean_of, cfg):
    """The catalog rows of the slate's first ``reach`` products and their purchase chances.

    ``count_of`` and ``mean_of`` give a row's review state as Python numbers.
    """
    rows = [catalog.row(pid) for pid in slate[:reach]]
    c = catalog.columns
    chance = [
        purchase_chance(
            c.ids[row], c.demand.item(row), count_of(row), mean_of(row), c.price.item(row), j,
            cfg.prior, cfg.cost,
        )
        for j, row in enumerate(rows, start=1)
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
    spans = _SpanDraw(cfg.dist)
    run = _frozen_columns if cfg.freeze_beliefs else _live_columns
    traced = run(catalog, cfg, spans)
    return SimTrace(spans=tuple(spans.values), **traced, prior=cfg.prior, columns=catalog.columns)


def _frozen_columns(catalog: Catalog, cfg: SimConfig, spans: _SpanDraw) -> dict:
    """Frozen beliefs: the slate and every slot's purchase chance never change.

    (Re-ranking unchanged review states gives the catalog's own ranking.)
    A customer buys at the first slot j within the span whose uniform falls
    below the slot's chance; no rating is drawn.  Returns the run's
    ``SimTrace`` columns; the final review columns are the catalog's own.
    """
    if cfg.slate is not None:
        slate = cfg.slate
    else:
        slate = two_stage_select(catalog, cfg.slot_count, cfg.policy)[0].slots
    columns = catalog.columns
    offset = int(spans.uses_uniform)
    reach = min(cfg.dist.max_span, len(slate))
    rows, chance = _displayed(catalog, slate, reach, columns.reviews.item, columns.rating.item, cfg)
    chance = np.array(chance)
    bought_row = np.array([*rows, -1])
    span_limits = np.array([min(y, len(slate)) for y in spans.values])
    blocks = []
    for _, _, uniforms in draw_blocks(cfg.seed, cfg.horizon, offset + reach):
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
        review_counts=columns.reviews, review_means=columns.rating,
    )


def count_column(counts: list[int]) -> np.ndarray:
    """Review counts as an int64 column, or as Python ints in an object column
    once one passes int64."""
    try:
        return np.array(counts, dtype=np.int64)
    except OverflowError:
        return np.array(counts, dtype=object)


def _live_columns(catalog: Catalog, cfg: SimConfig, spans: _SpanDraw) -> dict:
    """Live beliefs: customers run in order, each purchase moving a review state.

    Review states live in two lists by catalog row.  Slot chances are
    computed per slate and recomputed for the purchased slot whenever its
    product's review state moves.  Returns the run's ``SimTrace`` columns.
    """
    columns = catalog.columns
    counts, means = columns.reviews.tolist(), columns.rating.tolist()
    reranker = _Reranker(catalog, cfg) if cfg.rerank_every is not None else None
    slate_len = len(cfg.slate) if reranker is None else reranker.slot_count
    offset = int(spans.uses_uniform)
    reach = min(cfg.dist.max_span, slate_len)
    span_limits = [min(y, slate_len) for y in spans.values]
    state_of = (counts.__getitem__, means.__getitem__)
    if reranker is None:
        rows, chance = _displayed(catalog, cfg.slate, reach, *state_of, cfg)
    draws_after = RatingDraws(cfg.seed)
    span_blocks: list[np.ndarray] = []
    viewed_column: list[int] = []
    purchased_column: list[int] = []
    rated: list[int] = []
    ratings: list[float] = []
    post_counts: list[int] = []
    post_means: list[float] = []
    for first, raw, uniforms in draw_blocks(cfg.seed, cfg.horizon, offset + reach):
        index = spans.index(uniforms)
        span_blocks.append(index)
        for i, (k, draws) in enumerate(zip(index.tolist(), uniforms.tolist())):
            t = first + i
            if reranker is not None and (t - 1) % cfg.rerank_every == 0:
                slate = reranker.rank(columns.ids, counts, means)
                rows, chance = _displayed(catalog, slate, reach, *state_of, cfg)
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
                        count, mean = add_rating(counts[purchased], means[purchased], rating)
                        counts[purchased], means[purchased] = count, mean
                        chance[j] = purchase_chance(
                            columns.ids[purchased], columns.demand.item(purchased), count, mean,
                            columns.price.item(purchased), viewed, cfg.prior, cfg.cost,
                        )
                        if reranker is not None:
                            reranker.record(purchased, count)
                        rated.append(t - 1)
                        ratings.append(rating)
                        post_counts.append(count)
                        post_means.append(mean)
                    break
            viewed_column.append(viewed)
            purchased_column.append(purchased)
    return dict(
        span_index=np.concatenate(span_blocks),
        viewed=np.array(viewed_column, dtype=np.int64),
        purchased=np.array(purchased_column, dtype=np.intp),
        rated=rated, ratings=ratings, post_counts=post_counts, post_means=post_means,
        review_counts=count_column(counts), review_means=np.array(means),
    )


def summarize(trace: SimTrace) -> SimSummary:
    """Totals and rates over a trace; platform revenue is share-weighted.

    Revenues are added purchase by purchase, left to right, as floats.  The
    posterior means are one ``posterior`` over the id-sorted review columns.
    """
    columns = trace.columns
    bought = trace.purchased[trace.purchased >= 0]
    rows, first, counts = np.unique(bought, return_index=True, return_counts=True)
    by_first = first.argsort()
    per_product = dict(
        zip([columns.ids[row] for row in rows[by_first].tolist()], counts[by_first].tolist())
    )
    price = columns.price[bought]
    # accumulate adds left to right from 0.0, as a loop would; sum adds pairwise.
    gross = float(np.add.accumulate(np.append(0.0, price))[-1])
    platform = float(np.add.accumulate(np.append(0.0, columns.share[bought] * price))[-1])
    horizon = len(trace.viewed)
    order = sorted(range(len(columns.ids)), key=columns.ids.__getitem__)
    review_counts, review_means = trace.review_counts[order], trace.review_means[order]
    with np.errstate(all="ignore"):  # as Python floats: inf and NaN, no warning
        posterior_means = posterior(trace.prior, review_counts, review_means).tolist()
    return SimSummary(
        gross_revenue=gross,
        platform_revenue=platform,
        purchase_count=len(bought),
        purchase_rate=len(bought) / horizon if horizon else 0.0,
        per_product_purchases=per_product,
        ids=[columns.ids[row] for row in order],
        review_counts=review_counts.tolist(),
        review_means=review_means.tolist(),
        posterior=posterior_means,
    )


def trace_table(trace: SimTrace) -> str:
    """Columnar export: one tab-separated line per customer.

    A line without a rating depends, after ``t``, only on the customer's
    (span, viewed, purchased).  Each customer's triple is coded as one
    integer, each distinct code is formatted once, and the lines are
    gathered by ``np.unique``'s inverse; the lines of rated purchases are
    formatted one by one.
    """
    horizon = len(trace.viewed)
    ids = ["-", *trace.columns.ids]
    viewed_width = int(trace.viewed.max(initial=0)) + 1
    codes = (trace.span_index * viewed_width + trace.viewed) * len(ids) + (trace.purchased + 1)
    unique, inverse = np.unique(codes, return_inverse=True)
    span_viewed, bought = np.divmod(unique, len(ids))
    span, viewed = np.divmod(span_viewed, viewed_width)
    middles = [
        f"\t{trace.spans[k]}\t{v}\t{ids[p]}"
        for k, v, p in zip(span.tolist(), viewed.tolist(), bought.tolist())
    ]
    unrated = np.array([middle + "\t-\t-\t-\n" for middle in middles], dtype=object)
    suffixes = unrated[inverse].tolist()
    rated = zip(trace.rated, trace.ratings, trace.post_counts, trace.post_means)
    for i, rating, count, mean in rated:
        suffixes[i] = f"{middles[inverse.item(i)]}\t{rating!r}\t{count}\t{mean!r}\n"
    lines = chain.from_iterable(zip(range(1, horizon + 1), suffixes))
    header = "t\tspan\tviewed\tpurchased\trating\tpost_reviews\tpost_avg_rating\n"
    return header + ("%d%s" * horizon) % tuple(lines)
