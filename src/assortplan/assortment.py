"""Two-stage threshold ranking with a per-iteration audit trace.

Each iteration computes a quality-weighted review-count cutoff over the
remaining pool, ranks the products that clear it by rating, recomputes a
price-weighted cutoff over that shortlist, filters again, and selects the
first survivor before eliminating it from the pool.  Revenue shares are
never read, so the resulting order cannot favor the platform's own cut.

Both cutoffs are exactly rounded (``math.fsum``), so neither depends on
the order products are listed in.  ``RankingPool`` sorts the products once
by the stage-1 key and keeps them as columns in that order: every round's
shortlist is then a mask over the sorted columns, and a ranking of k slots
out of n products costs O(n log n + k*n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .catalog import Catalog, Product

POLICY_STAGE1_ORDER = "stage1-order"
POLICY_PRICE_DESC = "price-desc"
POLICIES = (POLICY_STAGE1_ORDER, POLICY_PRICE_DESC)


def _weighted_mean(weights: list[float], weighted: list[float]) -> float | None:
    """fsum(weighted) / fsum(weights), or None when the weights sum to zero."""
    mass = math.fsum(weights)
    if mass == 0:
        return None
    return math.fsum(weighted) / mass


def stage1_threshold(products: Iterable[Product]) -> float:
    """Rating-weighted mean review count over the given products.

    Products below this count are not treated as quality evidence no matter
    how high their average rating.  Undefined (raises) when every rating is
    zero.
    """
    products = list(products)
    cutoff = _weighted_mean(
        [p.avg_rating for p in products], [p.avg_rating * p.review_count for p in products]
    )
    if cutoff is None:
        raise ValueError("stage-1 threshold undefined: all ratings are zero")
    return cutoff


def stage2_threshold(products: Iterable[Product]) -> float:
    """Price-weighted mean review count over the given products.

    Undefined (raises) when every price is zero.
    """
    products = list(products)
    cutoff = _weighted_mean(
        [p.price for p in products], [p.price * p.review_count for p in products]
    )
    if cutoff is None:
        raise ValueError("stage-2 threshold undefined: all prices are zero")
    return cutoff


def _review_bound(cutoff: float) -> int | float:
    """The least integer review count that clears ``cutoff``.

    Review counts are integers, so ``count >= cutoff`` holds exactly when
    ``count >= ceil(cutoff)``; comparing the int64 column against an integer
    keeps the test exact where a float comparison would round large counts.
    """
    return math.ceil(cutoff) if math.isfinite(cutoff) else cutoff


@dataclass(frozen=True)
class Ranking:
    """An ordered slate of product ids filling at most slot_count slots."""

    slots: tuple[str, ...]
    slot_count: int


@dataclass(frozen=True)
class IterationRecord:
    """Audit record of one selection round.

    Thresholds are None when undefined for the round's pool (all-zero
    ratings or prices), in which case the documented fallback picked the
    product and fallback_used is set.
    """

    stage1_threshold: float | None
    stage1_order: tuple[str, ...]
    stage2_threshold: float | None
    stage2_passers: tuple[str, ...]
    selected: str
    fallback_used: bool


@dataclass(frozen=True)
class TwoStageTrace:
    """Per-iteration audit trail; iteration i selected slot i of the ranking."""

    iterations: tuple[IterationRecord, ...]

    def to_report(self) -> list[dict]:
        return [
            {
                "iteration": i,
                "stage1_threshold": rec.stage1_threshold,
                "stage1_order": list(rec.stage1_order),
                "stage2_threshold": rec.stage2_threshold,
                "stage2_passers": list(rec.stage2_passers),
                "selected": rec.selected,
                "fallback_used": rec.fallback_used,
            }
            for i, rec in enumerate(self.iterations, start=1)
        ]


class RankingColumns:
    """The inputs of a two-stage ranking as numpy columns in product-id order.

    Built from a catalog's columns with one sort of the ids; no ``Product``
    is read.  The columns are copies, so ``rating`` and ``reviews`` may be
    rewritten in place between rankings (the simulator writes each
    purchase's review state into them) while the catalog stays as it was;
    every ``RankingPool`` built from the columns sorts them afresh.  Price
    and pinned demand are fixed, so the price-desc rank of each product is
    computed once.
    """

    def __init__(self, catalog: Catalog, policy: str = POLICY_STAGE1_ORDER):
        if policy not in POLICIES:
            raise ValueError(f"unknown ordering policy {policy!r}")
        if not catalog.universe_size:
            raise ValueError("iteration pool is empty")
        self.policy = policy
        columns = catalog.columns
        # A stable sort: products sharing an id keep their listing order.
        order = sorted(range(catalog.universe_size), key=columns.ids.__getitem__)
        self.ids = np.array(columns.ids, dtype=object)[order]
        self.rating = columns.rating[order]
        self.reviews = columns.reviews[order]
        self.price = columns.price[order]
        self.price_desc_rank: np.ndarray | None = None
        if policy == POLICY_PRICE_DESC:
            # Each product's rank under (price desc, pinned demand desc, id asc);
            # lexsort is stable and the columns list ids ascending.
            demand = columns.demand[order]
            self.price_desc_rank = np.empty(len(order), dtype=np.intp)
            self.price_desc_rank[np.lexsort((-demand, -self.price))] = np.arange(len(order))


class RankingPool:
    """The products a two-stage ranking has yet to place, as sorted columns.

    Columns are sorted once by the stage-1 key (rating desc, reviews desc,
    id asc) and an ``alive`` mask marks the products still in the pool.  A
    round's stage-1 shortlist is the alive products clearing the cutoff, in
    column order; its stage-2 passers are the shortlist members clearing the
    second cutoff, re-sorted by (price desc, pinned demand desc, id asc)
    under the price-desc policy.

    Fallbacks: with all ratings zero (or no product clearing the stage-1
    cutoff) the most-reviewed product is taken; with the shortlist priced
    at zero throughout (or no member clearing the stage-2 cutoff), its top
    entry is taken.
    """

    def __init__(self, columns: RankingColumns):
        self.policy = columns.policy
        # lexsort is stable and the columns list ids ascending, so id breaks ties.
        order = np.lexsort((-columns.reviews, -columns.rating))
        self.ids = columns.ids[order]
        self.rating = columns.rating[order]
        self.reviews = columns.reviews[order]
        self.price = columns.price[order]
        self.alive = np.ones(len(order), dtype=bool)
        if columns.price_desc_rank is not None:
            self.price_desc_rank = columns.price_desc_rank[order]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.alive))

    def remove(self, product_id: str) -> None:
        """Drop a product from the pool without running a round."""
        self.alive[self.ids == product_id] = False

    def _round(self) -> tuple[IterationRecord, int]:
        """One selection round over the pool: its record and the selected column."""
        live = np.flatnonzero(self.alive)
        if not live.size:
            raise ValueError("iteration pool is empty")
        rating, reviews = self.rating[live], self.reviews[live]
        cutoff1 = _weighted_mean(rating.tolist(), (rating * reviews).tolist())
        if cutoff1 is None:
            shortlist = live[:0]
        else:
            shortlist = live[reviews >= _review_bound(cutoff1)]
        if not shortlist.size:
            # First of the most-reviewed in stage-1 order: highest rating, then id.
            pick = live[np.argmax(reviews)]
            return IterationRecord(cutoff1, (), None, (), self.ids[pick], True), pick
        price, reviews = self.price[shortlist], self.reviews[shortlist]
        cutoff2 = _weighted_mean(price.tolist(), (price * reviews).tolist())
        if cutoff2 is None:
            passers = shortlist[:0]
        else:
            passers = shortlist[reviews >= _review_bound(cutoff2)]
        if self.policy == POLICY_PRICE_DESC:
            passers = passers[np.argsort(self.price_desc_rank[passers])]
        order = tuple(self.ids[shortlist].tolist())
        if passers.size:
            passed = tuple(self.ids[passers].tolist())
            return IterationRecord(cutoff1, order, cutoff2, passed, passed[0], False), passers[0]
        return IterationRecord(cutoff1, order, cutoff2, (), order[0], True), shortlist[0]

    def peek(self) -> IterationRecord:
        """Run one selection round over the pool as it stands."""
        return self._round()[0]

    def take(self) -> IterationRecord:
        """Run one selection round and eliminate the product it selected."""
        record, pick = self._round()
        self.alive[pick] = False
        return record


def run_iteration(pool: Sequence[Product], policy: str = POLICY_STAGE1_ORDER) -> IterationRecord:
    """Run one selection round over a pool of remaining products."""
    return RankingPool(RankingColumns(Catalog(pool), policy)).peek()


def two_stage_select(
    catalog: Catalog,
    slot_count: int,
    policy: str = POLICY_STAGE1_ORDER,
) -> tuple[Ranking, TwoStageTrace]:
    """Fill up to slot_count slots by iterative two-stage selection.

    Each round removes exactly one product until the slots are filled or
    the catalog is exhausted.  Deterministic: identical catalog and policy
    reproduce the identical ranking and trace, whatever the catalog's
    product order.
    """
    if slot_count < 1:
        raise ValueError(f"slot_count must be >= 1, got {slot_count}")
    if not catalog.universe_size:
        raise ValueError("catalog is empty")
    pool = RankingPool(RankingColumns(catalog, policy))
    iterations = tuple(pool.take() for _ in range(min(slot_count, catalog.universe_size)))
    slots = tuple(rec.selected for rec in iterations)
    return Ranking(slots, slot_count), TwoStageTrace(iterations)
