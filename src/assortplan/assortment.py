"""Two-stage threshold ranking with a per-iteration audit trace.

Each iteration computes a quality-weighted review-count cutoff over the
remaining pool, ranks the products that clear it by rating, recomputes a
price-weighted cutoff over that shortlist, filters again, and selects the
first survivor before eliminating it from the pool.  Revenue shares are
never read, so the resulting order cannot favor the platform's own cut.

Both cutoffs are exactly rounded sums (bit for bit ``math.fsum``), so
neither depends on the order products are listed in.  Stage 1's sums are
exact integers, patched as review states are rewritten and products leave,
so a ``RankingPool`` set-up is one O(n log n) sort with no O(n) sum, and a
ranking of k slots out of n products costs O(n log n + k*n).
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


# Below this many addends math.fsum over a list is faster than the kernel.
_EXACT_SUM_MIN = 1000
# Every float is a multiple of 2^-1074, the least subnormal.
_SCALE = 2**1074
# Fewer than 2^26 addends, each of magnitude below this, sum below 2^1000.
_ADDEND_MAX = 2.0**974


def _scaled(x: float) -> int:
    """x * 2^1074 as an exact int (x finite); its ratio's denominator is a power of two."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _scaled_sum(x: np.ndarray) -> int | None:
    """Σx * 2^1074 of a non-empty x as an exact int, or None unless every |x| < 2^974.

    ``np.frexp`` gives each addend as mant * 2^(exp-53), mant an integer below
    2^53.  Split into 26-bit halves, the mantissas are summed per exponent by
    ``np.bincount``, exactly while there are fewer than 2^26 addends, and the
    bins are combined in Python ints, whose true division rounds correctly.
    Addends that could bring Σ|x| to 2^1000 are left to math.fsum, to keep
    its inf, NaN and overflow.
    """
    if len(x) >= 2**26 or not np.abs(x).max() < _ADDEND_MAX:
        return None
    mant, exp = np.frexp(x)
    mant = (mant * 2.0**53).astype(np.int64)
    low = int(exp.min())
    high = np.bincount(exp - low, weights=mant >> 26).tolist()
    rest = np.bincount(exp - low, weights=mant & (2**26 - 1)).tolist()
    total = 0
    for h, r in zip(reversed(high), reversed(rest)):
        total = (total << 1) + (int(h) << 26) + int(r)
    # x * 2^1074 = mant * 2^(exp+1021); a negative shift drops only zero bits.
    shift = low + 1021
    return total << shift if shift >= 0 else total >> -shift


def _exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())`` bit for bit; fsum keeps the sign of an exact zero."""
    total = _scaled_sum(x) if len(x) >= _EXACT_SUM_MIN else None
    return total / _SCALE if total else math.fsum(x.tolist())


def _weighted_mean(weights: np.ndarray, weighted: np.ndarray) -> float | None:
    """Σweighted / Σweights, each exactly rounded, or None when Σweights is zero."""
    mass = _exact_sum(weights)
    return _exact_sum(weighted) / mass if mass else None


def stage1_threshold(products: Iterable[Product]) -> float:
    """Rating-weighted mean review count over the given products.

    Products below this count are not treated as quality evidence no matter
    how high their average rating.  Undefined (raises) when every rating is
    zero.
    """
    products = list(products)
    cutoff = _weighted_mean(
        np.array([p.avg_rating for p in products], dtype=np.float64),
        np.array([p.avg_rating * p.review_count for p in products], dtype=np.float64),
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
        np.array([p.price for p in products], dtype=np.float64),
        np.array([p.price * p.review_count for p in products], dtype=np.float64),
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
    is read.  The columns are copies, so ``set_review_state`` may rewrite a
    product's review state between rankings (the simulator writes each
    purchase's) while the catalog stays as it was; ``weighted`` (rating *
    reviews), ``price_weighted`` and the exact ``sums`` follow, so every
    ``RankingPool`` re-sorts the columns but sums nothing.  Price and pinned
    demand are fixed, so the price-desc rank of each product is computed once.
    """

    def __init__(self, catalog: Catalog, policy: str = POLICY_STAGE1_ORDER):
        if policy not in POLICIES:
            raise ValueError(f"unknown ordering policy {policy!r}")
        if not catalog.universe_size:
            raise ValueError("iteration pool is empty")
        self.policy = policy
        columns = catalog.columns
        # A stable sort: products sharing an id keep their listing order.
        order = np.array(sorted(range(catalog.universe_size), key=columns.ids.__getitem__))
        self.ids = np.array(columns.ids, dtype=object)[order]
        self.rating = columns.rating[order]
        self.reviews = columns.reviews[order]
        self.price = columns.price[order]
        with np.errstate(over="ignore"):  # a product past the float range is inf
            self.weighted = self.rating * self.reviews
            self.price_weighted = self.price * self.reviews
        self._sums = [_scaled_sum(self.rating), _scaled_sum(self.weighted)]
        self._counted: dict[int, tuple[float, float]] = {}  # row -> values in _sums
        self.price_desc_rank: np.ndarray | None = None
        if policy == POLICY_PRICE_DESC:
            # Each product's rank under (price desc, pinned demand desc, id asc);
            # lexsort is stable and the columns list ids ascending.
            demand = columns.demand[order]
            self.price_desc_rank = np.empty(len(order), dtype=np.intp)
            self.price_desc_rank[np.lexsort((-demand, -self.price))] = np.arange(len(order))

    def set_review_state(self, row: int, mean: float, count: int) -> None:
        """Rewrite one product's rating and review count (count < 2^63)."""
        if row not in self._counted:
            self._counted[row] = (self.rating.item(row), self.weighted.item(row))
        self.rating[row] = mean
        self.reviews[row] = count
        self.weighted[row] = mean * count
        self.price_weighted[row] = self.price.item(row) * count

    @property
    def sums(self) -> tuple[int | None, int | None]:
        """Exact Σrating and Σweighted, as ``_scaled_sum`` would give them now; rows
        rewritten since the last read are patched, or their column recounted."""
        for i, column in enumerate((self.rating, self.weighted)):
            for row, counted in self._counted.items():
                new = column.item(row)
                if self._sums[i] is None or not abs(new) < _ADDEND_MAX:
                    self._sums[i] = _scaled_sum(column)
                    break
                self._sums[i] += _scaled(new) - _scaled(counted[i])
        self._counted.clear()
        return tuple(self._sums)


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
        self.weighted = columns.weighted[order]
        self.price_weighted = columns.price_weighted[order]
        self.alive = np.ones(len(order), dtype=bool)
        # Σrating and Σweighted over the alive products, exact and scaled by
        # 2^1074; None leaves that sum to math.fsum in every round.
        self.sums = list(columns.sums)
        if columns.price_desc_rank is not None:
            self.price_desc_rank = columns.price_desc_rank[order]

    def __len__(self) -> int:
        return int(np.count_nonzero(self.alive))

    def _drop(self, row: int) -> None:
        self.alive[row] = False
        for i, column in enumerate((self.rating, self.weighted)):
            if self.sums[i] is not None:
                self.sums[i] -= _scaled(column.item(row))

    def _stage1_sum(self, i: int, column: np.ndarray, live: np.ndarray) -> float:
        total = self.sums[i]
        # An exact zero goes to fsum for its sign, as in _exact_sum.
        return total / _SCALE if total else _exact_sum(column[live])

    def remove(self, product_id: str) -> None:
        """Drop a product from the pool without running a round."""
        for row in np.flatnonzero(self.alive & (self.ids == product_id)).tolist():
            self._drop(row)

    def _select(self) -> tuple:
        """One round: its cutoffs, shortlist, ordered passers and pick, as columns."""
        live = self.alive.nonzero()[0]
        if not live.size:
            raise ValueError("iteration pool is empty")
        try:
            mass = self._stage1_sum(0, self.rating, live)
            cutoff1 = self._stage1_sum(1, self.weighted, live) / mass if mass else None
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"stage-1 threshold sum: {exc}") from None
        if cutoff1 is None:
            shortlist = live[:0]
        else:
            shortlist = live[self.reviews[live] >= _review_bound(cutoff1)]
        if not shortlist.size:
            # First of the most-reviewed in stage-1 order: highest rating, then id.
            return cutoff1, shortlist, None, shortlist, live[self.reviews[live].argmax()]
        try:
            cutoff2 = _weighted_mean(self.price[shortlist], self.price_weighted[shortlist])
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"stage-2 threshold sum: {exc}") from None
        if cutoff2 is None:
            passers = shortlist[:0]
        else:
            passers = shortlist[self.reviews[shortlist] >= _review_bound(cutoff2)]
        if self.policy == POLICY_PRICE_DESC:
            passers = passers[self.price_desc_rank[passers].argsort()]
        return cutoff1, shortlist, cutoff2, passers, passers[0] if passers.size else shortlist[0]

    def _record(self, cutoff1, shortlist, cutoff2, passers, pick) -> IterationRecord:
        order = tuple(self.ids[shortlist].tolist())
        passed = tuple(self.ids[passers].tolist())
        return IterationRecord(cutoff1, order, cutoff2, passed, self.ids[pick], not passed)

    def peek(self) -> IterationRecord:
        """Run one selection round over the pool as it stands."""
        return self._record(*self._select())

    def take(self) -> IterationRecord:
        """Run one selection round and eliminate the product it selected."""
        selection = self._select()
        self._drop(selection[-1])
        return self._record(*selection)

    def take_id(self) -> str:
        """``take().selected``, without building the round's record."""
        pick = self._select()[-1]
        self._drop(pick)
        return self.ids[pick]


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
