"""Two-stage threshold ranking with a per-iteration audit trace.

Each iteration computes a quality-weighted review-count cutoff over the
remaining pool, ranks the products that clear it by rating, recomputes a
price-weighted cutoff over that shortlist, filters again, and selects the
first survivor before eliminating it from the pool.  Revenue shares are
never read, so the resulting order cannot favor the platform's own cut.

Both cutoffs are exactly rounded sums (bit for bit ``math.fsum``), so
neither depends on the order products are listed in.  Stage 1's sums are
exact integers, patched as review states are rewritten and products leave;
the columns stay by catalog row behind one stage-1 permutation, into which
a rewrite moves its row, so a ``RankingPool`` set-up sums and sorts nothing.

A round is a ``Round`` by catalog row: its cutoffs, its shortlist and
price mass, its passers and its pick; ``Round.report`` reads it as an
``IterationRecord`` of ids.  After a few review writes,
``RankingPool.replay`` takes a round again, in work proportional to the
written rows plus one ``math.fsum`` over the shortlist's current price
weights (and a pass over it for new passers), when it can prove from each
written row's count before the write that the shortlist is as it was;
otherwise the caller runs the round afresh.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import POLICIES, POLICY_PRICE_DESC, POLICY_STAGE1_ORDER, Catalog, Product, require_int


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
        """Each record's fields in order after its number; json writes a tuple as a list."""
        return [{"iteration": i, **vars(rec)} for i, rec in enumerate(self.iterations, start=1)]


class RankingColumns:
    """The inputs of a two-stage ranking as numpy columns by catalog row.

    No ``Product`` is read; ``order`` lists the rows in stage-1 order (rating
    desc, NaN last, reviews desc, id asc) and ``position`` is its inverse.
    The review columns are copies, so ``set_review_state`` may rewrite a
    product's review state between rankings (the simulator writes each
    product bought since the last one) while the catalog stays as it was;
    ``weighted``, ``price_weighted``, the exact ``sums`` and the row's place
    in ``order`` follow.  Price and pinned demand are fixed, so each
    price-desc rank is computed once.
    """

    def __init__(self, catalog: Catalog, policy: str = POLICY_STAGE1_ORDER):
        if policy not in POLICIES:
            raise ValueError(f"unknown ordering policy {policy!r}")
        if not catalog.universe_size:
            raise ValueError("iteration pool is empty")
        self.policy = policy
        columns = catalog.columns
        # Catalog rows in id order: a stable sort of them breaks ties by id.
        rows = np.array(sorted(range(catalog.universe_size), key=columns.ids.__getitem__))
        self.ids = np.array(columns.ids, dtype=object)
        self.rating = columns.rating.copy()
        self.reviews = columns.reviews.copy()
        self.price = columns.price
        with np.errstate(over="ignore"):  # a product past the float range is inf
            self.weighted = self.rating * self.reviews
            self.price_weighted = self.price * self.reviews
        # Σrating and Σweighted scaled by 2^1074, None until counted or while undefined.
        self._sums: list[int | None] = [None, None]
        # Per sum, catalog row -> its current value scaled by 2^1074, scaled on first use.
        self._scaled_values: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.price_desc_rank: np.ndarray | None = None
        if policy == POLICY_PRICE_DESC:
            self.price_desc_rank = rank = np.empty_like(rows)  # row -> place by price, demand, id
            rank[rows[np.lexsort((-columns.demand[rows], -self.price[rows]))]] = np.arange(len(rows))
        self.order = order = rows[np.lexsort((-self.reviews[rows], -self.rating[rows]))]
        self.position = np.empty_like(rows)
        self.position[order] = np.arange(len(order))
        # With no price negative or NaN, no price weight is negative, and whether
        # fsum over them overflows part-way does not depend on their order.
        self.replayable = bool((self.price >= 0).all())

    def scaled(self, i: int, row: int) -> int:
        """Row ``row``'s addend to sum i (0 Σrating, 1 Σweighted) times 2^1074,
        while that sum is defined; kept until the row is rewritten."""
        cache = self._scaled_values[i]
        value = cache.get(row)
        if value is None:
            cache[row] = value = _scaled((self.weighted if i else self.rating).item(row))
        return value

    def set_review_state(self, row: int, mean: float, count: int) -> None:
        """Rewrite catalog row ``row``'s rating and review count (count < 2^63) and move
        it into place in ``order``; each defined sum trades its old addend for its new one."""
        old, before = (self.rating.item(row), self.weighted.item(row)), self._key(row)
        self.rating[row] = mean
        self.reviews[row] = count
        self.weighted[row] = mean * count
        self.price_weighted[row] = self.price.item(row) * count
        for i, new in enumerate((self.rating.item(row), self.weighted.item(row))):
            cache, total = self._scaled_values[i], self._sums[i]
            was = cache.pop(row, None)
            if total is not None and abs(new) < _ADDEND_MAX:
                # A defined sum's addends are all finite, the old one too.
                cache[row] = value = _scaled(new)
                self._sums[i] = total - (_scaled(old[i]) if was is None else was) + value
            else:  # a NaN or huge addend leaves the sum to a recount
                self._sums[i] = None
        # Only this row moved: a risen key can break only the pair above, a fallen one the pair below.
        key, at, order = self._key(row), self.position.item(row), self.order
        if key < before and at and key < self._key(order.item(at - 1)):
            dest = bisect_left(order, key, 0, at - 1, key=self._key)
            order[dest + 1 : at + 1] = order[dest:at]
        elif key > before and at + 1 < len(order) and self._key(order.item(at + 1)) < key:
            dest = bisect_left(order, key, at + 2, len(order), key=self._key) - 1
            order[at:dest] = order[at + 1 : dest + 1]
        else:
            return
        order[dest] = row
        low, high = min(at, dest), max(at, dest) + 1
        self.position[order[low:high]] = np.arange(low, high)

    def _key(self, row: int) -> tuple:
        """Row ``row``'s stage-1 sort key; keys order rows as the constructor's ``lexsort`` does."""
        r = self.rating.item(row)
        return r != r, 0.0 if r != r else -r, -self.reviews.item(row), self.ids[row]

    @property
    def sums(self) -> tuple[int | None, int | None]:
        """Exact Σrating and Σweighted, as ``_scaled_sum`` would give them now;
        only an undefined sum is counted again."""
        for i, column in enumerate((self.rating, self.weighted)):
            if self._sums[i] is None:
                self._sums[i] = _scaled_sum(column)
        return tuple(self._sums)


@dataclass(slots=True)
class Round:
    """One round over a pool, by catalog row: its stage-1 cutoff and shortlist,
    the shortlist's price mass (None unless stage 2 ran), its stage-2 cutoff,
    its ordered passers and its pick.  ``RankingPool.replay`` stores new cutoffs,
    passers or a new pick in place, its rows kept in the order first listed."""

    cutoff1: float | None
    shortlist: np.ndarray
    mass: float | None
    cutoff2: float | None
    passers: np.ndarray
    pick: int

    def report(self, ids: np.ndarray) -> IterationRecord:
        """The round's audit record, its catalog rows read as ``ids``."""
        order, passed = tuple(ids[self.shortlist].tolist()), tuple(ids[self.passers].tolist())
        return IterationRecord(self.cutoff1, order, self.cutoff2, passed, ids[self.pick], not passed)


class RankingPool:
    """The products a two-stage ranking has yet to place, a view of the columns.

    The columns are read through ``columns`` as they stand until their next
    write; an ``alive`` mask by catalog row marks the products still in the
    pool.  A round's stage-1 shortlist is the alive products clearing the
    cutoff, in stage-1 order; its stage-2 passers are the shortlist members
    clearing the second cutoff, re-sorted by (price desc, pinned demand
    desc, id asc) under the price-desc policy.

    Fallbacks: with all ratings zero (or no product clearing the stage-1
    cutoff) the most-reviewed product is taken; with the shortlist priced
    at zero throughout (or no member clearing the stage-2 cutoff), its top
    entry is taken.
    """

    def __init__(self, columns: RankingColumns):
        self.columns = columns
        self.alive = np.ones(len(columns.ids), dtype=bool)
        # Σrating and Σweighted over the alive products, exact and scaled by
        # 2^1074; None leaves that sum to math.fsum in every round.
        self.sums = list(columns.sums)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.alive))

    def _stage1_sum(self, i: int, column: np.ndarray, live: np.ndarray) -> float:
        total = self.sums[i]
        # An exact zero goes to fsum for its sign, as in _exact_sum.
        return total / _SCALE if total else _exact_sum(column[live])

    def remove(self, row: int) -> None:
        """Drop catalog row ``row`` from the pool without running a round (if it is still in)."""
        if self.alive.item(row):
            self.alive[row] = False
            for i in (0, 1):
                if self.sums[i] is not None:
                    self.sums[i] -= self.columns.scaled(i, row)

    def select(self) -> Round:
        """One round over the pool as it stands."""
        c = self.columns
        live = c.order[self.alive.take(c.order)]
        if not live.size:
            raise ValueError("iteration pool is empty")
        # math.fsum's OverflowError part-way and its ValueError on inf - inf name the stage.
        try:
            mass = self._stage1_sum(0, c.rating, live)
            cutoff1 = self._stage1_sum(1, c.weighted, live) / mass if mass else None
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"stage-1 threshold sum: {exc}") from None
        if cutoff1 is None:
            shortlist = live[:0]
        else:
            shortlist = live[c.reviews[live] >= _review_bound(cutoff1)]
        if not shortlist.size:
            # First of the most-reviewed in stage-1 order: highest rating, then id.
            return Round(cutoff1, shortlist, None, None, shortlist, live.item(c.reviews[live].argmax()))
        try:
            mass = _exact_sum(c.price[shortlist])
            cutoff2 = _exact_sum(c.price_weighted[shortlist]) / mass if mass else None
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"stage-2 threshold sum: {exc}") from None
        if cutoff2 is None:
            passers = shortlist[:0]
        else:
            passers = shortlist[c.reviews[shortlist] >= _review_bound(cutoff2)]
        if c.policy == POLICY_PRICE_DESC:
            passers = passers[c.price_desc_rank[passers].argsort()]
        pick = passers.item(0) if passers.size else shortlist.item(0)
        return Round(cutoff1, shortlist, mass, cutoff2, passers, pick)

    def take(self) -> Round:
        """Run one round and eliminate its pick."""
        selection = self.select()
        self.remove(selection.pick)
        return selection

    def replay(self, record: Round, written: dict[int, int]) -> int | None:
        """Take ``record`` again after review writes and eliminate its pick, or return None.

        ``record`` is the round as the pool stood before the writes, with the
        same products alive; ``written`` maps each written catalog row to its
        review count before the write.  A fallback, a cutoff that is not
        finite, or a catalog with a negative or NaN price is never replayed.
        The shortlist is the alive rows clearing ``ceil(cutoff1)`` and the
        passers its rows clearing ``ceil(cutoff2)``, so a row's count before
        the write gives its listed and pass status.  With no alive row written
        the round is the recorded one.  Otherwise its shortlist is ``select``'s
        when both stage-1 sums are defined and nonzero, their cutoff rounds up
        as before, and no alive written row entered or left the shortlist; its
        stage-2 cutoff is the fsum of the shortlist's current price weights,
        nonzero and below 2^1000, over ``mass``; both cutoffs are stored.  If
        ``ceil(cutoff2)`` or a written row's pass status moved, the passers are
        taken again from the shortlist (none: a fallback).  With a written
        passer, or new passers, the pick is the passer of least ``position``
        (``price_desc_rank`` under price-desc).  On None the pool and
        ``record`` are unchanged: the caller runs the round afresh.
        """
        c = self.columns
        cutoff1, cutoff2 = record.cutoff1, record.cutoff2
        if not (record.passers.size and c.replayable and math.isfinite(cutoff1) and math.isfinite(cutoff2)):
            return None
        bound1, bound2 = math.ceil(cutoff1), math.ceil(cutoff2)
        moved = promoted = flipped = False
        for row, old in written.items():
            if not self.alive.item(row):
                continue
            moved = True
            count = c.reviews.item(row)
            listed = old >= bound1
            if (count >= bound1) != listed:
                return None
            if listed:
                passed = old >= bound2
                flipped, promoted = flipped or (count >= bound2) != passed, promoted or passed
        if moved:
            total0, total1 = self.sums
            if not (total0 and total1):
                return None
            # As select computes it; the exact sums' quotients are finite and nonzero.
            cutoff1 = total1 / _SCALE / (total0 / _SCALE)
            if not math.isfinite(cutoff1) or math.ceil(cutoff1) != bound1:
                return None
            try:
                total = math.fsum(c.price_weighted[record.shortlist].tolist())
            except OverflowError:  # part-way; with no weight negative, no inf - inf
                return None
            # Zero goes to select for its sign; below 2^1000, with no term
            # negative, fsum overflows part-way in no order of the terms.
            cutoff2 = total / record.mass
            if not (0.0 < total < 2.0**1000 and math.isfinite(cutoff2)):
                return None
            if flipped or math.ceil(cutoff2) != bound2:
                passers = record.shortlist[c.reviews[record.shortlist] >= math.ceil(cutoff2)]
                if not passers.size:  # a fallback
                    return None
                record.passers, promoted = passers, True
            record.cutoff1, record.cutoff2 = cutoff1, cutoff2
        if promoted:
            rank = c.position if c.policy == POLICY_STAGE1_ORDER else c.price_desc_rank
            record.pick = record.passers.item(rank[record.passers].argmin())
        self.remove(record.pick)
        return record.pick


def run_iteration(pool: Sequence[Product], policy: str = POLICY_STAGE1_ORDER) -> IterationRecord:
    """Run one selection round over a pool of remaining products."""
    columns = RankingColumns(Catalog(pool), policy)
    return RankingPool(columns).select().report(columns.ids)


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
    require_int("slot_count", slot_count, least=1)
    if not catalog.universe_size:
        raise ValueError("catalog is empty")
    columns = RankingColumns(catalog, policy)
    pool = RankingPool(columns)
    iterations = tuple(pool.take().report(columns.ids) for _ in range(min(slot_count, catalog.universe_size)))
    slots = tuple(rec.selected for rec in iterations)
    return Ranking(slots, slot_count), TwoStageTrace(iterations)
