"""The array-backed ranker and the lazy audit against the list-based oracles.

``reference_ranker`` holds the straightforward list implementations; every
test here requires the engine to return exactly what they return: equal
rankings, equal traces (thresholds bit for bit) and equal findings.
"""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import reference_ranker as ref
from assortplan.assortment import (
    _EXACT_SUM_MIN,
    _SCALE,
    POLICIES,
    POLICY_PRICE_DESC,
    RankingColumns,
    RankingPool,
    _exact_sum,
    _scaled,
    _scaled_sum,
    run_iteration,
    two_stage_select,
)
from assortplan.catalog import MAX_REVIEWS, Catalog, Product
from assortplan.demand import add_rating
from assortplan.collusion import audit_ranking
from assortplan.revenue import AttentionSpanDist
from assortplan.simulator import _Reranker

# Decimal fractions such as 0.1 and 0.3 are inexact in binary, which is
# where a plain sum() depended on the order of its terms.  Catalogs accept
# negative ratings, which can cancel the rating mass or push the stage-1
# cutoff above every count (both fall back to the most-reviewed product).
RATINGS = st.sampled_from([0.0, 0.1, 0.3, 1.1, 3.3, 4.0, 5.0, -1.1]) | st.floats(-5.0, 5.0)
PRICES = st.sampled_from([0.0, 0.1, 0.7, 1.1, 2.3, 10.0]) | st.floats(0.0, 100.0)
# Small counts make ties and cutoffs landing exactly on a count common.
REVIEWS = st.integers(0, 40) | st.integers(0, 2**63 - 1)
DEMANDS = st.sampled_from([0.2, 0.5]) | st.floats(0.01, 0.99)
DIST = AttentionSpanDist.from_pmf({1: 0.2, 2: 0.3, 4: 0.5})


@st.composite
def catalogs(draw, max_size: int = 8, pinned: bool = False) -> Catalog:
    """Small catalogs; sometimes every rating or every price is zero (the two fallbacks)."""
    mode = draw(st.sampled_from(["mixed", "mixed", "zero-ratings", "zero-prices"]))
    ids = draw(
        st.lists(st.text("ABab", min_size=1, max_size=2), min_size=1, max_size=max_size, unique=True)
    )
    products = []
    for pid in ids:
        reviews = draw(REVIEWS)
        demand = draw(DEMANDS if pinned else st.none() | DEMANDS)
        products.append(
            Product(
                id=pid,
                price=0.0 if mode == "zero-prices" else draw(PRICES),
                review_count=reviews,
                avg_rating=0.0 if mode == "zero-ratings" or not reviews else draw(RATINGS),
                revenue_share=draw(st.floats(0.05, 1.0)),
                demand_override=demand,
            )
        )
    return Catalog(tuple(products))


def _catalog(*rows: tuple) -> Catalog:
    """Rows of (id, price, reviews, rating[, pinned demand])."""
    return Catalog(
        tuple(
            Product(id=row[0], price=row[1], review_count=row[2], avg_rating=row[3],
                    demand_override=row[4] if len(row) > 4 else None)
            for row in rows
        )
    )


# Hand-picked catalogs for the cases the oracle comparison must cover.
CASES = {
    "all-zero-ratings": _catalog(("X", 3.0, 12, 0.0), ("Y", 5.0, 40, 0.0), ("Z", 1.0, 40, 0.0)),
    "all-zero-prices": _catalog(("X", 0.0, 40, 4.0), ("Y", 0.0, 40, 3.0), ("Z", 0.0, 7, 5.0)),
    "rating-and-review-ties": _catalog(
        ("b", 2.0, 30, 4.0), ("a", 3.0, 30, 4.0), ("B", 1.0, 30, 4.0), ("c", 9.0, 50, 4.0),
    ),
    "lambda-ties-price-desc": _catalog(
        ("Y", 10.0, 20, 4.0, 0.5), ("X", 10.0, 20, 4.0, 0.5), ("Z", 10.0, 20, 4.0, 0.8),
        ("W", 10.0, 20, 4.0),
    ),
    # equal ratings make the stage-1 cutoff the plain mean, 20, which M hits exactly
    "cutoff-on-review-count": _catalog(("L", 1.0, 10, 2.0), ("M", 1.0, 20, 2.0), ("H", 1.0, 30, 2.0)),
    "single-product": _catalog(("X", 2.0, 9, 4.0)),
    # plain sum() put the first cutoff on different sides of a count
    # depending on catalog order
    "order-sensitive-sum": _catalog(("P0", 2.3, 39, 3.3), ("P1", 1.1, 15, 3.3), ("P2", 2.3, 26, 1.1)),
    # "B" sorts before "B\x00", but numpy's unicode compare ignores trailing NULs and ties them
    "id-with-a-trailing-nul": _catalog(("B\x00", 2.0, 30, 4.0), ("B", 3.0, 30, 4.0), ("C", 1.0, 10, 3.0)),
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_named_cases_match_oracle(name, policy):
    catalog = CASES[name]
    n = catalog.universe_size
    assert two_stage_select(catalog, n, policy) == ref.two_stage_select(catalog, n, policy)
    shuffled = Catalog(catalog.products[::-1])
    assert two_stage_select(shuffled, n, policy) == two_stage_select(catalog, n, policy)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_record_free_picks_and_removals_keep_the_pool_in_step(name, policy):
    columns = RankingColumns(CASES[name], policy)
    pool, twin, ids = RankingPool(columns), RankingPool(columns), columns.ids
    while len(pool):
        selected = pool.take().report(ids).selected
        assert ids[twin.take().pick] == selected
        # Removing a product already taken changes nothing.
        pool.remove(CASES[name].row(selected))
        assert len(pool) == len(twin)
        if len(pool):
            assert pool.select().report(ids) == twin.select().report(ids)


def test_cutoff_on_review_count_keeps_that_product():
    record = run_iteration(CASES["cutoff-on-review-count"].products)
    assert record.stage1_threshold == 20.0
    assert record.stage1_order == ("H", "M")


def test_lambda_ties_break_by_id_under_price_desc():
    _, trace = two_stage_select(CASES["lambda-ties-price-desc"], 1, POLICY_PRICE_DESC)
    assert trace.iterations[0].stage2_passers == ("Z", "X", "Y", "W")


@given(catalogs(), st.integers(1, 10), st.sampled_from(POLICIES))
def test_ranking_and_trace_match_oracle(catalog, slot_count, policy):
    expected = ref.two_stage_select(catalog, slot_count, policy)
    assert two_stage_select(catalog, slot_count, policy) == expected


@given(catalogs(), st.data(), st.sampled_from(POLICIES))
def test_single_round_matches_oracle(catalog, data, policy):
    pool = data.draw(st.permutations(catalog.products))[: data.draw(st.integers(1, catalog.universe_size))]
    assert run_iteration(pool, policy) == ref.run_iteration(pool, policy)


@given(catalogs(), st.data(), st.sampled_from(POLICIES))
def test_shuffled_catalog_ranks_identically(catalog, data, policy):
    shuffled = Catalog(tuple(data.draw(st.permutations(catalog.products))))
    n = catalog.universe_size
    ranking, trace = two_stage_select(catalog, n, policy)
    assert two_stage_select(shuffled, n, policy) == (ranking, trace)


@given(catalogs(pinned=True), st.data(), st.sampled_from(POLICIES))
def test_audit_matches_oracle(catalog, data, policy):
    n = catalog.universe_size
    slot_count = data.draw(st.integers(1, n))
    engine = list(two_stage_select(catalog, slot_count, policy)[0].slots)
    perturbation = data.draw(st.sampled_from(["engine", "swap", "substitute", "arbitrary"]))
    displayed = list(engine)
    if perturbation == "swap" and len(displayed) >= 2:
        i = data.draw(st.integers(0, len(displayed) - 2))
        displayed[i], displayed[i + 1] = displayed[i + 1], displayed[i]
    elif perturbation == "substitute" and n > len(displayed):
        outsiders = [p.id for p in catalog.products if p.id not in displayed]
        displayed[data.draw(st.integers(0, len(displayed) - 1))] = data.draw(st.sampled_from(outsiders))
    elif perturbation == "arbitrary":
        ids = [p.id for p in catalog.products]
        displayed = data.draw(st.permutations(ids))[: data.draw(st.integers(0, n))]
    findings = audit_ranking(catalog, displayed, slot_count, DIST, policy)
    assert findings == ref.audit_ranking(catalog, displayed, slot_count, DIST, policy)
    if perturbation == "engine":
        assert findings == []


# Values for the exact-sum kernel: every magnitude from the least subnormal
# to the largest float, signed zeros, and the non-finite values fsum rejects
# or passes through.
SUMMANDS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1.0, 3.3,
     1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
) | st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e6, 1e6)


@st.composite
def sum_inputs(draw) -> np.ndarray:
    """Arrays on both sides of the kernel's size crossover.

    Values are drawn from a few distinct summands, scaled by a power of two
    (sums near 2^1024 included) and sometimes followed by their negations in
    reverse order, so that the sum cancels to zero or to a rounding residue.
    """
    size = draw(st.sampled_from([0, 1, 7, _EXACT_SUM_MIN - 1, _EXACT_SUM_MIN, 2500]))
    values = np.array(draw(st.lists(SUMMANDS, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        x = rng.choice(values, size) * 2.0 ** draw(st.sampled_from([0, -60, 60, 1000, 1012]))
    if draw(st.booleans()):
        x = np.concatenate([x, -x[::-1]])
    return x


def _outcome(call):
    """What a call returns, or the type and message of the exception it raised."""
    try:
        return call()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@given(sum_inputs())
@example(np.full(2000, 2.0**1014))  # Σ|x| past 2^1024: fsum's intermediate overflow
@example(np.full(3000, 2.0**990))  # Σ|x| just past 2^1000, the sum finite
@example(np.array([2.0**1023, 2.0**1023, -(2.0**1023), -(2.0**1023)] * 300 + [1.0]))  # exact sum 1.0
@example(np.full(1500, -0.0))
@example(np.array([5e-324, -5e-324] * 600 + [5e-324]))
def test_exact_sum_matches_fsum_bit_for_bit(x):
    expected = _outcome(lambda: math.fsum(x.tolist()).hex())
    assert _outcome(lambda: _exact_sum(x).hex()) == expected
    if isinstance(expected, str):
        assert type(_exact_sum(x)) is float
    scaled = _scaled_sum(x) if x.size else None
    if scaled is not None:
        # The integer form is the exact sum, as RankingPool updates it.
        ratios = map(float.as_integer_ratio, x.tolist())
        assert scaled == sum(num * (_SCALE // den) for num, den in ratios)


# Products or sums past the float range: the cutoffs must keep math.fsum's
# inf, and its ValueError on inf - inf and OverflowError part-way become one
# ValueError naming the stage.
OVERFLOW_CASES = {
    "inf-weighted": _catalog(("X", 1.0, 10**10, 1e300), ("Y", 2.0, 5, 4.0), ("Z", 3.0, 50, 3.0)),
    # Σ|rating| is inf, so stage 1 is summed by fsum; the ratings cancel.
    "huge-ratings": _catalog(("X", 1.0, 0, 1e308), ("Y", 2.0, 0, -1e308), ("Z", 3.0, 50, 3.0)),
    # rating * reviews is inf and -inf: fsum's inf - inf in stage 1.
    "huge-ratings-reviewed": _catalog(
        ("X", 1.0, 3, 1e308), ("Y", 2.0, 5, -1e308), ("Z", 3.0, 50, 3.0)
    ),
    "huge-prices": _catalog(("X", 1e308, 10, 4.0), ("Y", 1e308, 10, 4.0), ("Z", 2.0, 5, 3.0)),
}


@pytest.mark.filterwarnings("error")  # the engine's own products overflow quietly
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(OVERFLOW_CASES))
def test_overflowing_sums_match_oracle(name, policy):
    catalog = OVERFLOW_CASES[name]
    n = catalog.universe_size
    expected = _outcome(lambda: ref.two_stage_select(catalog, n, policy))
    assert _outcome(lambda: two_stage_select(catalog, n, policy)) == expected


def _large_catalog(n: int, seed: int, ties: bool = False) -> Catalog:
    """n products like the benchmark's (lognormal review counts, 5% unreviewed).

    ``ties`` draws review counts from 0-3 and ratings from a few values, so
    cutoffs land on counts, shortlists hold most of the pool and the
    stage-2 sums run through the kernel.
    """
    rng = np.random.default_rng(seed)
    if ties:
        reviews = rng.integers(0, 4, n)
        rating = rng.choice([0.1, 3.3, 4.0, 4.5], n)
    else:
        reviews = 1 + np.floor(rng.lognormal(4.0, 1.5, n)).astype(np.int64)
        reviews[rng.random(n) < 0.05] = 0
        rating = np.round(rng.uniform(1.0, 5.0, n), 1)
    rating[reviews == 0] = 0.0
    price = np.round(rng.uniform(0.5, 6.0, n), 1)
    demand = np.round(rng.uniform(0.05, 0.9, n), 3)
    return Catalog(
        tuple(
            Product(id=f"P{i:05d}", price=float(price[i]), review_count=int(reviews[i]),
                    avg_rating=float(rating[i]), demand_override=float(demand[i]))
            for i in range(n)
        )
    )


LARGE = {
    "lognormal-2000": _large_catalog(2000, 1),
    "lognormal-3000": _large_catalog(3000, 2),
    "ties-2500": _large_catalog(2500, 3, ties=True),
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_catalogs_match_oracle(name, policy):
    catalog = LARGE[name]
    ranking, trace = expected = ref.two_stage_select(catalog, 10, policy)
    assert two_stage_select(catalog, 10, policy) == expected
    if name.startswith("ties"):
        assert max(len(rec.stage1_order) for rec in trace.iterations) >= _EXACT_SUM_MIN
    order = np.random.default_rng(4).permutation(catalog.universe_size)
    shuffled = Catalog(tuple(catalog.products[i] for i in order))
    assert two_stage_select(shuffled, 10, policy) == expected


@pytest.mark.parametrize("policy", POLICIES)
def test_full_ranking_above_crossover_matches_oracle(policy):
    catalog = _large_catalog(1100, 5)
    n = catalog.universe_size
    assert two_stage_select(catalog, n, policy) == ref.two_stage_select(catalog, n, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_perturbed_audit_above_crossover_matches_oracle(policy):
    catalog = _large_catalog(1100, 6)
    engine = list(two_stage_select(catalog, 10, policy)[0].slots)
    # A swap and a substitution from far down the order: the replay removes
    # products the pool would not have picked.
    displayed = engine[:]
    displayed[1], displayed[2] = displayed[2], displayed[1]
    displayed[6] = two_stage_select(catalog, 900, policy)[0].slots[-1]
    findings = audit_ranking(catalog, displayed, 10, DIST, policy)
    assert findings == ref.audit_ranking(catalog, displayed, 10, DIST, policy)
    assert {f.kind for f in findings} >= {"order-violation"}


# Review states a write may set: ratings near ±1e308, where rating * count is
# inf or -inf, counts up to 2^63 - 1, and heavy ties among small counts.
WRITE_RATINGS = RATINGS | st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 2.0**974])
WRITE_COUNTS = st.integers(0, 3) | REVIEWS | st.just(MAX_REVIEWS - 1)


def _hexed(record):
    """A round's record with its thresholds' bits, so that 0.0 and -0.0 differ."""
    cutoffs = (record.stage1_threshold, record.stage2_threshold)
    return record, [None if c is None else c.hex() for c in cutoffs]


def _stage1_ranked(states: dict[str, tuple[int, float]]) -> list[str]:
    """Ids in stage-1 order (rating desc, reviews desc, id asc) of (count, mean) states."""
    return sorted(states, key=lambda pid: (-states[pid][1], -states[pid][0], pid))


def _rewritten(catalog: Catalog, states: dict[str, tuple[int, float]]) -> Catalog:
    return Catalog(
        tuple(
            dataclasses.replace(p, review_count=states[p.id][0], avg_rating=states[p.id][1])
            for p in catalog.products
        )
    )


def _assert_pool_matches_a_fresh_one(written: RankingColumns, catalog: Catalog, k: int):
    """A pool of written columns ranks and traces as one of columns built afresh."""
    fresh_columns = RankingColumns(catalog, written.policy)
    fresh, pool = RankingPool(fresh_columns), RankingPool(written)
    assert written.ids[written.order].tolist() == fresh_columns.ids[fresh_columns.order].tolist()
    expected = _outcome(lambda: [_hexed(fresh.take().report(fresh_columns.ids)) for _ in range(k)])
    assert _outcome(lambda: [_hexed(pool.take().report(written.ids)) for _ in range(k)]) == expected


@given(catalogs(), st.data(), st.sampled_from(POLICIES))
def test_review_writes_match_a_rebuilt_catalog(catalog, data, policy):
    # ``twin`` takes the same writes but is read only when a pool is built,
    # so that it patches and re-sorts several writes, some to one row, at once.
    # ``reranker`` takes them as the simulator does, and re-ranks at each
    # check, replaying the rounds of its last re-rank that the writes allow.
    columns, twin = RankingColumns(catalog, policy), RankingColumns(catalog, policy)
    ids = catalog.columns.ids
    states = {p.id: (p.review_count, p.avg_rating) for p in catalog.products}
    n = len(ids)
    reranker = _Reranker(catalog, SimpleNamespace(policy=policy, slot_count=data.draw(st.integers(1, n))))
    counts, means = catalog.columns.reviews.tolist(), catalog.columns.rating.tolist()
    for _ in range(data.draw(st.integers(1, 8))):
        row = data.draw(st.integers(0, n - 1))
        ranked = _stage1_ranked(states)
        other = ranked[data.draw(st.integers(0, n - 1))]
        kind = data.draw(st.sampled_from(["drawn", "cancel", "tie", "same", "neighbour", "rated"]))
        if kind == "drawn":
            count, mean = data.draw(WRITE_COUNTS), data.draw(WRITE_RATINGS)
        elif kind == "rated":
            # One more rating, as a simulated purchase writes it.
            count, mean = states[ids[row]]
            if count < MAX_REVIEWS - 1:
                count, mean = add_rating(count, mean, data.draw(RATINGS))
        elif kind == "cancel":
            # Cancel another row's rating, so that the sums can reach zero.
            count, mean = states[other][0], -states[other][1]
        elif kind == "tie":
            # Another row's state: the two tie on rating and reviews, and id breaks it.
            count, mean = states[other]
        elif kind == "same":
            count, mean = states[ids[row]]
        else:
            # A rating at, just past or just short of a stage-1 neighbour's.
            at = ranked.index(ids[row])
            near = states[ranked[min(max(at + data.draw(st.sampled_from([-1, 1])), 0), n - 1)]][1]
            count = states[ids[row]][0]
            mean = data.draw(st.sampled_from([near, math.nextafter(near, math.inf),
                                              math.nextafter(near, -math.inf)]))
        columns.set_review_state(row, mean, count)
        twin.set_review_state(row, mean, count)
        reranker.record(row, count)
        assert (columns.rating.item(row), columns.reviews.item(row)) == (mean, count)
        states[ids[row]] = (count, mean)
        counts[row], means[row] = count, mean
        with np.errstate(over="ignore"):
            assert columns.weighted.tobytes() == (columns.rating * columns.reviews).tobytes()
            assert columns.price_weighted.tobytes() == (columns.price * columns.reviews).tobytes()
        assert columns.sums == (_scaled_sum(columns.rating), _scaled_sum(columns.weighted))
        if data.draw(st.booleans()):
            rebuilt = _rewritten(catalog, states)
            k = data.draw(st.integers(1, n))
            for written in (columns, twin):
                _assert_pool_matches_a_fresh_one(written, rebuilt, k)
            fresh = _outcome(lambda: two_stage_select(rebuilt, reranker.slot_count, policy)[0].slots)
            assert _outcome(lambda: reranker.rank(ids, counts, means)) == fresh
            assert twin.sums == columns.sums
            assert columns.ids[columns.order].tolist() == _stage1_ranked(states)
            assert columns.order.tolist() == [catalog.row(pid) for pid in _stage1_ranked(states)]


@pytest.mark.parametrize("policy", POLICIES)
def test_a_write_that_keeps_the_order_does_not_re_sort(policy):
    catalog = _catalog(("A", 1.0, 30, 4.0), ("B", 2.0, 20, 3.0), ("C", 3.0, 10, 2.0))
    columns = RankingColumns(catalog, policy)
    order = columns.order
    columns.set_review_state(catalog.row("B"), 3.5, 21)
    rebuilt = _rewritten(catalog, {"A": (30, 4.0), "B": (21, 3.5), "C": (10, 2.0)})
    _assert_pool_matches_a_fresh_one(columns, rebuilt, 3)
    assert columns.order is order  # never re-sorted
    assert columns.ids[columns.order].tolist() == ["A", "B", "C"]


@pytest.mark.parametrize("policy", POLICIES)
def test_two_adjacent_written_rows_that_swap_are_re_sorted(policy):
    catalog = _catalog(("C", 3.0, 10, 2.0), ("B", 2.0, 20, 3.0), ("A", 1.0, 30, 4.0))
    columns = RankingColumns(catalog, policy)
    assert columns.ids[columns.order].tolist() == ["A", "B", "C"]
    # A falls to B's old rating and B rises past A's: each stays in order with
    # its outer neighbour, and only the written pair is out of order.
    columns.set_review_state(catalog.row("A"), 3.0, 30)
    columns.set_review_state(catalog.row("B"), 3.5, 20)
    rebuilt = _rewritten(catalog, {"A": (30, 3.0), "B": (20, 3.5), "C": (10, 2.0)})
    _assert_pool_matches_a_fresh_one(columns, rebuilt, 3)
    assert columns.ids[columns.order].tolist() == ["B", "A", "C"]
    assert columns.position.tolist() == [2, 0, 1]  # catalog rows C, B, A


# Writes of non-finite and signed-zero means, each list applied in turn: the
# stage-1 order puts a NaN rating last (ties among NaN broken by reviews,
# then id), +inf first and -inf below every number, and -0.0 level with 0.0.
NONFINITE_WRITES = {
    "nan-falls-last": [("A", math.nan, 5)],
    "nan-ties-break-by-reviews-then-id": [("A", math.nan, 5), ("E", math.nan, 9), ("B", math.nan, 5)],
    "nan-rises-back-into-place": [("A", math.nan, 5), ("C", math.nan, 7), ("A", 3.5, 5)],
    "inf-rises-first": [("D", math.inf, 1)],
    "minus-inf-falls-below-every-number": [("E", -math.inf, 9), ("A", math.nan, 1)],
    "inf-falls-to-minus-inf": [("E", math.inf, 9), ("E", -math.inf, 9)],
    "minus-zero-ties-zero": [("A", -0.0, 7)],
    "zero-ties-minus-zero": [("C", -0.0, 7), ("B", 0.0, 7), ("D", -0.0, 7)],
}


@pytest.mark.parametrize("name", sorted(NONFINITE_WRITES))
def test_non_finite_and_signed_zero_writes_keep_a_fresh_order(name):
    catalog = _catalog(
        ("A", 1.0, 5, 4.0), ("B", 2.0, 5, 0.0), ("C", 3.0, 7, 0.0), ("D", 1.5, 5, -1.0), ("E", 2.5, 9, 3.0)
    )
    columns = RankingColumns(catalog)
    states = {p.id: (p.review_count, p.avg_rating) for p in catalog.products}
    for pid, mean, count in NONFINITE_WRITES[name]:
        columns.set_review_state(catalog.row(pid), mean, count)
        states[pid] = (count, mean)
        fresh = RankingColumns(_rewritten(catalog, states))
        assert columns.order.tolist() == fresh.order.tolist()
        assert columns.position.tolist() == fresh.position.tolist()


@st.composite
def shortlisted_catalogs(draw) -> Catalog:
    """Positive ratings, prices and review counts: no round sums to zero, and only a
    stage-2 cutoff rounded above every count falls back."""
    return Catalog(
        tuple(
            Product(id=f"P{i}", price=draw(st.sampled_from([0.5, 1.0, 2.5, 4.0]) | st.floats(0.01, 100.0)),
                    review_count=draw(st.integers(1, 12)),
                    avg_rating=draw(st.sampled_from([1.0, 3.5, 4.0, 4.5]) | st.floats(0.1, 5.0)),
                    demand_override=draw(st.none() | DEMANDS))
            for i in range(draw(st.integers(3, 8)))
        )
    )


@settings(max_examples=100)
@given(shortlisted_catalogs(), st.data(), st.sampled_from(POLICIES))
def test_recomputed_stage_2_matches_a_fresh_round(catalog, data, policy):
    # Review states permuted among the shortlisted rows keep both exact
    # stage-1 sums and every count on its side of the stage-1 bound, so the
    # shortlist stays; the stage-2 bound or a pass status moves.  The replay
    # takes the passers again from the recorded shortlist, and must then
    # agree with a round of a pool built afresh.
    columns = RankingColumns(catalog, policy)
    record = RankingPool(columns).take()
    assume(record.passers.size)  # price * count / price may round above the count
    listed = record.shortlist.tolist()
    recorded = (math.ceil(record.cutoff2), set(record.passers.tolist()))
    states = {p.id: (p.review_count, p.avg_rating) for p in catalog.products}
    drawn = data.draw(st.permutations([states[catalog.columns.ids[row]] for row in listed]))
    written = {}
    for row, (count, mean) in zip(listed, drawn):
        written[row] = columns.reviews.item(row)
        columns.set_review_state(row, mean, count)
        states[catalog.columns.ids[row]] = (count, mean)
    fresh = RankingPool(RankingColumns(_rewritten(catalog, states), policy)).take()
    assume((math.ceil(fresh.cutoff2), set(fresh.passers.tolist())) != recorded)
    assert RankingPool(columns).replay(record, written) == fresh.pick
    # The new cutoffs are stored bit for bit; the passers keep their listed order.
    replayed = (record.cutoff1.hex(), record.cutoff2.hex(), set(record.passers.tolist()))
    assert replayed == (fresh.cutoff1.hex(), fresh.cutoff2.hex(), set(fresh.passers.tolist()))


# Rounds that replay refuses: the two fallbacks, a stage-1 cutoff of -inf
# (a rating times its count overflows) and a catalog with a negative price.
REFUSED_ROUNDS = {
    "stage-1-fallback": CASES["all-zero-ratings"],
    "stage-2-fallback": CASES["all-zero-prices"],
    "non-finite-cutoff": _catalog(("A", 1.0, 5, -1e308), ("B", 2.0, 0, 1e308), ("C", 3.0, 3, 4.0)),
    "negative-price": _catalog(("A", -1.0, 8, 4.0), ("B", 2.0, 6, 3.0), ("C", 3.0, 3, 2.0)),
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(REFUSED_ROUNDS))
def test_replay_refuses_fallbacks_non_finite_cutoffs_and_negative_prices(name, policy):
    columns = RankingColumns(REFUSED_ROUNDS[name], policy)
    record = RankingPool(columns).select()
    # Only the fallbacks lack passers; the other two are refused for their cutoff or price.
    assert (not record.passers.size) == name.endswith("fallback")
    reported = record.report(columns.ids)
    # Unwritten, or written with their own counts, the rows leave the round as it was.
    for written in ({}, {row: columns.reviews.item(row) for row in range(len(columns.ids))}):
        pool = RankingPool(columns)
        sums = list(pool.sums)
        assert pool.replay(record, written) is None
        assert pool.alive.all() and pool.sums == sums
        assert record.report(columns.ids) == reported


def test_review_writes_move_sums_off_and_back_onto_the_int_path():
    columns = RankingColumns(CASES["order-sensitive-sum"])
    assert None not in columns.sums
    columns.set_review_state(1, 1e308, 5)  # rating past 2^974, rating * count inf
    assert columns.sums == (None, None)
    columns.set_review_state(1, -3.3, MAX_REVIEWS - 1)
    assert columns.weighted[1] == -3.3 * float(MAX_REVIEWS - 1)
    assert columns.sums == (_scaled_sum(columns.rating), _scaled_sum(columns.weighted))
    assert None not in columns.sums
    # Cancelling the other two ratings brings Σrating to exactly zero.
    columns.set_review_state(0, 3.3, 39)
    columns.set_review_state(2, 0.0, 26)
    assert columns.sums[0] == 0
    assert columns.sums == (_scaled_sum(columns.rating), _scaled_sum(columns.weighted))


# Writes that leave a sum undefined (NaN, |x| >= 2^974) or sit just inside it.
CACHE_RATINGS = WRITE_RATINGS | st.sampled_from(
    [math.nan, 2.0**974, -(2.0**974), math.nextafter(2.0**974, 0.0), -0.0]
)


def _alive_sum(pool: RankingPool, column: np.ndarray) -> int:
    return _scaled_sum(column[pool.alive]) if pool.alive.any() else 0


@given(catalogs(), st.data(), st.sampled_from(POLICIES))
def test_scaled_value_cache_keeps_both_sums_exact(catalog, data, policy):
    # Any interleaving of writes and pool rounds: after each step the pool's
    # sums are those of its alive rows (None only if undefined when it was
    # built) and the columns' those of every row, and each cached scaled
    # value is its row's current one.
    columns = RankingColumns(catalog, policy)
    ids = catalog.columns.ids
    pool = undefined = None
    for _ in range(data.draw(st.integers(1, 12))):
        step = data.draw(st.sampled_from(["write", "write", "take", "select", "remove"]))
        if step == "write":
            row = data.draw(st.integers(0, len(ids) - 1))
            if data.draw(st.booleans()):  # the row's own current state
                mean, count = columns.rating.item(row), columns.reviews.item(row)
            else:
                mean, count = data.draw(CACHE_RATINGS), data.draw(WRITE_COUNTS)
            columns.set_review_state(row, mean, count)
            pool = None  # a pool reads the columns as they stood until this write
        else:
            if pool is None or not len(pool):
                pool = RankingPool(columns)
                undefined = [total is None for total in pool.sums]
            if step == "remove":
                pool.remove(catalog.row(data.draw(st.sampled_from(columns.ids[pool.alive].tolist()))))
            else:
                try:
                    pool.take() if step == "take" else pool.select()
                except ValueError:  # a threshold sum that fsum cannot round
                    pass
            expected = [_alive_sum(pool, columns.rating), _alive_sum(pool, columns.weighted)]
            assert pool.sums == [None if u else e for u, e in zip(undefined, expected)]
        assert columns.sums == (_scaled_sum(columns.rating), _scaled_sum(columns.weighted))
        for cache, column in zip(columns._scaled_values, (columns.rating, columns.weighted)):
            for row, value in cache.items():
                assert value == _scaled(column.item(row))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [1, 2])
def test_reranks_after_rated_purchases_match_a_fresh_ranking(seed, policy):
    # As in a live simulation: between re-ranks a few shown products are
    # bought and rated.  With twelve products and small review counts a
    # purchase often moves a count across a cutoff or a cutoff across a
    # count, yet more than half the rounds replay; every re-rank must equal
    # a ranking of the rebuilt catalog.
    rng = np.random.default_rng(seed)
    n = 12
    reviews = rng.integers(0, 12, n)
    catalog = Catalog(
        tuple(
            Product(id=f"P{i:02d}", price=float(rng.choice([1.0, 2.5, 4.0])), review_count=int(reviews[i]),
                    avg_rating=float(np.round(rng.uniform(2.0, 5.0), 1)) if reviews[i] else 0.0)
            for i in range(n)
        )
    )
    reranker = _Reranker(catalog, SimpleNamespace(policy=policy, slot_count=5))
    ids = catalog.columns.ids
    counts, means = catalog.columns.reviews.tolist(), catalog.columns.rating.tolist()
    states = {p.id: (p.review_count, p.avg_rating) for p in catalog.products}
    replays, recomputed = [], []
    replay = RankingPool.replay

    def spy(self, record, written):
        recorded = record.passers
        row = replay(self, record, written)
        replays.append(row is not None)
        # A replay that took the passers again from the shortlist stored new ones.
        recomputed.append(row is not None and record.passers is not recorded)
        return row

    slate = reranker.rank(ids, counts, means)
    with mock.patch.object(RankingPool, "replay", spy):
        for _ in range(300):
            for pid in rng.choice(slate, int(rng.integers(0, 4)), replace=False).tolist():
                row = catalog.row(pid)
                counts[row], means[row] = add_rating(counts[row], means[row], float(rng.normal(3.5, 2.0)))
                states[pid] = (counts[row], means[row])
                reranker.record(row, counts[row])
            slate = reranker.rank(ids, counts, means)
            assert slate == two_stage_select(_rewritten(catalog, states), 5, policy)[0].slots
    assert sum(replays) > len(replays) // 2
    assert any(recomputed)
