"""The array-backed ranker and the lazy audit against the list-based oracles.

``reference_ranker`` holds the straightforward list implementations; every
test here requires the engine to return exactly what they return: equal
rankings, equal traces (thresholds bit for bit) and equal findings.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import reference_ranker as ref
from assortplan.assortment import (
    _EXACT_SUM_MIN,
    _SCALE,
    POLICIES,
    POLICY_PRICE_DESC,
    RankingColumns,
    RankingPool,
    _exact_sum,
    _scaled_sum,
    run_iteration,
    two_stage_select,
)
from assortplan.catalog import Catalog, Product
from assortplan.collusion import audit_ranking
from assortplan.revenue import AttentionSpanDist

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
    pool, twin = RankingPool(columns), RankingPool(columns)
    while len(pool):
        selected = pool.take().selected
        assert twin.take_id() == selected
        # Removing a product already taken changes nothing.
        pool.remove(selected)
        assert len(pool) == len(twin)
        if len(pool):
            assert pool.peek() == twin.peek()


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
    """What a call returns, or the type of the exception it raised."""
    try:
        return call()
    except (OverflowError, ValueError) as exc:
        return type(exc)


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
# inf, its ValueError on inf - inf and its OverflowError part-way.
OVERFLOW_CASES = {
    "inf-weighted": _catalog(("X", 1.0, 10**10, 1e300), ("Y", 2.0, 5, 4.0), ("Z", 3.0, 50, 3.0)),
    # Σ|rating| is inf, so stage 1 is summed by fsum; the ratings cancel.
    "huge-ratings": _catalog(("X", 1.0, 0, 1e308), ("Y", 2.0, 0, -1e308), ("Z", 3.0, 50, 3.0)),
    "huge-prices": _catalog(("X", 1e308, 10, 4.0), ("Y", 1e308, 10, 4.0), ("Z", 2.0, 5, 3.0)),
}


@pytest.mark.filterwarnings("ignore:overflow encountered")
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
