"""The array-backed ranker and the lazy audit against the list-based oracles.

``reference_ranker`` holds the straightforward list implementations; every
test here requires the engine to return exactly what they return: equal
rankings, equal traces (thresholds bit for bit) and equal findings.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

import reference_ranker as ref
from assortplan.assortment import POLICIES, POLICY_PRICE_DESC, run_iteration, two_stage_select
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
