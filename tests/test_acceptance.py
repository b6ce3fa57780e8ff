"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import dataclasses
import json
import math
import time
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from assortplan.assortment import POLICIES, two_stage_select
from assortplan.catalog import BeliefPrior, Catalog, Product
from assortplan.cli import main
from assortplan.collusion import substitution_effect
from assortplan.revenue import (
    AttentionSpanDist,
    SlateInputs,
    brute_force_optimize,
    cascade_probs,
    expected_revenue,
    resolve_inputs,
)
from assortplan.simulator import SimConfig, simulate, summarize
from helpers import posterior_means, random_catalog, random_slate_params, random_span_dist
from reference_cascade import expected_revenue_fixed


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({label})")
        raise
    print(f"criterion {number}: PASS ({label})")


def make_inputs(lambdas, prices, omegas) -> SlateInputs:
    ids = tuple(f"P{i}" for i in range(len(lambdas)))
    return SlateInputs(ids, tuple(lambdas), tuple(prices), tuple(omegas))


def test_criterion_01_ranking_reproduction(demo_path, capsys):
    with criterion(1, "two-stage ranking reproduction"):
        start = time.perf_counter()
        code = main(
            ["rank", "--catalog", str(demo_path), "--slots", "3",
             "--trace", "--format", "structured"]
        )
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["ranking"] == ["A", "B", "F"]
        first = doc["trace"][0]
        assert first["stage1_order"] == ["F", "A", "B"]
        assert abs(first["stage1_threshold"] - 13957.2375) <= 1e-6
        assert elapsed < 1.0
    print(f"  ranking A,B,F; stage-1 cutoff {first['stage1_threshold']}; {elapsed:.3f}s")


def test_criterion_02_third_slot_cascade_probabilities(demo):
    with criterion(2, "third-slot cascade probabilities"):
        quality_order = resolve_inputs(demo, ["A", "B", "F"], omega=1.0)
        substituted = resolve_inputs(demo, ["A", "D", "F"], omega=1.0)
        prob_abf = cascade_probs(quality_order.lambdas)[0][2]
        prob_adf = cascade_probs(substituted.lambdas)[0][2]
        assert abs(prob_abf - 0.005625) <= 1e-12
        assert abs(prob_adf - 0.03375) <= 1e-12


def test_criterion_03_revenue_comparison_and_middle_terms(demo):
    with criterion(3, "substitution revenue verdict"):
        analysis = substitution_effect(
            demo, ["A", "B", "F"], 2, "D", AttentionSpanDist.deterministic(3), omega=1.0
        )
        assert analysis.revenue_before == pytest.approx(628.9819, abs=1e-3)
        assert analysis.revenue_after == pytest.approx(608.7864, abs=1e-3)
        assert analysis.revenue_before > analysis.revenue_after
        assert analysis.exact_delta == pytest.approx(-20.1955, abs=1e-3)
        # exact up to double rounding of the literal products
        assert analysis.middle_term_before == pytest.approx(595.0, abs=1e-12)
        assert analysis.middle_term_after == pytest.approx(22.9, abs=1e-12)


def test_criterion_04_cascade_normalization():
    with criterion(4, "cascade probabilities sum to one"):
        rng = np.random.default_rng(404)
        for _ in range(10_000):
            lambdas = rng.uniform(0.001, 0.999, size=int(rng.integers(1, 9)))
            per_slot, no_purchase = cascade_probs(list(lambdas))
            total = math.fsum(per_slot) + no_purchase
            assert abs(total - 1.0) <= 1e-12


def test_criterion_05_span_expectation_dual_form():
    with criterion(5, "pmf-weighted and tail-weighted expectations agree"):
        rng = np.random.default_rng(505)
        for _ in range(1000):
            length = int(rng.integers(1, 9))
            lambdas, prices, omegas = random_slate_params(rng, length)
            inputs = make_inputs(lambdas, prices, omegas)
            dist = random_span_dist(rng, max_span=8)
            value = expected_revenue(inputs, dist)
            prefix = 1.0
            tail_form = 0.0
            for k in range(length):
                tail_form += prefix * lambdas[k] * prices[k] * omegas[k] * dist.tail(k + 1)
                prefix *= 1.0 - lambdas[k]
            assert abs(value - tail_form) <= 1e-10


def test_criterion_06_swap_delta_and_sort_optimality():
    with criterion(6, "adjacent-swap delta and price*share sort optimality"):
        start = time.perf_counter()
        rng = np.random.default_rng(606)
        for _ in range(10_000):
            length = int(rng.integers(2, 9))
            lambdas, prices, omegas = random_slate_params(rng, length)
            inputs = make_inputs(lambdas, prices, omegas)
            i = int(rng.integers(0, length - 1))
            swapped = make_inputs(
                lambdas[:i] + [lambdas[i + 1], lambdas[i]] + lambdas[i + 2 :],
                prices[:i] + [prices[i + 1], prices[i]] + prices[i + 2 :],
                omegas[:i] + [omegas[i + 1], omegas[i]] + omegas[i + 2 :],
            )
            direct = expected_revenue_fixed(swapped, length) - expected_revenue_fixed(
                inputs, length
            )
            prefix = math.prod(1.0 - lam for lam in lambdas[:i])
            closed = (
                prefix
                * lambdas[i]
                * lambdas[i + 1]
                * (prices[i + 1] * omegas[i + 1] - prices[i] * omegas[i])
            )
            assert abs(direct - closed) <= 1e-12

        for _ in range(200):
            length = int(rng.integers(2, 7))
            lambdas, prices, omegas = random_slate_params(rng, length)
            items = list(zip(lambdas, prices, omegas))
            best = max(
                expected_revenue_fixed(make_inputs(*(list(t) for t in zip(*perm))), length)
                for perm in permutations(items)
            )
            ordered = sorted(items, key=lambda t: t[1] * t[2], reverse=True)
            value = expected_revenue_fixed(
                make_inputs(*(list(t) for t in zip(*ordered))), length
            )
            assert value == pytest.approx(best, abs=1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
    print(f"  swap-delta and permutation sweeps in {elapsed:.2f}s")


# One product's (demand, price, share); pinned demand is slot-independent.
SLOT_ITEMS = st.tuples(
    st.sampled_from([1.0, 0.5]) | st.floats(0.001, 1.0),
    st.sampled_from([0.0, 1.0, 10.0]) | st.floats(0.0, 100.0),
    st.sampled_from([1.0, 0.5]) | st.floats(0.05, 1.0),
)


@settings(max_examples=100)
@given(st.lists(SLOT_ITEMS, min_size=2, max_size=6), st.data())
def test_criterion_06_as_a_property(items, data):
    """Criterion 06 under hypothesis: slot-independent demand, a point span covering the slate.

    Exchanging slots i and i+1 changes the value by exactly prefix_i *
    lam_i * lam_{i+1} * (r_{i+1} - r_i) in real arithmetic, r = price *
    share, and leaves every other term alone; so no order of a set of
    products beats the one sorted by r descending.  The float sides agree
    to a few ulps of the values involved (every term is >= 0), or to a few
    subnormals when a term underflows.
    """
    span = data.draw(st.integers(len(items), len(items) + 2))

    def value(order) -> float:
        return expected_revenue_fixed(make_inputs(*(list(t) for t in zip(*order))), span)

    i = data.draw(st.integers(0, len(items) - 2))
    swapped = [*items[:i], items[i + 1], items[i], *items[i + 2 :]]
    before, after = value(items), value(swapped)
    (lam_a, price_a, share_a), (lam_b, price_b, share_b) = items[i], items[i + 1]
    prefix = math.prod(1.0 - lam for lam, _, _ in items[:i])
    closed = prefix * lam_a * lam_b * (price_b * share_b - price_a * share_a)
    assert abs((after - before) - closed) <= 1e-13 * (before + after) + 1e-300

    best = max(value(order) for order in permutations(items))
    ordered = sorted(items, key=lambda t: t[1] * t[2], reverse=True)
    assert value(ordered) >= best * (1.0 - 1e-13)


def test_criterion_07_revenue_share_independence():
    with criterion(7, "ranking invariant to revenue-share reassignment"):
        rng = np.random.default_rng(707)
        for _ in range(100):
            catalog = random_catalog(rng)
            slots = int(rng.integers(1, catalog.universe_size + 1))
            baseline = two_stage_select(catalog, slots)
            reshuffled = Catalog(
                tuple(
                    dataclasses.replace(p, revenue_share=float(rng.uniform(0.01, 1.0)))
                    for p in catalog.products
                )
            )
            assert two_stage_select(reshuffled, slots) == baseline


# A product's (price, reviews, rating, share, pinned demand); repeated
# values make ties and cutoffs that land on a review count common.  Prices
# stay on the rating scale, so logit utilities stay moderate.
PRODUCT_ROWS = st.tuples(
    st.sampled_from([1.0, 4.0]) | st.floats(0.0, 8.0),
    st.sampled_from([0, 5, 20]) | st.integers(0, 100_000),
    st.sampled_from([1.0, 4.0]) | st.floats(0.5, 5.0),
    st.floats(0.05, 1.0),
    st.sampled_from([0.5]) | st.floats(0.01, 0.99),
)


@st.composite
def small_catalogs(draw, pinned: bool = True) -> Catalog:
    rows = draw(st.lists(PRODUCT_ROWS, min_size=2, max_size=8))
    return Catalog(
        tuple(
            Product(
                id=f"P{i:02d}",
                price=price,
                review_count=reviews,
                avg_rating=rating if reviews else 0.0,
                revenue_share=share,
                demand_override=demand if pinned else None,
            )
            for i, (price, reviews, rating, share, demand) in enumerate(rows)
        )
    )


@st.composite
def span_dists(draw, max_span: int = 4) -> AttentionSpanDist:
    """A point span, or a pmf over a few spans up to ``max_span``."""
    spans = draw(st.lists(st.integers(1, max_span), min_size=1, max_size=3, unique=True))
    if len(spans) == 1:
        return AttentionSpanDist.deterministic(spans[0])
    weights = draw(st.lists(st.integers(1, 4), min_size=len(spans), max_size=len(spans)))
    return AttentionSpanDist.from_pmf({s: w / sum(weights) for s, w in zip(spans, weights)})


@settings(max_examples=60)
@given(small_catalogs(), st.data(), st.sampled_from(POLICIES))
def test_criterion_07_as_a_property(catalog, data, policy):
    """Criterion 07 under hypothesis: the ranker never reads a revenue share,
    so reassigning every share leaves the ranking and its trace unchanged."""
    n = catalog.universe_size
    slots = data.draw(st.integers(1, n))
    shares = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    reassigned = Catalog(
        tuple(dataclasses.replace(p, revenue_share=w) for p, w in zip(catalog.products, shares))
    )
    assert two_stage_select(reassigned, slots, policy) == two_stage_select(catalog, slots, policy)


def test_criterion_08_oracle_dominance():
    with criterion(8, "exhaustive oracle dominates the two-stage slate"):
        rng = np.random.default_rng(808)
        gaps = []
        for _ in range(50):
            catalog = random_catalog(rng, size=int(rng.integers(2, 9)))
            slots = int(rng.integers(1, 5))
            dist = random_span_dist(rng, max_span=4)
            ranking, _ = two_stage_select(catalog, slots)
            result = brute_force_optimize(catalog, slots, dist, compare=ranking.slots)
            assert result.value >= result.compare_value
            gaps.append(result.gap)
    print(
        f"  two-stage optimality gap over 50 catalogs: mean {np.mean(gaps):.4f}, "
        f"max {np.max(gaps):.4f}, zero-gap share {np.mean(np.array(gaps) == 0):.2f}"
    )


@settings(max_examples=60)
@given(st.booleans(), st.data())
def test_criterion_08_as_a_property(pinned, data):
    """Criterion 08 under hypothesis, for pinned and logit demand and point and
    pmf spans: no slate the oracle can show, the two-stage slate among them,
    is worth more than the oracle's value."""
    catalog = data.draw(small_catalogs(pinned))
    slots = data.draw(st.integers(1, 4))
    dist = data.draw(span_dists())
    prior = None if pinned else BeliefPrior(3.0, 1.0, 4.0)
    ranking, _ = two_stage_select(catalog, slots)
    result = brute_force_optimize(catalog, slots, dist, prior=prior, compare=ranking.slots)
    assert result.value >= result.compare_value


def _simulated_slate(demo, slate: tuple[str, ...], horizon: int) -> dict:
    """A frozen run of ``slate`` (span 3) beside its analytic values."""
    dist = AttentionSpanDist.deterministic(3)
    cfg = SimConfig(
        horizon=horizon,
        seed=42,
        dist=dist,
        prior=BeliefPrior(0.0, 1.0, 1.0),
        slate=slate,
        freeze_beliefs=True,
    )
    start = time.perf_counter()
    trace = simulate(demo, cfg)
    elapsed = time.perf_counter() - start
    inputs = resolve_inputs(demo, list(slate), omega=1.0)
    slot_probs = cascade_probs(inputs.lambdas)[0]
    summary = summarize(trace)
    purchases = summary.per_product_purchases
    # demo shares are all 1, so platform revenue is gross revenue
    exact = expected_revenue(inputs, dist)
    second_moment = math.fsum(p * q * q for p, q in zip(slot_probs, inputs.prices))
    return {
        "elapsed": elapsed,
        "slot_probs": slot_probs,
        "rates": [purchases.get(pid, 0) / horizon for pid in slate],
        "slot_se": [math.sqrt(p * (1 - p) / horizon) for p in slot_probs],
        "exact": exact,
        "mean_revenue": summary.platform_revenue / horizon,
        "se_revenue": math.sqrt((second_moment - exact**2) / horizon),
    }


def test_criterion_09_simulator_convergence(demo):
    with criterion(9, "frozen-belief simulation matches the analytics"):
        horizon = 100_000
        compliant = _simulated_slate(demo, ("A", "B", "F"), horizon)
        # The paper's claim end to end: substituting D for B raises slot 3's
        # purchase rate (0.005625 -> 0.03375) but lowers revenue per customer
        # (628.98 -> 608.79), simulated as well as analytically.
        substituted = _simulated_slate(demo, ("A", "D", "F"), horizon)
        for side, bound in ((compliant, 3), (substituted, 4)):
            for rate, prob, se in zip(side["rates"], side["slot_probs"], side["slot_se"]):
                assert abs(rate - prob) <= bound * se
            assert abs(side["mean_revenue"] - side["exact"]) <= bound * side["se_revenue"]
            assert side["elapsed"] < 10.0
        assert compliant["slot_probs"][2] == pytest.approx(0.005625, abs=1e-12)
        assert substituted["slot_probs"][2] == pytest.approx(0.03375, abs=1e-12)
        assert compliant["exact"] == pytest.approx(628.98, abs=5e-3)
        assert substituted["exact"] == pytest.approx(608.79, abs=5e-3)
        assert substituted["rates"][2] > compliant["rates"][2]
        assert substituted["mean_revenue"] < compliant["mean_revenue"]
    for name, side in (("A-B-F", compliant), ("A-D-F", substituted)):
        print(
            f"  {name}: slot-3 rate {side['rates'][2]:.5f} vs {side['slot_probs'][2]:.5f}; "
            f"mean revenue {side['mean_revenue']:.4f} vs exact {side['exact']:.4f} "
            f"(se {side['se_revenue']:.4f}); {side['elapsed']:.2f}s"
        )


def test_criterion_10_belief_convergence():
    with criterion(10, "posterior converges to true quality"):
        catalog = Catalog(
            (
                Product(
                    id="X",
                    price=2.0,
                    review_count=0,
                    avg_rating=0.0,
                    true_quality=4.0,
                    rating_noise=0.5,
                    demand_override=1 - 1e-12,
                ),
            )
        )
        prior = BeliefPrior(0.0, 1.0, 1.0)  # precision ratio 1
        cfg = SimConfig(
            horizon=1000,
            seed=10,
            dist=AttentionSpanDist.deterministic(1),
            prior=prior,
            slate=("X",),
        )
        trace = simulate(catalog, cfg)
        summary = summarize(trace)
        assert summary.purchase_count == 1000

        engine_posterior = posterior_means(summary)["X"]
        assert abs(engine_posterior - 4.0) < 0.05

        ratings = [r.rating for r in trace.records if r.rating is not None]
        realized_mean = math.fsum(ratings) / len(ratings)
        rho_n = prior.precision_ratio * len(ratings)
        analytic = (prior.prior_mean + rho_n * realized_mean) / (rho_n + 1.0)
        assert abs(engine_posterior - analytic) <= 1e-10
    print(f"  posterior {engine_posterior:.4f} vs true quality 4.0")
