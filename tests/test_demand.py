import math
from dataclasses import replace

import numpy as np
import pytest

from assortplan.catalog import BeliefPrior, Catalog, Product
from assortplan.demand import (
    CostModel,
    ReviewState,
    expected_utility,
    logistic,
    posterior_mean,
    purchase_prob,
    search_cost,
    update_review_state,
)
from assortplan.revenue import AttentionSpanDist, resolve_inputs
from assortplan.simulator import SimConfig, simulate


class TestSearchCost:
    def test_top_slot_is_free(self):
        assert search_cost(1, CostModel(0.3)) == 0.0

    def test_linear_growth(self):
        assert search_cost(4, CostModel(0.3)) == pytest.approx(0.9, abs=1e-12)

    def test_zero_slope(self):
        assert search_cost(7, CostModel(0.0)) == 0.0

    @pytest.mark.parametrize("position", [0, -3])
    def test_positions_below_one_rejected(self, position):
        with pytest.raises(ValueError):
            search_cost(position, CostModel(0.1))

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            CostModel(-0.1)

    def test_strictly_increasing_for_positive_slope(self):
        model = CostModel(0.2)
        costs = [search_cost(j, model) for j in range(1, 20)]
        assert all(b > a for a, b in zip(costs, costs[1:]))


class TestPosteriorMean:
    def test_no_reviews_returns_prior_mean(self):
        prior = BeliefPrior(2.0, 3.0, 1.0)
        assert posterior_mean(prior, ReviewState(0, 0.0)) == 2.0

    def test_single_review_unit_ratio(self):
        # weight 1/2 on the prior, 1/2 on the observed mean
        prior = BeliefPrior(0.0, 1.0, 1.0)
        assert posterior_mean(prior, ReviewState(1, 4.0)) == pytest.approx(2.0, abs=1e-15)

    def test_half_ratio_four_reviews(self):
        # 3/3 + 2*5/3 = 13/3
        prior = BeliefPrior(3.0, 0.5, 1.0)
        assert posterior_mean(prior, ReviewState(4, 5.0)) == pytest.approx(13 / 3, abs=1e-14)

    def test_convex_combination_property(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            prior = BeliefPrior(
                float(rng.normal(0, 5)), float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5))
            )
            state = ReviewState(int(rng.integers(0, 10_000)), float(rng.normal(0, 5)))
            mu = posterior_mean(prior, state)
            lo = min(prior.prior_mean, state.mean)
            hi = max(prior.prior_mean, state.mean)
            assert lo - 1e-12 <= mu <= hi + 1e-12

    def test_monotone_convergence_to_observed_mean(self):
        prior = BeliefPrior(0.0, 2.0, 1.0)
        target = 4.0
        mus = [posterior_mean(prior, ReviewState(n, target)) for n in range(0, 2000, 10)]
        assert all(b > a for a, b in zip(mus, mus[1:]))
        assert mus[-1] == pytest.approx(target, abs=1e-2)


class TestUpdateReviewState:
    def test_first_review_sets_mean(self):
        assert update_review_state(ReviewState(0, 0.0), 4.0) == ReviewState(1, 4.0)

    def test_running_mean(self):
        new = update_review_state(ReviewState(2, 3.0), 5.0)
        assert new.count == 3
        assert new.mean == pytest.approx(11 / 3, abs=1e-12)

    def test_no_purchase_is_identity(self):
        state = ReviewState(7, 4.2)
        assert update_review_state(state, None) is state

    def test_running_mean_identity_property(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            ratings = rng.normal(3.0, 1.5, size=int(rng.integers(1, 400)))
            state = ReviewState(0, 0.0)
            for r in ratings:
                state = update_review_state(state, float(r))
            assert state.count == len(ratings)
            assert state.mean == pytest.approx(float(np.mean(ratings)), abs=1e-12)


class TestExpectedUtility:
    def test_exact_cancellation(self):
        prior = BeliefPrior(2.0, 1.0, 1.0)
        value = expected_utility(prior, ReviewState(0, 0.0), 2.0, 1, CostModel(0.1))
        assert value == 0.0

    def test_positive_margin(self):
        prior = BeliefPrior(0.0, 1.0, 1.0)
        value = expected_utility(prior, ReviewState(1, 4.0), 1.5, 1, CostModel(0.0))
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_position_cost_bites(self):
        prior = BeliefPrior(0.0, 1.0, 1.0)
        value = expected_utility(prior, ReviewState(1, 4.0), 1.5, 3, CostModel(0.25))
        assert value == pytest.approx(0.0, abs=1e-15)


class TestPurchaseProb:
    def test_zero_utility_gives_half(self):
        prior = BeliefPrior(2.0, 1.0, 1.0)
        product = Product(id="X", price=2.0, review_count=0, avg_rating=0.0)
        assert purchase_prob(product, prior, 1, CostModel(0.1)) == 0.5

    def test_override_returned_unchanged(self):
        product = Product(id="A", price=629.0, review_count=61806, avg_rating=4.0,
                          demand_override=0.95)
        assert purchase_prob(product, None, 1, CostModel(0.1)) == 0.95

    def test_logistic_at_minus_two(self):
        # independent evaluation of the logistic function
        expected = math.exp(-2.0) / (1.0 + math.exp(-2.0))
        prior = BeliefPrior(0.0, 1.0, 1.0)
        product = Product(id="X", price=2.0, review_count=0, avg_rating=0.0)
        assert purchase_prob(product, prior, 1, CostModel(0.0)) == pytest.approx(
            expected, abs=1e-15
        )
        assert expected == pytest.approx(0.1192029, abs=1e-7)

    def test_unresolvable_without_prior(self):
        product = Product(id="X", price=2.0, review_count=0, avg_rating=0.0)
        with pytest.raises(ValueError, match="unresolvable"):
            purchase_prob(product, None, 1, CostModel(0.1))

    def test_position_below_one_rejected(self):
        product = Product(id="X", price=2.0, review_count=0, avg_rating=0.0,
                          demand_override=0.5)
        with pytest.raises(ValueError):
            purchase_prob(product, None, 0, CostModel(0.1))

    def test_warning_on_unit_mismatch(self):
        prior = BeliefPrior(0.0, 1.0, 1.0)
        product = Product(id="X", price=629.0, review_count=0, avg_rating=0.0)
        with pytest.warns(RuntimeWarning, match="commensurate") as caught:
            purchase_prob(product, prior, 1, CostModel(0.1))
        # The warning names the line that called purchase_prob.
        assert caught[0].filename == __file__

    def test_pinned_zero_demand_is_no_pin_on_every_path(self):
        # A catalog's demand column holds 0.0 for "no lambda", so a library
        # Product pinned at 0.0 takes the logit path everywhere.
        prior, model = BeliefPrior(4.0, 1.0, 1.0), CostModel(0.1)
        zero = Product(id="Z", price=1.0, review_count=3, avg_rating=4.5, demand_override=0.0,
                       true_quality=4.5, rating_noise=0.5)
        unpinned = replace(zero, demand_override=None)
        logit = purchase_prob(unpinned, prior, 2, model)
        assert 0 < logit < 1
        assert purchase_prob(zero, prior, 2, model) == logit
        with pytest.raises(ValueError, match="unresolvable"):
            purchase_prob(zero, None, 2, model)
        top = Product(id="A", price=1.0, review_count=1, avg_rating=1.0, demand_override=0.5)
        catalog = Catalog((top, zero))
        assert resolve_inputs(catalog, ["A", "Z"], prior=prior, cost=model).lambdas[1] == logit
        cfg = SimConfig(horizon=200, seed=3, dist=AttentionSpanDist.deterministic(2),
                        prior=prior, cost=model, slate=("A", "Z"), freeze_beliefs=True)
        trace = simulate(catalog, cfg)
        assert trace == simulate(Catalog((top, unpinned)), cfg)
        assert trace.summary.per_product_purchases.get("Z", 0) > 0

    def test_decreasing_in_price_and_position(self):
        rng = np.random.default_rng(3)
        prior = BeliefPrior(2.0, 1.0, 1.0)
        model = CostModel(0.2)
        for _ in range(500):
            price = float(rng.uniform(0.0, 4.0))
            position = int(rng.integers(1, 8))
            base = Product(id="X", price=price, review_count=5, avg_rating=3.0)
            p = purchase_prob(base, prior, position, model)
            dearer = Product(id="X", price=price + 0.5, review_count=5, avg_rating=3.0)
            assert purchase_prob(dearer, prior, position, model) < p
            assert purchase_prob(base, prior, position + 1, model) < p

    def test_increasing_in_posterior_mean(self):
        prior = BeliefPrior(0.0, 1.0, 1.0)
        model = CostModel(0.0)
        probs = [
            purchase_prob(
                Product(id="X", price=2.0, review_count=10, avg_rating=q), prior, 1, model
            )
            for q in (1.0, 2.0, 3.0, 4.0)
        ]
        assert all(b > a for a, b in zip(probs, probs[1:]))


class TestLogisticStability:
    @pytest.mark.parametrize("x", [-700.0, -60.0, -1.0, 0.0, 1.0, 60.0, 700.0])
    def test_strictly_inside_unit_interval(self, x):
        p = logistic(x)
        assert 0.0 < p < 1.0
        assert math.isfinite(p)

    def test_no_overflow_across_sweep(self):
        for x in np.linspace(-700, 700, 4001):
            p = logistic(float(x))
            assert 0.0 < p < 1.0

    def test_symmetry(self):
        for x in np.linspace(-30, 30, 601):
            assert logistic(float(x)) + logistic(float(-x)) == pytest.approx(1.0, abs=1e-12)
