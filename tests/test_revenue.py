import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from assortplan import revenue
from assortplan.catalog import BeliefPrior, Catalog, Product
from assortplan.demand import CostModel
from assortplan.revenue import (
    AttentionSpanDist,
    EnumerationGuardError,
    SlateInputs,
    brute_force_optimize,
    cascade_probs,
    enumeration_count,
    evaluate_slate,
    expected_revenue,
    resolve_inputs,
)
from assortplan.simulator import SimConfig, simulate
from helpers import random_catalog, random_slate_params, random_span_dist
from reference_cascade import expected_revenue_fixed


def make_inputs(lambdas, prices, omegas):
    ids = tuple(f"P{i}" for i in range(len(lambdas)))
    return SlateInputs(ids, tuple(lambdas), tuple(prices), tuple(omegas))


def sub_catalog(catalog, ids):
    return Catalog(tuple(p for p in catalog.products if p.id in ids))


class TestAttentionSpanDist:
    def test_deterministic_point_mass(self):
        dist = AttentionSpanDist.deterministic(3)
        assert dist.kind == "deterministic"
        assert dist.pmf == ((3, 1.0),)
        assert dist.tail(1) == 1.0
        assert dist.tail(3) == 1.0
        assert dist.tail(4) == 0.0

    def test_pmf_tail_values(self):
        dist = AttentionSpanDist.from_pmf({1: 0.5, 3: 0.5})
        assert dist.tail(1) == pytest.approx(1.0, abs=1e-15)
        assert dist.tail(2) == pytest.approx(0.5, abs=1e-15)
        assert dist.tail(3) == pytest.approx(0.5, abs=1e-15)
        assert dist.tail(4) == 0.0
        assert dist.max_span == 3

    def test_tail_nonincreasing_property(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            dist = random_span_dist(rng)
            tails = [dist.tail(y) for y in range(1, dist.max_span + 2)]
            assert tails[0] == pytest.approx(1.0, abs=1e-12)
            assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))

    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            AttentionSpanDist.from_pmf({1: 0.5, 2: 0.6})

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AttentionSpanDist.from_pmf({1: -0.5, 2: 1.5})

    @pytest.mark.parametrize("span", [0, -1])
    def test_spans_below_one_rejected(self, span):
        with pytest.raises(ValueError):
            AttentionSpanDist.deterministic(span)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: AttentionSpanDist.deterministic(True), "span must be an integer >= 1, got True"),
            (lambda: AttentionSpanDist.from_pmf({True: 1.0}), "span values must be integers >= 1, got True"),
            (lambda: AttentionSpanDist.from_pmf([(True, 0.5), (2, 0.5)]),
             "span values must be integers >= 1, got True"),
        ],
        ids=["deterministic", "pmf-mapping", "pmf-pairs"],
    )
    def test_bool_spans_rejected(self, make, message):
        # bool is an int to Python; a flag is never read as span 1.
        with pytest.raises(ValueError) as excinfo:
            make()
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({"a": 0.5, 1: 0.5}, "span values must be integers >= 1, got 'a'"),
            ({1: 0.5, 2: "0.5"}, "span probability must be nonnegative and finite, got '0.5'"),
            ({2: True}, "span probability must be nonnegative and finite, got True"),
        ],
        ids=["str-span", "str-probability", "bool-probability"],
    )
    def test_malformed_pmf_entries_rejected(self, entries, message):
        # Sorting mixed span types and comparing a str with 0 raised TypeError; True passed as 1.0.
        with pytest.raises(ValueError) as excinfo:
            AttentionSpanDist.from_pmf(entries)
        assert str(excinfo.value) == message

    def test_empty_pmf_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            AttentionSpanDist.from_pmf({})

    def test_repeated_span_pairs_rejected(self):
        # dict() of the pairs would keep the last probability of span 1 in silence.
        with pytest.raises(ValueError, match="repeated span 1 in span pmf"):
            AttentionSpanDist.from_pmf([(1, 0.5), (1, 0.5), (2, 0.5)])
        # The first pair that repeats an earlier span is named, as the CLI's spec check does.
        with pytest.raises(ValueError, match="repeated span 2 in span pmf"):
            AttentionSpanDist.from_pmf([(3, 0.25), (2, 0.25), (1, 0.25), (2, 0.0), (3, 0.25)])
        assert AttentionSpanDist.from_pmf([(2, 0.5), (1, 0.5)]).pmf == ((1, 0.5), (2, 0.5))


class TestCascadeProbs:
    def test_low_demand_middle_raises_third_slot(self):
        per_slot, _ = cascade_probs([0.95, 0.10, 0.75])
        assert per_slot[2] == pytest.approx(0.03375, abs=1e-12)

    def test_high_demand_middle_starves_third_slot(self):
        per_slot, _ = cascade_probs([0.95, 0.85, 0.75])
        assert per_slot[2] == pytest.approx(0.005625, abs=1e-12)

    def test_single_slot(self):
        per_slot, no_purchase = cascade_probs([0.3])
        assert per_slot == (0.3,)
        assert no_purchase == pytest.approx(0.7, abs=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.4])
    def test_probabilities_outside_open_interval_rejected(self, lam):
        with pytest.raises(ValueError):
            cascade_probs([0.5, lam])

    def test_normalization_property(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            lambdas = rng.uniform(0.001, 0.999, size=int(rng.integers(1, 9)))
            per_slot, no_purchase = cascade_probs(list(lambdas))
            total = math.fsum(per_slot) + no_purchase
            assert abs(total - 1.0) <= 1e-12


class TestResolveInputs:
    def test_override_precedence(self, demo):
        inputs = resolve_inputs(demo, ["A", "B"])
        assert inputs.lambdas == (0.95, 0.85)

    def test_omega_override(self, demo):
        inputs = resolve_inputs(demo, ["A"], omega=0.4)
        assert inputs.omegas == (0.4,)

    def test_computed_demand_depends_on_slot(self):
        catalog = Catalog((Product(id="X", price=2.0, review_count=4, avg_rating=3.0),))
        prior = BeliefPrior(0.0, 1.0, 1.0)
        cost = CostModel(0.5)
        first = resolve_inputs(catalog, ["X"], prior=prior, cost=cost).lambdas[0]
        # same product re-resolved as if displayed in slot 1 is position free;
        # deeper slots must pay the search cost
        deeper = resolve_inputs(
            Catalog(
                (
                    Product(id="PAD", price=2.0, review_count=4, avg_rating=3.0),
                    catalog.products[0],
                )
            ),
            ["PAD", "X"],
            prior=prior,
            cost=cost,
        ).lambdas[1]
        assert deeper < first

    def test_unknown_id_rejected(self, demo):
        with pytest.raises(KeyError, match="unknown product id"):
            resolve_inputs(demo, ["A", "Z"])

    def test_duplicate_ids_rejected(self, demo):
        with pytest.raises(ValueError, match="duplicate"):
            resolve_inputs(demo, ["A", "A"])

    def test_unresolvable_demand_rejected(self):
        catalog = Catalog((Product(id="X", price=2.0, review_count=4, avg_rating=3.0),))
        with pytest.raises(ValueError, match="unresolvable"):
            resolve_inputs(catalog, ["X"])


class TestExpectedRevenueFixed:
    def test_quality_order_slate(self, demo):
        inputs = resolve_inputs(demo, ["A", "B", "F"], omega=1.0)
        oracle = 0.95 * 629 + 0.05 * 0.85 * 700 + 0.05 * 0.15 * 0.75 * 299
        value = expected_revenue_fixed(inputs, 3)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(628.981875, abs=1e-9)

    def test_substituted_slate(self, demo):
        inputs = resolve_inputs(demo, ["A", "D", "F"], omega=1.0)
        oracle = 597.55 + 1.145 + 10.09125
        value = expected_revenue_fixed(inputs, 3)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(608.78625, abs=1e-9)

    def test_span_one_truncates_to_first_slot(self, demo):
        inputs = resolve_inputs(demo, ["A", "B", "F"], omega=1.0)
        assert expected_revenue_fixed(inputs, 1) == pytest.approx(0.95 * 629, abs=1e-12)

    def test_span_beyond_slate_is_full_slate(self, demo):
        inputs = resolve_inputs(demo, ["A", "B", "F"], omega=1.0)
        assert expected_revenue_fixed(inputs, 9) == expected_revenue_fixed(inputs, 3)

    def test_span_below_one_rejected(self, demo):
        inputs = resolve_inputs(demo, ["A"], omega=1.0)
        with pytest.raises(ValueError):
            expected_revenue_fixed(inputs, 0)

    def test_revenue_shares_scale_terms(self, demo):
        full = expected_revenue_fixed(resolve_inputs(demo, ["A"], omega=1.0), 1)
        half = expected_revenue_fixed(resolve_inputs(demo, ["A"], omega=0.5), 1)
        assert half == pytest.approx(full / 2, abs=1e-12)


class TestExpectedRevenue:
    def test_point_mass_matches_fixed(self, demo):
        inputs = resolve_inputs(demo, ["A", "B", "F"], omega=1.0)
        dist = AttentionSpanDist.deterministic(3)
        assert expected_revenue(inputs, dist) == pytest.approx(
            expected_revenue_fixed(inputs, 3), abs=1e-12
        )

    def test_two_point_mixture(self, demo):
        inputs = resolve_inputs(demo, ["A", "B", "F"], omega=1.0)
        dist = AttentionSpanDist.from_pmf({1: 0.5, 3: 0.5})
        expected = 0.5 * 597.55 + 0.5 * 628.981875
        assert expected_revenue(inputs, dist) == pytest.approx(expected, abs=1e-9)
        assert expected_revenue(inputs, dist) == pytest.approx(613.266, abs=1e-3)

    def test_all_mass_on_first_slot(self, demo):
        inputs = resolve_inputs(demo, ["A", "B", "F"], omega=1.0)
        dist = AttentionSpanDist.from_pmf({1: 1.0})
        assert expected_revenue(inputs, dist) == pytest.approx(0.95 * 629, abs=1e-12)

    def test_mass_beyond_slate_contributes_full_slate(self, demo):
        inputs = resolve_inputs(demo, ["A", "B", "F"], omega=1.0)
        dist = AttentionSpanDist.from_pmf({2: 0.25, 5: 0.75})
        oracle = 0.25 * expected_revenue_fixed(inputs, 2) + 0.75 * expected_revenue_fixed(
            inputs, 3
        )
        assert expected_revenue(inputs, dist) == pytest.approx(oracle, abs=1e-12)

    def test_tail_weighted_form_agrees(self):
        # independent tail-form evaluation against the pmf-mixture path
        rng = np.random.default_rng(29)
        for _ in range(500):
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

    @given(
        st.lists(
            st.tuples(st.floats(1e6, 1e8), st.floats(0.01, 0.99), st.floats(0.05, 1.0)),
            min_size=1,
            max_size=8,
        ),
        st.dictionaries(st.integers(1, 9), st.integers(1, 5), min_size=1, max_size=4),
    )
    def test_large_prices_pass_the_self_check(self, rows, weights):
        # The two forms round differently by a few ulps of the value, which
        # at tens of millions is more than 1e-10 absolute.
        prices, lambdas, omegas = zip(*rows)
        total = sum(weights.values())
        dist = AttentionSpanDist.from_pmf({y: w / total for y, w in weights.items()})
        assert expected_revenue(make_inputs(lambdas, prices, omegas), dist) > 0

    def test_self_check_catches_a_wrong_tail_form(self, demo, monkeypatch):
        def shifted(terms, dist):
            return math.fsum(term * dist.tail(k + 1) for k, term in enumerate(terms, start=1))

        monkeypatch.setattr(revenue, "_tail_value", shifted)
        inputs = resolve_inputs(demo, ["A", "B", "F"], omega=1.0)
        spans = (AttentionSpanDist.deterministic(2), AttentionSpanDist.from_pmf({1: 0.5, 3: 0.5}))
        for dist in spans:
            with pytest.raises(ArithmeticError, match="span-expectation forms disagree"):
                expected_revenue(inputs, dist)

    def test_evaluate_slate_bundles_probs_and_value(self, demo):
        inputs = resolve_inputs(demo, ["A", "B", "F"], omega=1.0)
        per_slot, no_purchase, value = evaluate_slate(inputs, AttentionSpanDist.deterministic(3))
        assert per_slot[2] == pytest.approx(0.005625, abs=1e-12)
        assert value == pytest.approx(628.981875, abs=1e-9)
        total = math.fsum(per_slot) + no_purchase
        assert abs(total - 1.0) <= 1e-12


class TestAdjacentSwap:
    def test_delta_formula_matches_reevaluation(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
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

    def test_descending_price_share_order_is_optimal(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            length = int(rng.integers(2, 7))
            lambdas, prices, omegas = random_slate_params(rng, length)
            items = list(zip(lambdas, prices, omegas))
            best = max(
                expected_revenue_fixed(
                    make_inputs(*(list(t) for t in zip(*perm))), length
                )
                for perm in permutations(items)
            )
            ordered = sorted(items, key=lambda t: t[1] * t[2], reverse=True)
            sorted_value = expected_revenue_fixed(
                make_inputs(*(list(t) for t in zip(*ordered))), length
            )
            assert sorted_value == pytest.approx(best, abs=1e-9)


class TestBruteForceOptimize:
    def test_single_product(self):
        catalog = Catalog(
            (Product(id="X", price=10.0, review_count=5, avg_rating=3.0,
                     revenue_share=0.5, demand_override=0.4),)
        )
        result = brute_force_optimize(catalog, 1, AttentionSpanDist.deterministic(1))
        assert result.slate == ("X",)
        assert result.value == pytest.approx(0.4 * 10.0 * 0.5, abs=1e-12)
        assert result.enumerated == 1

    def test_three_product_optimum_dominates_quality_order(self, demo):
        catalog = sub_catalog(demo, {"A", "B", "F"})
        dist = AttentionSpanDist.deterministic(3)
        result = brute_force_optimize(catalog, 3, dist, omega=1.0, compare=["A", "B", "F"])
        # independent oracle: enumerate all 15 nonempty ordered slates
        ids = [p.id for p in catalog.products]
        best = -1.0
        count = 0
        for m in (1, 2, 3):
            for perm in permutations(ids, m):
                count += 1
                inputs = resolve_inputs(catalog, perm, omega=1.0)
                best = max(best, expected_revenue_fixed(inputs, 3))
        assert count == 15
        assert result.enumerated == 15
        assert result.value == pytest.approx(best, abs=1e-12)
        assert result.value == pytest.approx(686.314375, abs=1e-9)
        assert result.slate == ("B", "A", "F")
        assert result.compare_value == pytest.approx(628.981875, abs=1e-9)
        assert result.gap >= 0

    def test_two_product_hand_enumeration(self):
        catalog = Catalog(
            (
                Product(id="L", price=10.0, review_count=5, avg_rating=3.0, demand_override=0.5),
                Product(id="H", price=20.0, review_count=5, avg_rating=3.0, demand_override=0.5),
            )
        )
        result = brute_force_optimize(catalog, 2, AttentionSpanDist.deterministic(2))
        assert result.slate == ("H", "L")
        assert result.value == pytest.approx(0.5 * 20 + 0.25 * 10, abs=1e-12)

    def test_tie_breaks_to_smallest_id_sequence(self):
        twin = dict(price=10.0, review_count=5, avg_rating=3.0, demand_override=0.5)
        catalog = Catalog((Product(id="Y", **twin), Product(id="X", **twin)))
        result = brute_force_optimize(catalog, 1, AttentionSpanDist.deterministic(1))
        assert result.slate == ("X",)

    def test_oracle_dominates_any_feasible_slate(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            catalog = random_catalog(rng, size=int(rng.integers(2, 6)))
            slots = int(rng.integers(1, 4))
            dist = random_span_dist(rng, max_span=4)
            result = brute_force_optimize(catalog, slots, dist)
            ids = [p.id for p in catalog.products]
            pick = list(rng.choice(ids, size=min(slots, len(ids)), replace=False))
            feasible = expected_revenue(resolve_inputs(catalog, pick), dist)
            assert result.value >= feasible

    def test_universe_guard(self):
        rng = np.random.default_rng(43)
        catalog = random_catalog(rng, size=13)
        with pytest.raises(EnumerationGuardError) as err:
            brute_force_optimize(catalog, 3, AttentionSpanDist.deterministic(3))
        assert err.value.count == enumeration_count(13, 3)

    def test_slot_guard(self):
        rng = np.random.default_rng(47)
        catalog = random_catalog(rng, size=4)
        with pytest.raises(EnumerationGuardError):
            brute_force_optimize(catalog, 9, AttentionSpanDist.deterministic(3))

    @pytest.mark.parametrize(
        "a, b, message",
        [
            # Every slate is worth less than nothing.
            ({"price": -1.0}, {"price": -2.0}, "'A': price -1.0 is negative"),
            ({"revenue_share": -0.5}, {}, "'A': revenue share -0.5 is negative"),
            ({"demand_override": 1.5}, {}, "'A': purchase probability 1.5 at slot 1 outside"),
            ({}, {"demand_override": -0.25}, "'B': purchase probability -0.25 at slot 1 outside"),
        ],
        ids=["price", "share", "lambda-above-1", "lambda-below-0"],
    )
    def test_negative_values_rejected(self, a, b, message):
        base = dict(price=1.0, review_count=1, avg_rating=1.0, demand_override=0.5)
        catalog = Catalog((Product(id="A", **{**base, **a}), Product(id="B", **{**base, **b})))
        with pytest.raises(ValueError, match=message):
            brute_force_optimize(catalog, 2, AttentionSpanDist.deterministic(2))

    def test_nan_demand_rejected(self):
        # An infinite price and rating make the utility inf - inf: NaN demand,
        # which fails every comparison and so must fail the range check.
        catalog = Catalog(
            (
                Product(id="A", price=1.0, review_count=1, avg_rating=1.0, demand_override=0.5),
                Product(id="B", price=math.inf, review_count=1, avg_rating=math.inf),
            )
        )
        with pytest.raises(ValueError, match="'B': purchase probability nan at slot 1 outside"):
            brute_force_optimize(
                catalog, 2, AttentionSpanDist.deterministic(2), prior=BeliefPrior(0.0, 1.0, 1.0)
            )

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            brute_force_optimize(Catalog(()), 1, AttentionSpanDist.deterministic(1))

    def test_repeated_id_rejected_as_simulate_does(self):
        # Both X rows used to be enumerated as different products, giving
        # the slate ('X', 'X') that expected-revenue refuses.
        catalog = Catalog(
            (
                Product(id="X", price=5.0, review_count=1, avg_rating=1.0, demand_override=0.5),
                Product(id="Y", price=1.0, review_count=1, avg_rating=1.0, demand_override=0.5),
                Product(id="X", price=9.0, review_count=1, avg_rating=1.0, demand_override=0.6),
            )
        )
        message = "catalog lists product id 'X' more than once"
        with pytest.raises(ValueError, match=message):
            brute_force_optimize(catalog, 2, AttentionSpanDist.deterministic(2))
        cfg = SimConfig(horizon=5, seed=1, dist=AttentionSpanDist.deterministic(2),
                        prior=BeliefPrior(0.0, 1.0, 1.0), slate=("Y",), freeze_beliefs=True)
        with pytest.raises(ValueError, match=message):
            simulate(catalog, cfg)
