import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_cascade as ref
from assortplan.assortment import RankingPool, two_stage_select
from assortplan.catalog import BeliefPrior, Catalog, Product
from assortplan.cli import main
from assortplan.collusion import (
    KIND_BELOW_STAGE1,
    KIND_BELOW_STAGE2,
    KIND_ORDER_VIOLATION,
    KIND_REVENUE_DOMINATED,
    audit_ranking,
    findings_report,
    substitution_effect,
)
from assortplan.demand import CostModel
from assortplan.revenue import (
    AttentionSpanDist,
    brute_force_optimize,
    cascade_probs,
    expected_revenue,
    resolve_inputs,
)
from helpers import random_catalog

DIST3 = AttentionSpanDist.deterministic(3)


class TestSubstitutionEffect:
    def test_middle_swap_raises_downstream_but_loses_revenue(self, demo):
        analysis = substitution_effect(demo, ["A", "B", "F"], 2, "D", DIST3, omega=1.0)
        assert analysis.prob_before == pytest.approx(0.005625, abs=1e-12)
        assert analysis.prob_after == pytest.approx(0.03375, abs=1e-12)
        assert analysis.middle_term_before == pytest.approx(595.0, abs=1e-12)
        assert analysis.middle_term_after == pytest.approx(22.9, abs=1e-12)
        assert analysis.revenue_before == pytest.approx(628.981875, abs=1e-9)
        assert analysis.revenue_after == pytest.approx(608.78625, abs=1e-9)
        assert analysis.exact_delta == pytest.approx(-20.195625, abs=1e-9)
        assert analysis.exact_delta == analysis.revenue_after - analysis.revenue_before

    def test_last_slot_has_no_downstream(self, demo):
        analysis = substitution_effect(demo, ["A", "B", "F"], 3, "D", DIST3, omega=1.0)
        assert analysis.prob_before is None
        assert analysis.prob_after is None

    def test_slot_out_of_range_rejected(self, demo):
        with pytest.raises(ValueError, match="slot 3 outside slate of length 2"):
            substitution_effect(demo, ["A", "B"], 3, "D", DIST3)
        # A bool is never read as slot 1, nor a float as any slot.
        for slot in (True, 1.5, 0):
            with pytest.raises(ValueError, match="slot must be"):
                substitution_effect(demo, ["A", "B"], slot, "D", DIST3)

    def test_replacement_already_in_slate_rejected(self, demo):
        with pytest.raises(ValueError, match="already"):
            substitution_effect(demo, ["A", "B"], 1, "B", DIST3)

    def test_unknown_replacement_rejected(self, demo):
        with pytest.raises(KeyError, match="unknown product id"):
            substitution_effect(demo, ["A", "B"], 1, "Z", DIST3)


def _downstream(mid_lambda: float) -> float:
    """The third slot's purchase probability behind a middle slot of demand ``mid_lambda``."""
    return cascade_probs([0.6, mid_lambda, 0.5])[0][2]


class TestSubstitutionRaisesDownstream:
    # Every downstream slot's cascade probability scales by (1 - lambda_mid), so
    # a substitution raises it exactly when the replacement's demand is lower.
    def test_lower_replacement_demand_raises_downstream(self):
        assert _downstream(0.10) > _downstream(0.85)

    def test_equal_demand_changes_nothing(self):
        assert _downstream(0.5) == _downstream(0.5)

    def test_higher_replacement_demand_lowers_downstream(self):
        assert _downstream(0.85) < _downstream(0.10)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
    def test_inputs_outside_open_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="purchase probability must lie in"):
            _downstream(bad)

    def test_quantified_downstream_gain(self):
        # lower middle demand strictly raises the third slot's purchase odds
        rng = np.random.default_rng(53)
        for _ in range(10_000):
            lam1, lam3 = rng.uniform(0.01, 0.99, size=2)
            lam2 = float(rng.uniform(0.02, 0.99))
            lam4 = float(rng.uniform(0.01, lam2 - 0.005)) if lam2 > 0.015 else lam2 / 2
            original = cascade_probs([lam1, lam2, lam3])[0][2]
            swapped = cascade_probs([lam1, lam4, lam3])[0][2]
            assert swapped > original


class TestSubstitutionDeltaDecomposition:
    def test_exact_delta_decomposition(self):
        rng = np.random.default_rng(59)
        for _ in range(5000):
            lam1, lam2, lam3, lam4 = rng.uniform(0.01, 0.99, size=4)
            p2, p3, p4 = rng.uniform(0.0, 50.0, size=3)
            w2, w3, w4 = rng.uniform(0.05, 1.0, size=3)
            p1, w1 = float(rng.uniform(0.0, 50.0)), float(rng.uniform(0.05, 1.0))
            before = (
                lam1 * p1 * w1
                + (1 - lam1) * lam2 * p2 * w2
                + (1 - lam1) * (1 - lam2) * lam3 * p3 * w3
            )
            after = (
                lam1 * p1 * w1
                + (1 - lam1) * lam4 * p4 * w4
                + (1 - lam1) * (1 - lam4) * lam3 * p3 * w3
            )
            closed = (1 - lam1) * ((lam4 * p4 * w4 - lam2 * p2 * w2) + (lam2 - lam4) * lam3 * p3 * w3)
            assert abs((after - before) - closed) <= 1e-12


class TestAuditRanking:
    def test_substituted_slate_flags_threshold_and_revenue(self, demo):
        findings = audit_ranking(demo, ["A", "D", "F"], 3, DIST3, omega=1.0)
        kinds = {(f.kind, f.product_id) for f in findings}
        assert (KIND_BELOW_STAGE1, "D") in kinds
        assert (KIND_REVENUE_DOMINATED, "D") in kinds
        below = next(f for f in findings if f.kind == KIND_BELOW_STAGE1)
        assert below.slot == 2
        assert "95" in below.detail
        dominated = next(f for f in findings if f.kind == KIND_REVENUE_DOMINATED)
        assert dominated.slot == 2
        assert "-20.1956" in dominated.detail
        assert "22.9" in dominated.detail and "595" in dominated.detail

    def test_engine_output_is_clean(self, demo):
        ranking, _ = two_stage_select(demo, 3)
        assert audit_ranking(demo, ranking.slots, 3, DIST3, omega=1.0) == []

    def test_engine_output_is_clean_on_random_catalogs(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            catalog = random_catalog(rng)
            slots = int(rng.integers(1, catalog.universe_size + 1))
            ranking, _ = two_stage_select(catalog, slots)
            assert audit_ranking(catalog, ranking.slots, slots, DIST3) == []

    def test_order_violation_reports_positive_swap_delta(self):
        # the compliant order is X then Y (better rated, more reviewed, and
        # higher price*share); displaying Y first leaves revenue on the table
        catalog = Catalog(
            (
                Product(id="X", price=30.0, review_count=900, avg_rating=4.5,
                        demand_override=0.6),
                Product(id="Y", price=20.0, review_count=800, avg_rating=3.5,
                        demand_override=0.5),
            )
        )
        ranking, _ = two_stage_select(catalog, 2)
        assert ranking.slots == ("X", "Y")
        findings = audit_ranking(catalog, ["Y", "X"], 2, AttentionSpanDist.deterministic(2))
        violations = [f for f in findings if f.kind == KIND_ORDER_VIOLATION]
        assert len(violations) == 1
        assert violations[0].product_id == "Y"
        reported_delta = float(violations[0].detail.rsplit(" ", 1)[1])
        expected_delta = 0.5 * 0.6 * (30.0 - 20.0)
        assert reported_delta == pytest.approx(expected_delta, abs=1e-6)
        assert reported_delta > 0

    def test_substituted_slate_also_flags_displaced_order(self, demo):
        # D sits last in the compliant full ordering, so showing it ahead of F
        # is an inversion on top of the threshold misses
        findings = audit_ranking(demo, ["A", "D", "F"], 3, DIST3, omega=1.0)
        violations = [f for f in findings if f.kind == KIND_ORDER_VIOLATION]
        assert [f.product_id for f in violations] == ["D"]

    def test_stage2_miss_flagged_at_its_iteration(self, demo):
        # F clears every stage-1 cutoff but not iteration 3's stage-2 cutoff
        findings = audit_ranking(demo, ["A", "D", "F"], 3, DIST3, omega=1.0)
        stage2 = [f for f in findings if f.kind == KIND_BELOW_STAGE2]
        assert [(f.product_id, f.slot) for f in stage2] == [("F", 3)]

    def test_compliant_order_stops_once_every_displayed_pair_is_ordered(self, demo, monkeypatch):
        # The compliant order is A B F J G E C I H D.  Its first three picks
        # fill the slots and place A and F, so each displayed pair has a
        # placed member and D, last in the order, is never ranked.
        rounds = []
        take = RankingPool.take
        monkeypatch.setattr(RankingPool, "take", lambda pool: rounds.append(1) or take(pool))
        findings = audit_ranking(demo, ["A", "D", "F"], 3, DIST3, omega=1.0)
        assert len(rounds) == 3
        assert [(f.slot, f.product_id, f.kind) for f in findings] == [
            (2, "D", KIND_BELOW_STAGE1),
            (3, "F", KIND_BELOW_STAGE2),
            (2, "D", KIND_ORDER_VIOLATION),
            (2, "D", KIND_REVENUE_DOMINATED),
        ]

    def test_adjacent_foreign_products_inverted_between_themselves(self, demo):
        # Neither H nor I is in the compliant slate A B; I comes before H in
        # the compliant order, so ranking goes on until I is placed.
        findings = audit_ranking(demo, ["H", "I"], 2, DIST3, omega=1.0)
        violations = [(f.slot, f.product_id) for f in findings if f.kind == KIND_ORDER_VIOLATION]
        assert violations == [(1, "H")]

    def test_order_violations_match_the_full_compliant_order(self):
        rng = np.random.default_rng(67)
        for _ in range(60):
            catalog = random_catalog(rng)
            ids = [p.id for p in catalog.products]
            displayed = [str(pid) for pid in rng.permutation(ids)[: int(rng.integers(1, len(ids) + 1))]]
            slots = int(rng.integers(1, len(ids) + 1))
            order = two_stage_select(catalog, len(ids))[0].slots
            expected = [
                (slot, first)
                for slot, (first, second) in enumerate(zip(displayed, displayed[1:]), start=1)
                if order.index(first) > order.index(second)
            ]
            findings = audit_ranking(catalog, displayed, slots, DIST3)
            assert [(f.slot, f.product_id) for f in findings if f.kind == KIND_ORDER_VIOLATION] == expected

    def test_unknown_displayed_id_rejected(self, demo):
        with pytest.raises(KeyError, match="unknown product id"):
            audit_ranking(demo, ["A", "Z"], 2, DIST3)

    def test_slot_count_below_one_rejected(self, demo):
        # So are a bool, once read as 1, and a float or a string, once a TypeError.
        for slots, message in [(0, "slot_count must be >= 1, got 0"),
                               (True, "slot_count must be an integer, got True"),
                               (2.5, "slot_count must be an integer, got 2.5"),
                               ("3", "slot_count must be an integer, got '3'")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                audit_ranking(demo, ["A", "B"], slots, DIST3)

    def test_duplicate_displayed_ids_rejected(self, demo):
        with pytest.raises(ValueError, match="duplicate"):
            audit_ranking(demo, ["A", "A"], 2, DIST3)

    def test_findings_report_shape(self, demo):
        findings = audit_ranking(demo, ["A", "D", "F"], 3, DIST3, omega=1.0)
        report = findings_report(findings)
        assert all({"slot", "product", "kind", "detail"} == set(r) for r in report)


class TestOrderViolationDelta:
    """The quoted delta is expected_revenue(swapped) - expected_revenue(displayed)."""

    # The compliant order starts A, B, F and ends with D, so showing D ahead
    # of F is an inversion; swapping them adds F's revenue only where the
    # span reaches slot 2, and the closed form prefix*lam_i*lam_j*(r_j - r_i)
    # (0.2625) holds only for a span that covers the slate.
    @pytest.mark.parametrize(
        "span, delta",
        [("y=1", "0"), ("y=2", "10.0675"), ("pmf=1:0.5,3:0.5", "0.13125"), ("y=3", "0.2625")],
    )
    def test_demo_delta_under_each_span(self, demo_path, capsys, span, delta):
        argv = ["audit", "--catalog", str(demo_path), "--displayed", "A,D,F", "--span", span]
        assert main([*argv, "--omega", "uniform:1.0"]) == 1
        out = capsys.readouterr().out
        assert (
            "finding slot 2 product D order-violation: D is displayed ahead of F against the "
            f"compliant order; swapping them changes expected revenue by {delta}\n"
        ) in out

    def test_logit_delta_counts_each_slot_demand(self, demo):
        # With a position cost each product's demand depends on its slot, so
        # the closed form (about -0.00195) even has the wrong sign.
        catalog = Catalog(
            replace(p, price=p.price / 100, demand_override=None) for p in demo.products
        )
        demand = dict(prior=BeliefPrior(4.0, 1.0, 1.0), cost=CostModel(0.5))
        findings = audit_ranking(catalog, ["B", "A", "F"], 3, DIST3, **demand)
        violations = [f for f in findings if f.kind == KIND_ORDER_VIOLATION]
        assert [f.product_id for f in violations] == ["B"]
        exact = ref.expected_revenue(
            ref.resolve_inputs(catalog, ["A", "B", "F"], **demand), DIST3
        ) - ref.expected_revenue(ref.resolve_inputs(catalog, ["B", "A", "F"], **demand), DIST3)
        assert violations[0].detail.endswith(f"changes expected revenue by {exact:.6g}")
        assert exact > 0.05


DEMANDS = st.sampled_from([0.1, 0.3, 0.5]) | st.floats(0.01, 0.99)


@st.composite
def substituted_audits(draw):
    """A random catalog (n <= 8, pinned or logit demand), a span distribution,
    and a displayed slate: the compliant slate with some slots given to
    products from outside it."""
    n = draw(st.integers(2, 8))
    pinned = draw(st.booleans())
    products = []
    for i in range(n):
        reviews = draw(st.sampled_from([0, 1, 40, 900, 25_000]) | st.integers(0, 50_000))
        products.append(
            Product(
                id=f"P{i}",
                # Logit prices stay on the rating scale, where demand is not degenerate.
                price=draw(st.floats(0.0, 100.0 if pinned else 8.0)),
                review_count=reviews,
                avg_rating=draw(st.floats(0.5, 5.0)) if reviews else 0.0,
                revenue_share=draw(st.floats(0.05, 1.0)),
                # Repeated demands make equal next-slot probabilities, which are no rise.
                demand_override=draw(DEMANDS) if pinned else None,
            )
        )
    catalog = Catalog(tuple(products))
    demand = {} if pinned else {
        "prior": BeliefPrior(draw(st.floats(0.0, 5.0)), 1.0, draw(st.floats(0.5, 4.0))),
        "cost": CostModel(draw(st.sampled_from([0.0, 0.1, 0.5]))),
    }
    if draw(st.booleans()):
        dist = AttentionSpanDist.deterministic(draw(st.integers(1, 6)))
    else:
        spans = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
        weights = [draw(st.integers(1, 9)) for _ in spans]
        dist = AttentionSpanDist.from_pmf({y: w / sum(weights) for y, w in zip(spans, weights)})
    slots = draw(st.integers(1, min(n - 1, 5)))
    displayed = list(two_stage_select(catalog, slots)[0].slots)
    outside = [p.id for p in products if p.id not in displayed]
    for slot in draw(st.lists(st.integers(0, slots - 1), min_size=1, max_size=2, unique=True)):
        if outside:
            displayed[slot] = outside.pop(draw(st.integers(0, len(outside) - 1)))
    return catalog, demand, dist, displayed


@settings(max_examples=300)
@given(substituted_audits())
def test_revenue_dominated_swaps_keep_the_papers_claim(case):
    # The paper: a collusive substitution "may raise a product's purchase
    # likelihood but fail to maximize expected revenue".  For every finding,
    # the substituted slate scores at most the optimum (both values are
    # _mixture_value's), and the strict rise of the next slot's probability
    # means the replacement's demand is strictly lower: that slot's
    # probability is the replaced slot's 1 - lambda times a positive float.
    catalog, demand, dist, displayed = case
    findings = audit_ranking(catalog, displayed, len(displayed), dist, **demand)
    compliant = two_stage_select(catalog, len(displayed))[0].slots
    best = None
    for finding in findings:
        if finding.kind != KIND_REVENUE_DOMINATED:
            continue
        idx = finding.slot - 1
        substituted = [*compliant[:idx], finding.product_id, *compliant[idx + 1 :]]
        before = resolve_inputs(catalog, compliant, **demand)
        after = resolve_inputs(catalog, substituted, **demand)
        if best is None:
            best = brute_force_optimize(catalog, len(displayed), dist, **demand).value
        assert expected_revenue(after, dist) <= best
        assert expected_revenue(after, dist) < expected_revenue(before, dist)
        assert 0 < after.lambdas[idx] < before.lambdas[idx] < 1  # which raises downstream odds
