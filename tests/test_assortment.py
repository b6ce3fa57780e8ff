import dataclasses
import json
import re

import numpy as np
import pytest

from assortplan.assortment import (
    POLICY_PRICE_DESC,
    RankingColumns,
    RankingPool,
    run_iteration,
    two_stage_select,
)
from assortplan.catalog import Catalog, Product
from helpers import product_of, random_catalog
from reference_ranker import stage1_rank, stage2_filter


def by_id(catalog):
    """The mapping from id to product that ``stage2_filter`` reads."""
    return {p.id: p for p in catalog.products}


def demo_rounds(demo):
    """The round records of ranking the demo catalog's first three slots."""
    return two_stage_select(demo, 3)[1].iterations


# The cutoffs are read from the round records: a round's stage-1 cutoff is
# over its whole pool, its stage-2 cutoff over its stage-1 shortlist.
class TestStage1Threshold:
    def test_demo_catalog_cutoff(self, demo):
        # rating-weighted review mass 558289.5 over total rating mass 40
        assert demo_rounds(demo)[0].stage1_threshold == pytest.approx(13957.2375, abs=1e-9)

    def test_single_product(self):
        record = run_iteration([Product(id="X", price=1.0, review_count=100, avg_rating=4.0)])
        assert record.stage1_threshold == 100.0

    def test_equal_ratings_give_plain_mean(self):
        items = [
            Product(id="X", price=1.0, review_count=10, avg_rating=2.0),
            Product(id="Y", price=1.0, review_count=30, avg_rating=2.0),
        ]
        assert run_iteration(items).stage1_threshold == pytest.approx(20.0, abs=1e-12)

    def test_all_zero_ratings_undefined(self):
        items = [Product(id="X", price=1.0, review_count=0, avg_rating=0.0)]
        record = run_iteration(items)
        assert record.stage1_threshold is None
        assert record.stage1_order == ()
        assert record.fallback_used and record.selected == "X"


class TestStage2Threshold:
    def test_first_iteration_shortlist(self, demo):
        expected = (38875974 + 21001400 + 4301115) / (629 + 700 + 299)
        record = demo_rounds(demo)[0]
        assert record.stage1_order == ("F", "A", "B")
        assert record.stage2_threshold == pytest.approx(expected, abs=1e-9)
        assert record.stage2_threshold == pytest.approx(39421.676, abs=1e-3)

    def test_second_iteration_shortlist(self, demo):
        expected = (4301115 + 21001400 + 4952388) / (299 + 700 + 399)
        record = demo_rounds(demo)[1]
        assert record.stage1_order == ("F", "B", "J")
        assert record.stage2_threshold == pytest.approx(expected, abs=1e-9)
        assert record.stage2_threshold == pytest.approx(21641.561, abs=1e-3)

    def test_single_product(self):
        record = run_iteration([Product(id="X", price=10.0, review_count=50, avg_rating=1.0)])
        assert record.stage2_threshold == 50.0

    def test_all_zero_prices_undefined(self):
        items = [Product(id="X", price=0.0, review_count=5, avg_rating=1.0)]
        record = run_iteration(items)
        assert record.stage1_order == ("X",)
        assert record.stage2_threshold is None
        assert record.fallback_used and record.selected == "X"


class TestStage1Rank:
    def test_demo_catalog_shortlist(self, demo):
        cutoff = demo_rounds(demo)[0].stage1_threshold
        assert stage1_rank(demo.products, cutoff) == ["F", "A", "B"]

    def test_empty_input(self):
        assert stage1_rank([], 10.0) == []

    def test_rating_tie_broken_by_review_count(self):
        items = [
            Product(id="B", price=1.0, review_count=30002, avg_rating=4.0),
            Product(id="A", price=1.0, review_count=61806, avg_rating=4.0),
        ]
        assert stage1_rank(items, 0.0) == ["A", "B"]

    def test_full_tie_broken_by_id(self):
        items = [
            Product(id="Y", price=1.0, review_count=10, avg_rating=4.0),
            Product(id="X", price=1.0, review_count=10, avg_rating=4.0),
        ]
        assert stage1_rank(items, 0.0) == ["X", "Y"]


class TestStage2Filter:
    def test_first_iteration_passers(self, demo):
        cutoff = demo_rounds(demo)[0].stage2_threshold
        assert stage2_filter(["F", "A", "B"], cutoff, by_id(demo)) == ["A"]

    def test_default_policy_preserves_order(self, demo):
        assert stage2_filter(["F", "J"], 0.0, by_id(demo)) == ["F", "J"]

    def test_zero_cutoff_is_vacuous(self, demo):
        shortlist = ["F", "A", "B"]
        assert stage2_filter(shortlist, 0.0, by_id(demo)) == shortlist

    def test_price_desc_policy_resorts(self, demo):
        assert stage2_filter(["F", "J"], 0.0, by_id(demo), POLICY_PRICE_DESC) == ["J", "F"]

    def test_price_tie_broken_by_pinned_demand(self):
        products = {
            "X": Product(id="X", price=10.0, review_count=5, avg_rating=1.0, demand_override=0.2),
            "Y": Product(id="Y", price=10.0, review_count=5, avg_rating=1.0, demand_override=0.8),
        }
        assert stage2_filter(["X", "Y"], 0.0, products, POLICY_PRICE_DESC) == ["Y", "X"]

    def test_unknown_policy_rejected(self, demo):
        with pytest.raises(ValueError, match="policy"):
            stage2_filter(["F"], 0.0, by_id(demo), "by-vibes")


def round_after_exhausting(catalog):
    pool = RankingPool(RankingColumns(catalog))
    for _ in range(catalog.universe_size):
        pool.take()
    return pool.take()


class TestTwoStageSelect:
    def test_demo_catalog_top_three(self, demo):
        ranking, trace = two_stage_select(demo, 3)
        assert ranking.slots == ("A", "B", "F")
        assert len(trace.iterations) == 3
        first = trace.iterations[0]
        assert first.stage1_order == ("F", "A", "B")
        assert first.stage1_threshold == pytest.approx(13957.2375, abs=1e-9)
        assert first.stage2_passers == ("A",)
        assert not any(rec.fallback_used for rec in trace.iterations)

    def test_demo_catalog_full_order(self, demo):
        # hand-iterated elimination over all ten products
        ranking, _ = two_stage_select(demo, 10)
        assert ranking.slots == ("A", "B", "F", "J", "G", "E", "C", "I", "H", "D")

    def test_price_desc_policy_differs_in_slot_three(self, demo):
        ranking, _ = two_stage_select(demo, 3, POLICY_PRICE_DESC)
        assert ranking.slots == ("A", "B", "J")

    def test_single_product_exhausts(self):
        catalog = Catalog((Product(id="X", price=2.0, review_count=9, avg_rating=4.0),))
        ranking, trace = two_stage_select(catalog, 3)
        assert ranking.slots == ("X",)
        assert len(trace.iterations) == 1

    def test_revenue_share_never_read(self, demo):
        rng = np.random.default_rng(5)
        baseline, base_trace = two_stage_select(demo, 3)
        shares = rng.permutation([p.revenue_share for p in demo.products])
        shuffled = Catalog(
            tuple(
                dataclasses.replace(p, revenue_share=float(max(s, 0.01)))
                for p, s in zip(demo.products, shares)
            )
        )
        ranking, trace = two_stage_select(shuffled, 3)
        assert ranking == baseline
        assert trace == base_trace

    def test_selected_matches_slots_and_membership(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            catalog = random_catalog(rng)
            slots = int(rng.integers(1, catalog.universe_size + 2))
            ranking, trace = two_stage_select(catalog, slots)
            assert len(ranking.slots) == min(slots, catalog.universe_size)
            assert len(set(ranking.slots)) == len(ranking.slots)
            assert len(trace.iterations) == len(ranking.slots)
            for slot, rec in zip(ranking.slots, trace.iterations):
                assert rec.selected == slot
                if rec.stage1_threshold is not None:
                    for pid in rec.stage1_order:
                        assert product_of(catalog, pid).review_count >= rec.stage1_threshold
                if not rec.fallback_used:
                    chosen = product_of(catalog, rec.selected)
                    assert chosen.review_count >= rec.stage1_threshold
                    assert chosen.review_count >= rec.stage2_threshold

    def test_selected_maximizes_rating_then_reviews_among_passers(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            catalog = random_catalog(rng)
            _, trace = two_stage_select(catalog, catalog.universe_size)
            for rec in trace.iterations:
                if rec.fallback_used or not rec.stage2_passers:
                    continue
                chosen = product_of(catalog, rec.selected)
                for pid in rec.stage2_passers:
                    other = product_of(catalog, pid)
                    assert (chosen.avg_rating, chosen.review_count) >= (
                        other.avg_rating,
                        other.review_count,
                    )

    def test_trace_report_is_deterministic(self, demo):
        _, first = two_stage_select(demo, 3)
        _, second = two_stage_select(demo, 3)
        assert json.dumps(first.to_report()) == json.dumps(second.to_report())

    def test_slot_count_below_one_rejected(self, demo):
        with pytest.raises(ValueError):
            two_stage_select(demo, 0)

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            two_stage_select(Catalog(()), 3)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda demo: two_stage_select(demo, 3, "bogus"), "unknown ordering policy 'bogus'"),
            (lambda demo: run_iteration([]), "iteration pool is empty"),
            (round_after_exhausting, "iteration pool is empty"),
            # A bool used to rank one slot; a float or a string raised TypeError.
            (lambda demo: two_stage_select(demo, True), "slot_count must be an integer, got True"),
            (lambda demo: two_stage_select(demo, 2.5), "slot_count must be an integer, got 2.5"),
            (lambda demo: two_stage_select(demo, "3"), "slot_count must be an integer, got '3'"),
        ],
        ids=["unknown-policy", "empty-pool", "exhausted-pool", "bool-slot-count", "float-slot-count",
             "str-slot-count"],
    )
    def test_library_refusals(self, demo, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(demo)

    def test_fallback_on_all_zero_ratings(self):
        catalog = Catalog(
            (
                Product(id="X", price=3.0, review_count=12, avg_rating=0.0),
                Product(id="Y", price=5.0, review_count=40, avg_rating=0.0),
            )
        )
        ranking, trace = two_stage_select(catalog, 2)
        assert ranking.slots == ("Y", "X")
        assert all(rec.fallback_used for rec in trace.iterations)
        assert all(rec.stage1_threshold is None for rec in trace.iterations)

    def test_fallback_on_all_zero_prices(self):
        # both clear the stage-1 cutoff (40 each); stage 2 cannot price-weight
        catalog = Catalog(
            (
                Product(id="X", price=0.0, review_count=40, avg_rating=4.0),
                Product(id="Y", price=0.0, review_count=40, avg_rating=3.0),
            )
        )
        ranking, trace = two_stage_select(catalog, 1)
        assert ranking.slots == ("X",)
        assert trace.iterations[0].stage1_order == ("X", "Y")
        assert trace.iterations[0].fallback_used
        assert trace.iterations[0].stage2_threshold is None
