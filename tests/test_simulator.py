import dataclasses
import json
import math

import numpy as np
import pytest

from assortplan.catalog import BeliefPrior, Catalog, Product, load_catalog
from assortplan.demand import CostModel, add_rating
from assortplan.revenue import AttentionSpanDist, cascade_probs
from assortplan.simulator import (
    SimConfig,
    _validate_config,
    simulate,
    summarize,
    trace_table,
)
from helpers import final_states, posterior_means, product_of
from reference_simulator import summary_document

PRIOR = BeliefPrior(0.0, 1.0, 1.0)
DIST3 = AttentionSpanDist.deterministic(3)


def frozen_config(**overrides) -> SimConfig:
    base = dict(
        horizon=50,
        seed=123,
        dist=DIST3,
        prior=PRIOR,
        slate=("A", "B", "F"),
        freeze_beliefs=True,
    )
    base.update(overrides)
    return SimConfig(**base)


def quality_catalog(**overrides) -> Catalog:
    params = dict(
        id="X",
        price=2.0,
        review_count=0,
        avg_rating=0.0,
        true_quality=4.0,
        rating_noise=0.5,
    )
    params.update(overrides)
    return Catalog((Product(**params),))


class TestMechanics:
    def test_certain_purchase_records_exactly_one(self):
        catalog = Catalog(
            (Product(id="X", price=5.0, review_count=0, avg_rating=0.0, demand_override=1.0),)
        )
        cfg = SimConfig(
            horizon=1,
            seed=7,
            dist=AttentionSpanDist.deterministic(1),
            prior=PRIOR,
            slate=("X",),
            freeze_beliefs=True,
        )
        trace = simulate(catalog, cfg)
        assert len(trace.records) == 1
        assert trace.records[0].purchased == "X"
        assert summarize(trace).purchase_count == 1

    def test_at_most_one_purchase_within_span(self, demo):
        cfg = frozen_config(horizon=300, dist=AttentionSpanDist.from_pmf({1: 0.3, 2: 0.4, 3: 0.3}))
        trace = simulate(demo, cfg)
        assert len(trace.records) == 300
        for record in trace.records:
            assert record.viewed <= min(record.span, 3)
            if record.purchased is not None:
                slot = cfg.slate.index(record.purchased) + 1
                assert slot == record.viewed
                assert slot <= record.span

    def test_frozen_beliefs_never_move(self, demo):
        trace = simulate(demo, frozen_config(horizon=200))
        for pid, state in final_states(summarize(trace)).items():
            product = product_of(demo, pid)
            assert state == (product.review_count, product.avg_rating)
        assert all(r.rating is None and r.post_state is None for r in trace.records)

    def test_review_state_replay_matches_final_states(self):
        catalog = quality_catalog()
        cfg = SimConfig(
            horizon=400, seed=11, dist=AttentionSpanDist.deterministic(1),
            prior=PRIOR, slate=("X",),
        )
        trace = simulate(catalog, cfg)
        state = (0, 0.0)
        for record in trace.records:
            if record.purchased == "X":
                state = add_rating(*state, record.rating)
                assert record.post_state == state
        summary = summarize(trace)
        assert final_states(summary)["X"] == state
        assert state[0] == summary.purchase_count

    def test_clamped_ratings_respect_bounds(self):
        catalog = quality_catalog(rating_noise=5.0)
        cfg = SimConfig(
            horizon=300, seed=13, dist=AttentionSpanDist.deterministic(1),
            prior=PRIOR, slate=("X",), clamp_ratings=(0.0, 5.0),
        )
        trace = simulate(catalog, cfg)
        ratings = [r.rating for r in trace.records if r.rating is not None]
        assert ratings
        assert all(0.0 <= r <= 5.0 for r in ratings)
        # Int and numpy-scalar bounds are read as floats: a rating clamped to
        # one is 5.0 (never 5 or np.int64(5)), and the trace is the same.
        assert {0.0, 5.0} <= set(ratings)
        for bounds in [(0, 5), (np.int64(0), np.float32(5.0))]:
            same = simulate(catalog, dataclasses.replace(cfg, clamp_ratings=bounds))
            assert [type(r.rating) for r in same.records if r.rating is not None] == [float] * len(ratings)
            assert trace_table(same) == trace_table(trace)

    def test_override_product_without_quality_keeps_state(self):
        # pinned demand, no quality parameters: purchases happen but the
        # review record cannot move
        catalog = Catalog(
            (Product(id="X", price=5.0, review_count=3, avg_rating=2.0, demand_override=0.9),)
        )
        cfg = SimConfig(
            horizon=50, seed=17, dist=AttentionSpanDist.deterministic(1),
            prior=PRIOR, slate=("X",),
        )
        trace = simulate(catalog, cfg)
        summary = summarize(trace)
        assert summary.purchase_count > 0
        assert final_states(summary)["X"] == (3, 2.0)

    def test_rerank_policy_reorders_as_reviews_accrue(self):
        catalog = Catalog(
            (
                Product(id="GOOD", price=2.0, review_count=50, avg_rating=3.0,
                        true_quality=4.5, rating_noise=0.3),
                Product(id="MEH", price=2.0, review_count=60, avg_rating=3.2,
                        true_quality=1.0, rating_noise=0.3),
            )
        )
        cfg = SimConfig(
            horizon=500, seed=19, dist=AttentionSpanDist.deterministic(2),
            prior=BeliefPrior(3.0, 1.0, 1.0), cost=CostModel(0.1),
            rerank_every=25, slot_count=2,
        )
        trace = simulate(catalog, cfg)
        assert len(trace.records) == 500
        assert summarize(trace).purchase_count > 0


class TestDeterminism:
    def test_identical_config_reproduces_trace(self, demo):
        cfg = frozen_config(horizon=500)
        first = simulate(demo, cfg)
        second = simulate(demo, cfg)
        assert trace_table(first) == trace_table(second)
        assert summarize(first) == summarize(second)

    def test_unfrozen_run_reproduces_bytes(self):
        catalog = quality_catalog()
        cfg = SimConfig(
            horizon=300, seed=29, dist=AttentionSpanDist.deterministic(1),
            prior=PRIOR, slate=("X",),
        )
        assert trace_table(simulate(catalog, cfg)) == trace_table(simulate(catalog, cfg))

    def test_seed_changes_outcomes(self, demo):
        first = simulate(demo, frozen_config(horizon=500, seed=1))
        second = simulate(demo, frozen_config(horizon=500, seed=2))
        assert first.records != second.records


class TestValidation:
    def test_horizon_below_one_rejected(self, demo):
        with pytest.raises(ValueError, match="horizon"):
            simulate(demo, frozen_config(horizon=0))

    def test_slate_and_rerank_both_set_rejected(self, demo):
        with pytest.raises(ValueError, match="exactly one"):
            simulate(demo, frozen_config(rerank_every=5, slot_count=3))

    def test_neither_policy_rejected(self, demo):
        with pytest.raises(ValueError, match="exactly one"):
            simulate(demo, frozen_config(slate=None))

    def test_rerank_requires_slot_count(self, demo):
        with pytest.raises(ValueError, match="slot_count"):
            simulate(demo, frozen_config(slate=None, rerank_every=5))

    def test_unknown_slate_id_rejected(self, demo):
        with pytest.raises(KeyError, match="unknown product id"):
            simulate(demo, frozen_config(slate=("A", "Z")))

    def test_duplicate_slate_ids_rejected(self, demo):
        with pytest.raises(ValueError, match="duplicate"):
            simulate(demo, frozen_config(slate=("A", "A")))

    def test_unfrozen_computed_demand_needs_quality(self):
        catalog = Catalog((Product(id="X", price=2.0, review_count=1, avg_rating=3.0),))
        cfg = SimConfig(
            horizon=5, seed=3, dist=AttentionSpanDist.deterministic(1),
            prior=PRIOR, slate=("X",),
        )
        with pytest.raises(ValueError, match="true_quality"):
            simulate(catalog, cfg)

    def test_clamp_bounds_order_checked(self):
        catalog = quality_catalog()
        # A NaN bound would compare false both ways and clamp nothing on its side.
        for bounds in [(5.0, 1.0), (math.nan, 5.0), (1.0, math.nan), (math.nan, math.nan),
                       (5, 1), (np.int64(5), np.float32(1.0)), (np.float64(math.nan), 5)]:
            cfg = SimConfig(
                horizon=5, seed=3, dist=AttentionSpanDist.deterministic(1),
                prior=PRIOR, slate=("X",), clamp_ratings=bounds,
            )
            with pytest.raises(ValueError, match="clamp"):
                simulate(catalog, cfg)
        with pytest.raises(ValueError, match=r"out of order: \(5\.0, 1\.0\)"):
            simulate(catalog, dataclasses.replace(cfg, clamp_ratings=(5, 1)))
        # Infinite bounds leave that side unbounded.
        cfg = SimConfig(
            horizon=5, seed=3, dist=AttentionSpanDist.deterministic(1),
            prior=PRIOR, slate=("X",), clamp_ratings=(-math.inf, math.inf),
        )
        assert trace_table(simulate(catalog, cfg)) == trace_table(
            simulate(catalog, dataclasses.replace(cfg, clamp_ratings=None))
        )

    @pytest.mark.parametrize("display", [dict(slate=("Y",)), dict(rerank_every=2, slot_count=2)])
    def test_repeated_catalog_id_rejected(self, display):
        # Rows X, Y, X: review states are kept by row, so two rows may not
        # share an id (load_catalog already rejects such documents).
        rows = [("X", 3.0), ("Y", 2.0), ("X", 4.0)]
        catalog = Catalog(
            Product(id=pid, price=1.0, review_count=100, avg_rating=r, demand_override=0.9,
                    true_quality=r, rating_noise=0.5)
            for pid, r in rows
        )
        cfg = SimConfig(
            horizon=20, seed=3, dist=AttentionSpanDist.deterministic(2), prior=PRIOR, **display
        )
        with pytest.raises(ValueError, match="catalog lists product id 'X' more than once"):
            simulate(catalog, cfg)

    def test_bad_seed_rejected(self, demo):
        with pytest.raises(ValueError, match="seed"):
            simulate(demo, frozen_config(seed=-1))

    @pytest.mark.parametrize(
        "horizon, message",
        [(0, "horizon must be >= 1, got 0"), (2**64, f"horizon must be < 2**64, got {2**64}")],
    )
    def test_horizon_out_of_range_rejected(self, demo, horizon, message):
        # Customer t's number is a uint64 counter word: a 2**64 horizon ran without end.
        _validate_config(demo, frozen_config(horizon=2**64 - 1))
        with pytest.raises(ValueError) as excinfo:
            _validate_config(demo, frozen_config(horizon=horizon))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(horizon=True), "horizon must be an integer, got True"),
            (dict(horizon=2.5), "horizon must be an integer, got 2.5"),
            (dict(seed=True), "seed must be an integer, got True"),
            (dict(slate=None, rerank_every=True, slot_count=3), "rerank_every must be an integer, got True"),
            (dict(slate=None, rerank_every=2, slot_count=True), "slot_count must be an integer, got True"),
            (dict(freeze_beliefs=1), "freeze_beliefs must be a bool, got 1"),
            (dict(slate="ABF"), "slate must be a tuple of product ids, got 'ABF'"),
            (dict(clamp_ratings=5), "clamp_ratings must be a (low, high) tuple of numbers, got 5"),
            (dict(clamp_ratings=(1, "5")),
             "clamp_ratings must be a (low, high) tuple of numbers, got (1, '5')"),
            (dict(clamp_ratings=(1, 2, 3)),
             "clamp_ratings must be a (low, high) tuple of numbers, got (1, 2, 3)"),
            (dict(prior=None), "prior must be of type BeliefPrior, got None"),
            (dict(cost=None), "cost must be of type CostModel, got None"),
            (dict(dist=3), "dist must be of type AttentionSpanDist, got 3"),
        ],
        ids=["bool-horizon", "float-horizon", "bool-seed", "bool-rerank-every", "bool-slot-count",
             "int-freeze-beliefs", "str-slate", "number-clamp", "str-clamp-bound", "three-clamp-bounds",
             "none-prior", "none-cost", "int-dist"],
    )
    def test_values_are_taken_as_typed(self, demo, overrides, message):
        # A bool is an int to Python: each of these used to run as 1 or as a flag,
        # and a float horizon failed inside range().  A string slate ran as its
        # characters, a third clamp bound was dropped and the other clamps raised
        # TypeError.  A None prior ran and failed in its summary, a None cost or
        # an int span distribution failed with AttributeError inside the run.
        with pytest.raises(ValueError) as excinfo:
            simulate(demo, frozen_config(**overrides))
        assert str(excinfo.value) == message


class TestSummarize:
    def test_zero_purchases(self):
        catalog = Catalog(
            (Product(id="X", price=9.0, review_count=0, avg_rating=0.0,
                     demand_override=1e-9),)
        )
        cfg = SimConfig(
            horizon=20, seed=5, dist=AttentionSpanDist.deterministic(1),
            prior=PRIOR, slate=("X",), freeze_beliefs=True,
        )
        trace = simulate(catalog, cfg)
        summary = summarize(trace)
        assert summary.purchase_count == 0
        assert summary.gross_revenue == 0.0
        assert summary.platform_revenue == 0.0
        assert summary.purchase_rate == 0.0

    def test_share_weighting(self):
        catalog = Catalog(
            (Product(id="X", price=100.0, review_count=0, avg_rating=0.0,
                     revenue_share=0.2, demand_override=1.0),)
        )
        cfg = SimConfig(
            horizon=1, seed=5, dist=AttentionSpanDist.deterministic(1),
            prior=PRIOR, slate=("X",), freeze_beliefs=True,
        )
        trace = simulate(catalog, cfg)
        summary = summarize(trace)
        assert summary.gross_revenue == 100.0
        assert summary.platform_revenue == pytest.approx(20.0, abs=1e-12)

    def test_summarize_recomputes_summary(self, demo):
        trace = simulate(demo, frozen_config(horizon=100))
        # Nothing is cached on the trace: each call builds an equal summary anew.
        summary = summarize(trace)
        assert summarize(trace) == summary and summarize(trace) is not summary

    def test_posterior_means_reported(self):
        catalog = quality_catalog()
        cfg = SimConfig(
            horizon=50, seed=7, dist=AttentionSpanDist.deterministic(1),
            prior=PRIOR, slate=("X",),
        )
        trace = simulate(catalog, cfg)
        summary = summarize(trace)
        count, mean = final_states(summary)["X"]
        weight = 1.0 / (PRIOR.precision_ratio * count + 1.0)
        expected = weight * PRIOR.prior_mean + (1 - weight) * mean
        assert posterior_means(summary)["X"] == pytest.approx(expected, abs=1e-15)


class TestConvergence:
    def test_slot_frequencies_track_cascade_probs(self, demo):
        horizon = 20_000
        trace = simulate(demo, frozen_config(horizon=horizon, seed=101))
        expected = cascade_probs((0.95, 0.85, 0.75))[0]
        for slot, pid in enumerate(("A", "B", "F")):
            frequency = sum(1 for r in trace.records if r.purchased == pid) / horizon
            se = math.sqrt(expected[slot] * (1 - expected[slot]) / horizon)
            assert abs(frequency - expected[slot]) <= 3 * se

    def test_posterior_approaches_true_quality(self):
        catalog = Catalog(
            (Product(id="X", price=2.0, review_count=0, avg_rating=0.0,
                     true_quality=4.0, rating_noise=0.5,
                     demand_override=1 - 1e-12),)
        )
        cfg = SimConfig(
            horizon=1500, seed=31, dist=AttentionSpanDist.deterministic(1),
            prior=PRIOR, slate=("X",),
        )
        trace = simulate(catalog, cfg)
        summary = summarize(trace)
        assert summary.purchase_count == 1500
        assert abs(posterior_means(summary)["X"] - 4.0) < 0.05


    def test_live_rerank_leaves_loaded_catalog_unchanged(self):
        # The re-ranker writes review states into its ranking columns in
        # place; they must be copies, never the catalog's own columns.
        rows = [
            {"id": f"P{i}", "price": 2.0 + i % 3, "reviews": 10 + 7 * i,
             "avg_rating": 3.0 + (i % 4) / 2, "true_quality": 1.0 + i % 5, "rating_noise": 0.5}
            for i in range(12)
        ]
        catalog = load_catalog(json.dumps({"products": rows}))
        before = [np.array(column) for column in catalog.columns]
        cfg = SimConfig(
            horizon=400, seed=3, dist=AttentionSpanDist.deterministic(3),
            prior=BeliefPrior(3.0, 1.0, 1.0), rerank_every=5, slot_count=3,
        )
        first = simulate(catalog, cfg)
        assert any(r.post_state is not None for r in first.records)
        for old, new in zip(before, catalog.columns):
            np.testing.assert_array_equal(np.array(new), old)
        assert not catalog.columns.reviews.flags.writeable
        second = simulate(catalog, cfg)
        assert trace_table(second) == trace_table(first)
        assert json.dumps(summary_document(second)) == json.dumps(summary_document(first))


class TestTraceTable:
    def test_header_and_row_shape(self, demo):
        trace = simulate(demo, frozen_config(horizon=3))
        lines = trace_table(trace).strip().split("\n")
        assert lines[0].split("\t") == [
            "t", "span", "viewed", "purchased", "rating", "post_reviews", "post_avg_rating",
        ]
        assert len(lines) == 4
        assert lines[1].split("\t")[0] == "1"
