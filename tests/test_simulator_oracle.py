"""The batched simulator against the scalar oracle, and its Philox kernel.

``reference_simulator`` draws every customer's values from a fresh numpy
``Generator``, re-ranks by rebuilding the catalog and keeps one record per
customer; every test here requires the engine's columnar trace to write the
same trace bytes, reach the same final review states, report the same
summary and build the same records when they are read.
"""

from __future__ import annotations

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_simulator as ref
from assortplan import philox, simulator
from assortplan.assortment import POLICIES, POLICY_STAGE1_ORDER, RankingPool
from assortplan.catalog import BeliefPrior, Catalog, Product, demo_catalog
from assortplan.demand import CostModel
from assortplan.revenue import AttentionSpanDist
from assortplan.philox import philox_raw
from assortplan.simulator import SimConfig, SimTrace, simulate, summarize, trace_table

SEEDS = st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)
# Running sums in pmf order: 0.1 ten times ends at 0.9999999999999999, and
# the second pmf ends 5e-13 below 1 (inside the validation tolerance).
PMFS = st.sampled_from(
    [
        {y: 0.1 for y in range(1, 11)},
        {1: 0.5, 3: 0.5 - 5e-13},
        {2: 0.3, 4: 0.4, 6: 0.3},
        {1: 0.0, 9: 1.0},
    ]
)


def assert_matches_oracle(catalog: Catalog, cfg: SimConfig):
    engine, oracle = simulate(catalog, cfg), ref.simulate(catalog, cfg)
    assert trace_table(engine) == ref.trace_table(oracle)
    assert engine.summary.final_states == oracle.summary.final_states
    assert json.dumps(ref.summary_document(engine)) == json.dumps(ref.summary_document(oracle))
    # Same per-product counts in the same (first-purchase) order.
    per_product = engine.summary.per_product_purchases.items()
    assert list(per_product) == list(oracle.summary.per_product_purchases.items())
    assert "records" not in engine.__dict__
    assert engine.records == oracle.records
    return engine


@st.composite
def spans(draw) -> AttentionSpanDist:
    kind = draw(st.sampled_from(["deterministic", "listed", "drawn"]))
    if kind == "deterministic":
        return AttentionSpanDist.deterministic(draw(st.integers(1, 11)))
    if kind == "listed":
        return AttentionSpanDist.from_pmf(draw(PMFS))
    chosen = draw(st.lists(st.integers(1, 11), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(chosen), max_size=len(chosen)))
    total = sum(weights)
    return AttentionSpanDist.from_pmf({y: w / total for y, w in zip(chosen, weights)})


@st.composite
def products(draw, count: int, live: bool) -> list[Product]:
    ids = draw(st.permutations([f"P{i}" for i in range(count)]))
    out = []
    for pid in ids:
        reviews = draw(st.sampled_from([0, 3, 20]) | st.integers(0, 60))
        pinned = draw(st.booleans())
        rated = draw(st.booleans()) if live and pinned else live or draw(st.booleans())
        out.append(
            Product(
                id=pid,
                price=draw(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 5.0)),
                review_count=reviews,
                avg_rating=draw(st.sampled_from([0.0, 3.0]) | st.floats(0.0, 5.0)),
                revenue_share=draw(st.floats(0.05, 1.0)),
                true_quality=draw(st.floats(0.0, 5.0)) if rated else None,
                rating_noise=draw(st.floats(0.0, 2.0)) if rated else None,
                demand_override=draw(st.floats(0.01, 0.999)) if pinned else None,
            )
        )
    return out


@st.composite
def cases(draw) -> tuple[Catalog, SimConfig, int]:
    """A catalog of up to 10 products, a config, and a kernel block size."""
    frozen = draw(st.booleans())
    catalog = Catalog(tuple(draw(products(draw(st.integers(1, 10)), live=not frozen))))
    ids = [p.id for p in catalog.products]
    if draw(st.booleans()):
        display = dict(rerank_every=draw(st.integers(1, 25)), slot_count=draw(st.integers(1, 10)))
    else:
        slate = draw(st.permutations(ids))[: draw(st.integers(1, len(ids)))]
        display = dict(slate=tuple(slate))
    clamp = draw(st.none() | st.sampled_from([(1.0, 4.0), (2.0, 2.0)]))
    cfg = SimConfig(
        horizon=draw(st.integers(1, 90)),
        seed=draw(SEEDS),
        dist=draw(spans()),
        prior=BeliefPrior(draw(st.floats(0.0, 5.0)), 1.0, draw(st.sampled_from([0.5, 1.0, 4.0]))),
        cost=CostModel(draw(st.sampled_from([0.0, 0.1, 0.4]))),
        policy=draw(st.sampled_from(POLICIES)),
        freeze_beliefs=frozen,
        clamp_ratings=clamp,
        **display,
    )
    return catalog, cfg, draw(st.sampled_from([1, 3, 16, philox.BLOCK]))


@settings(max_examples=300)
@given(cases())
def test_engine_matches_oracle(case):
    catalog, cfg, block = case
    with mock.patch.object(philox, "BLOCK", block):
        assert_matches_oracle(catalog, cfg)


# Magnitudes far apart make the float sum depend on the order of addition;
# -0.0 shows whether the sum starts from 0.0.
WIDE_PRICES = st.sampled_from([-0.0, 0.1, 0.7, 1e16, 3e-5]) | st.floats(0.0, 1e6)


@given(st.data())
def test_summary_totals_match_the_oracle_loop(data):
    products = tuple(
        Product(
            id=f"P{i}",
            price=data.draw(WIDE_PRICES),
            review_count=0,
            avg_rating=0.0,
            revenue_share=data.draw(st.sampled_from([1.0, 0.3]) | st.floats(0.05, 1.0)),
        )
        for i in range(data.draw(st.integers(1, 5)))
    )
    catalog = Catalog(products)
    bought = data.draw(st.lists(st.integers(-1, len(products) - 1), max_size=200))
    horizon = len(bought)
    trace = SimTrace(
        spans=(1,),
        span_index=np.zeros(horizon, dtype=np.int64),
        viewed=np.ones(horizon, dtype=np.int64),
        purchased=np.array(bought, dtype=np.int64),
        rated=[],
        review_counts=np.zeros(len(products), dtype=np.int64),
        review_means=np.zeros(len(products)),
        prior=BeliefPrior(3.0, 1.0, 4.0),
        columns=catalog.columns,
    )
    engine = summarize(trace)
    oracle = ref.summarize(
        ref.RecordTrace(
            records=trace.records,
            final_states={pid: ref.ReviewState(*s) for pid, s in trace.summary.final_states.items()},
            prior=trace.prior,
            product_params={p.id: (p.price, p.revenue_share) for p in products},
        )
    )
    assert engine.gross_revenue.hex() == oracle.gross_revenue.hex()
    assert engine.platform_revenue.hex() == oracle.platform_revenue.hex()


@pytest.mark.parametrize("frozen", [True, False])
@pytest.mark.parametrize("rerank", [True, False])
def test_horizon_crosses_block_boundary(frozen, rerank):
    products = tuple(
        Product(
            id=f"Q{i:02d}", price=1.0 + 0.3 * i, review_count=5 * i, avg_rating=2.0 + 0.2 * (i % 7),
            true_quality=4.0 - 0.2 * i, rating_noise=0.8,
        )
        for i in range(12)
    )
    display = dict(rerank_every=7, slot_count=9) if rerank else dict(slate=("Q03", "Q00", "Q07", "Q01", "Q09", "Q02", "Q11", "Q05", "Q04"))
    cfg = SimConfig(
        horizon=2 * philox.BLOCK + 3,
        seed=2**64 - 1,
        dist=AttentionSpanDist.from_pmf({2: 0.2, 5: 0.3, 9: 0.5}),
        prior=BeliefPrior(3.0, 1.0, 2.0),
        freeze_beliefs=frozen,
        **display,
    )
    trace = assert_matches_oracle(Catalog(products), cfg)
    assert trace.summary.purchase_count > 0


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_eight_slot_slate_needs_three_blocks(seed):
    # A drawn span plus eight slots is nine uniforms: three Philox blocks.
    catalog = Catalog(
        tuple(
            Product(id=f"S{i}", price=1.0, review_count=1, avg_rating=1.0, demand_override=0.08)
            for i in range(8)
        )
    )
    cfg = SimConfig(
        horizon=400, seed=seed, dist=AttentionSpanDist.from_pmf({8: 0.9, 1: 0.1}),
        prior=BeliefPrior(0.0, 1.0, 1.0), slate=tuple(f"S{i}" for i in range(8)),
        freeze_beliefs=True,
    )
    trace = assert_matches_oracle(catalog, cfg)
    assert any(r.viewed == 8 and r.purchased == "S7" for r in trace.records)


@pytest.mark.parametrize("frozen", [True, False])
def test_uniform_equal_to_chance_is_no_purchase(frozen):
    # Customer 1's first slot uniform is the pinned demand itself: u < lambda
    # fails, so that customer moves on to the second slot.
    seed = 8
    u = float(next(philox.draw_blocks(seed, 1, 1))[2][0, 0])
    catalog = Catalog(
        (
            Product(id="A", price=1.0, review_count=1, avg_rating=1.0, demand_override=u,
                    true_quality=2.0, rating_noise=0.5),
            Product(id="B", price=1.0, review_count=1, avg_rating=1.0, demand_override=0.999,
                    true_quality=2.0, rating_noise=0.5),
        )
    )
    cfg = SimConfig(
        horizon=3, seed=seed, dist=AttentionSpanDist.deterministic(2),
        prior=BeliefPrior(0.0, 1.0, 1.0), slate=("A", "B"), freeze_beliefs=frozen,
    )
    trace = assert_matches_oracle(catalog, cfg)
    assert trace.records[0].viewed == 2


def test_span_beyond_int64_stays_exact():
    cfg = SimConfig(
        horizon=30, seed=4, dist=AttentionSpanDist.deterministic(2**70),
        prior=BeliefPrior(0.0, 1.0, 1.0), slate=("A", "B", "F"), freeze_beliefs=True,
    )
    trace = assert_matches_oracle(demo_catalog(), cfg)
    assert trace.records[0].span == 2**70


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("every", [1, 3])
def test_live_rerank_keeping_its_slate_matches_oracle(every, policy):
    # A, B and C lead by far in rating and reviews and are rated near their
    # means, so every re-rank returns A-B-C while they are bought and rated;
    # each is priced half a point below its rating, so C is reached too.
    leaders = [("A", 4.9, 1000), ("B", 4.6, 900), ("C", 4.3, 800)]
    products = tuple(
        Product(id=pid, price=rating - 0.5, review_count=count, avg_rating=rating,
                true_quality=rating, rating_noise=0.05)
        for pid, rating, count in leaders
    ) + tuple(
        Product(id=f"Z{i}", price=1.0, review_count=5, avg_rating=2.0, true_quality=2.0,
                rating_noise=0.5)
        for i in range(4)
    )
    cfg = SimConfig(
        horizon=120, seed=11, dist=AttentionSpanDist.from_pmf({1: 0.3, 3: 0.7}),
        prior=BeliefPrior(3.0, 1.0, 1.0), rerank_every=every, slot_count=3, policy=policy,
    )
    slates = []
    rank = simulator._Reranker.rank

    def spy(self, *args):
        slates.append(rank(self, *args))
        return slates[-1]

    with mock.patch.object(simulator._Reranker, "rank", spy), \
            mock.patch.object(simulator, "_displayed", wraps=simulator._displayed) as displayed:
        trace = assert_matches_oracle(Catalog(products), cfg)
    assert len(slates) == -(-cfg.horizon // every) and set(slates) == {("A", "B", "C")}
    assert displayed.call_count == 1  # the slot chances of the one slate, kept since
    assert {trace.records[i].purchased for i, *_ in trace.rated} == {"A", "B", "C"}
    # The first re-rank runs its three rounds; after it, at least half the
    # rounds, whose cutoffs a few ratings of the leaders do not move, replay.
    with mock.patch.object(RankingPool, "select", autospec=True, side_effect=RankingPool.select) as select:
        simulate(Catalog(products), cfg)
    assert 3 <= select.call_count <= 3 * len(slates) // 2


def _overtaking_catalog(seed: int) -> Catalog:
    """30-60 products led by six with close ratings, many reviews and noisy raters.

    The leaders clear both cutoffs and fill the slate.  A rating moves a
    leader's mean by a few hundredths, as far as the leaders lie apart, so
    they overtake one another in the stage-1 order between re-ranks, while
    the cutoffs, set by the whole pool, mostly stay where they were.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 61))
    products = []
    for i in range(n):
        leader = i < 6
        rating = float(np.round(rng.uniform(4.2, 4.3) if leader else rng.uniform(1.0, 4.0), 2))
        reviews = int(rng.integers(60, 100) if leader else 1 + np.floor(rng.lognormal(2.5, 1.0)))
        products.append(
            Product(
                id=f"L{i}" if leader else f"F{i:02d}",
                price=float(np.round(rating - rng.uniform(0.0, 1.0), 2)),
                review_count=reviews,
                avg_rating=rating,
                true_quality=float(np.round(rng.uniform(4.0, 4.5) if leader else rating, 2)),
                rating_noise=float(np.round(rng.uniform(1.5, 2.5) if leader else 0.5, 2)),
            )
        )
    order = rng.permutation(n)
    return Catalog(tuple(products[i] for i in order))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [3, 5])
def test_long_live_rerank_with_overtaking_leaders_matches_oracle(seed, policy):
    rng = np.random.default_rng(seed + 100)
    cfg = SimConfig(
        horizon=int(rng.integers(300, 601)), seed=seed, dist=AttentionSpanDist.from_pmf({1: 0.2, 3: 0.4, 5: 0.4}),
        prior=BeliefPrior(3.0, 1.0, 4.0), rerank_every=int(rng.integers(1, 6)), slot_count=5, policy=policy,
    )
    replays = []
    replay = RankingPool.replay

    def spy(self, record, written):
        before = record.pick
        row = replay(self, record, written)
        replays.append(None if row is None else row != before)
        return row

    with mock.patch.object(RankingPool, "replay", spy):
        assert_matches_oracle(_overtaking_catalog(seed), cfg)
    # Most rounds replay, and under stage-1 order some replays take a
    # leader that overtook the recorded pick.
    assert replays.count(False) + replays.count(True) > len(replays) // 2
    assert (True in replays) == (policy == POLICY_STAGE1_ORDER)


class _FixedUniform:
    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


@pytest.mark.parametrize(
    "pmf", [{y: 0.1 for y in range(1, 11)}, {1: 0.5, 3: 0.5 - 5e-13}, {1: 0.0, 2: 0.25, 4: 0.75}]
)
def test_span_draw_at_running_sum_edges(pmf):
    # Uniforms on, just below and above every running sum, and above the
    # last one (the fallback to the last span).
    dist = AttentionSpanDist.from_pmf(pmf)
    draw = simulator._SpanDraw(dist)
    edges = [0.0, 1 - 2**-53] + [
        v for c in draw.cumulative for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)) if v < 1
    ]
    index = draw.index(np.array(edges)[:, None])
    assert [draw.values[i] for i in index] == [
        ref._draw_span(dist, _FixedUniform(float(u))) for u in edges
    ]


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_philox_raw_matches_numpy(seed):
    customers = [1, 2**32, 2**64 - 1]
    raw = philox_raw(seed, np.array(customers, dtype=np.uint64), 3)
    for t, row in zip(customers, raw):
        expected = np.random.Philox(key=seed, counter=t << 128).random_raw(12)
        assert row.tolist() == expected.tolist()


def test_uniforms_match_generator_random():
    first, _, uniforms = next(philox.draw_blocks(99, 5, 6))
    assert first == 1 and uniforms.shape == (5, 8)
    for t, row in enumerate(uniforms, start=1):
        rng = np.random.Generator(np.random.Philox(key=99, counter=t << 128))
        assert row.tolist() == rng.random(8).tolist()


def test_kernel_memory_bounded_by_block():
    # All of the 200,000 customers' draws at once would take about 25 MB;
    # block by block the peak is one block's work plus the previous block's
    # output, still held by the loop.
    def peak(horizon: int) -> int:
        tracemalloc.start()
        try:
            for _ in philox.draw_blocks(3, horizon, 8):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(philox.BLOCK), peak(200_000)
    assert large < 2 * 2**20
    assert large < 2 * small
