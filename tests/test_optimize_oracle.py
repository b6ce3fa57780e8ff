"""The bounded brute-force optimizer against the scalar oracle.

``reference_oracle`` scores every ordered slate from scratch; every test
here requires the engine to return the same slate, bit-equal values, the
same enumeration count and the same warnings.  Where the scalar oracle is
too slow, ``reference_walk`` (the blocked numpy walk the subset-DP search
replaced) stands in for it.
"""

from __future__ import annotations

import gc
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_oracle as ref
import reference_walk
from assortplan import revenue
from assortplan.catalog import BeliefPrior, Catalog, Product, demo_catalog
from assortplan.demand import UTILITY_SCALE_WARN, CostModel, purchase_chance
from assortplan.revenue import (
    AttentionSpanDist,
    EnumerationGuardError,
    brute_force_optimize,
    enumeration_count,
)

# Product accepts an infinite price (load_catalog does not): cumulative
# revenues become infinite, and NaN where a span has zero mass.
PRICES = st.sampled_from([0.0, 0.1, 0.7, 1.1, 2.3, 10.0, math.inf]) | st.floats(0.0, 100.0)
DEMANDS = st.sampled_from([0.2, 0.5, 0.999]) | st.floats(0.001, 0.999)


def _bits(value: float | None) -> str | None:
    return None if value is None else value.hex()


def _run(solver, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = solver(*args, **kwargs)
    return result, [str(w.message) for w in caught]


def assert_matches_oracle(catalog: Catalog, slots: int, dist: AttentionSpanDist, **kwargs):
    engine, engine_warnings = _run(brute_force_optimize, catalog, slots, dist, **kwargs)
    oracle, oracle_warnings = _run(ref.brute_force_optimize, catalog, slots, dist, **kwargs)
    assert engine.slate == oracle.slate
    assert _bits(engine.value) == _bits(oracle.value)
    assert _bits(engine.compare_value) == _bits(oracle.compare_value)
    assert _bits(engine.gap) == _bits(oracle.gap)
    assert engine.enumerated == oracle.enumerated == enumeration_count(len(catalog.products), slots)
    assert engine_warnings == oracle_warnings
    return engine


def _walk(catalog: Catalog, slots: int, dist: AttentionSpanDist, prior=None, cost=None, solver=None) -> tuple:
    """``revenue._best_slate`` (or ``solver``) on brute_force_optimize's inputs: the search,
    whether or not the sorted path would certify them.  Returns (value, slate, scored, bounded)."""
    columns = catalog.columns
    depth = min(slots, catalog.universe_size)
    lam = revenue._lambda_table(catalog, depth, prior, cost or CostModel())
    prices, shares = columns.price.tolist(), columns.share.tolist()
    return (solver or revenue._best_slate)(columns.ids, lam, prices, shares, dist, depth)


@st.composite
def catalogs(draw, pinned: bool) -> Catalog:
    """Up to 7 products (twins included), so a slot count above n is common.

    In the "identical" mode every product has the same fields, so every
    slate ties with all others of its length and the bound drops no
    subtree; only slates past the longest span go unsearched.
    """
    mode = draw(st.sampled_from(["mixed", "mixed", "zero-prices", "identical"]))
    ids = draw(st.lists(st.text("ABCab", min_size=1, max_size=2), min_size=1, max_size=5, unique=True))
    products = [
        Product(
            id=pid,
            price=0.0 if mode == "zero-prices" else draw(PRICES),
            review_count=draw(st.integers(0, 50)),
            avg_rating=draw(st.floats(0.0, 5.0)),
            revenue_share=draw(st.sampled_from([1.0, 0.5]) | st.floats(0.05, 1.0)),
            demand_override=draw(DEMANDS) if pinned else draw(st.none() | DEMANDS),
        )
        for pid in ids
    ]
    if mode == "identical":
        products = [Product(**{**vars(products[0]), "id": pid}) for pid in ids]
    # Twins (an id outside the alphabet) tie exactly with their originals.
    twins = draw(st.lists(st.sampled_from(products), max_size=2, unique_by=lambda p: p.id))
    products += [Product(**{**vars(p), "id": p.id + "t"}) for p in twins]
    order = draw(st.permutations(products))
    return Catalog(tuple(order))


@st.composite
def spans(draw) -> AttentionSpanDist:
    """A point mass, or a pmf with zero-mass entries and spans past the slot count."""
    if draw(st.booleans()):
        return AttentionSpanDist.deterministic(draw(st.integers(1, 7)))
    weights = draw(st.dictionaries(st.integers(1, 8), st.integers(0, 3), min_size=1, max_size=4))
    if not any(weights.values()):
        weights[min(weights)] = 1
    total = sum(weights.values())
    return AttentionSpanDist.from_pmf({y: w / total for y, w in weights.items()})


@st.composite
def problems(draw) -> tuple:
    pinned = draw(st.booleans())
    catalog = draw(catalogs(pinned))
    ids = [p.id for p in catalog.products]
    kwargs = {
        "omega": draw(st.none() | st.sampled_from([1.0, 0.3])),
        "compare": draw(st.none() | st.permutations(ids).map(lambda p: p[: max(1, len(p) // 2)])),
    }
    if not pinned:
        kwargs["prior"] = BeliefPrior(draw(st.floats(-2.0, 6.0)), 1.0, 4.0)
        kwargs["cost"] = CostModel(draw(st.sampled_from([0.0, 0.1, 0.25])))
    slots = draw(st.integers(1, 6))
    if kwargs["compare"] is not None:  # no longer than the slot count, which the optimizer requires
        kwargs["compare"] = kwargs["compare"][:slots]
    return catalog, slots, draw(spans()), kwargs


# Four identical products: every slate ties with all others of its
# length, and a bound that ignored float rounding dropped the subtree of
# the smallest ids.
@example(
    problem=(
        Catalog(
            tuple(
                Product(id=pid, price=1.0, review_count=0, avg_rating=0.0,
                        revenue_share=0.05078125, demand_override=0.2)
                for pid in ("B", "A", "C", "AA")
            )
        ),
        4,
        AttentionSpanDist.deterministic(4),
        {},
    ),
)
@given(problems())
def test_engine_matches_oracle(problem):
    catalog, slots, dist, kwargs = problem
    assert_matches_oracle(catalog, slots, dist, **kwargs)


@pytest.mark.parametrize("solver", [brute_force_optimize, ref.brute_force_optimize], ids=["engine", "oracle"])
@pytest.mark.parametrize(
    "slots, compare, message",
    [
        (0, None, "slot_count must be >= 1, got 0"),
        # The one-slot optimum, 597.55, was reported 89.48 below this slate's value.
        (1, ("B", "A", "F", "J", "G"), "compare slate of 5 products exceeds slot_count 1"),
        # A bool used to optimize one slot; a float or a string raised TypeError.
        (True, None, "slot_count must be an integer, got True"),
        (2.5, None, "slot_count must be an integer, got 2.5"),
        ("3", None, "slot_count must be an integer, got '3'"),
    ],
    ids=["no-slots", "compare-longer-than-slots", "bool-slots", "float-slots", "str-slots"],
)
def test_refused_before_any_work(solver, slots, compare, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solver(demo_catalog(), slots, AttentionSpanDist.deterministic(5), omega=1.0, compare=compare)


def _pinned(*rows: tuple) -> Catalog:
    """Rows of (id, price, pinned demand)."""
    return Catalog(
        tuple(
            Product(id=pid, price=price, review_count=1, avg_rating=1.0, demand_override=lam)
            for pid, price, lam in rows
        )
    )


def test_all_zero_prices_pick_the_smallest_single_slate():
    catalog = _pinned(("b", 0.0, 0.3), ("a", 0.0, 0.6), ("c", 0.0, 0.5))
    result = assert_matches_oracle(catalog, 3, AttentionSpanDist.deterministic(3))
    assert result.slate == ("a",)
    assert result.value == 0.0


def test_twins_tie_across_lengths():
    # A span of 1 makes every slate worth its first product alone.
    catalog = _pinned(("Y", 10.0, 0.5), ("X", 10.0, 0.5), ("Z", 4.0, 0.9))
    result = assert_matches_oracle(catalog, 3, AttentionSpanDist.deterministic(1))
    assert result.slate == ("X",)
    result = assert_matches_oracle(catalog, 3, AttentionSpanDist.deterministic(3))
    assert result.slate[0] == "X"


def test_exact_tie_with_unequal_approximations():
    # (A, B) and (B, A) are worth exactly the same, but a plain float sum of
    # the three span terms puts (B, A) one ulp ahead; the exact re-scoring
    # and the id order must still pick (A, B).
    catalog = _pinned(("A", 0.1, 0.3), ("B", 0.1, 0.9))
    result = assert_matches_oracle(catalog, 3, AttentionSpanDist.from_pmf({2: 0.2, 3: 0.4, 4: 0.4}))
    assert result.slate == ("A", "B")


def test_infinite_approximation_does_not_hide_a_finite_winner():
    # X's infinite price makes every slate holding it NaN (the zero-mass span
    # 3 multiplies an infinite cumulative value), yet the approximation of
    # (X,) is +inf; the finite (Y,) must still win.
    catalog = _pinned(("X", math.inf, 0.5), ("Y", 1.0, 0.5))
    result = assert_matches_oracle(catalog, 2, AttentionSpanDist.from_pmf({2: 1.0, 3: 0.0}))
    assert result.slate == ("Y",)


def test_fewer_products_than_slots():
    catalog = _pinned(("B", 3.0, 0.4), ("A", 5.0, 0.2))
    result = assert_matches_oracle(catalog, 6, AttentionSpanDist.from_pmf({1: 0.5, 9: 0.5}))
    assert result.enumerated == 4


def test_benchmark_sized_random_catalogs():
    # Pinned n=10 and logit n=9 at 5 slots, as the benchmark's oracle
    # requests: the bound must drop subtrees and still count every slate.
    rng = np.random.default_rng(7)
    prior = BeliefPrior(3.0, 1.0, 4.0)
    pmf = AttentionSpanDist.from_pmf({2: 0.3, 4: 0.3, 5: 0.4})
    for size, dist in ((9, pmf), (10, pmf), (10, AttentionSpanDist.deterministic(5))):
        products = tuple(
            Product(
                id=f"P{i:02d}",
                price=float(rng.uniform(1.0, 5.0)),
                review_count=int(rng.integers(1, 5000)),
                avg_rating=float(rng.uniform(1.0, 5.0)),
                revenue_share=float(rng.uniform(0.05, 1.0)),
                demand_override=float(rng.uniform(0.01, 0.99)) if size == 10 else None,
            )
            for i in rng.permutation(size)
        )
        result = assert_matches_oracle(Catalog(products), 5, dist, prior=prior, cost=CostModel(0.2))
        if size == 10 and dist.kind == "deterministic":
            # Pinned demand and a point span: the sorted path certifies the
            # result, so the search is run on the same inputs by itself.
            assert result.scored == 0
            value, slate, scored, bounded = _walk(Catalog(products), 5, dist)
            assert (slate, value.hex()) == (result.slate, result.value.hex())
            assert 0 < scored < scored + bounded == result.enumerated
        else:
            assert 0 < result.scored < result.enumerated
        if size == 9:
            # The subset-DP bound drops every sibling off the optimum's path:
            # the search scores the children of at most reach = 5 nodes.
            assert result.scored <= size * 5


def test_catalog_at_the_guard_limit_matches_the_walk():
    # n = 12, k = 8 has 19,958,400 slates, past what the scalar oracle lists in
    # time; the blocked walk the search replaced stands in for it.  Logit demand
    # and a span pmf keep the sorted path out.  Three twin pairs tie exactly,
    # and four zero prices add slates that earn nothing in some slots.
    rng = np.random.default_rng(28)
    products = [
        Product(
            id=f"P{i:02d}",
            price=0.0 if i < 4 else float(rng.uniform(1.0, 5.0)),
            review_count=int(rng.integers(1, 5000)),
            avg_rating=float(rng.uniform(1.0, 5.0)),
            revenue_share=float(rng.uniform(0.05, 1.0)),
        )
        for i in range(9)
    ]
    products += [Product(**{**vars(p), "id": p.id + "t"}) for p in products[4:7]]
    catalog = Catalog(tuple(products[i] for i in rng.permutation(12)))
    prior, cost = BeliefPrior(3.0, 1.0, 4.0), CostModel(0.2)
    dist = AttentionSpanDist.from_pmf({3: 0.2, 6: 0.3, 8: 0.5})
    result = brute_force_optimize(catalog, 8, dist, prior=prior, cost=cost)
    value, slate, scored, bounded = _walk(catalog, 8, dist, prior, cost, solver=reference_walk.blocked_walk)
    assert (result.slate, result.value.hex()) == (slate, value.hex())
    assert result.enumerated == scored + bounded == enumeration_count(12, 8)
    assert 0 < result.scored < scored


@settings(max_examples=40)
@given(st.data())
def test_search_matches_the_walk_on_larger_catalogs(data):
    # 8 to 12 products, past what the scalar oracle lists quickly: pinned or
    # logit demand, up to three twins and four zero prices, and a point or pmf
    # span.  Slate, value bits and slate count must equal the blocked walk's.
    size, twins, zeros = data.draw(st.integers(8, 12)), data.draw(st.integers(0, 3)), data.draw(st.integers(0, 4))
    pinned = data.draw(st.booleans())
    products = [
        Product(
            id=f"P{i:02d}",
            price=0.0 if i < zeros else data.draw(st.floats(0.5, 10.0)),
            review_count=data.draw(st.integers(1, 500)),
            avg_rating=data.draw(st.floats(1.0, 5.0)),
            revenue_share=data.draw(st.floats(0.05, 1.0)),
            demand_override=data.draw(DEMANDS) if pinned else None,
        )
        for i in range(size - twins)
    ]
    products += [Product(**{**vars(p), "id": p.id + "t"}) for p in products[-twins:]] if twins else []
    catalog = Catalog(tuple(data.draw(st.permutations(products))))
    prior = None if pinned else BeliefPrior(data.draw(st.floats(-2.0, 6.0)), 1.0, 4.0)
    cost = CostModel(data.draw(st.sampled_from([0.0, 0.1, 0.25])))
    slots, dist = data.draw(st.integers(1, 6)), data.draw(spans())
    result = brute_force_optimize(catalog, slots, dist, prior=prior, cost=cost)
    value, slate, scored, bounded = _walk(catalog, slots, dist, prior, cost, solver=reference_walk.blocked_walk)
    assert (result.slate, result.value.hex()) == (slate, value.hex())
    assert result.enumerated == scored + bounded


def test_bound_keeps_a_subtree_within_its_rounding_allowance():
    # (B, A) is best.  A's subtree is worth at most 0.5 p_A + 1, 48 ulps below
    # the optimum 2 + 0.25 p_A: past the floor's margin (20 ulps at one span)
    # but inside the bound's rounding allowance (56 ulps at reach 2).  So the
    # search scores A's two children as well as B's, 3 + 2 + 2 slates.
    catalog = _pinned(("A", 4.0 - 144 * 2.0**-51, 0.5), ("B", 4.0, 0.5), ("C", 1.0, 0.5))
    dist = AttentionSpanDist.deterministic(2)
    value, slate, scored, bounded = _walk(catalog, 2, dist)
    assert (slate, scored, bounded) == (("B", "A"), 7, 2)
    result = assert_matches_oracle(catalog, 2, dist)
    assert (result.slate, result.value.hex()) == (slate, value.hex())


def test_subnormal_approximation_does_not_hide_a_shorter_tie():
    # A earns about 6.25e-311, below the normal range, and B nothing: (A,) and
    # (A, B) score the same bits.  (A,)'s approximation lies a unit of 2**-1074
    # below the exact score of (A, B), the seed, far beyond the relative margin;
    # the absolute allowance keeps it a candidate, and the shorter slate wins.
    catalog = Catalog(
        (
            Product(id="A", price=2.5e-310, review_count=1, avg_rating=1.0, revenue_share=0.5, demand_override=0.5),
            Product(id="B", price=0.0, review_count=1, avg_rating=1.0, demand_override=0.5),
        )
    )
    result = assert_matches_oracle(catalog, 2, AttentionSpanDist.from_pmf({1: 0.0, 2: 0.5, 3: 0.5}))
    assert result.slate == ("A",)


def test_utility_scale_warnings_match_oracle_order():
    # Prices far off the rating scale push every utility past the warning level.
    catalog = Catalog(
        tuple(
            Product(id=pid, price=price, review_count=10, avg_rating=4.0)
            for pid, price in (("C", 90.0), ("A", 120.0), ("B", 70.0), ("D", 2.0))
        )
    )
    prior = BeliefPrior(3.0, 1.0, 4.0)
    dist = AttentionSpanDist.deterministic(3)
    _, engine_warnings = _run(brute_force_optimize, catalog, 3, dist, prior=prior)
    _, oracle_warnings = _run(ref.brute_force_optimize, catalog, 3, dist, prior=prior)
    assert len(engine_warnings) == 9
    assert all(f"+/-{UTILITY_SCALE_WARN}" in message for message in engine_warnings)
    assert engine_warnings == oracle_warnings


def _per_pair_lambda_table(catalog: Catalog, depth: int, prior, cost: CostModel) -> list[list[float]]:
    """``revenue._lambda_table`` as one ``purchase_chance`` per (row, slot), in walk order."""
    c = catalog.columns
    rows = list(zip(c.ids, *(col.tolist() for col in (c.demand, c.reviews, c.rating, c.price))))
    table = [[0.0] * len(rows) for _ in range(depth)]
    for slot in range(1, depth + 1):
        for i in [*range(slot - 1, len(rows)), *range(slot - 2, -1, -1)]:
            table[slot - 1][i] = purchase_chance(*rows[i], slot, prior, cost, warn_stacklevel=2)
    return table


@given(st.data())
def test_lambda_table_matches_a_per_pair_loop(data):
    # Pinned, unpinned and pinned-0.0 rows mixed, up to the guard's 12 rows and 8
    # slots; prices far off the rating scale, and a steep cost slope at later
    # slots, warn on both sides of each slot's first row in the walk, and without
    # a prior the first unpinned row in walk order raises.  Every entry's bits and
    # every warning, in order, must match.
    products = tuple(
        Product(
            id=f"P{i}",
            price=data.draw(PRICES | st.sampled_from([90.0, -80.0, 49.0])),
            review_count=data.draw(st.integers(0, 50)),
            avg_rating=data.draw(st.floats(0.0, 5.0)),
            demand_override=data.draw(st.none() | st.just(0.0) | DEMANDS),
        )
        for i in range(data.draw(st.integers(1, 12)))
    )
    catalog = Catalog(products)
    depth = data.draw(st.integers(1, min(8, len(products))))  # brute_force_optimize's min(slots, n)
    prior = data.draw(st.none() | st.just(BeliefPrior(3.0, 1.0, 4.0)))
    cost = CostModel(data.draw(st.sampled_from([0.0, 0.2, 30.0])))

    def outcome(build):
        try:
            table, messages = _run(build, catalog, depth, prior, cost)
        except ValueError as exc:
            return str(exc)
        return [[value.hex() for value in row] for row in table], messages

    assert outcome(revenue._lambda_table) == outcome(_per_pair_lambda_table)


def test_lambda_table_bits_on_a_logit_catalog():
    # 96 logistic entries over utilities from about -1.3 to 3: np.exp differs from
    # math.exp by an ulp on a few percent of such arguments, and so would the table.
    products = tuple(
        Product(id=f"P{i:02d}", price=0.37 * i + 0.01, review_count=7 * i, avg_rating=0.41 * i)
        for i in range(12)
    )
    prior, cost = BeliefPrior(3.0, 1.0, 4.0), CostModel(0.23)
    table = revenue._lambda_table(Catalog(products), 8, prior, cost)
    expected = _per_pair_lambda_table(Catalog(products), 8, prior, cost)
    assert [[v.hex() for v in row] for row in table] == [[v.hex() for v in row] for row in expected]


def test_utility_scale_warnings_come_in_walk_order():
    # At slot s the walk reaches rows s-1.. first, then the earlier rows backwards (C is pinned).
    products = tuple(
        Product(id=pid, price=price, review_count=10, avg_rating=4.0, demand_override=pinned)
        for pid, price, pinned in
        (("A", 60.0, None), ("B", 70.0, None), ("C", 2.0, 0.3), ("D", 80.0, None), ("E", 1.0, None))
    )
    prior, cost = BeliefPrior(3.0, 1.0, 4.0), CostModel(30.0)
    table, engine = _run(revenue._lambda_table, Catalog(products), 3, prior, cost)
    expected, oracle = _run(_per_pair_lambda_table, Catalog(products), 3, prior, cost)
    assert table == expected
    assert engine == oracle
    assert [re.search(r"product '(\w)'", m).group(1) for m in engine] == list("ABD" "BDA" "DEBA")


@pytest.mark.parametrize("size, slots", [(13, 3), (4, 9)])
def test_guard_matches_oracle(size, slots):
    catalog = _pinned(*((f"P{i:02d}", 1.0, 0.5) for i in range(size)))
    dist = AttentionSpanDist.deterministic(3)
    with pytest.raises(EnumerationGuardError) as engine:
        brute_force_optimize(catalog, slots, dist)
    with pytest.raises(EnumerationGuardError) as oracle:
        ref.brute_force_optimize(catalog, slots, dist)
    assert str(engine.value) == str(oracle.value)
    assert engine.value.count == oracle.value.count == enumeration_count(size, slots)


def test_memory_does_not_grow_with_slate_count():
    # n=12, k=6 has 665,280 slates of length 6; holding one level of them
    # (a few float64 and int64 columns) would need well over 16 MB.
    rng = np.random.default_rng(12)
    catalog = _pinned(
        *((f"P{i:02d}", float(rng.uniform(1.0, 100.0)), float(rng.uniform(0.01, 0.99))) for i in range(12))
    )
    dist = AttentionSpanDist.deterministic(6)
    tracemalloc.start()
    try:
        result = brute_force_optimize(catalog, 6, dist)
        _, peak = tracemalloc.get_traced_memory()
        # The sorted path certifies these inputs; the search must stay small too.
        tracemalloc.reset_peak()
        value, slate, scored, bounded = _walk(catalog, 6, dist)
        _, search_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.enumerated == enumeration_count(12, 6) == scored + bounded
    assert result.scored == 0
    assert (slate, value.hex()) == (result.slate, result.value.hex())
    assert peak < 16 * 2**20
    assert search_peak < 16 * 2**20


def test_search_leaves_no_reference_cycle():
    # The search recurses through a closure; a cycle left behind would hold
    # its subset table and lists until the collector ran, and the process's
    # peak memory crept with the request count.
    catalog = _pinned(("A", 4.0, 0.5), ("B", 3.0, 0.5), ("C", 2.0, 0.25))
    gc.collect()
    gc.disable()
    try:
        _walk(catalog, 3, AttentionSpanDist.from_pmf({1: 0.5, 3: 0.5}))
        assert gc.collect() == 0
    finally:
        gc.enable()

# The sorted path (revenue._sorted_slate): slot-independent demand and a point span.
SORTED_PRICES = st.one_of(
    st.floats(0.01, 100.0),
    st.floats(0.01, 100.0),
    st.sampled_from([0.0, math.inf, 5e-324, 2.5e-310, 1e-300, 1.0, 2.5, 10.0]),
)
SORTED_DEMANDS = st.sampled_from([1.0, 0.999, 0.5, 0.2]) | st.floats(0.001, 1.0)
SHARES = st.sampled_from([1.0, 0.5]) | st.floats(0.05, 1.0)


@st.composite
def sorted_path_problems(draw) -> tuple:
    """Pinned or zero-cost logit demand (or both) and a point span.

    Each product after the first may copy an earlier one (a twin, under
    another id), share its r = price * share with other demand (price
    doubled, share halved), or sit one ulp of price above it.  Prices
    include 0, infinity and subnormals, and pinned demand includes 1.
    """
    size = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text("ABCab", min_size=1, max_size=2), min_size=size, max_size=size, unique=True))
    logit = draw(st.sampled_from(["none", "none", "some", "all"]))
    products: list[Product] = []
    for pid in ids:
        kind = draw(st.sampled_from([*["fresh"] * 4, "twin", "same-r", "ulp"])) if products else "fresh"
        base = draw(st.sampled_from(products)) if products else None
        price, share = draw(SORTED_PRICES), draw(SHARES)
        if kind == "twin":
            products.append(Product(**{**vars(base), "id": pid}))
            continue
        if kind == "same-r":
            price, share = base.price * 2.0, base.revenue_share / 2.0
        elif kind == "ulp":
            price, share = math.nextafter(base.price, math.inf), base.revenue_share
        pinned = logit == "none" or (logit == "some" and draw(st.booleans()))
        products.append(
            Product(
                id=pid,
                price=price,
                review_count=draw(st.integers(0, 50)),
                avg_rating=draw(st.floats(0.0, 5.0)),
                revenue_share=share,
                demand_override=draw(SORTED_DEMANDS) if pinned else None,
            )
        )
    kwargs = {"omega": draw(st.none() | st.sampled_from([1.0, 0.3]))}
    if logit != "none":
        kwargs["prior"] = BeliefPrior(draw(st.floats(-2.0, 6.0)), 1.0, 4.0)
        kwargs["cost"] = CostModel(0.0)
    dist = AttentionSpanDist.deterministic(draw(st.integers(1, 7)))
    return Catalog(tuple(products)), draw(st.integers(1, 6)), dist, kwargs


def _point(catalog: Catalog, slots: int) -> tuple:
    return catalog, slots, AttentionSpanDist.deterministic(slots), {"omega": None}


# B's price is one ulp above A's: the DP sorts (B, A), but both orders
# score the same bits, so the search returns (A, B); only the swap term,
# 0.25 * (r_B - r_A), tells the certificate so.
@example(_point(_pinned(("A", 3.3, 0.5), ("B", math.nextafter(3.3, math.inf), 0.5)), 2))
# A subnormal price: AA's term (about 2.5e-313) vanishes when added to A's
# 0.999, so (A,) and (A, AA) score the same bits and the shorter wins; a
# certificate with no rounding tolerance certifies (A, AA).
@example(_point(_pinned(("A", 1.0, 0.999), ("AA", 2.5e-310, 1.0)), 2))
# The optimum skips the larger r: the path takes a row only on a strict rise.
@example(_point(_pinned(("A", 10.0, 0.01), ("B", 5.0, 0.9)), 1))
# Shared r: the search decides, though the unique best (B,) has its own r.
@example(_point(_pinned(("A", 1.0, 1.0), ("B", 2.0, 1.0), ("AA", 1.0, 1.0)), 1))
@settings(max_examples=200)
@given(sorted_path_problems())
def test_sorted_path_matches_oracle(problem):
    catalog, slots, dist, kwargs = problem
    engine = assert_matches_oracle(catalog, slots, dist, **kwargs)
    omega = kwargs["omega"]
    r = [p.price * (omega if omega is not None else p.revenue_share) for p in catalog.products]
    if len(set(r)) < len(r) or not all(0 < x < math.inf for x in r):
        # Tied (or zero, or infinite) sort keys: the search decides.
        assert engine.scored > 0


def test_sorted_path_falls_back_on_exact_ties():
    # Twins: (A, B) and (B, A) tie exactly, and so do (A,) and (B,).
    twins = _pinned(("B", 10.0, 0.5), ("A", 10.0, 0.5), ("C", 4.0, 0.5))
    for slots, slate in ((2, ("A", "B")), (1, ("A",))):
        result = assert_matches_oracle(twins, slots, AttentionSpanDist.deterministic(slots))
        assert result.slate == slate
        assert result.scored > 0
    # A sure sale (lambda 1) first: every extension ties with it.
    sure = _pinned(("X", 10.0, 1.0), ("Y", 5.0, 0.5))
    result = assert_matches_oracle(sure, 2, AttentionSpanDist.deterministic(2))
    assert result.slate == ("X",)
    assert result.scored > 0


def test_benchmark_shaped_pinned_catalogs_certify():
    # The benchmark's pinned requests: n=10, 5 slots, a span of 5, prices and
    # demand rounded as perfbench generates them.  Every one is proven by the
    # sorted path and agrees with the search run by itself.
    rng = np.random.default_rng(16)
    dist = AttentionSpanDist.deterministic(5)
    for _ in range(20):
        catalog = Catalog(
            tuple(
                Product(
                    id=f"P{i:05d}",
                    price=round(float(rng.uniform(1.0, 6.0)), 2),
                    review_count=1,
                    avg_rating=1.0,
                    revenue_share=round(float(rng.uniform(0.5, 1.0)), 3),
                    demand_override=round(float(rng.uniform(0.05, 0.9)), 3),
                )
                for i in range(10)
            )
        )
        result = brute_force_optimize(catalog, 5, dist)
        value, slate, scored, bounded = _walk(catalog, 5, dist)
        assert result.scored == 0
        assert (result.slate, result.value.hex()) == (slate, value.hex())
        assert result.enumerated == scored + bounded == enumeration_count(10, 5)
