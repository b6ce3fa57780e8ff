"""The cascade kernel and the demand function against the frozen scalar loops.

``reference_cascade`` holds the loops the engine's one cascade kernel and
one demand function replaced.  Every value here must be equal bit for bit
(``float.hex``), for random slates, pmf spans and ``-0.0`` prices, and for
demand read from ``Product`` objects and from a loaded catalog's columns.
"""

from __future__ import annotations

import math
import warnings

from hypothesis import given, strategies as st

import reference_cascade as ref
from assortplan.catalog import BeliefPrior, Catalog, Product, load_catalog, serialize_catalog
from assortplan.demand import CostModel, purchase_prob
from assortplan.revenue import (
    AttentionSpanDist,
    SlateInputs,
    _mixture_value,
    _slot_revenues,
    _tail_value,
    cascade_probs,
    expected_revenue,
    expected_revenue_fixed,
    resolve_inputs,
)

OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
LAMBDAS = st.sampled_from([5e-324, 1e-300, 0.5, math.nextafter(1.0, 0.0)]) | OPEN_UNIT
PRICES = st.sampled_from([-0.0, 0.0, 1.0, 629.0, 1e300]) | st.floats(-1e6, 1e6)
SHARES = st.sampled_from([1.0, 0.5]) | st.floats(0.0, 1.0)


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


@st.composite
def spans(draw) -> AttentionSpanDist:
    if draw(st.booleans()):
        return AttentionSpanDist.deterministic(draw(st.integers(1, 9)))
    weights = draw(st.dictionaries(st.integers(1, 9), st.integers(1, 5), min_size=1, max_size=4))
    total = sum(weights.values())
    return AttentionSpanDist.from_pmf({y: w / total for y, w in weights.items()})


@st.composite
def slates(draw) -> SlateInputs:
    n = draw(st.integers(0, 8))
    lambdas = draw(st.lists(LAMBDAS, min_size=n, max_size=n))
    prices = draw(st.lists(PRICES, min_size=n, max_size=n))
    shares = draw(st.lists(SHARES, min_size=n, max_size=n))
    ids = tuple(f"P{i}" for i in range(n))
    return SlateInputs(ids, tuple(lambdas), tuple(prices), tuple(shares))


def _outcome(fn, *args):
    """``fn``'s result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


@given(slates(), spans())
def test_cascade_forms_match_the_scalar_loops(inputs, dist):
    per_slot, no_purchase = ref.cascade_probs(inputs.lambdas)
    probs = cascade_probs(inputs.lambdas)
    assert bits(probs.per_slot) == bits(per_slot)
    assert bits([probs.no_purchase]) == bits([no_purchase])
    for span in range(1, len(inputs.ids) + 2):
        assert bits([expected_revenue_fixed(inputs, span)]) == bits(
            [ref.expected_revenue_fixed(inputs, span)]
        )
    columns = (inputs.lambdas, inputs.prices, inputs.omegas)
    terms = _slot_revenues(*columns)
    assert bits([_mixture_value(terms, dist)]) == bits([ref.mixture_value(*columns, dist)])
    assert bits([_tail_value(terms, dist)]) == bits([ref.tail_value(*columns, dist)])
    engine = _outcome(expected_revenue, inputs, dist)
    frozen = _outcome(ref.expected_revenue, inputs, dist)
    if isinstance(frozen, float):
        assert bits([engine]) == bits([frozen])
    else:
        assert engine == frozen


def test_negative_zero_price_adds_to_positive_zero():
    inputs = SlateInputs(("A", "B"), (0.5, 0.25), (-0.0, -0.0), (1.0, 1.0))
    dist = AttentionSpanDist.from_pmf({1: 0.5, 2: 0.5})
    terms = _slot_revenues(inputs.lambdas, inputs.prices, inputs.omegas)
    assert [term.hex() for term in terms] == ["-0x0.0p+0"] * 2
    assert _mixture_value(terms, dist).hex() == "0x0.0p+0"
    assert expected_revenue(inputs, dist).hex() == ref.expected_revenue(inputs, dist).hex()


@st.composite
def products(draw) -> list[Product]:
    n = draw(st.integers(1, 5))
    rows = []
    for i in range(n):
        count = draw(st.sampled_from([0, 1, 2**53 + 1, 2**63 - 1]) | st.integers(0, 10**6))
        rows.append(
            Product(
                id=f"P{i}",
                price=draw(st.sampled_from([-0.0, 0.0, 2.0]) | st.floats(0.0, 80.0)),
                review_count=count,
                avg_rating=0.0 if count == 0 else draw(st.floats(0.0, 5.0)),
                revenue_share=draw(SHARES.filter(lambda w: w > 0)),
                demand_override=draw(st.none() | OPEN_UNIT),
            )
        )
    return rows


def _recorded(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [str(w.message) for w in caught]


@given(
    products(),
    st.floats(-5.0, 5.0),
    st.floats(0.1, 10.0),
    st.floats(0.0, 2.0),
    st.sampled_from([None, 1.0, 0.3]),
    st.data(),
)
def test_demand_matches_the_product_formula(rows, mean, ratio, slope, omega, data):
    prior, cost = BeliefPrior(mean, ratio, 1.0), CostModel(slope)
    for product in rows:
        for position in (1, 2, 5):
            engine, engine_warnings = _recorded(purchase_prob, product, prior, position, cost)
            frozen, frozen_warnings = _recorded(ref.purchase_prob, product, prior, position, cost)
            assert engine.hex() == frozen.hex() and engine_warnings == frozen_warnings
    # A loaded catalog's columns give the same inputs as the products.
    built = Catalog(rows)
    loaded = load_catalog(serialize_catalog(built))
    slate = data.draw(st.permutations([p.id for p in rows]))
    kwargs = dict(prior=prior, cost=cost, omega=omega)
    engine, engine_warnings = _recorded(resolve_inputs, loaded, slate, **kwargs)
    frozen, frozen_warnings = _recorded(ref.resolve_inputs, built, slate, **kwargs)
    assert engine.ids == frozen.ids and engine_warnings == frozen_warnings
    for column in ("lambdas", "prices", "omegas"):
        assert bits(getattr(engine, column)) == bits(getattr(frozen, column))
