"""Scalar cascade loops and the Product-level demand formula, kept as test oracles.

These are the straightforward loops the engine's one cascade kernel
(``revenue._cascade_prefix``) and one demand function
(``demand.purchase_chance``) replaced, frozen here so that the engine is
never checked against itself.  Each walk carries the no-purchase mass
``prefix`` slot by slot; tests require the engine's results to be equal to
these bit for bit.

One rule is deliberate: a pinned demand of 0.0 counts as none, as it does
in a catalog's ``demand`` column, so such a product takes the logit path.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

from assortplan.catalog import BeliefPrior, Catalog, Product
from assortplan.demand import UTILITY_SCALE_WARN, CostModel
from assortplan.revenue import AttentionSpanDist, SlateInputs


def logistic(x: float) -> float:
    if x >= 0:
        p = 1.0 / (1.0 + math.exp(-x))
    else:
        e = math.exp(x)
        p = e / (1.0 + e)
    return min(max(p, 5e-324), math.nextafter(1.0, 0.0))


def purchase_prob(
    product: Product, prior: BeliefPrior | None, position: int, model: CostModel
) -> float:
    """Pinned demand, or the logistic of posterior quality - price - position cost."""
    if position < 1:
        raise ValueError(f"position must be >= 1, got {position}")
    if product.demand_override:
        return product.demand_override
    if prior is None:
        raise ValueError(
            f"purchase probability unresolvable for {product.id!r}: "
            "no demand override and no prior belief supplied"
        )
    weight = 1.0 / (prior.precision_ratio * product.review_count + 1.0)
    quality = weight * prior.prior_mean + (1.0 - weight) * product.avg_rating
    chi = quality - product.price - model.slope * (position - 1)
    if abs(chi) > UTILITY_SCALE_WARN:
        warnings.warn(
            f"utility {chi:.3g} for product {product.id!r} exceeds +/-{UTILITY_SCALE_WARN}; "
            "check that prices and ratings use commensurate units",
            RuntimeWarning,
        )
    return logistic(chi)


def resolve_inputs(
    catalog: Catalog,
    slate: Sequence[str],
    prior: BeliefPrior | None = None,
    cost: CostModel | None = None,
    omega: float | None = None,
) -> SlateInputs:
    if len(set(slate)) != len(slate):
        raise ValueError(f"slate contains duplicate ids: {list(slate)}")
    cost = cost if cost is not None else CostModel()
    lambdas = []
    prices = []
    omegas = []
    for slot, pid in enumerate(slate, start=1):
        product = catalog.get(pid)
        lambdas.append(purchase_prob(product, prior, slot, cost))
        prices.append(product.price)
        omegas.append(omega if omega is not None else product.revenue_share)
    return SlateInputs(tuple(slate), tuple(lambdas), tuple(prices), tuple(omegas))


def cascade_probs(lambdas: Sequence[float]) -> tuple[tuple[float, ...], float]:
    """(per-slot purchase probabilities, no-purchase mass)."""
    per_slot = []
    prefix = 1.0
    for lam in lambdas:
        if not 0 < lam < 1:
            raise ValueError(f"purchase probability must lie in (0, 1), got {lam}")
        per_slot.append(prefix * lam)
        prefix *= 1.0 - lam
    return tuple(per_slot), prefix


def expected_revenue_fixed(inputs: SlateInputs, span: int) -> float:
    if span < 1:
        raise ValueError(f"span must be >= 1, got {span}")
    terms = []
    prefix = 1.0
    for k in range(min(span, len(inputs.ids))):
        lam = inputs.lambdas[k]
        terms.append(prefix * lam * inputs.prices[k] * inputs.omegas[k])
        prefix *= 1.0 - lam
    return math.fsum(terms)


def mixture_value(
    lambdas: Sequence[float],
    prices: Sequence[float],
    omegas: Sequence[float],
    dist: AttentionSpanDist,
) -> float:
    cumulative = [0.0]
    prefix = 1.0
    running = 0.0
    for k, lam in enumerate(lambdas):
        running += prefix * lam * prices[k] * omegas[k]
        cumulative.append(running)
        prefix *= 1.0 - lam
    last = len(lambdas)
    return math.fsum(h * cumulative[min(y, last)] for y, h in dist.pmf)


def tail_value(
    lambdas: Sequence[float],
    prices: Sequence[float],
    omegas: Sequence[float],
    dist: AttentionSpanDist,
) -> float:
    tail_terms = []
    prefix = 1.0
    for k, lam in enumerate(lambdas, start=1):
        tail_terms.append(prefix * lam * prices[k - 1] * omegas[k - 1] * dist.tail(k))
        prefix *= 1.0 - lam
    return math.fsum(tail_terms)


def expected_revenue(inputs: SlateInputs, dist: AttentionSpanDist) -> float:
    """The mixture form, checked against the tail form to 1e-10, relative or absolute."""
    direct = mixture_value(inputs.lambdas, inputs.prices, inputs.omegas, dist)
    tail_form = tail_value(inputs.lambdas, inputs.prices, inputs.omegas, dist)
    if abs(direct - tail_form) > 1e-10 and not math.isclose(direct, tail_form, rel_tol=1e-10):
        raise ArithmeticError(f"span-expectation forms disagree: {direct!r} vs {tail_form!r}")
    return direct
