"""Belief updates, search costs, utilities, and logit purchase probabilities.

All operations are pure functions of their inputs.  Utilities follow the
normalized valuation ``quality estimate - price - position cost``; the
purchase probability is the logistic transform of that utility unless the
product carries a pinned demand override.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .catalog import BeliefPrior, Product

# Utility magnitudes beyond this suggest price and rating units were never
# reconciled by the caller; the logistic saturates and demand goes degenerate.
UTILITY_SCALE_WARN = 50.0

_ONE_BELOW = math.nextafter(1.0, 0.0)
_TINY = 5e-324


@dataclass(frozen=True)
class CostModel:
    """Linear position cost: zero at the top slot, +slope per step down."""

    slope: float = 0.1

    def __post_init__(self) -> None:
        if not 0 <= self.slope < math.inf:
            raise ValueError(f"cost slope must be nonnegative and finite, got {self.slope}")


@dataclass(frozen=True)
class ReviewState:
    """Running review record: count and mean rating."""

    count: int
    mean: float


def search_cost(position: int, model: CostModel) -> float:
    """Cost of inspecting the product at a 1-based display position."""
    if position < 1:
        raise ValueError(f"position must be >= 1, got {position}")
    return model.slope * (position - 1)


def posterior(prior: BeliefPrior, count, mean):
    """Posterior quality estimate after ``count`` reviews averaging ``mean``.

    The prior receives weight 1/(rho*n + 1) where rho is the prior-to-noise
    variance ratio and n the review count; the result always lies between
    the prior mean and the observed mean.  Elementwise on numpy columns,
    with the same operations in the same order, so each element has the
    bits the scalar form gives.
    """
    weight = 1.0 / (prior.precision_ratio * count + 1.0)
    return weight * prior.prior_mean + (1.0 - weight) * mean


def posterior_mean(prior: BeliefPrior, state: ReviewState) -> float:
    """``posterior`` of a review state."""
    return posterior(prior, state.count, state.mean)


def add_rating(count: int, mean: float, rating: float) -> tuple[int, float]:
    """The (count, mean) review record after one more rating."""
    new_count = count + 1
    return new_count, (count * mean + rating) / new_count


def update_review_state(state: ReviewState, rating: float | None) -> ReviewState:
    """Fold one customer outcome into the review record.

    ``rating=None`` means no purchase and leaves the state unchanged;
    otherwise the count increments and the mean absorbs the new rating.
    """
    if rating is None:
        return state
    return ReviewState(*add_rating(state.count, state.mean, rating))


def expected_utility(
    prior: BeliefPrior,
    state: ReviewState,
    price: float,
    position: int,
    model: CostModel,
) -> float:
    """Expected purchase utility: posterior quality minus price minus position cost."""
    return utility(prior, state.count, state.mean, price, position, model)


def utility(
    prior: BeliefPrior, count: int, mean: float, price: float, position: int, model: CostModel
) -> float:
    """``expected_utility`` of the review state (count, mean)."""
    return posterior(prior, count, mean) - price - search_cost(position, model)


def logistic(x: float) -> float:
    """Numerically stable logistic, clamped one ulp inside (0, 1).

    The clamp keeps downstream cascade arithmetic away from exact 0/1 even
    when the utility saturates the double range (|x| up to ~745).
    """
    if x >= 0:
        p = 1.0 / (1.0 + math.exp(-x))
    else:
        e = math.exp(x)
        p = e / (1.0 + e)
    return min(max(p, _TINY), _ONE_BELOW)


def purchase_prob(
    product: Product,
    prior: BeliefPrior | None,
    position: int,
    model: CostModel,
) -> float:
    """Purchase probability of a product shown at the given position.

    A demand override is returned unchanged; otherwise the logit path
    requires a prior.  Warns when the computed utility magnitude exceeds
    UTILITY_SCALE_WARN (likely unit mismatch between prices and ratings).
    """
    if position < 1:
        raise ValueError(f"position must be >= 1, got {position}")
    if product.demand_override is not None:
        return product.demand_override
    if prior is None:
        raise ValueError(
            f"purchase probability unresolvable for {product.id!r}: "
            "no demand override and no prior belief supplied"
        )
    chi = expected_utility(
        prior,
        ReviewState(count=product.review_count, mean=product.avg_rating),
        product.price,
        position,
        model,
    )
    if abs(chi) > UTILITY_SCALE_WARN:
        warnings.warn(
            f"utility {chi:.3g} for product {product.id!r} exceeds +/-{UTILITY_SCALE_WARN}; "
            "check that prices and ratings use commensurate units",
            RuntimeWarning,
            stacklevel=2,
        )
    return logistic(chi)
