"""Scalar market simulator, kept as the test oracle.

This is the straightforward loop the batched ``simulator.simulate``
replaced: every customer builds its own numpy ``Generator`` on the Philox
stream at counter ``t << 128`` and draws span, slot and rating values from
it one at a time, and every re-rank rebuilds the catalog from the current
review states.  Its trace is a tuple of ``CustomerRecord``s, one built per
customer, which ``trace_table`` formats and ``summarize`` totals record by
record.  ``summary_document`` is the summary report as a dict, which
``json.dumps(..., indent=2)`` writes as ``summary.json`` was once written.
Tests require the engine's columnar trace to give the same records, the
same final states, the same trace bytes, the same summary and the same
``summary.json`` bytes, bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from assortplan.assortment import two_stage_select
from assortplan.catalog import BeliefPrior, Catalog
from assortplan.demand import logistic
from assortplan.revenue import AttentionSpanDist
from assortplan.simulator import CustomerRecord, SimConfig, _validate_config


class ReviewState(NamedTuple):
    """Running review record: count and mean rating."""

    count: int
    mean: float


@dataclass(frozen=True)
class SimSummary:
    gross_revenue: float
    platform_revenue: float
    purchase_count: int
    purchase_rate: float
    per_product_purchases: dict[str, int]
    final_states: dict[str, tuple[int, float]]
    posterior_means: dict[str, float]


@dataclass(frozen=True)
class RecordTrace:
    records: tuple[CustomerRecord, ...]
    final_states: dict[str, ReviewState]
    prior: BeliefPrior
    product_params: dict[str, tuple[float, float]]

    @cached_property
    def summary(self) -> SimSummary:
        return summarize(self)


# The belief and review formulas, written out here rather than imported,
# so that the oracle shares no arithmetic with the engine it checks.
def _posterior(prior: BeliefPrior, state: ReviewState) -> float:
    weight = 1.0 / (prior.prior_var / prior.noise_var * state.count + 1.0)
    return weight * prior.prior_mean + (1.0 - weight) * state.mean


def _utility(cfg: SimConfig, state: ReviewState, price: float, position: int) -> float:
    return _posterior(cfg.prior, state) - price - cfg.cost.slope * (position - 1)


def _add_rating(state: ReviewState, rating: float) -> ReviewState:
    return ReviewState(state.count + 1, (state.count * state.mean + rating) / (state.count + 1))


def _draw_span(dist: AttentionSpanDist, rng: np.random.Generator) -> int:
    if dist.kind == "deterministic":
        return dist.pmf[0][0]
    u = rng.random()
    cumulative = 0.0
    for span, prob in dist.pmf:
        cumulative += prob
        if u < cumulative:
            return span
    return dist.pmf[-1][0]


def simulate(catalog: Catalog, cfg: SimConfig) -> RecordTrace:
    _validate_config(catalog, cfg)
    states: dict[str, ReviewState] = {
        p.id: ReviewState(p.review_count, p.avg_rating) for p in catalog.products
    }
    slate: tuple[str, ...] = cfg.slate if cfg.slate is not None else ()
    records: list[CustomerRecord] = []

    for t in range(1, cfg.horizon + 1):
        if cfg.rerank_every is not None and (t - 1) % cfg.rerank_every == 0:
            slate = _rerank(catalog, states, cfg)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed, counter=t << 128))
        span = _draw_span(cfg.dist, rng)
        limit = min(span, len(slate))
        purchased: str | None = None
        rating: float | None = None
        post_state: tuple[int, float] | None = None
        viewed = limit
        for j in range(1, limit + 1):
            product = catalog.get(slate[j - 1])
            if product.demand_override is not None:
                lam = product.demand_override
            else:
                lam = logistic(_utility(cfg, states[product.id], product.price, j))
            if rng.random() < lam:
                purchased = product.id
                viewed = j
                if (
                    not cfg.freeze_beliefs
                    and product.true_quality is not None
                    and product.rating_noise is not None
                ):
                    drawn = float(rng.normal(product.true_quality, product.rating_noise))
                    if cfg.clamp_ratings is not None:
                        lo, hi = map(float, cfg.clamp_ratings)
                        drawn = min(max(drawn, lo), hi)
                    rating = drawn
                    new_state = _add_rating(states[product.id], rating)
                    states[product.id] = new_state
                    post_state = (new_state.count, new_state.mean)
                break
        records.append(
            CustomerRecord(
                t=t,
                span=span,
                viewed=viewed,
                purchased=purchased,
                rating=rating,
                post_state=post_state,
            )
        )

    return RecordTrace(
        records=tuple(records),
        final_states=states,
        prior=cfg.prior,
        product_params={p.id: (p.price, p.revenue_share) for p in catalog.products},
    )


def _rerank(
    catalog: Catalog, states: Mapping[str, ReviewState], cfg: SimConfig
) -> tuple[str, ...]:
    refreshed = tuple(
        dataclasses.replace(
            p, review_count=states[p.id].count, avg_rating=states[p.id].mean
        )
        for p in catalog.products
    )
    ranking, _ = two_stage_select(Catalog(refreshed), cfg.slot_count, cfg.policy)
    return ranking.slots


def summarize(trace: RecordTrace) -> SimSummary:
    """Totals and rates over a trace; platform revenue is share-weighted."""
    gross = 0.0
    platform = 0.0
    per_product: dict[str, int] = {}
    for record in trace.records:
        if record.purchased is None:
            continue
        price, share = trace.product_params[record.purchased]
        gross += price
        platform += share * price
        per_product[record.purchased] = per_product.get(record.purchased, 0) + 1
    count = sum(per_product.values())
    horizon = len(trace.records)
    final_states = {pid: (s.count, s.mean) for pid, s in trace.final_states.items()}
    posterior_means = {pid: _posterior(trace.prior, s) for pid, s in trace.final_states.items()}
    return SimSummary(
        gross_revenue=gross,
        platform_revenue=platform,
        purchase_count=count,
        purchase_rate=count / horizon if horizon else 0.0,
        per_product_purchases=per_product,
        final_states=final_states,
        posterior_means=posterior_means,
    )


def trace_table(trace: RecordTrace) -> str:
    """One tab-separated line per customer record."""
    lines = ["t\tspan\tviewed\tpurchased\trating\tpost_reviews\tpost_avg_rating"]
    for r in trace.records:
        lines.append(
            "\t".join(
                (
                    str(r.t),
                    str(r.span),
                    str(r.viewed),
                    r.purchased if r.purchased is not None else "-",
                    repr(r.rating) if r.rating is not None else "-",
                    str(r.post_state[0]) if r.post_state is not None else "-",
                    repr(r.post_state[1]) if r.post_state is not None else "-",
                )
            )
        )
    return "\n".join(lines) + "\n"


def summary_document(trace) -> dict:
    """The summary of a trace (the engine's or this module's) as a report dict."""
    s = trace.summary
    return {
        "gross_revenue": s.gross_revenue,
        "platform_revenue": s.platform_revenue,
        "purchase_count": s.purchase_count,
        "purchase_rate": s.purchase_rate,
        "per_product_purchases": dict(sorted(s.per_product_purchases.items())),
        "final_states": {
            pid: {"reviews": n, "avg_rating": mean}
            for pid, (n, mean) in sorted(s.final_states.items())
        },
        "posterior_means": dict(sorted(s.posterior_means.items())),
    }
