"""Scalar market simulator, kept as the test oracle.

This is the straightforward loop the batched ``simulator.simulate``
replaced: every customer builds its own numpy ``Generator`` on the Philox
stream at counter ``t << 128`` and draws span, slot and rating values from
it one at a time, and every re-rank rebuilds the catalog from the current
review states.  Tests require the engine to produce the same records, the
same final states and the same summary, bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

import numpy as np

from assortplan.assortment import two_stage_select
from assortplan.catalog import Catalog
from assortplan.demand import ReviewState, expected_utility, logistic, update_review_state
from assortplan.revenue import AttentionSpanDist
from assortplan.simulator import CustomerRecord, SimConfig, SimTrace, _validate_config


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


def simulate(catalog: Catalog, cfg: SimConfig) -> SimTrace:
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
                lam = logistic(
                    expected_utility(
                        cfg.prior, states[product.id], product.price, j, cfg.cost
                    )
                )
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
                        lo, hi = cfg.clamp_ratings
                        drawn = min(max(drawn, lo), hi)
                    rating = drawn
                    new_state = update_review_state(states[product.id], rating)
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

    return SimTrace(
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
