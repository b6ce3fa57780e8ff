"""Shared builders for randomized test instances."""

from __future__ import annotations

import numpy as np

from assortplan.catalog import Catalog, Product
from assortplan.revenue import AttentionSpanDist
from assortplan.simulator import SimSummary


def product_of(catalog: Catalog, product_id: str) -> Product:
    """The catalog's product with this id (KeyError naming an unknown id)."""
    return catalog.products[catalog.row(product_id)]


def final_states(summary: SimSummary) -> dict[str, tuple[int, float]]:
    """The summary's final review states, id -> (count, mean), in id order."""
    return dict(zip(summary.ids, zip(summary.review_counts, summary.review_means)))


def posterior_means(summary: SimSummary) -> dict[str, float]:
    """The summary's posterior means, id -> mean, in id order."""
    return dict(zip(summary.ids, summary.posterior))


def random_catalog(
    rng: np.random.Generator,
    size: int | None = None,
    with_overrides: bool = True,
) -> Catalog:
    """A small random catalog; overrides pin demand so no prior is needed."""
    count = int(size if size is not None else rng.integers(2, 9))
    products = []
    for i in range(count):
        reviews = int(rng.integers(0, 100_000))
        products.append(
            Product(
                id=f"P{i:02d}",
                price=float(rng.uniform(1.0, 100.0)),
                review_count=reviews,
                avg_rating=float(rng.uniform(0.5, 5.0)) if reviews else 0.0,
                revenue_share=float(rng.uniform(0.05, 1.0)),
                demand_override=float(rng.uniform(0.01, 0.99)) if with_overrides else None,
            )
        )
    return Catalog(tuple(products))


def random_span_dist(rng: np.random.Generator, max_span: int = 6) -> AttentionSpanDist:
    if rng.random() < 0.5:
        return AttentionSpanDist.deterministic(int(rng.integers(1, max_span + 1)))
    spans = sorted(
        int(s) for s in rng.choice(max_span, size=int(rng.integers(1, 4)), replace=False) + 1
    )
    weights = rng.uniform(0.1, 1.0, size=len(spans))
    weights /= weights.sum()
    return AttentionSpanDist.from_pmf({s: float(w) for s, w in zip(spans, weights)})


def random_slate_params(rng: np.random.Generator, length: int):
    """Raw (lambdas, prices, omegas) vectors for cascade-level tests."""
    lambdas = rng.uniform(0.01, 0.99, size=length)
    prices = rng.uniform(0.0, 50.0, size=length)
    omegas = rng.uniform(0.05, 1.0, size=length)
    return list(lambdas), list(prices), list(omegas)
