"""Scalar brute-force slate optimizer, kept as the test oracle.

This is the straightforward implementation the blocked numpy walk in
``revenue.brute_force_optimize`` replaced: every ordered slate is listed
with ``itertools.permutations`` and scored from scratch by the scalar
``mixture_value`` loop of ``reference_cascade``.  Tests require the engine to return the same slate,
bit-equal values and the same enumeration count.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Sequence

from assortplan.catalog import BeliefPrior, Catalog
from assortplan.demand import CostModel
from assortplan.revenue import (
    ENUMERATION_LIMIT,
    MAX_SLOTS,
    MAX_UNIVERSE,
    AttentionSpanDist,
    EnumerationGuardError,
    OptimizeResult,
    enumeration_count,
)
from helpers import product_of
from reference_cascade import expected_revenue, mixture_value, purchase_prob, resolve_inputs


def brute_force_optimize(
    catalog: Catalog,
    slot_count: int,
    dist: AttentionSpanDist,
    prior: BeliefPrior | None = None,
    cost: CostModel | None = None,
    omega: float | None = None,
    compare: Sequence[str] | None = None,
) -> OptimizeResult:
    """Exhaustively maximize expected revenue over every ordered slate.

    Ties break toward the lexicographically smallest id sequence.
    """
    if isinstance(slot_count, bool) or not isinstance(slot_count, int):
        raise ValueError(f"slot_count must be an integer, got {slot_count!r}")
    if slot_count < 1:
        raise ValueError(f"slot_count must be >= 1, got {slot_count}")
    if compare is not None and len(compare) > slot_count:
        raise ValueError(f"compare slate of {len(compare)} products exceeds slot_count {slot_count}")
    if not catalog.products:
        raise ValueError("catalog is empty")
    ids = [p.id for p in catalog.products]
    for i, pid in enumerate(ids):
        if pid in ids[:i]:
            raise ValueError(f"catalog lists product id {pid!r} more than once")
    size = catalog.universe_size
    count = enumeration_count(size, slot_count)
    if size > MAX_UNIVERSE or slot_count > MAX_SLOTS or count > ENUMERATION_LIMIT:
        raise EnumerationGuardError(
            f"enumeration guard exceeded: {count} ordered slates "
            f"(universe {size}, slots {slot_count}); "
            f"limits are universe <= {MAX_UNIVERSE}, slots <= {MAX_SLOTS}, "
            f"slates <= {ENUMERATION_LIMIT}",
            count,
        )

    cost = cost if cost is not None else CostModel()
    # Demand depends only on (product, slot), so cache the logit evaluations.
    lam_cache: dict[tuple[str, int], float] = {}

    def lam_at(pid: str, slot: int) -> float:
        key = (pid, slot)
        if key not in lam_cache:
            lam_cache[key] = purchase_prob(product_of(catalog, pid), prior, slot, cost)
        return lam_cache[key]

    price = {p.id: p.price for p in catalog.products}
    share = {p.id: (omega if omega is not None else p.revenue_share) for p in catalog.products}

    best_value = -math.inf
    best_slate: tuple[str, ...] = ()
    enumerated = 0
    for m in range(1, min(slot_count, size) + 1):
        for perm in permutations(ids, m):
            enumerated += 1
            lams = [lam_at(pid, slot) for slot, pid in enumerate(perm, start=1)]
            value = mixture_value(
                lams, [price[p] for p in perm], [share[p] for p in perm], dist
            )
            if value > best_value or (value == best_value and perm < best_slate):
                best_value = value
                best_slate = perm

    compare_value = None
    gap = None
    if compare is not None:
        compare_inputs = resolve_inputs(catalog, compare, prior=prior, cost=cost, omega=omega)
        compare_value = expected_revenue(compare_inputs, dist)
        gap = best_value - compare_value
    return OptimizeResult(
        slate=best_slate,
        value=best_value,
        enumerated=enumerated,
        compare_value=compare_value,
        gap=gap,
    )
