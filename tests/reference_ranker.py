"""List-based two-stage ranker and audit, kept as test oracles.

These are the straightforward implementations the array-backed
``RankingPool`` and the lazy ``audit_ranking`` replaced: every round
rebuilds and re-sorts the remaining pool, and the audit ranks the whole
catalog, then ranks the first slots again.  Thresholds are exactly rounded
(``math.fsum``) as in the engine.  An order violation quotes the exact
change in expected revenue from swapping the pair, scored by the frozen
loops of ``reference_cascade``.  Tests require the engine to return equal
rankings, traces and findings.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from assortplan.assortment import (
    POLICIES,
    POLICY_PRICE_DESC,
    POLICY_STAGE1_ORDER,
    IterationRecord,
    Ranking,
    TwoStageTrace,
)
from assortplan.catalog import BeliefPrior, Catalog, Product
from assortplan.collusion import (
    KIND_BELOW_STAGE1,
    KIND_BELOW_STAGE2,
    KIND_ORDER_VIOLATION,
    KIND_REVENUE_DOMINATED,
    AuditFinding,
)
from assortplan.demand import CostModel
from assortplan.revenue import AttentionSpanDist
from helpers import product_of
from reference_cascade import cascade_probs, expected_revenue, resolve_inputs


class ThresholdUndefined(ValueError):
    """A stage's weights sum to zero, so it has no cutoff (a fallback pick)."""


def stage1_threshold(products: Iterable[Product]) -> float:
    products = list(products)
    rating_mass = math.fsum(p.avg_rating for p in products)
    if rating_mass == 0:
        raise ThresholdUndefined("stage-1 threshold undefined: all ratings are zero")
    return math.fsum(p.avg_rating * p.review_count for p in products) / rating_mass


def stage2_threshold(products: Iterable[Product]) -> float:
    products = list(products)
    price_mass = math.fsum(p.price for p in products)
    if price_mass == 0:
        raise ThresholdUndefined("stage-2 threshold undefined: all prices are zero")
    return math.fsum(p.price * p.review_count for p in products) / price_mass


def _cutoff(stage: int, products: Sequence[Product]) -> float | None:
    """The stage's cutoff, None when undefined; fsum's overflow and inf - inf name the stage."""
    threshold = stage1_threshold if stage == 1 else stage2_threshold
    try:
        return threshold(products)
    except ThresholdUndefined:
        return None
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"stage-{stage} threshold sum: {exc}") from None


def stage1_rank(products: Iterable[Product], threshold: float) -> list[str]:
    """Ids of products with review_count >= threshold, best rating first.

    Ties break by review count descending, then id ascending.
    """
    eligible = [p for p in products if p.review_count >= threshold]
    eligible.sort(key=lambda p: (-p.avg_rating, -p.review_count, p.id))
    return [p.id for p in eligible]


def stage2_filter(
    shortlist: Sequence[str],
    threshold: float,
    by_id: Mapping[str, Product],
    policy: str = POLICY_STAGE1_ORDER,
) -> list[str]:
    """Subsequence of the shortlist whose products clear the stage-2 cutoff.

    The default policy preserves the shortlist (quality) order; the
    price-desc policy re-sorts survivors by price descending, breaking
    price ties by pinned demand descending, then id ascending.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown ordering policy {policy!r}")
    passers = [pid for pid in shortlist if by_id[pid].review_count >= threshold]
    if policy == POLICY_PRICE_DESC:
        passers.sort(
            key=lambda pid: (-by_id[pid].price, -(by_id[pid].demand_override or 0.0), pid)
        )
    return passers


def run_iteration(pool: Sequence[Product], policy: str = POLICY_STAGE1_ORDER) -> IterationRecord:
    if not pool:
        raise ValueError("iteration pool is empty")
    by_id = {p.id: p for p in pool}
    cutoff1 = _cutoff(1, pool)
    shortlist = stage1_rank(pool, cutoff1) if cutoff1 is not None else []
    if not shortlist:
        pick = sorted(pool, key=lambda p: (-p.review_count, -p.avg_rating, p.id))[0]
        return IterationRecord(cutoff1, (), None, (), pick.id, True)
    cutoff2 = _cutoff(2, [by_id[pid] for pid in shortlist])
    passers = (
        stage2_filter(shortlist, cutoff2, by_id, policy) if cutoff2 is not None else []
    )
    if passers:
        return IterationRecord(cutoff1, tuple(shortlist), cutoff2, tuple(passers), passers[0], False)
    return IterationRecord(cutoff1, tuple(shortlist), cutoff2, (), shortlist[0], True)


def two_stage_select(
    catalog: Catalog,
    slot_count: int,
    policy: str = POLICY_STAGE1_ORDER,
) -> tuple[Ranking, TwoStageTrace]:
    if slot_count < 1:
        raise ValueError(f"slot_count must be >= 1, got {slot_count}")
    if not catalog.products:
        raise ValueError("catalog is empty")
    if policy not in POLICIES:
        raise ValueError(f"unknown ordering policy {policy!r}")
    remaining = list(catalog.products)
    iterations: list[IterationRecord] = []
    slots: list[str] = []
    while remaining and len(slots) < slot_count:
        record = run_iteration(remaining, policy)
        iterations.append(record)
        slots.append(record.selected)
        remaining = [p for p in remaining if p.id != record.selected]
    return Ranking(tuple(slots), slot_count), TwoStageTrace(tuple(iterations))


def audit_ranking(
    catalog: Catalog,
    displayed: Sequence[str],
    slot_count: int,
    dist: AttentionSpanDist,
    policy: str = POLICY_STAGE1_ORDER,
    prior: BeliefPrior | None = None,
    cost: CostModel | None = None,
    omega: float | None = None,
) -> list[AuditFinding]:
    displayed = list(displayed)
    if len(set(displayed)) != len(displayed):
        raise ValueError(f"displayed slate contains duplicate ids: {displayed}")
    for pid in displayed:
        product_of(catalog, pid)

    findings: list[AuditFinding] = []

    pool = list(catalog.products)
    for slot, pid in enumerate(displayed, start=1):
        record = run_iteration(pool, policy)
        product = product_of(catalog, pid)
        if record.stage1_order and record.stage1_threshold is not None:
            if product.review_count < record.stage1_threshold:
                findings.append(
                    AuditFinding(
                        slot=slot,
                        product_id=pid,
                        kind=KIND_BELOW_STAGE1,
                        detail=(
                            f"review count {product.review_count} below the stage-1 "
                            f"cutoff {record.stage1_threshold:.4f} of iteration {slot}"
                        ),
                    )
                )
            elif (
                record.stage2_passers
                and record.stage2_threshold is not None
                and product.review_count < record.stage2_threshold
            ):
                findings.append(
                    AuditFinding(
                        slot=slot,
                        product_id=pid,
                        kind=KIND_BELOW_STAGE2,
                        detail=(
                            f"review count {product.review_count} below the stage-2 "
                            f"cutoff {record.stage2_threshold:.4f} of iteration {slot}"
                        ),
                    )
                )
        pool = [p for p in pool if p.id != pid]

    reference_full, _ = two_stage_select(catalog, catalog.universe_size, policy)
    ref_pos = {pid: i for i, pid in enumerate(reference_full.slots)}
    if len(displayed) >= 2:
        inputs = resolve_inputs(catalog, displayed, prior=prior, cost=cost, omega=omega)
        for position in range(1, len(displayed)):
            first, second = displayed[position - 1], displayed[position]
            if ref_pos[first] > ref_pos[second]:
                swapped = displayed[: position - 1] + [second, first] + displayed[position + 1 :]
                delta = expected_revenue(
                    resolve_inputs(catalog, swapped, prior=prior, cost=cost, omega=omega), dist
                ) - expected_revenue(inputs, dist)
                findings.append(
                    AuditFinding(
                        slot=position,
                        product_id=first,
                        kind=KIND_ORDER_VIOLATION,
                        detail=(
                            f"{first} is displayed ahead of {second} against the "
                            f"compliant order; swapping them changes expected revenue "
                            f"by {delta:.6g}"
                        ),
                    )
                )

    reference, _ = two_stage_select(catalog, slot_count, policy)
    ref_slots = reference.slots
    ref_inputs = resolve_inputs(catalog, ref_slots, prior=prior, cost=cost, omega=omega)
    ref_probs = cascade_probs(ref_inputs.lambdas)[0]
    ref_value = expected_revenue(ref_inputs, dist)
    for slot, pid in enumerate(displayed, start=1):
        if slot > len(ref_slots) or pid in ref_slots:
            continue
        swapped = list(ref_slots)
        swapped[slot - 1] = pid
        sub_inputs = resolve_inputs(catalog, swapped, prior=prior, cost=cost, omega=omega)
        sub_probs = cascade_probs(sub_inputs.lambdas)[0]
        delta = expected_revenue(sub_inputs, dist) - ref_value
        downstream_rose = slot < len(ref_slots) and sub_probs[slot] > ref_probs[slot]
        if delta < 0 and downstream_rose:
            idx = slot - 1
            mid_before = ref_inputs.lambdas[idx] * ref_inputs.prices[idx] * ref_inputs.omegas[idx]
            mid_after = sub_inputs.lambdas[idx] * sub_inputs.prices[idx] * sub_inputs.omegas[idx]
            findings.append(
                AuditFinding(
                    slot=slot,
                    product_id=pid,
                    kind=KIND_REVENUE_DOMINATED,
                    detail=(
                        f"substituting {pid} for {ref_slots[idx]} raises the next slot's "
                        f"purchase probability ({ref_probs[slot]:.6g} -> {sub_probs[slot]:.6g}) "
                        f"but changes expected revenue by {delta:.6g} "
                        f"(slot terms {mid_after:.6g} vs {mid_before:.6g})"
                    ),
                )
            )
    return findings
