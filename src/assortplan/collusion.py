"""Substitution analytics and ranking audits.

Swapping a mid-slate product for one with lower demand raises every
downstream slot's purchase probability, yet can still lower expected
revenue; the auditor hunts exactly that signature, alongside threshold
violations and order inversions relative to the compliant two-stage order.
Findings are arithmetic, each citing a recomputable quantity; they carry
no claims about intent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# run_iteration and two_stage_select go unused here, but perfbench/tracing.py
# wraps them under these module attributes, so they stay importable.
from .assortment import (  # noqa: F401
    POLICY_STAGE1_ORDER,
    RankingColumns,
    RankingPool,
    run_iteration,
    two_stage_select,
)
from .catalog import BeliefPrior, Catalog
from .demand import CostModel
from .revenue import (
    AttentionSpanDist,
    cascade_probs,
    expected_revenue,
    expected_revenue_fixed,
    resolve_inputs,
)

KIND_BELOW_STAGE1 = "below-stage1-threshold"
KIND_BELOW_STAGE2 = "below-stage2-threshold"
KIND_ORDER_VIOLATION = "order-violation"
KIND_REVENUE_DOMINATED = "revenue-dominated-swap"


@dataclass(frozen=True)
class SwapAnalysis:
    """Effect of substituting one slate slot, at a fixed attention span.

    ``prob_before``/``prob_after`` track the purchase probability of the
    slot immediately after the target (None when the target is last);
    ``middle_term_*`` are the demand * price * share products of the
    replaced and replacement product at the target slot.
    """

    target_slot: int
    prob_before: float | None
    prob_after: float | None
    downstream_before: tuple[float, ...]
    downstream_after: tuple[float, ...]
    revenue_before: float
    revenue_after: float
    middle_term_before: float
    middle_term_after: float
    exact_delta: float


@dataclass(frozen=True)
class AuditFinding:
    slot: int
    product_id: str
    kind: str
    detail: str


def substitution_effect(
    catalog: Catalog,
    slate: Sequence[str],
    slot: int,
    replacement: str,
    span: int,
    prior: BeliefPrior | None = None,
    cost: CostModel | None = None,
    omega: float | None = None,
) -> SwapAnalysis:
    """Quantify replacing the product at ``slot`` (1-based) with another."""
    if not 1 <= slot <= len(slate):
        raise ValueError(f"slot {slot} outside slate of length {len(slate)}")
    if replacement in slate:
        raise ValueError(f"replacement {replacement!r} already appears in the slate")
    if span < 1:
        raise ValueError(f"span must be >= 1, got {span}")
    catalog.row(replacement)

    before = resolve_inputs(catalog, slate, prior=prior, cost=cost, omega=omega)
    swapped = list(slate)
    swapped[slot - 1] = replacement
    after = resolve_inputs(catalog, swapped, prior=prior, cost=cost, omega=omega)

    probs_before = cascade_probs(before.lambdas).per_slot
    probs_after = cascade_probs(after.lambdas).per_slot
    downstream_before = probs_before[slot:]
    downstream_after = probs_after[slot:]

    idx = slot - 1
    revenue_before = expected_revenue_fixed(before, span)
    revenue_after = expected_revenue_fixed(after, span)
    return SwapAnalysis(
        target_slot=slot,
        prob_before=downstream_before[0] if downstream_before else None,
        prob_after=downstream_after[0] if downstream_after else None,
        downstream_before=downstream_before,
        downstream_after=downstream_after,
        revenue_before=revenue_before,
        revenue_after=revenue_after,
        middle_term_before=before.lambdas[idx] * before.prices[idx] * before.omegas[idx],
        middle_term_after=after.lambdas[idx] * after.prices[idx] * after.omegas[idx],
        exact_delta=revenue_after - revenue_before,
    )


def substitution_raises_downstream(mid_lambda_before: float, mid_lambda_after: float) -> bool:
    """True iff lowering the middle slot's demand raises downstream purchase odds.

    Every downstream slot's cascade probability scales by (1 - lambda_mid),
    so the rise happens exactly when the replacement demand is strictly
    lower.
    """
    for value in (mid_lambda_before, mid_lambda_after):
        if not 0 < value < 1:
            raise ValueError(f"purchase probability must lie in (0, 1), got {value}")
    return mid_lambda_after < mid_lambda_before


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
    """Audit a displayed ranking against the compliant two-stage procedure.

    Emits findings for: products missing the review-count cutoffs their
    iteration would impose (replayed slot by slot against the displayed
    slate); adjacent pairs inverted relative to the full-catalog two-stage
    order, quoting the exact change in expected revenue (under ``dist`` and
    the requested demand) from swapping the pair; and substitutions relative
    to the compliant slate that raise the next slot's purchase probability
    while strictly losing expected revenue.  The engine's own output always
    audits clean.  The compliant order is ranked once, and only until it has
    placed every displayed product and its first slot_count slots.
    """
    displayed = list(displayed)
    if len(set(displayed)) != len(displayed):
        raise ValueError(f"displayed slate contains duplicate ids: {displayed}")
    for pid in displayed:
        catalog.row(pid)
    if slot_count < 1:
        raise ValueError(f"slot_count must be >= 1, got {slot_count}")

    findings: list[AuditFinding] = []

    # Threshold replay: pool at slot i is the catalog minus earlier displayed
    # products, matching the elimination order a compliant run would follow.
    reviews = catalog.columns.reviews
    columns = RankingColumns(catalog, policy)
    replay = RankingPool(columns)
    for slot, pid in enumerate(displayed, start=1):
        record = replay.peek()
        review_count = reviews.item(catalog.row(pid))
        if record.stage1_order and record.stage1_threshold is not None:
            if review_count < record.stage1_threshold:
                findings.append(
                    AuditFinding(
                        slot=slot,
                        product_id=pid,
                        kind=KIND_BELOW_STAGE1,
                        detail=(
                            f"review count {review_count} below the stage-1 "
                            f"cutoff {record.stage1_threshold:.4f} of iteration {slot}"
                        ),
                    )
                )
            elif (
                record.stage2_passers
                and record.stage2_threshold is not None
                and review_count < record.stage2_threshold
            ):
                findings.append(
                    AuditFinding(
                        slot=slot,
                        product_id=pid,
                        kind=KIND_BELOW_STAGE2,
                        detail=(
                            f"review count {review_count} below the stage-2 "
                            f"cutoff {record.stage2_threshold:.4f} of iteration {slot}"
                        ),
                    )
                )
        replay.remove(pid)

    # The compliant order, placed only as far as the audit reads it: its
    # first slot_count picks are the compliant slate, and only the relative
    # order of displayed products is compared.
    compliant = RankingPool(columns)
    unplaced = set(displayed)
    ref_pos: dict[str, int] = {}
    while len(compliant) and (unplaced or len(ref_pos) < slot_count):
        pid = compliant.take_id()
        ref_pos[pid] = len(ref_pos)
        unplaced.discard(pid)

    # Order inversions relative to the compliant order.
    if len(displayed) >= 2:
        inputs = resolve_inputs(catalog, displayed, prior=prior, cost=cost, omega=omega)
        for position in range(1, len(displayed)):
            first, second = displayed[position - 1], displayed[position]
            if ref_pos[first] > ref_pos[second]:
                order = [*displayed[: position - 1], second, first, *displayed[position + 1 :]]
                swapped = resolve_inputs(catalog, order, prior=prior, cost=cost, omega=omega)
                delta = expected_revenue(swapped, dist) - expected_revenue(inputs, dist)
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

    # Substitution signature: a product foreign to the compliant slate that
    # raises the next slot's purchase odds while strictly losing revenue.
    ref_slots = tuple(ref_pos)[:slot_count]
    ref_inputs = resolve_inputs(catalog, ref_slots, prior=prior, cost=cost, omega=omega)
    ref_probs = cascade_probs(ref_inputs.lambdas).per_slot
    ref_value = expected_revenue(ref_inputs, dist)
    for slot, pid in enumerate(displayed, start=1):
        if slot > len(ref_slots) or pid in ref_slots:
            continue
        swapped = list(ref_slots)
        swapped[slot - 1] = pid
        sub_inputs = resolve_inputs(catalog, swapped, prior=prior, cost=cost, omega=omega)
        sub_probs = cascade_probs(sub_inputs.lambdas).per_slot
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


def findings_report(findings: Sequence[AuditFinding]) -> list[dict]:
    return [
        {"slot": f.slot, "product": f.product_id, "kind": f.kind, "detail": f.detail}
        for f in findings
    ]
