"""Substitution analytics and ranking audits.

Swapping a mid-slate product for one with lower demand raises every
downstream slot's purchase probability, yet can still lower expected
revenue; the auditor hunts exactly that signature, alongside threshold
violations and order inversions relative to the compliant two-stage order.
Findings are arithmetic, each citing a recomputable quantity; they carry
no claims about intent.
"""

from __future__ import annotations

import math
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
from .catalog import BeliefPrior, Catalog, require_int
from .demand import CostModel
from .revenue import (
    AttentionSpanDist,
    cascade_probs,
    expected_revenue,
    resolve_inputs,
)

KIND_BELOW_STAGE1 = "below-stage1-threshold"
KIND_BELOW_STAGE2 = "below-stage2-threshold"
KIND_ORDER_VIOLATION = "order-violation"
KIND_REVENUE_DOMINATED = "revenue-dominated-swap"


@dataclass(frozen=True)
class SwapAnalysis:
    """Effect of substituting one slate slot, under an attention-span distribution.

    ``prob_before``/``prob_after`` track the purchase probability of the
    slot immediately after the target (None when the target is last);
    ``middle_term_*`` are the demand * price * share products of the
    replaced and replacement product at the target slot.
    """

    prob_before: float | None
    prob_after: float | None
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
    dist: AttentionSpanDist,
    prior: BeliefPrior | None = None,
    cost: CostModel | None = None,
    omega: float | None = None,
) -> SwapAnalysis:
    """Quantify replacing the product at ``slot`` (1-based) with another.

    Revenues are ``expected_revenue`` under ``dist``; the audit's
    substitution findings are this function's verdicts.
    """
    require_int("slot", slot, least=1)
    if slot > len(slate):
        raise ValueError(f"slot {slot} outside slate of length {len(slate)}")
    if replacement in slate:
        raise ValueError(f"replacement {replacement!r} already appears in the slate")
    catalog.row(replacement)

    before = resolve_inputs(catalog, slate, prior=prior, cost=cost, omega=omega)
    swapped = list(slate)
    swapped[slot - 1] = replacement
    after = resolve_inputs(catalog, swapped, prior=prior, cost=cost, omega=omega)

    per_slot_before = cascade_probs(before.lambdas)[0]
    per_slot_after = cascade_probs(after.lambdas)[0]
    revenue_before = expected_revenue(before, dist)
    revenue_after = expected_revenue(after, dist)
    idx = slot - 1
    return SwapAnalysis(
        prob_before=per_slot_before[slot] if slot < len(slate) else None,
        prob_after=per_slot_after[slot] if slot < len(slate) else None,
        revenue_before=revenue_before,
        revenue_after=revenue_after,
        middle_term_before=before.lambdas[idx] * before.prices[idx] * before.omegas[idx],
        middle_term_after=after.lambdas[idx] * after.prices[idx] * after.omegas[idx],
        exact_delta=revenue_after - revenue_before,
    )


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
    placed its first slot_count slots and one product of every adjacent
    displayed pair; an unplaced product ranks after every placed one.
    """
    displayed = list(displayed)
    if len(set(displayed)) != len(displayed):
        raise ValueError(f"displayed slate contains duplicate ids: {displayed}")
    rows = [catalog.row(pid) for pid in displayed]
    require_int("slot_count", slot_count, least=1)

    findings: list[AuditFinding] = []

    # Threshold replay: pool at slot i is the catalog minus earlier displayed
    # products, matching the elimination order a compliant run would follow.
    reviews = catalog.columns.reviews
    columns = RankingColumns(catalog, policy)
    replay = RankingPool(columns)
    for slot, (pid, row) in enumerate(zip(displayed, rows), start=1):
        selection = replay.select()
        review_count = reviews.item(row)
        # Stage 2 is checked only for a product that clears a defined stage 1.
        for kind, stage, cutoff, pool in (
            (KIND_BELOW_STAGE1, 1, selection.cutoff1, selection.shortlist),
            (KIND_BELOW_STAGE2, 2, selection.cutoff2, selection.passers),
        ):
            if not pool.size or cutoff is None:
                break
            if review_count < cutoff:
                detail = (
                    f"review count {review_count} below the stage-{stage} "
                    f"cutoff {cutoff:.4f} of iteration {slot}"
                )
                findings.append(AuditFinding(slot, pid, kind, detail))
                break
        replay.remove(row)

    # The compliant order, placed only as far as the audit reads it: its
    # first slot_count picks are the compliant slate, and an adjacent
    # displayed pair is ordered once one of the two is placed, since an
    # unplaced product ranks after every placed one.
    compliant = RankingPool(columns)
    open_pairs = set(zip(displayed, displayed[1:]))  # neither member placed yet
    ref_pos: dict[str, int] = {}
    while len(compliant) and (open_pairs or len(ref_pos) < slot_count):
        pid = columns.ids[compliant.take().pick]
        ref_pos[pid] = len(ref_pos)
        open_pairs = {pair for pair in open_pairs if pid not in pair}

    # Order inversions relative to the compliant order.
    inputs = None  # the displayed slate's demand, resolved at the first inversion
    for position in range(1, len(displayed)):
        first, second = displayed[position - 1], displayed[position]
        if ref_pos.get(first, math.inf) > ref_pos.get(second, math.inf):
            inputs = inputs or resolve_inputs(catalog, displayed, prior=prior, cost=cost, omega=omega)
            order = [*displayed[: position - 1], second, first, *displayed[position + 1 :]]
            swapped = resolve_inputs(catalog, order, prior=prior, cost=cost, omega=omega)
            delta = expected_revenue(swapped, dist) - expected_revenue(inputs, dist)
            detail = (
                f"{first} is displayed ahead of {second} against the "
                f"compliant order; swapping them changes expected revenue "
                f"by {delta:.6g}"
            )
            findings.append(AuditFinding(position, first, KIND_ORDER_VIOLATION, detail))

    # Substitution signature: a product foreign to the compliant slate that
    # raises the next slot's purchase odds while strictly losing revenue.
    ref_slots = tuple(ref_pos)[:slot_count]
    for slot, pid in enumerate(displayed[: len(ref_slots)], start=1):
        if pid in ref_slots:
            continue
        swap = substitution_effect(catalog, ref_slots, slot, pid, dist, prior, cost, omega)
        rose = swap.prob_before is not None and swap.prob_after > swap.prob_before
        if swap.exact_delta < 0 and rose:
            detail = (
                f"substituting {pid} for {ref_slots[slot - 1]} raises the next slot's "
                f"purchase probability ({swap.prob_before:.6g} -> {swap.prob_after:.6g}) "
                f"but changes expected revenue by {swap.exact_delta:.6g} "
                f"(slot terms {swap.middle_term_after:.6g} "
                f"vs {swap.middle_term_before:.6g})"
            )
            findings.append(AuditFinding(slot, pid, KIND_REVENUE_DOMINATED, detail))
    return findings


def findings_report(findings: Sequence[AuditFinding]) -> list[dict]:
    return [
        {"slot": f.slot, "product": f.product_id, "kind": f.kind, "detail": f.detail}
        for f in findings
    ]
