"""Competitive assortment planning engine.

Ranks products with an iterative two-stage review-count threshold
procedure, evaluates exact expected revenue under a cascade browsing model
with review-informed logit demand, audits displayed rankings for collusive
substitutions, and simulates sequential customers to validate the
analytics.
"""

__version__ = "0.1.0"

from .assortment import (
    POLICY_PRICE_DESC,
    POLICY_STAGE1_ORDER,
    Ranking,
    TwoStageTrace,
    stage1_threshold,
    stage2_threshold,
    two_stage_select,
)
from .catalog import (
    BeliefPrior,
    Catalog,
    CatalogError,
    Product,
    demo_catalog,
    load_catalog,
    serialize_catalog,
    validate_catalog,
)
from .collusion import (
    AuditFinding,
    SwapAnalysis,
    audit_ranking,
    substitution_effect,
    substitution_raises_downstream,
)
from .demand import (
    CostModel,
    ReviewState,
    expected_utility,
    logistic,
    posterior_mean,
    purchase_prob,
    search_cost,
    update_review_state,
)
from .revenue import (
    AttentionSpanDist,
    EnumerationGuardError,
    OptimizeResult,
    SlateInputs,
    brute_force_optimize,
    cascade_probs,
    evaluate_slate,
    expected_revenue,
    expected_revenue_fixed,
    resolve_inputs,
)
from .simulator import SimConfig, SimSummary, SimTrace, simulate, summarize

__all__ = [
    "__version__",
    "AttentionSpanDist",
    "AuditFinding",
    "BeliefPrior",
    "Catalog",
    "CatalogError",
    "CostModel",
    "EnumerationGuardError",
    "OptimizeResult",
    "POLICY_PRICE_DESC",
    "POLICY_STAGE1_ORDER",
    "Product",
    "Ranking",
    "ReviewState",
    "SimConfig",
    "SimSummary",
    "SimTrace",
    "SlateInputs",
    "SwapAnalysis",
    "TwoStageTrace",
    "audit_ranking",
    "brute_force_optimize",
    "cascade_probs",
    "demo_catalog",
    "evaluate_slate",
    "expected_revenue",
    "expected_revenue_fixed",
    "expected_utility",
    "load_catalog",
    "logistic",
    "posterior_mean",
    "purchase_prob",
    "resolve_inputs",
    "search_cost",
    "serialize_catalog",
    "simulate",
    "stage1_threshold",
    "stage2_threshold",
    "substitution_effect",
    "substitution_raises_downstream",
    "summarize",
    "two_stage_select",
    "update_review_state",
    "validate_catalog",
]
