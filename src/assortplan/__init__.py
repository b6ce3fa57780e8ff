"""Competitive assortment planning engine.

Ranks products with an iterative two-stage review-count threshold
procedure, evaluates exact expected revenue under a cascade browsing model
with review-informed logit demand, audits displayed rankings for collusive
substitutions, and simulates sequential customers to validate the
analytics.
"""

__version__ = "0.1.0"

from .assortment import two_stage_select
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
from .collusion import audit_ranking
from .demand import CostModel
from .revenue import AttentionSpanDist, brute_force_optimize, expected_revenue, resolve_inputs
from .simulator import SimConfig, simulate

__all__ = [
    "__version__",
    "AttentionSpanDist",
    "BeliefPrior",
    "Catalog",
    "CatalogError",
    "CostModel",
    "Product",
    "SimConfig",
    "audit_ranking",
    "brute_force_optimize",
    "demo_catalog",
    "expected_revenue",
    "load_catalog",
    "resolve_inputs",
    "serialize_catalog",
    "simulate",
    "two_stage_select",
    "validate_catalog",
]
