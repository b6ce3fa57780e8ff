"""Competitive assortment planning engine.

Ranks products with an iterative two-stage review-count threshold
procedure, evaluates exact expected revenue under a cascade browsing model
with review-informed logit demand, audits displayed rankings for collusive
substitutions, and simulates sequential customers to validate the
analytics.
"""

__version__ = "0.1.0"

from importlib import import_module

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
from .demand import CostModel
from .revenue import AttentionSpanDist, brute_force_optimize, expected_revenue, resolve_inputs


def _on_first_use(namespace: dict, modules: dict[str, str]):
    """A module ``__getattr__`` (PEP 562): a name in ``modules`` is imported from that
    submodule on first lookup, then kept in ``namespace``, where a value set later stays."""
    def __getattr__(name: str):
        if name not in modules:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        return namespace.setdefault(name, getattr(import_module(f".{modules[name]}", __name__), name))
    return __getattr__


# The ranking, audit and simulation modules load on first use of one of their names.
__getattr__ = _on_first_use(globals(), {"two_stage_select": "assortment", "audit_ranking": "collusion",
                                        "SimConfig": "simulator", "simulate": "simulator"})

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
