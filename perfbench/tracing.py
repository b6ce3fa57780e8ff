"""Outside-in layer tracing for the traced benchmark run.

The engine carries no tracing code.  ``install`` replaces the module-level
names each caller looks up (``cli.load_catalog``, ``collusion.run_iteration``,
``simulator.logistic`` ...) with wrappers that record a span per call, with
the open span as its parent, and read counters from return values.  Spans
stay in flat in-memory arrays until the run ends; ``layer_metrics`` then
turns them into per-round layer figures.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Wrapped name -> layer its span belongs to.  The key is where the caller
# looks the name up, so the same function can appear once per caller.
LAYER_OF = {
    "cli.main": "cli",
    "cli.load_catalog": "catalog",
    "cli.two_stage_select": "assortment",
    "collusion.two_stage_select": "assortment",
    "collusion.run_iteration": "assortment",
    "simulator.two_stage_select": "assortment",
    "cli.audit_ranking": "collusion",
    "cli.resolve_inputs": "revenue",
    "cli.evaluate_slate": "revenue",
    "cli.brute_force_optimize": "revenue",
    "collusion.resolve_inputs": "revenue",
    "collusion.expected_revenue": "revenue",
    "revenue.purchase_prob": "demand",
    "simulator.logistic": "demand",
    "cli.simulate": "simulator",
    "cli.trace_table": "simulator",
}
LAYERS = ("cli", "catalog", "assortment", "collusion", "revenue", "demand", "simulator")


class Recorder:
    """Span arrays (name, parent, start, end) plus counters read from results."""

    def __init__(self) -> None:
        self.names: list[str] = list(LAYER_OF)
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.open: list[int] = []
        self.counts: Counter[str] = Counter()
        self.last_slate: tuple[str, ...] = ()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name`` and return its result."""
        index = len(self.span_start)
        self.span_name.append(self.name_id[name])
        self.span_parent.append(self.open[-1] if self.open else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[index] = perf_counter()
            self.span_start[index] = start
            self.open.pop()

    def count_result(self, name: str, kwargs: dict, result) -> None:
        """Count the work a wrapped call did, read from its arguments and result."""
        c = self.counts
        c[name] += 1
        if name == "cli.load_catalog":
            c["catalog.products"] += result.universe_size
        elif name.endswith("two_stage_select"):
            ranking, trace = result
            c["assortment.iterations"] += len(trace.iterations)
            c["assortment.fallbacks"] += sum(rec.fallback_used for rec in trace.iterations)
            if name != "collusion.two_stage_select":
                c["assortment.shown_slots"] += len(ranking.slots)
            if name == "simulator.two_stage_select":
                c["simulator.rerank_changed"] += ranking.slots != self.last_slate
                self.last_slate = ranking.slots
        elif name == "collusion.run_iteration":
            c["assortment.iterations"] += 1
            c["assortment.fallbacks"] += result.fallback_used
        elif name == "cli.audit_ranking":
            c["assortment.shown_slots"] += kwargs["slot_count"]
            c["collusion.findings"] += len(result)
        elif name == "cli.brute_force_optimize":
            c["revenue.slates_enumerated"] += result.enumerated
        elif name == "cli.simulate":
            c["simulator.customers"] += len(result.records)
            c["simulator.purchases"] += sum(r.purchased is not None for r in result.records)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "cli.simulate":
                self.last_slate = ()
            result = self.call(name, fn, *args, **kwargs)
            self.count_result(name, kwargs, result)
            return result

        return traced


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every traced name except the root; returns what ``uninstall`` restores."""
    saved = []
    for name in LAYER_OF:
        if name == "cli.main":
            continue
        module_name, attr = name.split(".")
        module = importlib.import_module(f"assortplan.{module_name}")
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, recorder.wrap(name, original))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for module, attr, original in saved:
        setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round layer figures from the recorded spans and counters.

    Self time is a span's duration minus its direct children's durations
    (children never overlap: the engine is single-threaded).
    """
    duration = np.frombuffer(rec.span_end) - np.frombuffer(rec.span_start)
    parent = np.frombuffer(rec.span_parent, dtype=np.int32)
    names = np.frombuffer(rec.span_name, dtype=np.int32)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    self_by_name = np.bincount(names, weights=duration - children, minlength=len(rec.names))
    total_by_name = np.bincount(names, weights=duration, minlength=len(rec.names))
    layer_self = dict.fromkeys(LAYERS, 0.0)
    inclusive = {}
    for i, name in enumerate(rec.names):
        layer_self[LAYER_OF[name]] += float(self_by_name[i])
        inclusive[name] = float(total_by_name[i])
    total = inclusive["cli.main"]
    c = rec.counts

    def per_round(value: float) -> float:
        return value / rounds

    selects = sum(c[k] for k in rec.names if k.endswith("two_stage_select"))
    metrics = {
        "catalog.load_ms": (per_round(layer_self["catalog"]) * 1e3, "ms"),
        "catalog.products_per_s": (_ratio(c["catalog.products"], layer_self["catalog"]), "1/s"),
        "catalog.load_calls": (per_round(c["cli.load_catalog"]), "count"),
        "assortment.select_calls": (per_round(selects), "count"),
        "assortment.iterations": (per_round(c["assortment.iterations"]), "count"),
        "assortment.iterations_per_s": (_ratio(c["assortment.iterations"], layer_self["assortment"]), "1/s"),
        "assortment.fallbacks": (per_round(c["assortment.fallbacks"]), "count"),
        "assortment.iterations_per_shown_slot": (
            _ratio(c["assortment.iterations"], c["assortment.shown_slots"]), "ratio"),
        "collusion.select_calls_per_audit": (
            _ratio(c["collusion.two_stage_select"], c["cli.audit_ranking"]), "ratio"),
        "collusion.findings": (per_round(c["collusion.findings"]), "count"),
        "revenue.optimize_share": (_ratio(inclusive["cli.brute_force_optimize"], total), "ratio"),
        "revenue.slates_enumerated": (per_round(c["revenue.slates_enumerated"]), "count"),
        "revenue.slates_per_s": (
            _ratio(c["revenue.slates_enumerated"], inclusive["cli.brute_force_optimize"]), "1/s"),
        "revenue.resolve_calls": (per_round(c["cli.resolve_inputs"] + c["collusion.resolve_inputs"]), "count"),
        "demand.prob_calls": (per_round(c["revenue.purchase_prob"]), "count"),
        "demand.sim_evals": (per_round(c["simulator.logistic"]), "count"),
        "demand.self_ms": (per_round(layer_self["demand"]) * 1e3, "ms"),
        "simulator.customers": (per_round(c["simulator.customers"]), "count"),
        "simulator.customers_per_s": (_ratio(c["simulator.customers"], inclusive["cli.simulate"]), "1/s"),
        "simulator.purchases": (per_round(c["simulator.purchases"]), "count"),
        "simulator.reranks": (per_round(c["simulator.two_stage_select"]), "count"),
        "simulator.rerank_share": (_ratio(inclusive["simulator.two_stage_select"], total), "ratio"),
        "simulator.rerank_changed_ratio": (
            _ratio(c["simulator.rerank_changed"], c["simulator.two_stage_select"]), "ratio"),
        "simulator.trace_table_share": (_ratio(inclusive["cli.trace_table"], total), "ratio"),
        "cli.self_ms": (per_round(layer_self["cli"]) * 1e3, "ms"),
        "cli.output_bytes": (per_round(c["cli.output_bytes"]), "bytes"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (_ratio(layer_self[layer], total), "ratio")
    return metrics
