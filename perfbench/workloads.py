"""Seeded inputs, request classes and output checks for the benchmark workloads.

Everything here is independent of the engine except the slates that
requests display or compare against, which come from library calls made
while the inputs are generated, before any timing.  The checks recompute
the expected answers with this module's own cascade and logit code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PRIOR = (3.0, 1.0, 4.0)  # prior mean, prior variance, rating-noise variance
PRIOR_SPEC = ",".join(str(v) for v in PRIOR)
CATALOGS_PER_CLASS = 4
REL_TOL = 1e-9

RANK_N, RANK_SLOTS = 10_000, 10
AUDIT_N, AUDIT_SLOTS = 500, 10
AUDIT_SPAN = {3: 0.2, 6: 0.3, 10: 0.5}
PINNED_N, OPT_SLOTS = 10, 5
LOGIT_N, LOGIT_COST = 9, 0.2
LOGIT_SPAN = {2: 0.3, 4: 0.3, 5: 0.4}
REVENUE_SLOTS = 4
REVENUE_SPAN = {1: 0.25, 3: 0.35, 4: 0.4}
SIM_N = 200
FROZEN_SLOTS, FROZEN_HORIZON = 6, 3000
FROZEN_SPAN = {2: 0.3, 4: 0.4, 6: 0.3}
RERANK_EVERY, RERANK_SLOTS, RERANK_HORIZON = 10, 5, 1000
RERANK_SPAN = {1: 0.2, 3: 0.4, 5: 0.4}

KIND_ORDER = "order-violation"
KIND_BELOW_STAGE1 = "below-stage1-threshold"


class CheckError(Exception):
    """A response differs from what the inputs imply."""


@dataclass
class Request:
    """One distinct CLI invocation and how to check its response.

    ``check`` raises CheckError on a wrong response; ``out_dir`` is set for
    simulate requests, whose files are part of the response.
    """

    cls: str
    argv: list[str]
    expect_code: int
    check: Callable[[str], None]
    out_dir: Path | None = None

    def response(self, stdout: str) -> tuple[bytes, ...]:
        """The response bytes: stdout, plus the written files for simulate."""
        parts = [stdout.encode("utf-8")]
        if self.out_dir is not None:
            parts += [(self.out_dir / name).read_bytes() for name in ("trace.tsv", "summary.json")]
        return tuple(parts)


def _span_spec(pmf: dict[int, float]) -> str:
    return "pmf=" + ",".join(f"{y}:{h}" for y, h in pmf.items())


def _products(rng: np.random.Generator, n: int, *, pinned: bool = False, sim: bool = False) -> list[dict]:
    """n products on a 1-5 rating scale with prices on the same scale.

    Review counts are lognormal; about 5% of products have no reviews.  A
    price sits up to one rating point above the product's posterior quality,
    so logit demand at the top slot lies between 0.27 and 0.5, and rating
    draws centre near the current average, so demand drifts little.
    """
    reviews = 1 + np.floor(rng.lognormal(4.0, 1.5, n)).astype(np.int64)
    unreviewed = rng.random(n) < 0.05
    reviews[unreviewed] = 0
    rating = np.round(rng.uniform(1.0, 5.0, n), 1)
    rating[unreviewed] = 0.0
    mean, prior_var, noise_var = PRIOR
    weight = 1.0 / (prior_var / noise_var * reviews + 1.0)
    price = np.round(weight * mean + (1.0 - weight) * rating + rng.uniform(0.0, 1.0, n), 2)
    omega = np.round(rng.uniform(0.5, 1.0, n), 3)
    lam = np.round(rng.uniform(0.05, 0.9, n), 3)
    quality = np.where(unreviewed, mean, rating) + rng.normal(0.0, 0.2, n)
    quality = np.round(np.clip(quality, 1.0, 5.0), 2)
    noise = np.round(rng.uniform(0.5, 1.5, n), 2)
    products = []
    for i in range(n):
        entry = {
            "id": f"P{i:05d}",
            "price": float(price[i]),
            "reviews": int(reviews[i]),
            "avg_rating": float(rating[i]),
            "omega": float(omega[i]),
        }
        if pinned:
            entry["lambda"] = float(lam[i])
        if sim:
            entry["true_quality"] = float(quality[i])
            entry["rating_noise"] = float(noise[i])
        products.append(entry)
    return products


def _logistic(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def _demand(product: dict, slot: int, cost_slope: float) -> float:
    if "lambda" in product:
        return product["lambda"]
    mean, prior_var, noise_var = PRIOR
    weight = 1.0 / (prior_var / noise_var * product["reviews"] + 1.0)
    quality = weight * mean + (1.0 - weight) * product["avg_rating"]
    return _logistic(quality - product["price"] - cost_slope * (slot - 1))


def cascade_value(
    by_id: dict[str, dict], slate: list[str], pmf: dict[int, float], cost_slope: float
) -> tuple[list[float], float]:
    """Per-slot purchase probabilities and span-mixed expected platform revenue."""
    per_slot, cumulative, prefix = [], [0.0], 1.0
    for slot, pid in enumerate(slate, start=1):
        product = by_id[pid]
        lam = _demand(product, slot, cost_slope)
        per_slot.append(prefix * lam)
        cumulative.append(cumulative[-1] + prefix * lam * product["price"] * product["omega"])
        prefix *= 1.0 - lam
    value = math.fsum(h * cumulative[min(y, len(slate))] for y, h in pmf.items())
    return per_slot, value


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _check_rank(by_id: dict[str, dict]) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        trace = doc["trace"]
        _require(doc["ranking"] == [rec["selected"] for rec in trace], "ranking != trace picks")
        _require(len(doc["ranking"]) == RANK_SLOTS, "wrong ranking length")
        for rec in trace:
            reviews = by_id[rec["selected"]]["reviews"]
            _require(not rec["fallback_used"], f"unexpected fallback: {rec}")
            _require(rec["selected"] == rec["stage2_passers"][0], "pick is not the first passer")
            _require(reviews >= rec["stage1_threshold"], f"{rec['selected']} below stage-1 cutoff")
            _require(reviews >= rec["stage2_threshold"], f"{rec['selected']} below stage-2 cutoff")

    return check


def _check_audit(expected_kind: str | None, slot: int | None) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        lines = stdout.splitlines()
        counts = [line for line in lines if line.startswith("findings ")]
        _require(len(counts) == 1, "no findings count line")
        if expected_kind is None:
            _require(counts[0] == "findings 0", f"engine slate has findings: {stdout[:400]}")
        else:
            wanted = f"finding slot {slot} "
            hits = [line for line in lines if line.startswith(wanted) and f" {expected_kind}: " in line]
            _require(bool(hits), f"missing {expected_kind} finding at slot {slot}")

    return check


def _check_optimize(by_id: dict[str, dict], pmf: dict[int, float], cost_slope: float) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        value, compare_value = doc["value"], doc["compare_value"]
        _require(value >= compare_value - REL_TOL * abs(compare_value), "optimum below compare slate")
        _, recomputed = cascade_value(by_id, doc["slate"], pmf, cost_slope)
        _require(_close(value, recomputed), f"value {value!r} != recomputed {recomputed!r}")

    return check


def _check_revenue(by_id: dict[str, dict], slate: list[str], pmf: dict[int, float]) -> Callable[[str], None]:
    per_slot, value = cascade_value(by_id, slate, pmf, LOGIT_COST)

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        _require(_close(doc["expected_revenue"], value), f"revenue {doc['expected_revenue']!r} != {value!r}")
        _require(
            all(_close(a, b) for a, b in zip(doc["per_slot_purchase_prob"], per_slot, strict=True)),
            "per-slot purchase probabilities differ",
        )

    return check


def _check_simulate(by_id: dict[str, dict], horizon: int, out_dir: Path) -> Callable[[str], None]:
    def check(stdout: str) -> None:
        rows = (out_dir / "trace.tsv").read_text(encoding="utf-8").splitlines()
        _require(len(rows) == horizon + 1, f"trace has {len(rows)} lines, want {horizon + 1}")
        bought = [row.split("\t")[3] for row in rows[1:]]
        bought = [pid for pid in bought if pid != "-"]
        gross = platform = 0.0
        for pid in bought:
            gross += by_id[pid]["price"]
            platform += by_id[pid]["omega"] * by_id[pid]["price"]
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        _require(summary["purchase_count"] == len(bought), "purchase count != trace")
        _require(_close(summary["gross_revenue"], gross), "gross revenue != trace")
        _require(_close(summary["platform_revenue"], platform), "platform revenue != trace")
        _require(f"purchases {len(bought)}" in stdout.splitlines(), "report purchases != trace")

    return check


class _Inputs:
    """Seeded generator that writes a workload's catalogs and configs under ``work``."""

    def __init__(self, seed: int, work: Path):
        self.rng = np.random.default_rng(seed)
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def catalog(self, name: str, n: int, **kinds) -> tuple[str, dict[str, dict], object]:
        from assortplan.catalog import load_catalog

        products = _products(self.rng, n, **kinds)
        text = json.dumps({"products": products})
        path = self.work / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        return str(path), {p["id"]: p for p in products}, load_catalog(text)

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**63))


def _rank_audit(inputs: _Inputs) -> list[list[Request]]:
    from assortplan.assortment import two_stage_select

    ranks, audits = [], []
    for c in range(CATALOGS_PER_CLASS):
        path, by_id, _ = inputs.catalog(f"rank{c}", RANK_N)
        argv = ["rank", "--catalog", path, "--slots", str(RANK_SLOTS), "--trace", "--format", "structured"]
        ranks.append(Request("rank", argv, 0, _check_rank(by_id)))

    for c in range(CATALOGS_PER_CLASS):
        path, by_id, catalog = inputs.catalog(f"audit{c}", AUDIT_N)
        ranking, trace = two_stage_select(catalog, AUDIT_SLOTS)
        engine = list(ranking.slots)
        perturbed = list(engine)
        if c % 2 == 0:
            # Adjacent swap: the pair is inverted against the compliant order.
            slot = int(inputs.rng.integers(1, AUDIT_SLOTS))
            perturbed[slot - 1], perturbed[slot] = perturbed[slot], perturbed[slot - 1]
            kind = KIND_ORDER
        else:
            # Substitution by a product under the slot's stage-1 cutoff.
            slot = int(inputs.rng.integers(1, AUDIT_SLOTS + 1))
            cutoff = trace.iterations[slot - 1].stage1_threshold
            below = sorted(pid for pid, p in by_id.items() if p["reviews"] < cutoff and pid not in engine)
            perturbed[slot - 1] = below[int(inputs.rng.integers(len(below)))]
            kind = KIND_BELOW_STAGE1
        for slate, expect, code in ((engine, None, 0), (perturbed, kind, 1)):
            argv = [
                "audit", "--catalog", path, "--displayed", ",".join(slate),
                "--prior", PRIOR_SPEC, "--span", _span_spec(AUDIT_SPAN),
            ]
            audits.append(Request("audit", argv, code, _check_audit(expect, slot)))
    return [ranks, audits]


def _oracle(inputs: _Inputs) -> list[list[Request]]:
    from assortplan.assortment import two_stage_select

    pinned, logit, revenue = [], [], []
    for c in range(CATALOGS_PER_CLASS):
        path, by_id, catalog = inputs.catalog(f"pinned{c}", PINNED_N, pinned=True)
        compare = ",".join(two_stage_select(catalog, OPT_SLOTS)[0].slots)
        argv = [
            "optimize", "--catalog", path, "--slots", str(OPT_SLOTS), "--span", f"y={OPT_SLOTS}",
            "--compare", compare, "--format", "structured",
        ]
        pinned.append(Request("optimize_pinned", argv, 0, _check_optimize(by_id, {OPT_SLOTS: 1.0}, 0.1)))

        path, by_id, catalog = inputs.catalog(f"logit{c}", LOGIT_N)
        compare = ",".join(two_stage_select(catalog, OPT_SLOTS)[0].slots)
        demand = ["--prior", PRIOR_SPEC, "--cost-slope", str(LOGIT_COST), "--format", "structured"]
        argv = [
            "optimize", "--catalog", path, "--slots", str(OPT_SLOTS), "--span", _span_spec(LOGIT_SPAN),
            "--compare", compare, *demand,
        ]
        logit.append(Request("optimize_logit", argv, 0, _check_optimize(by_id, LOGIT_SPAN, LOGIT_COST)))

        slate = [str(pid) for pid in inputs.rng.choice(sorted(by_id), REVENUE_SLOTS, replace=False)]
        argv = [
            "expected-revenue", "--catalog", path, "--slate", ",".join(slate),
            "--span", _span_spec(REVENUE_SPAN), *demand,
        ]
        revenue.append(Request("expected_revenue", argv, 0, _check_revenue(by_id, slate, REVENUE_SPAN)))
    return [pinned, logit, revenue]


def _market_sim(inputs: _Inputs) -> list[list[Request]]:
    from assortplan.assortment import two_stage_select

    prior = dict(zip(("mean", "prior_var", "noise_var"), PRIOR))
    frozen, rerank = [], []
    for c in range(CATALOGS_PER_CLASS):
        path, by_id, catalog = inputs.catalog(f"sim{c}", SIM_N, sim=True)
        slate = list(two_stage_select(catalog, FROZEN_SLOTS)[0].slots)
        configs = (
            ("simulate_frozen", FROZEN_HORIZON,
             {"span": _span_spec(FROZEN_SPAN), "slate": slate, "freeze_beliefs": True}),
            ("simulate_rerank", RERANK_HORIZON,
             {"span": _span_spec(RERANK_SPAN), "rerank_every": RERANK_EVERY, "slot_count": RERANK_SLOTS}),
        )
        for cls, horizon, extra in configs:
            doc = {"horizon": horizon, "seed": inputs.seed(), "prior": prior, **extra}
            config = inputs.work / f"{cls}{c}.config.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            out_dir = inputs.work / f"{cls}{c}.out"
            argv = ["simulate", "--catalog", path, "--config", str(config), "--out", str(out_dir)]
            request = Request(cls, argv, 0, _check_simulate(by_id, horizon, out_dir), out_dir)
            (frozen if cls == "simulate_frozen" else rerank).append(request)
    return [frozen, rerank]


_BUILDERS = {"rank-audit": _rank_audit, "oracle": _oracle, "market-sim": _market_sim}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, work: Path) -> list[list[Request]]:
    """Generate a workload's inputs under ``work`` and return its rounds.

    A round holds one request of each class; the rounds together cover every
    distinct request, and the benchmark replays them as a cycle.
    """
    per_class = _BUILDERS[workload](_Inputs(seed, work))
    length = max(len(requests) for requests in per_class)
    return [[requests[i % len(requests)] for requests in per_class] for i in range(length)]
