"""Metamorphic relations of the command line (Chen, Cheung & Yiu, 1998).

No oracle computes these outputs independently; instead each test changes a
catalog in a way whose effect is known and checks that the outputs follow:

- Listing order: a catalog document with its products shuffled gives
  byte-identical exit codes, stdout, ``trace.tsv`` and ``summary.json`` for
  every subcommand; only the manifest's ``input_digest`` may differ.
- Power-of-two prices: every price times 2^j, j in {-3, -1, 1, 5}, leaves
  the two-stage ranking and its trace unchanged.  Stage 1 reads no price,
  and stage 2's cutoff is Σ(price * reviews) / Σprice, whose two exactly
  rounded sums both scale by 2^j (the prices here are far from overflow
  and underflow).  Under pinned demand every revenue term scales by 2^j,
  so ``optimize``'s slate stays and its values, and the audit's
  expected revenues and order-violation deltas, scale by exactly 2^j.
- Products outside the slate: a fixed-slate ``simulate``, frozen or live,
  reads only the slate's rows, so adding other products (with no rating
  parameters) and shuffling the listing leaves ``trace.tsv``, stdout and the summary's totals and slate
  review states unchanged.
- Monotonicity: ``optimize``'s value does not fall when a slot or a
  product is added, and under pinned demand ``expected-revenue`` does not
  fall when one price rises.  Both hold exactly in floats.  The optimum is
  the largest exact score over the candidate slates; demand depends on
  (product, slot) alone, so every old candidate keeps its inputs and its
  score bits, and a larger set of candidates cannot have a smaller
  maximum.  The sorted path returns the search's exact answer, so it does
  not matter which path each side takes (adding a twin moves a pinned,
  point-span request from the sorted path to the search).  A price enters a
  slate's score only through its own term prefix * lambda * price * share,
  whose factors are all >= 0; rounding is monotone, so that term, every
  running sum after it and the correctly rounded ``fsum`` of the span
  mixture (all terms >= 0) cannot fall when the price rises.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from assortplan import collusion
from assortplan.catalog import Catalog, Product, serialize_catalog
from assortplan.cli import main, parse_span_spec
from assortplan.revenue import expected_revenue

# A few round values, and any value in a range.
REVIEWS = st.sampled_from([0, 1, 5, 40]) | st.integers(0, 1000)
RATINGS = st.sampled_from([3.0, 4.0, 4.5]) | st.floats(0.5, 5.0)
PRICES = st.sampled_from([1.0, 2.5, 10.0]) | st.floats(0.5, 100.0)
SPANS = st.sampled_from(["y=1", "y=3", "pmf=1:0.5,3:0.5", "pmf=2:0.3,4:0.7"])
POLICIES = st.sampled_from(["stage1-order", "price-desc"])
SCALES = (-3, -1, 1, 5)
PRIOR = {"mean": 3.0, "prior_var": 1.0, "noise_var": 1.0}
DIGEST = re.compile(r"[0-9a-f]{64}")


@st.composite
def catalogs(draw, pinned: bool) -> Catalog:
    """2-7 products with distinct ids; some demand is computed unless ``pinned``.

    About half the products repeat an earlier one's reviews, rating and
    price, so that only the id orders the two.
    """
    ids = draw(st.lists(st.sampled_from("ABCDEFGHIJ"), min_size=2, max_size=7, unique=True))
    demand = st.floats(0.01, 0.99) if pinned else st.none() | st.floats(0.01, 0.99)
    products = []
    for pid in ids:
        if products and draw(st.booleans()):
            twin = draw(st.sampled_from(products))
            reviews, rating, price = twin.review_count, twin.avg_rating, twin.price
        else:
            reviews, price = draw(REVIEWS), draw(PRICES)
            rating = draw(RATINGS) if reviews else 0.0
        products.append(
            Product(
                id=pid,
                price=price,
                review_count=reviews,
                avg_rating=rating,
                revenue_share=draw(st.sampled_from([1.0, 0.5]) | st.floats(0.05, 1.0)),
                true_quality=draw(RATINGS),
                rating_noise=draw(st.floats(0.1, 1.0)),
                demand_override=draw(demand),
            )
        )
    return Catalog(tuple(products))


def slates(ids: list[str], most: int):
    return st.lists(st.sampled_from(ids), min_size=1, max_size=min(most, len(ids)), unique=True)


def run(argv: list[str]) -> tuple:
    """``main``'s exit code and stdout, the manifest digest masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, DIGEST.sub("<digest>", out.getvalue())


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("metamorphic")


def write(work, name: str, catalog: Catalog) -> str:
    path = work / name
    path.write_text(serialize_catalog(catalog), encoding="utf-8")
    return str(path)


def command_lines(data, catalog: Catalog, work) -> list[list[str]]:
    """Each subcommand once, with drawn arguments; ``--catalog`` is appended per run."""
    ids = [p.id for p in catalog.products]
    n = len(ids)
    span, policy = data.draw(SPANS), data.draw(POLICIES)
    demand = ["--prior", "3,1,1"]
    slate = data.draw(slates(ids, 4))
    displayed = ",".join(data.draw(slates(ids, n)))
    configs = {
        "frozen": {"slate": data.draw(slates(ids, 3)), "freeze_beliefs": True},
        "live": {"rerank_every": data.draw(st.integers(1, 5)),
                 "slot_count": data.draw(st.integers(1, 3)), "policy": policy},
    }
    lines = [
        ["rank", "--slots", str(data.draw(st.integers(1, n))), "--policy", policy, "--trace"],
        ["rank", "--slots", str(n), "--policy", policy, "--trace", "--format", "structured"],
        ["expected-revenue", "--slate", ",".join(slate), "--span", span, *demand],
        ["optimize", "--slots", str(slots := data.draw(st.integers(1, 3))), "--span", span,
         "--compare", ",".join(slate[:slots]), *demand, "--format", "structured"],
        ["audit", "--displayed", displayed, "--span", span, "--policy", policy, *demand],
    ]
    for name, display in configs.items():
        config = work / f"{name}.json"
        doc = {"horizon": 60, "seed": data.draw(st.integers(0, 2**64 - 1)), "span": span,
               "prior": PRIOR, **display}
        config.write_text(json.dumps(doc), encoding="utf-8")
        lines.append(["simulate", "--config", str(config), "--out", str(work / name)])
    return lines


def outputs(argv: list[str], catalog_path: str) -> tuple:
    """Exit code, stdout and, for ``simulate``, both written files, digests masked."""
    result = run([argv[0], "--catalog", catalog_path, *argv[1:]])
    if argv[0] == "simulate":
        out = argv[argv.index("--out") + 1]
        with open(f"{out}/trace.tsv") as trace, open(f"{out}/summary.json") as summary:
            result += (trace.read(), DIGEST.sub("<digest>", summary.read()))
    return result


@settings(max_examples=30)
@given(catalogs(pinned=False), st.data())
def test_listing_order_leaves_every_output_unchanged(work, catalog, data):
    shuffled = Catalog(data.draw(st.permutations(catalog.products)))
    paths = write(work, "listed.json", catalog), write(work, "shuffled.json", shuffled)
    for argv in command_lines(data, catalog, work):
        listed = outputs(argv, paths[0])
        assert outputs(argv, paths[1]) == listed, argv


@settings(max_examples=20)
@given(catalogs(pinned=False), catalogs(pinned=False), st.data())
def test_products_outside_a_fixed_slate_change_no_simulation(work, catalog, extra, data):
    ids = [p.id for p in catalog.products]
    # New ids that sort between the listed ones (A, AA, B, BB, ...), without the rating
    # parameters that a live run needs only for the products it shows.
    others = [dataclasses.replace(p, id=p.id * 2, true_quality=None, rating_noise=None)
              for p in extra.products]
    grown = Catalog(data.draw(st.permutations([*catalog.products, *others])))
    paths = write(work, "listed.json", catalog), write(work, "grown.json", grown)
    doc = {"horizon": 80, "seed": data.draw(st.integers(0, 2**64 - 1)), "span": data.draw(SPANS),
           "prior": PRIOR, "slate": data.draw(slates(ids, 3))}
    config, out = work / "outside.json", work / "outside"
    for freeze in (True, False):
        config.write_text(json.dumps({**doc, "freeze_beliefs": freeze}), encoding="utf-8")
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        results = []
        for path in paths:
            code, stdout, trace, summary = outputs(argv, path)
            report = json.loads(summary)
            for key in ("final_states", "posterior_means"):
                report[key] = {pid: report[key][pid] for pid in ids}
            results.append((code, stdout, trace, report))
        assert results[0][0] == 0
        assert results[1] == results[0], freeze


def scaled(catalog: Catalog, j: int) -> Catalog:
    return Catalog(dataclasses.replace(p, price=p.price * 2.0**j) for p in catalog.products)


@settings(max_examples=40)
@given(catalogs(pinned=False), POLICIES, st.sampled_from(["text", "structured"]))
def test_power_of_two_prices_keep_the_ranking(work, catalog, policy, fmt):
    argv = ["--slots", str(catalog.universe_size), "--policy", policy, "--trace", "--format", fmt]
    base = run(["rank", "--catalog", write(work, "base.json", catalog), *argv])
    assert base[0] == 0
    for j in SCALES:
        path = write(work, f"x{j}.json", scaled(catalog, j))
        assert run(["rank", "--catalog", path, *argv]) == base


def optimized(path: str, argv: list[str]) -> dict:
    code, out = run(["optimize", "--catalog", path, *argv, "--format", "structured"])
    assert code == 0
    return json.loads(out)


@settings(max_examples=40)
@given(catalogs(pinned=True), st.data())
def test_power_of_two_prices_scale_optimize_values(work, catalog, data):
    ids = [p.id for p in catalog.products]
    compare = data.draw(slates(ids, 3))
    slots = data.draw(st.integers(1, 3))
    argv = ["--slots", str(slots), "--span", data.draw(SPANS), "--compare", ",".join(compare[:slots])]
    base = optimized(write(work, "base.json", catalog), argv)
    for j in SCALES:
        report = optimized(write(work, f"x{j}.json", scaled(catalog, j)), argv)
        assert (report["slate"], report["enumerated"]) == (base["slate"], base["enumerated"])
        for key in ("value", "compare_value", "gap"):
            assert report[key] == base[key] * 2.0**j, key


def audited(catalog: Catalog, displayed: list[str], dist, policy: str):
    """The audit's findings, and every expected revenue it computed, by slate."""
    revenues = {}

    def recording(inputs, dist):
        revenues[inputs.ids] = value = expected_revenue(inputs, dist)
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collusion, "expected_revenue", recording)
        findings = collusion.audit_ranking(catalog, displayed, len(displayed), dist, policy)
    return findings, revenues


def order_deltas(findings, displayed: list[str], revenues: dict) -> dict:
    """Each order violation's slot -> (its detail, the revenue change of its swap)."""
    deltas = {}
    for f in findings:
        if f.kind == collusion.KIND_ORDER_VIOLATION:
            p = f.slot
            swapped = (*displayed[: p - 1], displayed[p], displayed[p - 1], *displayed[p + 1 :])
            deltas[p] = (f.detail, revenues[swapped] - revenues[tuple(displayed)])
    return deltas


@settings(max_examples=40)
@given(catalogs(pinned=True), st.data())
def test_power_of_two_prices_scale_audit_deltas(catalog, data):
    ids = [p.id for p in catalog.products]
    displayed = data.draw(st.permutations(ids))[: data.draw(st.integers(2, len(ids)))]
    dist, policy = parse_span_spec(data.draw(SPANS)), data.draw(POLICIES)
    base, revenues = audited(catalog, displayed, dist, policy)
    deltas = order_deltas(base, displayed, revenues)
    for detail, delta in deltas.values():
        assert detail.endswith(f"by {delta:.6g}")
    for j in SCALES:
        findings, scaled_revenues = audited(scaled(catalog, j), displayed, dist, policy)
        assert [(f.slot, f.product_id, f.kind) for f in findings] == [
            (f.slot, f.product_id, f.kind) for f in base
        ]
        assert scaled_revenues == {slate: v * 2.0**j for slate, v in revenues.items()}
        for slot, (detail, delta) in order_deltas(findings, displayed, scaled_revenues).items():
            assert delta == deltas[slot][1] * 2.0**j
            assert detail.endswith(f"by {delta:.6g}")


POINT_SPANS = st.sampled_from(["y=1", "y=2", "y=3", "y=5"])


@settings(max_examples=40)
@given(st.booleans(), st.data())
def test_optimize_value_does_not_fall_with_a_slot_or_a_product(work, pinned, data):
    catalog = data.draw(catalogs(pinned=pinned))
    slots = data.draw(st.integers(1, min(4, catalog.universe_size)))
    # Point spans and a zero cost slope make demand slot-independent, the
    # sorted path's domain; the rest are the search's alone.
    argv = ["--span", data.draw(st.one_of(POINT_SPANS, POINT_SPANS, SPANS))]
    if not pinned:
        argv += ["--prior", "3,1,1", "--cost-slope", data.draw(st.sampled_from(["0", "0", "0.1"]))]
    base = optimized(write(work, "base.json", catalog), ["--slots", str(slots), *argv])
    wider = optimized(write(work, "base.json", catalog), ["--slots", str(slots + 1), *argv])
    assert wider["value"] >= base["value"]
    # A fresh product, or a twin of a listed one under a new id.
    twin = data.draw(st.sampled_from(catalog.products))
    fresh = data.draw(catalogs(pinned=pinned)).products[0]
    added = dataclasses.replace(data.draw(st.sampled_from([twin, fresh])), id="Z")
    grown = Catalog((*catalog.products, added))
    more = optimized(write(work, "grown.json", grown), ["--slots", str(slots), *argv])
    assert more["value"] >= base["value"]


def revenue_of(path: str, slate: list[str], span: str) -> float:
    code, out = run(["expected-revenue", "--catalog", path, "--slate", ",".join(slate),
                     "--span", span, "--format", "structured"])
    assert code == 0
    return json.loads(out)["expected_revenue"]


@settings(max_examples=40)
@given(catalogs(pinned=True), st.data())
def test_expected_revenue_does_not_fall_when_a_price_rises(work, catalog, data):
    ids = [p.id for p in catalog.products]
    slate, span = data.draw(slates(ids, 5)), data.draw(SPANS | POINT_SPANS)
    base = revenue_of(write(work, "base.json", catalog), slate, span)
    pid = data.draw(st.sampled_from(ids))
    rise = data.draw(st.sampled_from([math.ulp(1.0), 0.5, 3.0]) | st.floats(0.0, 10.0))
    raised = Catalog(
        dataclasses.replace(p, price=p.price * (1.0 + rise)) if p.id == pid else p
        for p in catalog.products
    )
    assert revenue_of(write(work, "raised.json", raised), slate, span) >= base
