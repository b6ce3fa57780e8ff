"""The columnar loader against the entry-by-entry oracle.

``reference_catalog`` walks the products one entry at a time; the engine
checks them column by column.  For every document both must agree: a valid
document gives equal products (same Python types, same float bits) and the
same display scale, and an invalid one raises the same ``CatalogError``
message, naming the first faulty entry and its first broken rule.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_catalog as ref
from assortplan.catalog import (
    Catalog,
    CatalogError,
    Product,
    load_catalog,
    serialize_catalog,
    validate_catalog,
)
from helpers import product_of


class Raw:
    """A JSON literal that ``json.dumps`` cannot write, such as ``NaN``."""

    def __init__(self, text: str):
        self.text = text


def render(value) -> str:
    if isinstance(value, Raw):
        return value.text
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(render(v) for v in value) + "]"
    return json.dumps(value)


def fingerprint(catalog) -> tuple:
    """Each field's type and value, with floats as their exact bits."""

    def exact(value):
        return (type(value).__name__, value.hex() if isinstance(value, float) else value)

    products = [
        tuple(exact(getattr(p, f.name)) for f in dataclasses.fields(p)) for p in catalog.products
    ]
    scale = None if catalog.display_scale is None else tuple(map(exact, catalog.display_scale))
    return products, scale


def assert_matches_oracle(text: str) -> None:
    try:
        expected = ref.load_catalog(text)
    except CatalogError as exc:
        with pytest.raises(CatalogError) as raised:
            load_catalog(text)
        assert str(raised.value) == str(exc)
        return
    catalog = load_catalog(text)
    assert fingerprint(catalog) == fingerprint(expected)
    assert catalog == expected
    assert catalog.universe_size == expected.universe_size


NON_FINITE = [Raw("NaN"), Raw("Infinity"), Raw("-Infinity"), Raw("1e400"), Raw("1" + "0" * 400)]
NOT_NUMBERS = [True, False, None, "1.5", [1.0], {}]
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
INTS = st.integers(-(2**70), 2**70)
IDS = st.text(alphabet="abABé中\"\\", min_size=1, max_size=2)

# Faults by the key they spoil; each replaces (or drops, with DROP) one
# value, adds an unknown key ("extra") or replaces the entry ("object").
DROP = object()
FAULTS = {
    "object": st.sampled_from([5, "x", [1], None, True, 1.5]),
    "price": st.sampled_from([*NON_FINITE, *NOT_NUMBERS, -1, -0.5, DROP]),
    "reviews": st.sampled_from(
        [-1, 2**63, 10**30, -(2**64), True, 2.5, 3.0, "3", None, DROP]
    ),
    "avg_rating": st.sampled_from([*NON_FINITE, *NOT_NUMBERS, DROP]),
    "omega": st.sampled_from([*NON_FINITE, *NOT_NUMBERS, 0, 0.0, -0.5, 1.5, 2**64]),
    "true_quality": st.sampled_from([*NON_FINITE, *NOT_NUMBERS]),
    "rating_noise": st.sampled_from([*NON_FINITE, *NOT_NUMBERS, 0, -0.0, -1.5]),
    "lambda": st.sampled_from([*NON_FINITE, *NOT_NUMBERS, 0, 1, 1.0, -0.1, 1.5]),
    "id": st.sampled_from(["", 5, None, ["a"], {"a": 1}, True, DROP]),
    "extra": st.sampled_from(["Omega", "price ", "", "é"]),
}


@st.composite
def entries(draw, index: int) -> dict:
    """One valid product entry."""
    reviews = draw(st.sampled_from([0, 1, 2**53 + 1, 2**63 - 1]) | st.integers(0, 10**6))
    entry: dict = {
        "id": draw(IDS) if draw(st.integers(0, 3)) == 0 else f"P{index}",
        "price": draw(st.floats(0, 1e308) | st.integers(0, 2**1023) | st.sampled_from([0, -0.0])),
        "reviews": reviews,
        "avg_rating": draw(FLOATS | INTS) if reviews else draw(st.sampled_from([0, 0.0, -0.0])),
    }
    for key, values in (
        ("omega", st.floats(5e-324, 1.0) | st.just(1)),
        ("true_quality", FLOATS | INTS | st.none()),
        ("rating_noise", st.floats(1e-300, 1e300) | st.integers(1, 2**80) | st.none()),
        ("lambda", st.floats(5e-324, 1 - 2**-53) | st.none()),
    ):
        if draw(st.booleans()):
            entry[key] = draw(values)
    if draw(st.integers(0, 3)) == 0:
        # Shuffle the key order: checks must not depend on it.
        keys = draw(st.permutations(list(entry)))
        entry = {k: entry[k] for k in keys}
    return entry


def spoil(entry: dict, fault: str, value):
    """``entry`` with one fault: a replaced, dropped or added key, or no object at all."""
    if fault == "object":
        return value
    entry = dict(entry)
    if fault == "extra":
        entry[value] = 1.0
    elif value is DROP:
        entry.pop(fault, None)
    else:
        entry[fault] = value
    return entry


@st.composite
def documents(draw) -> str:
    """Valid rows, several of them spoilt, each by a different fault."""
    n = draw(st.integers(0, 8))
    products = [draw(entries(i)) for i in range(n)]
    if n:
        faults = draw(st.lists(st.sampled_from(sorted(FAULTS)), max_size=min(n, 4), unique=True))
        rows = draw(st.permutations(range(n)))
        for fault, row in zip(faults, rows):
            products[row] = spoil(products[row], fault, draw(FAULTS[fault]))
    if products and draw(st.integers(0, 9)) == 0:
        # A duplicate of the first row at the end, or of the last at the start.
        if draw(st.booleans()):
            products.append(products[0])
        else:
            products.insert(0, products[-1])
    doc: dict = {"products": products}
    if draw(st.integers(0, 4)) == 0:
        doc["display_scale"] = draw(
            st.sampled_from([[1, 5], [1.0, 5.0], [2**60 + 1, 3], None, [1], [1, Raw("NaN")]])
        )
    if draw(st.integers(0, 9)) == 0:
        # A misspelt or unknown top-level key, which is refused, never ignored.
        for key in draw(st.lists(st.sampled_from(["display_scal", "Products", ""]), min_size=1)):
            doc[key] = [1, 5]
    return render(doc)


@settings(max_examples=400)
@given(documents())
def test_loader_matches_oracle(text):
    assert_matches_oracle(text)


BASE = {"id": "M", "price": 2.0, "reviews": 3, "avg_rating": 4.0}


def clean_rows(n: int) -> list[dict]:
    return [dict(BASE, id=f"R{i}", price=1.0 + i) for i in range(n)]


# One fault per rule, each placed in the middle row of a ten-row document.
RULE_FAULTS = [
    ("not an object", 7),
    ("bad id", {**BASE, "id": ""}),
    ("missing key", {"id": "M", "price": 2.0, "avg_rating": 4.0}),
    ("unknown key", {**BASE, "Omega": 0.5}),
    ("duplicate", {**BASE, "id": "R0"}),
    ("price not finite", {**BASE, "price": Raw("-Infinity")}),
    ("price negative", {**BASE, "price": -2}),
    ("reviews not integer", {**BASE, "reviews": 3.0}),
    ("reviews out of range", {**BASE, "reviews": 2**63}),
    ("reviews negative", {**BASE, "reviews": -3}),
    ("rating not finite", {**BASE, "avg_rating": Raw("NaN")}),
    ("rating without reviews", {**BASE, "reviews": 0}),
    ("omega null", {**BASE, "omega": None}),
    ("omega out of range", {**BASE, "omega": 0}),
    ("quality not finite", {**BASE, "true_quality": "4"}),
    ("noise not finite", {**BASE, "rating_noise": Raw("1e400")}),
    ("noise not positive", {**BASE, "rating_noise": 0}),
    ("lambda not finite", {**BASE, "lambda": True}),
    ("lambda out of range", {**BASE, "lambda": 1}),
]


@pytest.mark.parametrize("later_faults", [False, True])
@pytest.mark.parametrize("name, entry", RULE_FAULTS, ids=[name for name, _ in RULE_FAULTS])
def test_each_rule_names_the_middle_row(name, entry, later_faults):
    # Later rows that break other rules push every column off its fast path.
    rows = clean_rows(10)
    rows[5] = entry
    if later_faults:
        rows[7] = {**BASE, "id": "R7", "price": Raw("NaN")}
        rows[9] = 3
    text = render({"products": rows})
    with pytest.raises(CatalogError) as raised:
        load_catalog(text)
    assert "R7" not in str(raised.value)
    assert_matches_oracle(text)


# Per loader rule, in check order: the key the faulty row spoils and what it then
# holds (for "missing key", the key dropped); the duplicate and the rating without
# reviews are placed by hand below.
NOT_A_NUMBER = st.sampled_from([*NON_FINITE, *NOT_NUMBERS, 10**400, -(10**400)])
RULES = {
    "not an object": ("object", FAULTS["object"]),
    "bad id": ("id", FAULTS["id"]),
    "missing key": (None, st.sampled_from(["price", "reviews", "avg_rating"])),
    "unknown key": ("extra", FAULTS["extra"]),
    "duplicate": ("duplicate", st.just(None)),
    "price not finite": ("price", NOT_A_NUMBER),
    "price negative": ("price", st.sampled_from([-1, -0.5, -5e-324, -(2**80), -1e300])),
    "reviews not integer": ("reviews", st.sampled_from([True, False, 2.5, 3.0, "3", None, [1]])),
    "reviews out of range": ("reviews", st.sampled_from([-1, -(2**62), 2**63, -(2**64), 10**400])),
    "rating not finite": ("avg_rating", NOT_A_NUMBER),
    "rating without reviews": ("reviews", st.just(0)),
    "omega not finite": ("omega", NOT_A_NUMBER),
    "omega out of range": ("omega", st.sampled_from([0, 0.0, -0.0, -0.5, 1.5, 1 + 2**-52, 2**64])),
    "quality not finite": ("true_quality", NOT_A_NUMBER.filter(lambda v: v is not None)),
    "noise not finite": ("rating_noise", NOT_A_NUMBER.filter(lambda v: v is not None)),
    "noise not positive": ("rating_noise", st.sampled_from([0, -0.0, -1.5, -(2**70)])),
    "lambda not finite": ("lambda", NOT_A_NUMBER.filter(lambda v: v is not None)),
    "lambda out of range": ("lambda", st.sampled_from([0, 1, 1.0, -0.1, 1.5, -0.0])),
}


@settings(max_examples=150)
@given(st.data())
def test_one_broken_rule_matches_oracle(data):
    # Clean rows mix None, ints (huge ones too) and floats in their columns, and
    # the faulty row adds a bool, a string, a list or an int beyond float range:
    # no kind set proves these columns clean, so the whole-matrix tests decide.
    n = data.draw(st.integers(1, 12))
    rows = [data.draw(entries(i)) for i in range(n)]
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        for key in ("true_quality", "rating_noise", "lambda"):
            rows[i].setdefault(key, None)  # an explicit null counts as absent
    rule = data.draw(st.sampled_from(sorted(RULES)))
    key, values = RULES[rule]
    row, value = data.draw(st.integers(0, n - 1)), data.draw(values)
    if rule == "missing key":
        rows[row] = spoil(rows[row], value, DROP)
    elif rule == "duplicate":
        rows.insert(row + 1, dict(rows[row], price=1.5))
    elif rule == "rating without reviews":
        rows[row] = dict(rows[row], reviews=0, avg_rating=data.draw(st.sampled_from([4.0, 1, -0.5, 2**70])))
    else:
        rows[row] = spoil(rows[row], key, value)
    text = render({"products": rows})
    with pytest.raises(CatalogError):
        load_catalog(text)
    assert_matches_oracle(text)


@pytest.mark.parametrize(
    "price",
    [
        2**53 + 1,
        2**60 + 3,
        2**63 + 1,
        2**64 + 2**11 + 1,
        10**308,
        int(1.7976931348623157e308),
        2**1024 - 2**970 - 1,  # the largest integer that rounds to a finite float
        2**1024 - 2**970,  # rounds to infinity: rejected
    ],
)
def test_integer_prices_round_like_float(price):
    text = render({"products": [dict(BASE, price=price), dict(BASE, id="N", price=1.5)]})
    assert_matches_oracle(text)
    if price < 2**1024 - 2**970:
        assert product_of(load_catalog(text), "M").price == float(price)


def test_largest_review_count_is_kept_exactly():
    text = render({"products": [dict(BASE, reviews=2**63 - 1)]})
    assert_matches_oracle(text)
    assert product_of(load_catalog(text), "M").review_count == 2**63 - 1


def test_null_optionals_count_as_absent():
    entry = dict(BASE, true_quality=None, rating_noise=None)
    entry["lambda"] = None
    text = render({"products": [entry, dict(BASE, id="N", true_quality=3.5)]})
    assert_matches_oracle(text)
    assert product_of(load_catalog(text), "M").true_quality is None


def test_clean_benchmark_shaped_catalog():
    rng = np.random.default_rng(7)
    n = 10_000
    reviews = 1 + np.floor(rng.lognormal(4.0, 1.5, n)).astype(np.int64)
    reviews[rng.random(n) < 0.05] = 0
    rating = np.where(reviews > 0, np.round(rng.uniform(1.0, 5.0, n), 1), 0.0)
    products = [
        {
            "id": f"P{i:05d}",
            "price": float(np.round(rng.uniform(1.0, 6.0), 2)),
            "reviews": int(reviews[i]),
            "avg_rating": float(rating[i]),
            "omega": float(np.round(rng.uniform(0.5, 1.0), 3)),
        }
        for i in range(n)
    ]
    assert_matches_oracle(json.dumps({"products": products}))


# The library checker against the loader: a ``Catalog`` built in code, its
# products and display scale spoilt with the FAULTS values, must validate
# clean exactly when its document loads, and otherwise list first the
# message the loader raises.  Faults that no ``Product`` can carry (a
# non-object entry, an unknown key, a dropped key) are left out.
FIELDS = {
    "id": "id",
    "price": "price",
    "reviews": "review_count",
    "avg_rating": "avg_rating",
    "omega": "revenue_share",
    "true_quality": "true_quality",
    "rating_noise": "rating_noise",
    "lambda": "demand_override",
}


def parsed(value):
    """``value`` as the loader reads it back from a document."""
    return json.loads(render(value))


def product_values(fault: str):
    return FAULTS[fault].filter(lambda v: v is not DROP).map(parsed)


@st.composite
def library_catalogs(draw) -> Catalog:
    n = draw(st.integers(0, 6))
    products = []
    for i in range(n):
        entry = draw(entries(i))
        products.append(
            Product(
                entry["id"], entry["price"], entry["reviews"], entry["avg_rating"],
                entry.get("omega", 1.0), entry.get("true_quality"), entry.get("rating_noise"),
                entry.get("lambda"),
            )
        )
    if n:
        for _ in range(draw(st.integers(0, 2))):
            fault, row = draw(st.sampled_from(sorted(FIELDS))), draw(st.integers(0, n - 1))
            products[row] = replace(products[row], **{FIELDS[fault]: draw(product_values(fault))})
        if draw(st.integers(0, 9)) == 0:
            products.append(products[draw(st.integers(0, n - 1))])
    scale = draw(
        st.sampled_from([None, (1, 5), (1.0, 5.0), (2**60 + 1, 3), (1.0,), (1.0, 2.0, 3.0)])
        | product_values("price").map(lambda v: (1.0, v))
    )
    return Catalog(products, scale)


@settings(max_examples=400)
@given(library_catalogs())
def test_validator_lists_what_the_loader_raises(catalog):
    violations = validate_catalog(catalog)
    try:
        load_catalog(serialize_catalog(catalog))
    except CatalogError as exc:
        assert violations and violations[0] == str(exc)
    else:
        assert violations == []
    assert len(violations) <= 1 + catalog.universe_size
