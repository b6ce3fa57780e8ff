"""Entry-by-entry catalog loader, kept as the test oracle.

This is the loop the columnar ``catalog.load_catalog`` replaced: it walks
the products in document order, checks each entry's keys and fields one at
a time, and builds one ``Product`` per entry.  Tests require the engine to
accept exactly the documents this accepts, with equal products (same
Python types and float bits) and display scale, and to reject every other
document with the same ``CatalogError`` message.
"""

from __future__ import annotations

import json
import math

from assortplan.catalog import MAX_REVIEWS, Catalog, CatalogError, Product

_REQUIRED_KEYS = ("id", "price", "reviews", "avg_rating")
_OPTIONAL_KEYS = ("omega", "true_quality", "rating_noise", "lambda")


def _finite(value) -> float | None:
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return None
    return None


def _require_number(entry: dict, key: str, product_id: str) -> float:
    number = _finite(entry[key])
    if number is None:
        raise CatalogError(
            f"product {product_id!r}: {key} must be a finite number, got {entry[key]!r}"
        )
    return number


def load_catalog(source: bytes | str) -> Catalog:
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"malformed catalog document: {exc}") from exc
    if not isinstance(doc, dict) or "products" not in doc:
        raise CatalogError("catalog document must be an object with a 'products' array")
    unknown = set(doc) - {"products", "display_scale"}
    if unknown:
        raise CatalogError(f"catalog document: unknown keys {sorted(unknown)}")
    raw_products = doc["products"]
    if not isinstance(raw_products, list):
        raise CatalogError("'products' must be an array")

    display_scale = None
    if doc.get("display_scale") is not None:
        scale = doc["display_scale"]
        numbers = [_finite(v) for v in scale] if isinstance(scale, list) else []
        if len(numbers) != 2 or None in numbers:
            raise CatalogError("'display_scale' must be a [low, high] finite number pair")
        display_scale = (numbers[0], numbers[1])

    products: list[Product] = []
    seen: set[str] = set()
    for entry in raw_products:
        if not isinstance(entry, dict):
            raise CatalogError(f"product entries must be objects, got {entry!r}")
        pid = entry.get("id")
        if not isinstance(pid, str) or not pid:
            raise CatalogError(f"product id must be a nonempty string, got {pid!r}")
        for key in _REQUIRED_KEYS:
            if key not in entry:
                raise CatalogError(f"product {pid!r}: missing required key {key!r}")
        unknown = set(entry) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
        if unknown:
            raise CatalogError(f"product {pid!r}: unknown keys {sorted(unknown)}")
        if pid in seen:
            raise CatalogError(f"duplicate product id {pid!r}")
        seen.add(pid)

        price = _require_number(entry, "price", pid)
        if price < 0:
            raise CatalogError(f"product {pid!r}: price must be nonnegative, got {price}")
        reviews = entry["reviews"]
        if isinstance(reviews, bool) or not isinstance(reviews, int):
            raise CatalogError(f"product {pid!r}: reviews must be an integer, got {reviews!r}")
        if not 0 <= reviews < MAX_REVIEWS:
            raise CatalogError(
                f"product {pid!r}: reviews must lie in [0, 2**63), got {reviews}"
            )
        avg_rating = _require_number(entry, "avg_rating", pid)
        if reviews == 0 and avg_rating != 0:
            raise CatalogError(
                f"product {pid!r}: avg_rating must be 0 when reviews is 0, got {avg_rating}"
            )

        omega = 1.0
        if "omega" in entry:
            omega = _require_number(entry, "omega", pid)
            if not 0 < omega <= 1:
                raise CatalogError(f"product {pid!r}: omega must lie in (0, 1], got {omega}")

        true_quality = None
        if entry.get("true_quality") is not None:
            true_quality = _require_number(entry, "true_quality", pid)
        rating_noise = None
        if entry.get("rating_noise") is not None:
            rating_noise = _require_number(entry, "rating_noise", pid)
            if rating_noise <= 0:
                raise CatalogError(
                    f"product {pid!r}: rating_noise must be positive, got {rating_noise}"
                )
        demand_override = None
        if entry.get("lambda") is not None:
            demand_override = _require_number(entry, "lambda", pid)
            if not 0 < demand_override < 1:
                raise CatalogError(
                    f"product {pid!r}: lambda must lie strictly in (0, 1), got {demand_override}"
                )

        products.append(
            Product(
                id=pid,
                price=price,
                review_count=reviews,
                avg_rating=avg_rating,
                revenue_share=omega,
                true_quality=true_quality,
                rating_noise=rating_noise,
                demand_override=demand_override,
            )
        )
    return Catalog(products=tuple(products), display_scale=display_scale)
