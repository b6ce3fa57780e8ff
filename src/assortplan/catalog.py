"""Product catalog: data model, document ingestion, validation, and demo data.

A catalog document is a UTF-8 JSON object with a top-level ``products`` array.
Per-product keys: ``id``, ``price``, ``reviews``, ``avg_rating``, and the
optional ``omega`` (default 1.0), ``true_quality``, ``rating_noise``,
``lambda``.  An optional top-level ``display_scale`` pair records the star
scale used by report renderers; the engine itself treats ratings as unbounded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property


# Review counts are ranked as an int64 column, so they must fit one.
MAX_REVIEWS = 2**63


class CatalogError(ValueError):
    """A catalog document could not be accepted."""


@dataclass(frozen=True)
class Product:
    """A listed product with its review record and pricing terms.

    ``demand_override`` pins the purchase probability directly; when absent
    the probability is computed from beliefs, price, and position.
    ``true_quality`` and ``rating_noise`` parameterize the rating draws of
    the simulator and are unused by the analytic operations.
    """

    id: str
    price: float
    review_count: int
    avg_rating: float
    revenue_share: float = 1.0
    true_quality: float | None = None
    rating_noise: float | None = None
    demand_override: float | None = None


@dataclass(frozen=True)
class BeliefPrior:
    """Customers' common normal prior over product quality.

    ``precision_ratio`` is the prior-to-noise variance ratio that weights
    observed ratings against the prior mean in the posterior.
    """

    prior_mean: float
    prior_var: float
    noise_var: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.prior_mean):
            raise ValueError(f"prior_mean must be finite, got {self.prior_mean}")
        for name in ("prior_var", "noise_var"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def precision_ratio(self) -> float:
        return self.prior_var / self.noise_var


@dataclass(frozen=True)
class Catalog:
    """Immutable ordered universe of products."""

    products: tuple[Product, ...]
    display_scale: tuple[float, float] | None = None

    @property
    def universe_size(self) -> int:
        return len(self.products)

    @cached_property
    def by_id(self) -> dict[str, Product]:
        return {p.id: p for p in self.products}

    def get(self, product_id: str) -> Product:
        try:
            return self.by_id[product_id]
        except KeyError:
            raise KeyError(f"unknown product id {product_id!r}") from None


_REQUIRED_KEYS = ("id", "price", "reviews", "avg_rating")
_OPTIONAL_KEYS = ("omega", "true_quality", "rating_noise", "lambda")


def _finite(value) -> float | None:
    """``value`` as a finite float, or None when it is not a finite number.

    JSON numbers parse to NaN, infinities (``NaN``, ``Infinity``, ``1e400``)
    and integers too large for a float, none of which is a usable quantity.
    """
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
    """Parse and validate a catalog document, applying field defaults.

    Raises CatalogError on malformed documents, duplicate ids, numbers that
    are not finite (NaN, infinities, integers beyond float range), negative
    prices, review counts outside [0, 2**63), nonzero ratings with zero
    reviews, shares outside (0, 1], or demand overrides outside (0, 1).
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"malformed catalog document: {exc}") from exc
    if not isinstance(doc, dict) or "products" not in doc:
        raise CatalogError("catalog document must be an object with a 'products' array")
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


def serialize_catalog(catalog: Catalog) -> str:
    """Render a catalog back to its document form (inverse of load_catalog)."""
    entries = []
    for p in catalog.products:
        entry: dict = {
            "id": p.id,
            "price": p.price,
            "reviews": p.review_count,
            "avg_rating": p.avg_rating,
            "omega": p.revenue_share,
        }
        if p.true_quality is not None:
            entry["true_quality"] = p.true_quality
        if p.rating_noise is not None:
            entry["rating_noise"] = p.rating_noise
        if p.demand_override is not None:
            entry["lambda"] = p.demand_override
        entries.append(entry)
    doc: dict = {"products": entries}
    if catalog.display_scale is not None:
        doc["display_scale"] = list(catalog.display_scale)
    return json.dumps(doc, indent=2)


_NUMERIC_FIELDS = (
    "price", "avg_rating", "revenue_share", "true_quality", "rating_noise", "demand_override",
)


def validate_catalog(catalog: Catalog) -> list[str]:
    """Check every product invariant; returns one description per violation.

    Violations are data, not failures: an empty list means the catalog is
    clean.  Each entry names the product id and the offending field.
    """
    violations: list[str] = []
    if catalog.display_scale is not None and not all(
        math.isfinite(v) for v in catalog.display_scale
    ):
        violations.append(f"display_scale {catalog.display_scale} is not finite")
    seen: set[str] = set()
    for p in catalog.products:
        if p.id in seen:
            violations.append(f"product {p.id!r}: id duplicates an earlier product")
        seen.add(p.id)
        for field in _NUMERIC_FIELDS:
            value = getattr(p, field)
            if value is not None and not math.isfinite(value):
                violations.append(f"product {p.id!r}: {field} {value} is not finite")
        if p.price < 0:
            violations.append(f"product {p.id!r}: price {p.price} is negative")
        if not 0 < p.revenue_share <= 1:
            violations.append(
                f"product {p.id!r}: revenue_share {p.revenue_share} outside (0, 1]"
            )
        if not 0 <= p.review_count < MAX_REVIEWS:
            violations.append(
                f"product {p.id!r}: review_count {p.review_count} outside [0, 2**63)"
            )
        if p.review_count == 0 and p.avg_rating != 0:
            violations.append(
                f"product {p.id!r}: avg_rating {p.avg_rating} must be 0 when review_count is 0"
            )
        if p.demand_override is not None and not 0 < p.demand_override < 1:
            violations.append(
                f"product {p.id!r}: demand_override {p.demand_override} outside (0, 1)"
            )
        if p.rating_noise is not None and p.rating_noise <= 0:
            violations.append(f"product {p.id!r}: rating_noise {p.rating_noise} not positive")
    return violations


# Ten-product sample catalog used throughout the docs and tests: review
# counts, average ratings, prices, and pinned purchase probabilities.
_DEMO_ROWS: tuple[tuple[str, int, float, float, float], ...] = (
    ("A", 61806, 4.0, 629.0, 0.95),
    ("B", 30002, 4.0, 700.0, 0.85),
    ("C", 2858, 3.5, 360.0, 0.40),
    ("D", 95, 4.5, 229.0, 0.10),
    ("E", 4064, 4.0, 587.0, 0.55),
    ("F", 14385, 5.0, 299.0, 0.75),
    ("G", 8613, 4.0, 520.0, 0.65),
    ("H", 1179, 4.0, 209.0, 0.20),
    ("I", 1210, 3.0, 314.0, 0.15),
    ("J", 12412, 4.0, 399.0, 0.72),
)


def demo_catalog() -> Catalog:
    """Build the ten-product demo catalog (all revenue shares 1.0)."""
    return Catalog(
        products=tuple(
            Product(id=pid, price=price, review_count=n, avg_rating=q, demand_override=lam)
            for pid, n, q, price, lam in _DEMO_ROWS
        )
    )
