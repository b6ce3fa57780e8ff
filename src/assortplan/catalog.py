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
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import repeat
from operator import is_
from typing import Iterable, NamedTuple, Sequence

import numpy as np


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


class CatalogColumns(NamedTuple):
    """A catalog's fields as read-only columns, in listing order.

    An absent ``true_quality`` or ``rating_noise`` is NaN and an absent
    ``lambda`` is 0.0 in ``demand``: a checked document has only finite
    numbers, and a pinned demand lies strictly inside (0, 1).
    """

    ids: tuple[str, ...]
    price: np.ndarray
    reviews: np.ndarray
    rating: np.ndarray
    share: np.ndarray
    true_quality: np.ndarray
    rating_noise: np.ndarray
    demand: np.ndarray

    @classmethod
    def from_products(cls, products: Sequence[Product]) -> CatalogColumns:
        def floats(values) -> np.ndarray:
            return _read_only(np.array(values, dtype=np.float64))

        return cls(
            tuple(p.id for p in products),
            floats([p.price for p in products]),
            _read_only(np.array([p.review_count for p in products], dtype=np.int64)),
            floats([p.avg_rating for p in products]),
            floats([p.revenue_share for p in products]),
            floats([p.true_quality for p in products]),
            floats([p.rating_noise for p in products]),
            floats([p.demand_override or 0.0 for p in products]),
        )

    def products(self, rows: slice = slice(None)) -> tuple[Product, ...]:
        """One ``Product`` per row in ``rows``; valid only for columns of a checked document."""

        def optional(column: np.ndarray) -> list[float | None]:
            return [None if v != v else v for v in column[rows].tolist()]

        return tuple(
            map(
                Product,
                self.ids[rows],
                self.price[rows].tolist(),
                self.reviews[rows].tolist(),
                self.rating[rows].tolist(),
                self.share[rows].tolist(),
                optional(self.true_quality),
                optional(self.rating_noise),
                [v or None for v in self.demand[rows].tolist()],
            )
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Catalog:
    """Immutable ordered universe of products.

    A catalog has its products as ``Product`` objects and as
    ``CatalogColumns``.  One from ``load_catalog`` starts from its checked
    columns and builds ``products`` on first access; one built from products
    derives its columns on first access.  Either is built at most once.
    """

    def __init__(
        self, products: Iterable[Product], display_scale: tuple[float, float] | None = None
    ):
        products = tuple(products)
        self.__dict__.update(
            products=products, display_scale=display_scale, universe_size=len(products)
        )

    @classmethod
    def _from_columns(
        cls, columns: CatalogColumns, display_scale: tuple[float, float] | None
    ) -> Catalog:
        catalog = cls.__new__(cls)
        catalog.__dict__.update(
            columns=columns, display_scale=display_scale, universe_size=len(columns.ids), _built={}
        )
        return catalog

    # Each of these two is set at construction or built from the other.
    @cached_property
    def products(self) -> tuple[Product, ...]:
        return self.columns.products()

    @cached_property
    def columns(self) -> CatalogColumns:
        return CatalogColumns.from_products(self.products)

    @cached_property
    def by_id(self) -> dict[str, Product]:
        return {p.id: p for p in self.products}

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {product_id: row for row, product_id in enumerate(self.columns.ids)}

    def row(self, product_id: str) -> int:
        """The product's row in ``columns`` (the last one, should an id repeat)."""
        try:
            return self._rows[product_id]
        except KeyError:
            raise KeyError(f"unknown product id {product_id!r}") from None

    def require_unique_ids(self) -> None:
        """Raise ValueError naming the first id the catalog lists more than once."""
        if len(self._rows) != self.universe_size:
            pid = next(pid for row, pid in enumerate(self.columns.ids) if self._rows[pid] != row)
            raise ValueError(f"catalog lists product id {pid!r} more than once")

    def get(self, product_id: str) -> Product:
        if "products" in self.__dict__:
            try:
                return self.by_id[product_id]
            except KeyError:
                raise KeyError(f"unknown product id {product_id!r}") from None
        row = self.row(product_id)
        # A loaded catalog builds only the products asked for, each once.
        if product_id not in self._built:
            self._built[product_id] = self.columns.products(slice(row, row + 1))[0]
        return self._built[product_id]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.products, self.display_scale) == (other.products, other.display_scale)

    def __hash__(self):
        return hash((self.products, self.display_scale))

    def __repr__(self):
        return f"Catalog(products={self.products!r}, display_scale={self.display_scale!r})"


_REQUIRED_KEYS = ("id", "price", "reviews", "avg_rating")
_FLOAT_KINDS = frozenset((int, float, type(None)))


class _Missing:
    """Stands in for a key an entry lacks."""


_MISSING = _Missing()


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


class _Column:
    """One key's values across the entries, ``fill`` where an entry lacks the key.

    ``kinds`` is the set of the values' types; the checks take their fast
    path when it shows every value is of the expected kind.
    """

    def __init__(self, entries: list, key: str, fill=_MISSING):
        values = list(map(dict.get, entries, repeat(key), repeat(_MISSING)))
        kinds = set(map(type, values))
        if _Missing in kinds and fill is not _MISSING:
            values = [fill if v is _MISSING else v for v in values]
            kinds = (kinds - {_Missing}) | {type(fill)}
        self.values, self.kinds = values, kinds

    def holds(self, marker) -> np.ndarray:
        """Mask of the rows whose value is ``marker``."""
        n = len(self.values)
        if type(marker) not in self.kinds:
            return np.zeros(n, dtype=bool)
        if len(self.kinds) == 1:
            return np.ones(n, dtype=bool)
        return np.fromiter(map(is_, self.values, repeat(marker)), dtype=bool, count=n)

    def floats(self) -> np.ndarray:
        """The values as float64, NaN wherever a value is not a finite number.

        numpy converts an integer exactly as ``float(int)`` does and raises
        OverflowError for one beyond float range; the column is then
        converted value by value.
        """
        if self.kinds <= _FLOAT_KINDS:
            try:
                return _read_only(np.array(self.values, dtype=np.float64))
            except OverflowError:
                pass
        return _read_only(np.array(list(map(_finite, self.values)), dtype=np.float64))

    def counts(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """The values as int64 review counts, with the masks of non-integers
        (None when there is none) and of integers outside [0, 2**63)."""
        values = self.values
        if self.kinds <= {int}:
            try:
                counts = np.array(values, dtype=np.int64)
                return _read_only(counts), None, counts < 0
            except OverflowError:
                pass
        is_int = np.array([type(v) is int for v in values], dtype=bool)
        fits = [bool(ok) and 0 <= v < MAX_REVIEWS for v, ok in zip(values, is_int)]
        counts = np.array([v if ok else 0 for v, ok in zip(values, fits)], dtype=np.int64)
        return _read_only(counts), ~is_int, is_int & ~np.array(fits, dtype=bool)


# The optional number keys in check order: the value an absent key stands
# for, and the range a given value must lie in (None: any finite number).
# A null omega is rejected; any other null optional value counts as absent.
_OPTIONAL_RANGES = (
    ("omega", 1.0, "lie in (0, 1]", lambda x: (x <= 0) | (x > 1)),
    ("true_quality", None, None, None),
    ("rating_noise", None, "be positive", lambda x: x <= 0),
    ("lambda", None, "lie strictly in (0, 1)", lambda x: (x <= 0) | (x >= 1)),
)
_KEYS = frozenset(_REQUIRED_KEYS + tuple(key for key, *_ in _OPTIONAL_RANGES))


def _product_columns(raw: list) -> CatalogColumns:
    """Check the product entries column by column and keep the columns.

    ``rules`` lists each check as a row mask (None when no row breaks it)
    and a message, in the order the checks apply to one entry.  A document
    that breaks any of them is rejected for its first faulty entry and that
    entry's first broken rule, so a mask may hold anything in a row that an
    earlier rule rejects.
    """
    n = len(raw)
    if set(map(type, raw)) <= {dict}:
        entries, not_object = raw, None
    else:
        entries = [e if type(e) is dict else {} for e in raw]
        not_object = np.array([type(e) is not dict for e in raw], dtype=bool)
    keys = set().union(*entries)
    unknown = None
    if not keys <= _KEYS:
        unknown = np.array([not _KEYS.issuperset(e) for e in entries], dtype=bool)

    id_column = _Column(entries, "id", None)
    ids = id_column.values
    bad_id, names = None, ids
    if not (id_column.kinds <= {str} and all(ids)):
        bad_id = np.array([type(v) is not str or not v for v in ids], dtype=bool)
        names = [v if not bad else "" for v, bad in zip(ids, bad_id.tolist())]
    duplicate = None
    if len(set(names)) < n:
        # Each id's first row: zipping in reverse lets the earliest row win.
        first = dict(zip(reversed(names), range(n - 1, -1, -1)))
        rows = np.fromiter(map(first.__getitem__, names), dtype=np.intp, count=n)
        duplicate = rows != np.arange(n)
    required = {key: _Column(entries, key) for key in _REQUIRED_KEYS[1:]}
    absent = [c.holds(_MISSING) for c in required.values() if _Missing in c.kinds]
    missing = np.logical_or.reduce(absent) if absent else None
    price = required["price"].floats()
    reviews, not_int, out_of_range = required["reviews"].counts()
    rating = required["avg_rating"].floats()

    def fault(text):
        return lambda i: f"product {ids[i]!r}: {text(i)}"

    def not_finite(key: str):
        return fault(lambda i: f"{key} must be a finite number, got {entries[i][key]!r}")

    def outside(key: str, rule: str, values: np.ndarray):
        return fault(lambda i: f"{key} must {rule}, got {values[i].item()}")

    def first_missing(i: int) -> str:
        return next(key for key in _REQUIRED_KEYS if key not in entries[i])

    def reviews_of(i: int):
        return entries[i]["reviews"]

    rules = [
        (not_object, lambda i: f"product entries must be objects, got {raw[i]!r}"),
        (bad_id, lambda i: f"product id must be a nonempty string, got {ids[i]!r}"),
        (missing, fault(lambda i: f"missing required key {first_missing(i)!r}")),
        (unknown, fault(lambda i: f"unknown keys {sorted(set(entries[i]) - _KEYS)}")),
        (duplicate, lambda i: f"duplicate product id {ids[i]!r}"),
        (~np.isfinite(price), not_finite("price")),
        (price < 0, outside("price", "be nonnegative", price)),
        (not_int, fault(lambda i: f"reviews must be an integer, got {reviews_of(i)!r}")),
        (out_of_range, fault(lambda i: f"reviews must lie in [0, 2**63), got {reviews_of(i)}")),
        (~np.isfinite(rating), not_finite("avg_rating")),
        ((reviews == 0) & (rating != 0), outside("avg_rating", "be 0 when reviews is 0", rating)),
    ]
    optional = {}
    for key, fill, rule, breaks in _OPTIONAL_RANGES:
        if key not in keys:
            optional[key] = _read_only(np.full(n, np.nan if fill is None else fill)), None
            continue
        column = _Column(entries, key, fill)
        values = column.floats()
        given = ~column.holds(None) if fill is None else np.ones(n, dtype=bool)
        optional[key] = values, given
        rules.append((given & ~np.isfinite(values), not_finite(key)))
        if breaks is not None:
            rules.append((given & breaks(values), outside(key, rule, values)))
    masks = [mask for mask, _ in rules if mask is not None]
    faulty = np.logical_or.reduce(masks)
    if faulty.any():
        row = int(faulty.argmax())
        raise CatalogError(
            next(message(row) for mask, message in rules if mask is not None and mask[row])
        )
    demand, has_demand = optional["lambda"]
    demand = np.zeros(n) if has_demand is None else np.where(has_demand, demand, 0.0)
    return CatalogColumns(
        tuple(ids), price, reviews, rating, optional["omega"][0],
        optional["true_quality"][0], optional["rating_noise"][0], _read_only(demand),
    )


def load_catalog(source: bytes | str) -> Catalog:
    """Parse and validate a catalog document, applying field defaults.

    Raises CatalogError on malformed documents, duplicate ids, numbers that
    are not finite (NaN, infinities, integers beyond float range), negative
    prices, review counts outside [0, 2**63), nonzero ratings with zero
    reviews, shares outside (0, 1], or demand overrides outside (0, 1).
    The products are checked as columns; the returned catalog builds its
    ``Product`` objects only when they are asked for.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"malformed catalog document: {exc}") from exc
    except RecursionError:
        raise CatalogError("malformed catalog document: nested too deeply") from None
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

    return Catalog._from_columns(_product_columns(raw_products), display_scale)


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
