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
from itertools import repeat
from numbers import Real
from operator import is_
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


# Review counts are ranked as an int64 column, so they must fit one.
MAX_REVIEWS = 2**63


class CatalogError(ValueError):
    """A catalog document could not be accepted."""


def require_int(name: str, value, least: int | None = None) -> None:
    """Refuse a value that is not an int (a bool too: a flag is never read as 1),
    or one below ``least``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def require_number(name: str, value) -> None:
    """Refuse a value that is not a real number a float can hold (a bool too: a flag is never 1)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int) and _finite(value) is None:  # such as 10**400
        raise ValueError(f"{name} must be a finite number, got {value!r}")


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
        for name in ("prior_mean", "prior_var", "noise_var"):
            require_number(name, value := getattr(self, name))
            object.__setattr__(self, name, float(value))  # an int reads as the float it names
        if not math.isfinite(self.prior_mean):
            raise ValueError(f"prior_mean must be finite, got {self.prior_mean}")
        for name in ("prior_var", "noise_var"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        # An infinite ratio would make an unreviewed product's posterior inf * 0.
        if not math.isfinite(self.precision_ratio):
            raise ValueError(
                f"prior_var / noise_var must be finite, got {self.prior_var} / {self.noise_var}"
            )

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


@dataclass(frozen=True, init=False)
class Catalog:
    """Immutable ordered universe of products.

    A catalog has its products as ``Product`` objects and as
    ``CatalogColumns``.  One from ``load_catalog`` starts from its checked
    columns and builds ``products`` on first access; one built from products
    derives its columns on first access.  Either is built at most once.
    """

    # Each of products and columns is set at construction or built from the other.
    products: tuple[Product, ...] = cached_property(lambda self: self.columns.products())
    display_scale: tuple[float, float] | None = None

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

    @cached_property
    def columns(self) -> CatalogColumns:
        """Refuses an id listed twice: every engine operation reads the columns first."""
        columns = CatalogColumns.from_products(self.products)
        last = {pid: row for row, pid in enumerate(columns.ids)}
        if len(last) != self.universe_size:
            pid = next(pid for row, pid in enumerate(columns.ids) if last[pid] != row)
            raise ValueError(f"catalog lists product id {pid!r} more than once")
        return columns

    @cached_property
    def by_id(self) -> dict[str, Product]:
        return {p.id: p for p in self.products}

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {product_id: row for row, product_id in enumerate(self.columns.ids)}

    def row(self, product_id: str) -> int:
        """The product's row in ``columns``."""
        try:
            return self._rows[product_id]
        except KeyError:
            raise KeyError(f"unknown product id {product_id!r}") from None

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


_MISSING = object()  # stands in for a key an entry lacks
_REQUIRED_KEYS = ("id", "price", "reviews", "avg_rating")
# The number keys in check order: what an absent one stands for (a required
# key is missing, omega defaults to 1.0 and the others are absent), and the
# closed range [low, high] a given value must lie in, where an open end at 0
# is the least positive float and one at 1 the float below 1.  ``_LOW`` and
# ``_HIGH`` hold an infinite end as the largest float, so no NaN or infinity
# lies in a range.  A null omega is rejected; any other null optional value
# counts as absent.
_NUMBER_KEYS = {
    "price": (_MISSING, 0.0, math.inf),
    "avg_rating": (_MISSING, -math.inf, math.inf),
    "omega": (1.0, 5e-324, 1.0),
    "true_quality": (None, -math.inf, math.inf),
    "rating_noise": (None, 5e-324, math.inf),
    "lambda": (None, 5e-324, math.nextafter(1.0, 0.0)),
}
_LOW, _HIGH = (np.nan_to_num([[bounds[end]] for bounds in _NUMBER_KEYS.values()]) for end in (1, 2))
_KEYS = frozenset((*_REQUIRED_KEYS, *_NUMBER_KEYS))
_FLOAT_KINDS = frozenset((int, float, type(None)))


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


def _number_matrix(numbers: list[tuple[list, set]], n: int) -> np.ndarray:
    """The number columns as one float64 matrix, NaN wherever a value is not a finite number.

    numpy converts an int exactly as ``float(int)`` does and None to NaN (slowly, so an
    all-None column is left NaN); an int beyond float range raises OverflowError, and
    that column is then converted value by value.
    """
    matrix = np.full((len(numbers), n), np.nan)
    for row, (values, kinds) in zip(matrix, numbers):
        if kinds == {type(None)}:
            continue
        if kinds <= _FLOAT_KINDS:
            try:
                row[:] = values
                continue
            except OverflowError:
                pass
        row[:] = list(map(_finite, values))
    return matrix


def _review_counts(values: list, kinds: set) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The values as int64 review counts, with the masks of non-integers
    (None when there is none) and of integers outside [0, 2**63)."""
    if kinds <= {int}:
        try:
            counts = np.array(values, dtype=np.int64)
            return _read_only(counts), None, counts < 0
        except OverflowError:
            pass
    is_int = np.array([type(v) is int for v in values], dtype=bool)
    fits = [bool(ok) and 0 <= v < MAX_REVIEWS for v, ok in zip(values, is_int)]
    counts = np.array([v if ok else 0 for v, ok in zip(values, fits)], dtype=np.int64)
    return _read_only(counts), ~is_int, is_int & ~np.array(fits, dtype=bool)


def _product_columns(raw: list) -> tuple[CatalogColumns, Iterator[str]]:
    """Check the product entries column by column: the columns, and the faults.

    Unless the kind sets and a few whole-matrix tests prove every entry clean,
    ``rules`` lists each check as a row mask (None when no row breaks it) and
    a message, in the order the checks apply to one entry.  A faulty entry
    yields its first broken rule's message, in listing order; the columns are
    then meaningless, and so is a later rule's mask in a faulted row.
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

    def column(key: str, fill=_MISSING) -> tuple[list, set]:
        """The key's values, ``fill`` where an entry lacks it, and their types."""
        if key not in keys:
            return [fill] * n, {type(fill)}
        values = list(map(dict.get, entries, repeat(key), repeat(fill)))
        return values, set(map(type, values))

    def holds(values: list, kinds: set, marker) -> np.ndarray | None:
        """Mask of the rows whose value is ``marker`` (None when there is none)."""
        if type(marker) not in kinds:
            return None
        return np.fromiter(map(is_, values, repeat(marker)), dtype=bool, count=n)

    ids, id_kinds = column("id", None)
    bad_id, names = None, ids
    if not (id_kinds <= {str} and all(ids)):
        bad_id = np.array([type(v) is not str or not v for v in ids], dtype=bool)
        names = [v if not bad else "" for v, bad in zip(ids, bad_id.tolist())]
    duplicate = None
    if len(set(names)) < n:
        # Each id's first row: zipping in reverse lets the earliest row win.
        first = dict(zip(reversed(names), range(n - 1, -1, -1)))
        rows = np.fromiter(map(first.__getitem__, names), dtype=np.intp, count=n)
        duplicate = rows != np.arange(n)
    numbers = [column(key, fill) for key, (fill, _, _) in _NUMBER_KEYS.items()]
    counted = column("reviews")
    absent = [holds(*c, _MISSING) for c in (numbers[0], counted, numbers[1]) if object in c[1]]
    missing = np.logical_or.reduce(absent) if absent else None
    reviews, not_int, out_of_range = _review_counts(*counted)
    matrix = _read_only(_number_matrix(numbers, n))
    price, rating, omega, quality, noise, demand = matrix
    inside = (matrix >= _LOW) & (matrix <= _HIGH)
    for row, (values, kinds) in enumerate(numbers[3:], start=3):
        if kinds == {type(None)}:
            inside[row] = True
        elif type(None) in kinds:
            inside[row] |= holds(values, kinds, None)
    pinned = _read_only(np.fmax(demand, 0.0))  # an absent demand, NaN, is 0.0
    columns = CatalogColumns(tuple(ids), price, reviews, rating, omega, quality, noise, pinned)
    if all(mask is None for mask in (not_object, bad_id, missing, unknown, duplicate, not_int)):
        if inside.all() and not (out_of_range.any() or rating[reviews == 0].any()):
            return columns, iter(())
    not_finite, outside = ~(inside | np.isfinite(matrix)), ~inside

    def first_missing(i: int) -> str:
        return next(key for key in _REQUIRED_KEYS if key not in entries[i])

    def message(row: int, text) -> str:
        """``text(row)``; a number rule's ``(key, rule, values)`` quotes ``values`` or the entry."""
        if callable(text):
            return text(row)
        key, rule, values = text
        value = entries[row][key] if values is None else values[row].item()
        return f"product {ids[row]!r}: {key} must {rule}, got {value!r}"

    rules = [
        (not_object, lambda i: f"product entries must be objects, got {raw[i]!r}"),
        (bad_id, lambda i: f"product id must be a nonempty string, got {ids[i]!r}"),
        (missing, lambda i: f"product {ids[i]!r}: missing required key {first_missing(i)!r}"),
        (unknown, lambda i: f"product {ids[i]!r}: unknown keys {sorted(set(entries[i]) - _KEYS)}"),
        (duplicate, lambda i: f"duplicate product id {ids[i]!r}"),
        (not_finite[0], ("price", "be a finite number", None)),
        (outside[0], ("price", "be nonnegative", price)),
        (not_int, ("reviews", "be an integer", None)),
        (out_of_range, ("reviews", "lie in [0, 2**63)", None)),
        (not_finite[1], ("avg_rating", "be a finite number", None)),
        ((reviews == 0) & (rating != 0), ("avg_rating", "be 0 when reviews is 0", rating)),
        (not_finite[2], ("omega", "be a finite number", None)),
        (outside[2], ("omega", "lie in (0, 1]", omega)),
        (not_finite[3], ("true_quality", "be a finite number", None)),
        (not_finite[4], ("rating_noise", "be a finite number", None)),
        (outside[4], ("rating_noise", "be positive", noise)),
        (not_finite[5], ("lambda", "be a finite number", None)),
        (outside[5], ("lambda", "lie strictly in (0, 1)", demand)),
    ]
    faulty = np.logical_or.reduce([mask for mask, _ in rules if mask is not None])
    faults = (
        next(message(row, text) for mask, text in rules if mask is not None and mask[row])
        for row in faulty.nonzero()[0].tolist()
    )
    return columns, faults


def _display_scale(scale) -> tuple[float, float] | None:
    """The document's ``display_scale`` (None if absent) as a finite [low, high] pair."""
    if scale is None:
        return None
    numbers = [_finite(v) for v in scale] if isinstance(scale, list) else []
    if len(numbers) != 2 or None in numbers:
        raise CatalogError("'display_scale' must be a [low, high] finite number pair")
    return numbers[0], numbers[1]


def load_catalog(source: bytes | str) -> Catalog:
    """Parse and validate a catalog document, applying field defaults.

    Raises CatalogError on malformed documents, duplicate ids, numbers that
    are not finite (NaN, infinities, integers beyond float range), negative
    prices, review counts outside [0, 2**63), nonzero ratings with zero
    reviews, shares outside (0, 1], or demand overrides outside (0, 1).
    The products are checked as columns; the returned catalog builds its
    ``Product`` objects only when they are asked for.
    """
    try:
        doc = json.loads(source.decode("utf-8") if isinstance(source, bytes) else source)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CatalogError(f"malformed catalog document: {exc}") from exc
    except RecursionError:
        raise CatalogError("malformed catalog document: nested too deeply") from None
    if not isinstance(doc, dict) or "products" not in doc:
        raise CatalogError("catalog document must be an object with a 'products' array")
    if unknown := doc.keys() - {"products", "display_scale"}:
        raise CatalogError(f"catalog document: unknown keys {sorted(unknown)}")
    raw_products = doc["products"]
    if not isinstance(raw_products, list):
        raise CatalogError("'products' must be an array")
    display_scale = _display_scale(doc.get("display_scale"))
    columns, faults = _product_columns(raw_products)
    fault = next(faults, None)
    if fault is not None:
        raise CatalogError(fault)
    return Catalog._from_columns(columns, display_scale)


def _plain(value):
    """A numpy scalar as the Python value it holds (json writes no numpy integer)."""
    return value.item() if isinstance(value, np.generic) else value


def _entry(p: Product) -> dict:
    """The product's document entry; an optional value of None is left out."""
    entry = {
        "id": p.id, "price": p.price, "reviews": p.review_count, "avg_rating": p.avg_rating,
        "omega": p.revenue_share, "true_quality": p.true_quality,
        "rating_noise": p.rating_noise, "lambda": p.demand_override,
    }
    for key in ("true_quality", "rating_noise", "lambda"):
        if entry[key] is None:
            del entry[key]
    return {key: _plain(value) for key, value in entry.items()}


def _document(catalog: Catalog) -> dict:
    doc: dict = {"products": list(map(_entry, catalog.products))}
    if catalog.display_scale is not None:
        doc["display_scale"] = list(map(_plain, catalog.display_scale))
    return doc


def serialize_catalog(catalog: Catalog) -> str:
    """Render a catalog back to its document form (inverse of load_catalog)."""
    return json.dumps(_document(catalog), indent=2)


def validate_catalog(catalog: Catalog) -> list[str]:
    """What ``load_catalog`` would reject in the catalog's document; [] if nothing.

    Violations are data, not failures.  The display-scale message comes
    first if there is one, then, for each faulty product in listing order,
    the message ``load_catalog`` raises for it: its first broken rule.
    """
    doc = _document(catalog)
    try:
        _display_scale(doc.get("display_scale"))
        violations = []
    except CatalogError as exc:
        violations = [str(exc)]
    return violations + list(_product_columns(doc["products"])[1])


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
